"""Journal edge cases: torn writes at the compaction boundary,
compaction racing a concurrent appender, forward-compat skip of
newer-schema events, and stale-endpoint detection."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.service.jobs import JobRecord, JobSpec, JobState, job_key
from repro.service.journal import (
    SCHEMA_VERSION,
    Journal,
    pid_alive,
)

UID = "CPU2006.gcc"


def make_record(job_id: str = "j-1", uid: str = UID) -> JobRecord:
    spec = JobSpec.create("run", {"uid": uid})
    return JobRecord(id=job_id, spec=spec, key=job_key(spec), client="t")


class TestTornWrites:
    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = Journal(tmp_path)
        journal.record_submit(make_record("j-1"))
        journal.record_submit(make_record("j-2", uid="CPU2006.mcf"))
        journal.close()
        # Simulate kill -9 mid-append: truncate inside the last line.
        raw = journal.log_path.read_bytes()
        journal.log_path.write_bytes(raw[: len(raw) - 17])

        jobs = Journal(tmp_path).replay()
        assert set(jobs) == {"j-1"}

    def test_torn_line_at_compaction_boundary(self, tmp_path):
        """Crash half-way through an append, then compact: the torn tail
        must neither survive compaction nor corrupt the rewritten log."""
        journal = Journal(tmp_path)
        journal.record_submit(make_record("j-1"))
        journal.close()
        with open(journal.log_path, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "submit", "job": {"id": "j-2", "ki')  # no \n

        survivor = Journal(tmp_path)
        jobs = survivor.replay()
        assert set(jobs) == {"j-1"}
        survivor.compact(jobs)

        # The compacted log is fully well-formed JSONL again.
        lines = survivor.log_path.read_text().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["ev"] == "submit" and event["job"]["id"] == "j-1"
        assert event["v"] == SCHEMA_VERSION
        # And a post-compaction append lands on a clean boundary.
        survivor.record_state(jobs["j-1"])
        replayed = Journal(tmp_path).replay()
        assert set(replayed) == {"j-1"}

    def test_garbage_and_blank_lines_skipped(self, tmp_path):
        journal = Journal(tmp_path)
        journal.record_submit(make_record("j-1"))
        journal.close()
        with open(journal.log_path, "a", encoding="utf-8") as fh:
            fh.write("\n")
            fh.write("not json at all\n")
            fh.write('"a bare string, not an object"\n')
            fh.write('{"ev": "state", "id": "ghost", "state": "done"}\n')
        jobs = Journal(tmp_path).replay()
        assert set(jobs) == {"j-1"}
        assert jobs["j-1"].state is JobState.QUEUED


class TestCompactionRace:
    def test_compaction_racing_concurrent_append(self, tmp_path):
        """Two handles on one journal: B compacts while A still holds an
        open append handle. A's post-compaction write goes to the
        orphaned inode (an accepted, bounded loss — one state event),
        but the log itself must stay well-formed and replayable."""
        writer = Journal(tmp_path)
        record = make_record("j-1")
        writer.record_submit(record)

        compactor = Journal(tmp_path)
        jobs = compactor.replay()
        compactor.compact(jobs)

        # Racing append through the stale pre-compaction handle.
        record.state = JobState.RUNNING
        writer.record_state(record)

        replayed = Journal(tmp_path).replay()
        assert set(replayed) == {"j-1"}
        # The stale-handle write is lost, never interleaved as garbage:
        for line in compactor.log_path.read_text().splitlines():
            json.loads(line)

    def test_append_after_compaction_with_fresh_handle(self, tmp_path):
        """A journal that compacts its *own* log reopens the new inode,
        so subsequent appends are durable."""
        journal = Journal(tmp_path)
        record = make_record("j-1")
        journal.record_submit(record)
        journal.compact({record.id: record})

        record.state = JobState.DONE
        journal.record_state(record)
        journal.close()

        replayed = Journal(tmp_path).replay()
        assert replayed["j-1"].state is JobState.DONE


class TestForwardCompat:
    def test_newer_schema_version_events_are_skipped(self, tmp_path):
        journal = Journal(tmp_path)
        record = make_record("j-1")
        journal.record_submit(record)
        # A submit and a state event stamped by a hypothetical newer
        # server generation: invisible, not misparsed.
        journal.append(
            {
                "ev": "submit",
                "v": SCHEMA_VERSION + 1,
                "job": {"id": "j-future", "shape": "unknowable"},
            }
        )
        journal.append(
            {
                "ev": "state",
                "v": SCHEMA_VERSION + 1,
                "id": "j-1",
                "state": "paused",  # not a valid JobState today
            }
        )
        journal.close()

        jobs = Journal(tmp_path).replay()
        assert set(jobs) == {"j-1"}
        assert jobs["j-1"].state is JobState.QUEUED

    def test_compaction_keeps_the_events_replay_skips(self, tmp_path):
        """A newer generation's submit and a state event about no known
        job survive compaction verbatim and in order; garbage and a torn
        tail do not."""
        journal = Journal(tmp_path)
        journal.record_submit(make_record("j-1"))
        journal.append(
            {"ev": "submit", "v": SCHEMA_VERSION + 1, "job": {"id": "j-new"}}
        )
        journal.append({"ev": "state", "id": "ghost", "state": "done"})
        journal.close()
        with open(journal.log_path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('{"ev": "submit", "job": {"id": "j-2", "ki')  # no \n
        kept = journal.log_path.read_text().splitlines()[1:3]

        survivor = Journal(tmp_path)
        jobs = survivor.replay()
        assert set(jobs) == {"j-1"}
        assert survivor.skipped == kept
        survivor.compact(jobs)
        lines = survivor.log_path.read_text().splitlines()
        assert json.loads(lines[0])["job"]["id"] == "j-1"
        assert lines[1:] == kept

    def test_current_version_is_stamped_on_append(self, tmp_path):
        journal = Journal(tmp_path)
        journal.record_submit(make_record("j-1"))
        journal.close()
        event = json.loads(journal.log_path.read_text().splitlines()[0])
        assert event["v"] == SCHEMA_VERSION

    def test_unversioned_legacy_events_still_replay(self, tmp_path):
        journal = Journal(tmp_path)
        record = make_record("j-1")
        with open(journal.log_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"ev": "submit", "job": record.to_dict()}))
            fh.write("\n")
        jobs = journal.replay()
        assert set(jobs) == {"j-1"}


class TestEndpointStaleness:
    def test_pid_alive(self):
        assert pid_alive(os.getpid())
        assert not pid_alive(-1)
        assert not pid_alive(0)
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        assert not pid_alive(proc.pid)

    def test_status_transitions(self, tmp_path):
        journal = Journal(tmp_path)
        assert journal.endpoint_status() == "absent"

        journal.write_endpoint("127.0.0.1", 4242)
        assert journal.endpoint_status() == "live"
        assert journal.read_endpoint() == ("127.0.0.1", 4242)
        assert journal.read_endpoint_pid() == os.getpid()

        # Endpoint file without a PID record: a pre-PID generation.
        journal.server_pid_path.unlink()
        assert journal.endpoint_status() == "unknown"

        # PID record pointing at a provably dead process: the kill -9
        # signature.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        journal.write_endpoint("127.0.0.1", 4242, pid=proc.pid)
        assert journal.endpoint_status() == "stale"

        journal.clear_endpoint()
        assert journal.endpoint_status() == "absent"
        assert not journal.server_pid_path.exists()

    def test_endpoint_file_format_is_bare_host_port(self, tmp_path):
        """Scripts `$(cat)` the endpoint file; the PID must live in the
        sibling file, never inline."""
        journal = Journal(tmp_path)
        journal.write_endpoint("localhost", 8080)
        assert journal.endpoint_path.read_text() == "localhost:8080\n"
