"""Tests for the program printer and the command-line interface."""

import pytest

from repro.isa.pretty import format_instruction, format_program, summarize_program
from repro.__main__ import main as cli_main

from helpers import build_sum_loop


class TestPretty:
    def test_format_program_contains_blocks(self, sum_loop):
        text = format_program(sum_loop)
        assert "entry:" in text and "loop:" in text and "done:" in text

    def test_format_program_live_in(self, diamond):
        text = format_program(diamond)
        assert "live-in" in text

    def test_region_annotations_rendered(self):
        from repro.compiler.regions import partition_regions

        prog = build_sum_loop(trip=3)
        partition_regions(prog, max_stores=2)
        text = format_program(prog)
        assert "region boundary" in text
        assert "; R" in text

    def test_format_instruction_store_kind(self):
        from repro.isa import instructions as ins
        from repro.isa.registers import Reg

        st = ins.store(Reg.phys(1), Reg.phys(2), kind=ins.StoreKind.SPILL)
        st.region_id = 5
        text = format_instruction(st)
        assert "spill" in text and "R5" in text

    def test_summarize_counts(self, sum_loop):
        summary = summarize_program(sum_loop)
        assert summary["instructions"] == sum_loop.num_instructions
        assert summary["stores"] == 2
        assert summary["branches"] == 1
        assert summary["bytes"] == sum_loop.static_size_bytes


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CPU2006.mcf" in out and "SPLASH3.radix" in out

    def test_run_turnpike(self, capsys):
        assert cli_main(["run", "CPU2006.xalan", "--wcdl", "10"]) == 0
        out = capsys.readouterr().out
        assert "normalized time" in out
        assert "WAR-free released" in out

    def test_run_baseline_scheme(self, capsys):
        assert cli_main(["run", "CPU2006.xalan", "--scheme", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "normalized time:  1.000" in out

    def test_inject(self, capsys):
        assert (
            cli_main(["inject", "CPU2006.bzip2", "--count", "4", "--seed", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "turnstile" in out and "unsafe" in out

    def test_sensors(self, capsys):
        assert cli_main(["sensors"]) == 0
        out = capsys.readouterr().out
        assert "sensors" in out and "%" in out

    def test_figure_table1(self, capsys):
        assert cli_main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "621.28" in out

    def test_figure_fig18(self, capsys):
        assert cli_main(["figure", "fig18"]) == 0
        out = capsys.readouterr().out
        assert "GHz" in out

    def test_figure_unknown(self, capsys):
        assert cli_main(["figure", "fig99"]) == 2

    def test_figure_prints_what_sweep_prints(self, capsys):
        assert cli_main(["sweep", "FIG18", "table1"]) == 0
        swept = capsys.readouterr().out
        assert cli_main(["figure", "fig18,table1"]) == 0
        # Less the sweep's timing line.
        assert capsys.readouterr().out == swept[: swept.rindex("swept ")]

    def test_unknown_command_exits(self):
        assert cli_main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "CPU2006.mcf", "--sb", "0"], "--sb: expected >= 1"),
            (["run", "CPU2006.mcf", "--wcdl", "0"], "--wcdl: expected >= 1"),
            (["run", "NOPE.nope"], "unknown benchmark uid 'NOPE.nope'"),
            (["lint", "CPU2006.mcf", "--sb", "0"], "--sb: expected >= 1"),
            (["vuln", "CPU2006.mcf", "--wcdl", "0"], "--wcdl: expected >= 1"),
            (["sweep", "fig99"], "unknown figure id(s): fig99"),
        ],
        ids=["run-sb", "run-wcdl", "run-uid", "lint-sb", "vuln-wcdl", "sweep"],
    )
    def test_values_the_service_rejects_exit_2(self, argv, message, capsys):
        assert cli_main(argv) == 2
        assert message in capsys.readouterr().err


#: Every subcommand; a flag given in one call is omitted in the next.
PARSES = [
    ["list"],
    ["run", "CPU2006.mcf", "--wcdl", "30", "--sb", "8",
     "--scheme", "turnstile"],
    ["run", "CPU2006.mcf"],
    ["inject", "CPU2006.bzip2", "--count", "4", "--manifest", "m.json",
     "--resume", "--accel", "off"],
    ["inject"],
    ["vuln", "SPLASH3.radix", "--format", "json", "--no-cache"],
    ["vuln", "--validate"],
    ["lint", "--all", "--strict", "--workers", "2"],
    ["lint", "CPU2006.mcf"],
    ["figure", "fig19"],
    ["sweep", "fig19", "fig20", "--benchmarks", "CPU2006.mcf", "--json"],
    ["sweep"],
    ["ecc", "--pareto", "--codes", "sec,secded"],
    ["ecc"],
    ["cache", "info", "--list", "--json"],
    ["cache", "prune"],
    ["sensors", "--clock", "3.0"],
    ["sensors"],
    ["serve", "--port", "0", "--workers", "1", "--job-timeout", "5"],
    ["serve"],
    ["submit", "run", "CPU2006.mcf", "--wcdl", "50", "--wait"],
    ["submit", "run", "CPU2006.mcf"],
    ["submit", "lint", "CPU2006.mcf", "--priority", "3"],
    ["jobs", "--json", "--mine"],
    ["jobs"],
    ["result", "abc123", "--wait"],
    ["result", "abc123"],
]


class TestSharedParser:
    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        import repro.__main__ as cli

        builds = []
        real = cli.build_parser

        def counted():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        assert cli_main(["list"]) == 0
        assert cli_main(["sensors"]) == 0
        assert len(builds) == 1

    def test_reused_parser_parses_like_a_fresh_one(self):
        from repro.__main__ import _parser, build_parser

        shared = _parser()
        for argv in PARSES:
            assert shared.parse_args(argv) == build_parser().parse_args(argv)
