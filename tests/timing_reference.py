"""Object-model timing reference for the lane kernel.

A per-instruction loop over ``repro.arch``'s cache, predictor, store
buffer, region boundary buffer, CLQ and colour-map objects. It shares
no state layout with the flattened kernel in
:mod:`repro.runtime.multisim`, which is the production timing model;
``tests/test_multisim_parity.py`` requires every lane to match it field
for field (full :class:`~repro.arch.stats.SimStats` equality).
"""

from __future__ import annotations

from repro.arch.branch import BimodalPredictor
from repro.arch.cache import MemoryHierarchy
from repro.arch.clq import BaseCLQ, make_clq
from repro.arch.coloring import QUARANTINE, ColorMaps
from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.rbb import RegionBoundaryBuffer
from repro.arch.stats import SimStats
from repro.arch.store_buffer import TimingStoreBuffer
from repro.runtime import trace as tr


class ReferenceCore:
    """One simulated core; call :meth:`run` once per trace."""

    def __init__(
        self,
        core: CoreConfig,
        resilience: ResilienceHardwareConfig,
    ):
        self.core = core
        self.res = resilience
        self.hierarchy = MemoryHierarchy(core.l1d, core.l2, core.memory_latency)
        self.predictor = BimodalPredictor()
        sb_capacity = resilience.sb_size if resilience.enabled else 8
        self.sb = TimingStoreBuffer(sb_capacity)
        self.rbb = RegionBoundaryBuffer(wcdl=float(resilience.wcdl))
        self.clq: BaseCLQ | None = None
        if resilience.enabled and resilience.clq_enabled:
            self.clq = make_clq(
                resilience.clq_kind,
                resilience.clq_size,
                recycle=resilience.clq_recycling,
            )
        self.coloring = ColorMaps(num_colors=resilience.num_colors)

    def run(self, trace: list[tuple]) -> SimStats:
        stats = SimStats()
        core = self.core
        res = self.res
        resilient = res.enabled
        clq = self.clq
        coloring = self.coloring if (resilient and res.coloring_enabled) else None
        rbb = self.rbb
        sb = self.sb
        hierarchy = self.hierarchy
        predictor = self.predictor
        wcdl = float(res.wcdl)

        width = core.issue_width
        alu_lat = core.alu_latency
        mul_lat = core.mul_latency
        div_lat = core.div_latency
        mispredict = core.mispredict_penalty
        commit_lat = core.store_commit_latency
        baseline_drain = core.baseline_drain_latency

        reg_ready = [0.0] * 2048
        cycle = 0.0  # issue cycle of the previous instruction
        issued_here = 0  # instructions issued at `cycle`
        last_mem_cycle = -1.0
        seq_floor = 0.0  # earliest fetch after a mispredicted branch
        final = 0.0

        K_LD, K_ST, K_CKPT, K_BR, K_BOUNDARY, K_RET = (
            tr.K_LD,
            tr.K_ST,
            tr.K_CKPT,
            tr.K_BR,
            tr.K_BOUNDARY,
            tr.K_RET,
        )
        K_ALU, K_MUL, K_DIV = tr.K_ALU, tr.K_MUL, tr.K_DIV

        def issue_slot(candidate: float) -> float:
            """Account for 2-wide in-order issue; returns the issue cycle."""
            nonlocal cycle, issued_here
            t = candidate if candidate > cycle else cycle
            if t == cycle:
                if issued_here >= width:
                    t += 1.0
                    issued_here = 1
                else:
                    issued_here += 1
            else:
                issued_here = 1
            cycle = t
            return t

        def sync_regions(now: float) -> None:
            for inst in rbb.due_verifications(now):
                if coloring is not None:
                    coloring.verify(inst.instance)
                if clq is not None:
                    clq.retire_region(inst.instance)

        for entry in trace:
            kind = entry[0]

            if kind == K_BOUNDARY:
                if resilient:
                    closing = rbb.current
                    now = cycle
                    if closing is not None:
                        sb.set_instance_release(closing.instance, now + wcdl)
                    new_inst = rbb.open_region(entry[5], now)
                    stats.regions += 1
                    if clq is not None:
                        sync_regions(now)
                        clq.begin_region(
                            new_inst.instance,
                            prior_verified=rbb.all_prior_verified(),
                        )
                continue

            stats.instructions += 1
            seq = seq_floor
            src1 = entry[2]
            src2 = entry[3]
            ready = 0.0
            if src1 >= 0:
                ready = reg_ready[src1]
            if src2 >= 0 and reg_ready[src2] > ready:
                ready = reg_ready[src2]

            base_candidate = seq if seq > cycle else cycle
            if ready > base_candidate:
                stats.data_stall_cycles += ready - base_candidate

            candidate = ready if ready > seq else seq

            if kind == K_ALU:
                t = issue_slot(candidate)
                dest = entry[1]
                if dest >= 0:
                    reg_ready[dest] = t + alu_lat
                if t + alu_lat > final:
                    final = t + alu_lat
                continue

            if kind == K_LD:
                if candidate <= last_mem_cycle:
                    candidate = last_mem_cycle + 1
                t = issue_slot(candidate)
                last_mem_cycle = t
                latency = hierarchy.load_latency(entry[4])
                dest = entry[1]
                if dest >= 0:
                    reg_ready[dest] = t + latency
                if t + latency > final:
                    final = t + latency
                if resilient and clq is not None and rbb.current is not None:
                    clq.record_load(rbb.current.instance, entry[4])
                continue

            if kind == K_ST or kind == K_CKPT:
                if candidate <= last_mem_cycle:
                    candidate = last_mem_cycle + 1
                t = issue_slot(candidate)
                last_mem_cycle = t
                commit = t + commit_lat
                if kind == K_ST:
                    stats.stores_total += 1
                    if entry[6] == 1:
                        stats.spill_stores += 1
                    else:
                        stats.app_stores += 1
                else:
                    stats.checkpoints_total += 1

                if not resilient:
                    alloc, _ = sb.allocation_time(commit)
                    if alloc > commit:
                        stats.sb_stall_cycles += alloc - commit
                        cycle = alloc
                        issued_here = 1
                    sb.push(alloc + baseline_drain, 0)
                    hierarchy.store_touch(entry[4])
                    if alloc + baseline_drain > final:
                        final = alloc + baseline_drain
                    continue

                sync_regions(commit)
                inst = rbb.current
                instance = inst.instance if inst is not None else 0

                released_fast = False
                if kind == K_ST:
                    if (
                        clq is not None
                        and not clq.store_has_war(instance, entry[4])
                        and not sb.has_pending_address(entry[4], commit)
                    ):
                        released_fast = True
                        stats.warfree_released += 1
                        hierarchy.store_touch(entry[4])
                else:
                    if coloring is not None:
                        color = coloring.assign(instance, entry[2])
                        if color != QUARANTINE:
                            released_fast = True
                            stats.colored_released += 1

                if not released_fast:
                    stats.quarantined += 1
                    alloc, stalled_open = sb.allocation_time(commit)
                    if stalled_open:
                        # Safety valve: hardware force-closes the region so
                        # the oldest entries obtain release times (the
                        # compiler's store cap makes this path cold).
                        stats.forced_region_closures += 1
                        sb.set_instance_release(instance, commit + wcdl)
                        alloc, _ = sb.allocation_time(commit)
                    if alloc > commit:
                        stats.sb_stall_cycles += alloc - commit
                        cycle = alloc
                        issued_here = 1
                    sb.push(float("inf"), instance, entry[4] if kind == K_ST else -1)
                    if kind == K_ST:
                        hierarchy.store_touch(entry[4])
                if commit > final:
                    final = commit
                continue

            if kind == K_BR:
                t = issue_slot(candidate)
                resolve = t + 1
                aux = entry[6]
                if aux & 4:
                    # Unconditional jump: the front end follows it directly.
                    seq_floor = 0.0
                else:
                    taken = bool(aux & 1)
                    correct = predictor.predict_and_update(entry[4], taken)
                    if not correct:
                        seq_floor = resolve + mispredict
                        stats.branch_stall_cycles += mispredict
                        stats.branch_mispredictions += 1
                    else:
                        seq_floor = 0.0
                if resolve > final:
                    final = resolve
                continue

            if kind == K_RET:
                t = issue_slot(candidate)
                if t + 1 > final:
                    final = t + 1
                continue

            if kind == K_MUL:
                lat = mul_lat
            elif kind == K_DIV:
                lat = div_lat
            else:
                lat = alu_lat
            t = issue_slot(candidate)
            dest = entry[1]
            if dest >= 0:
                reg_ready[dest] = t + lat
            if t + lat > final:
                final = t + lat

        stats.cycles = final if final > cycle else cycle
        stats.cache = hierarchy.stats()
        if self.clq is not None:
            stats.clq_occupancy_avg = self.clq.stats.occupancy_avg
            stats.clq_occupancy_max = self.clq.stats.occupancy_max
        return stats
