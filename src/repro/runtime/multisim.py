"""The timing model: decode once, advance K timing lanes.

The trace-driven model of the in-order core interleaves two kinds of
work for every committed instruction: *shared* work whose outcome is
identical for every hardware configuration that sees the same committed
stream (data-cache hit/miss resolution, branch prediction), and
*per-lane* work that depends on the resilience configuration
(store-buffer occupancy, CLQ tracking, coloring, checkpoint/stall
accounting). A design-space sweep evaluates many hardware points
against the *same* trace, so the shared work runs once per trace and
the per-lane work once per point. A solo run
(:class:`repro.arch.core.InOrderCore`, ``RunCache.stats``, ``repro
run``) is a one-lane call.

This module splits the two:

* :func:`decode_feed` performs the shared pass once — it replays the
  exact cache/predictor state machines the object model constructs
  (:class:`~repro.arch.cache.MemoryHierarchy`,
  :class:`~repro.arch.branch.BimodalPredictor`; their update rules are
  inlined here for speed, the object model stays the reference
  semantics) and emits a pre-resolved *feed*: load latencies are final
  numbers, branch outcomes are baked into the opcode, absent operands
  are rewritten to dummy register slots. Configuration-independent
  stream totals (instruction/store/checkpoint/misprediction counts) are
  tallied once into a :data:`FeedMeta` so lanes never re-count them.
* :func:`run_lane` advances one timing lane over a feed. Store
  buffer, region boundary buffer, CLQ and coloring maps live as local
  scalars and dicts instead of objects; it is required to produce
  **byte-identical** :class:`~repro.arch.stats.SimStats` to the
  object-model reference in ``tests/timing_reference.py``, which
  composes the ``repro.arch`` structures directly (enforced by
  ``tests/test_multisim_parity.py``).
* :func:`run_lanes` is the public entry: one decode per shared-work
  group, then every lane of the group.

Soundness of the sharing: the memory-hierarchy state depends only on
the sequence of touched addresses, which is a pure function of the
trace and of whether the configuration is resilient (a resilient core
never writes checkpoints to the data cache; a baseline core does), and
the predictor state depends only on the trace. Lanes therefore group by
``(core config, resilience enabled)`` — within a group the shared pass
is replayed verbatim, across groups it is re-run.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.arch.branch import BimodalPredictor
from repro.arch.cache import MemoryHierarchy
from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.stats import SimStats
from repro.runtime import trace as tr

INF = float("inf")

# Absent source operands are rewritten to a pinned always-ready slot and
# absent destinations to a write-only scratch slot, so the lane kernel's
# operand path has no validity branches. Trace register indices are
# < 2048 (the object-model reference sizes its scoreboard accordingly).
DUMMY_SRC = 2048
DUMMY_DST = 2049
_NREGS = 2050

# Feed opcodes, ordered by typical dynamic frequency (the lane kernel
# dispatches through an if-chain in this order).
F_ALU = 0
F_BR_OK = 1  # correctly-predicted or unconditional branch
F_BR_MISS = 2  # mispredicted branch
F_BOUND = 3
F_CKPT = 4
F_LD = 5
F_ST = 6
F_RET = 7

#: One pre-resolved feed entry. Fields by opcode:
#: ALU   (op, dest, src1, src2, latency, 0)
#: BR_*  (op, src1, src2, 0, 0, 0)
#: BOUND (op, 0, 0, 0, 0, 0)
#: CKPT  (op, src1, src2, saved_reg, 0, 0)
#: LD    (op, dest, src1, src2, latency, addr)
#: ST    (op, src1, src2, addr, spill, 0)
#: RET   (op, src1, src2, 0, 0, 0)
FeedEntry = tuple[int, int, int, int, int, int]
Feed = list[FeedEntry]

#: Configuration-independent totals of one decoded stream, tallied once
#: per decode instead of once per lane:
#: (instructions, boundaries, stores, spill_stores, checkpoints,
#:  mispredictions).
FeedMeta = tuple[int, int, int, int, int, int]


def decode_feed(
    trace: list[tuple[int, int, int, int, int, int, int]],
    core: CoreConfig,
    resilient: bool,
) -> tuple[Feed, dict[str, int], FeedMeta]:
    """Shared decode pass: resolve cache latencies and branch outcomes.

    Returns the feed, the memory-hierarchy counters (identical to
    ``hierarchy.stats()`` of the object model over the same trace,
    because the access sequence is replayed verbatim: loads always
    probe, regular stores always touch, checkpoint stores touch only on
    a non-resilient core), and the stream totals (:data:`FeedMeta`).
    """
    # Construct the real objects for parameter validation and derived
    # geometry, then run their update rules inline on local state: the
    # hot loop below makes zero method calls.
    hierarchy = MemoryHierarchy(core.l1d, core.l2, core.memory_latency)
    predictor = BimodalPredictor()
    l1, l2 = hierarchy.l1, hierarchy.l2
    l1_sets, l2_sets = l1._sets, l2._sets
    l1_shift, l2_shift = l1._line_shift, l2._line_shift
    l1_nsets, l2_nsets = l1.num_sets, l2.num_sets
    l1_ways, l2_ways = l1.config.ways, l2.config.ways
    l1_lat = l1.config.hit_latency
    l12_lat = l1_lat + l2.config.hit_latency
    l123_lat = l12_lat + hierarchy.memory_latency
    l1_hits = l1_misses = l2_hits = l2_misses = 0
    table = predictor.table
    p_mask = predictor.mask

    alu_lat = core.alu_latency
    mul_lat = core.mul_latency
    div_lat = core.div_latency
    n_bound = n_st = n_spill = n_ckpt = n_miss = 0
    feed: Feed = []
    ap = feed.append
    k_alu, k_mul, k_ld, k_st, k_ckpt, k_br, k_boundary = (
        tr.K_ALU, tr.K_MUL, tr.K_LD, tr.K_ST, tr.K_CKPT, tr.K_BR,
        tr.K_BOUNDARY,
    )
    for entry in trace:
        kind = entry[0]
        if kind == k_boundary:
            ap((3, 0, 0, 0, 0, 0))
            n_bound += 1
            continue
        s1 = entry[2]
        s2 = entry[3]
        if s1 < 0:
            s1 = DUMMY_SRC
        if s2 < 0:
            s2 = DUMMY_SRC
        if kind == k_alu:
            d = entry[1]
            ap((0, d if d >= 0 else DUMMY_DST, s1, s2, alu_lat, 0))
        elif kind == k_br:
            aux = entry[6]
            if aux & 4:  # unconditional: predicts perfectly
                ap((1, s1, s2, 0, 0, 0))
            else:
                # Inline BimodalPredictor.predict_and_update.
                index = entry[4] & p_mask
                counter = table[index]
                if aux & 1:
                    if counter < 3:
                        table[index] = counter + 1
                    if counter >= 2:
                        ap((1, s1, s2, 0, 0, 0))
                    else:
                        ap((2, s1, s2, 0, 0, 0))
                        n_miss += 1
                else:
                    if counter > 0:
                        table[index] = counter - 1
                    if counter >= 2:
                        ap((2, s1, s2, 0, 0, 0))
                        n_miss += 1
                    else:
                        ap((1, s1, s2, 0, 0, 0))
        elif kind == k_ckpt:
            if not resilient:
                # Inline MemoryHierarchy.store_touch.
                addr = entry[4]
                line = addr >> l1_shift
                tags = l1_sets[line % l1_nsets]
                tag = line // l1_nsets
                if tag in tags:
                    if tags[0] != tag:
                        tags.remove(tag)
                        tags.insert(0, tag)
                    l1_hits += 1
                else:
                    l1_misses += 1
                    tags.insert(0, tag)
                    if len(tags) > l1_ways:
                        tags.pop()
                    line = addr >> l2_shift
                    tags = l2_sets[line % l2_nsets]
                    tag = line // l2_nsets
                    if tag in tags:
                        if tags[0] != tag:
                            tags.remove(tag)
                            tags.insert(0, tag)
                        l2_hits += 1
                    else:
                        l2_misses += 1
                        tags.insert(0, tag)
                        if len(tags) > l2_ways:
                            tags.pop()
            ap((4, s1, s2, entry[2], 0, 0))
            n_ckpt += 1
        elif kind == k_ld:
            # Inline MemoryHierarchy.load_latency.
            addr = entry[4]
            line = addr >> l1_shift
            tags = l1_sets[line % l1_nsets]
            tag = line // l1_nsets
            if tag in tags:
                if tags[0] != tag:
                    tags.remove(tag)
                    tags.insert(0, tag)
                l1_hits += 1
                lat = l1_lat
            else:
                l1_misses += 1
                tags.insert(0, tag)
                if len(tags) > l1_ways:
                    tags.pop()
                line = addr >> l2_shift
                tags = l2_sets[line % l2_nsets]
                tag = line // l2_nsets
                if tag in tags:
                    if tags[0] != tag:
                        tags.remove(tag)
                        tags.insert(0, tag)
                    l2_hits += 1
                    lat = l12_lat
                else:
                    l2_misses += 1
                    tags.insert(0, tag)
                    if len(tags) > l2_ways:
                        tags.pop()
                    lat = l123_lat
            d = entry[1]
            ap((5, d if d >= 0 else DUMMY_DST, s1, s2, lat, addr))
        elif kind == k_st:
            # Inline MemoryHierarchy.store_touch.
            addr = entry[4]
            line = addr >> l1_shift
            tags = l1_sets[line % l1_nsets]
            tag = line // l1_nsets
            if tag in tags:
                if tags[0] != tag:
                    tags.remove(tag)
                    tags.insert(0, tag)
                l1_hits += 1
            else:
                l1_misses += 1
                tags.insert(0, tag)
                if len(tags) > l1_ways:
                    tags.pop()
                line = addr >> l2_shift
                tags = l2_sets[line % l2_nsets]
                tag = line // l2_nsets
                if tag in tags:
                    if tags[0] != tag:
                        tags.remove(tag)
                        tags.insert(0, tag)
                    l2_hits += 1
                else:
                    l2_misses += 1
                    tags.insert(0, tag)
                    if len(tags) > l2_ways:
                        tags.pop()
            spill = entry[6]
            ap((6, s1, s2, addr, spill, 0))
            n_st += 1
            if spill == 1:
                n_spill += 1
        elif kind == tr.K_RET:
            ap((7, s1, s2, 0, 0, 0))
        else:  # K_MUL / K_DIV: ALU-class, different latency
            d = entry[1]
            ap((0, d if d >= 0 else DUMMY_DST, s1, s2,
                mul_lat if kind == k_mul else div_lat, 0))
    cache_stats = {
        "l1_hits": l1_hits,
        "l1_misses": l1_misses,
        "l2_hits": l2_hits,
        "l2_misses": l2_misses,
    }
    meta = (
        len(feed) - n_bound, n_bound, n_st, n_spill, n_ckpt, n_miss,
    )
    return feed, cache_stats, meta


def run_lanes(
    trace: list[tuple[int, int, int, int, int, int, int]],
    lanes: Sequence[tuple[CoreConfig, ResilienceHardwareConfig]],
    feeds: dict[
        tuple[CoreConfig, bool], tuple[Feed, dict[str, int], FeedMeta]
    ]
    | None = None,
) -> list[SimStats]:
    """Timing-simulate every lane of one committed stream.

    Lanes sharing ``(core, resilience.enabled)`` share one decode pass.
    ``feeds`` optionally carries decode results across calls for the
    same trace (the sweep planner reuses it between lane batches).
    """
    if feeds is None:
        feeds = {}
    out: list[SimStats] = []
    for core, res in lanes:
        group = (core, res.enabled)
        cached = feeds.get(group)
        if cached is None:
            cached = decode_feed(trace, core, res.enabled)
            feeds[group] = cached
        feed, cache_stats, meta = cached
        out.append(run_lane(feed, core, res, cache_stats, meta))
    return out


def run_lane(  # noqa: C901
    feed: Feed,
    core: CoreConfig,
    res: ResilienceHardwareConfig,
    cache_stats: dict[str, int],
    meta: FeedMeta,
) -> SimStats:
    """Advance one timing lane over a pre-decoded feed.

    The store buffer, RBB, CLQ and coloring semantics below are
    flattened transcriptions of ``repro.arch.{store_buffer,rbb,clq,
    coloring}`` with the fault-injection paths (which a timing run never
    exercises) elided.
    Stream totals that do not depend on the lane configuration come
    from ``meta`` (tallied once at decode), so the loop touches only
    timing state.
    """
    resilient = res.enabled
    clq_on = resilient and res.clq_enabled
    clq_ideal = clq_on and res.clq_kind == "ideal"
    clq_size = res.clq_size
    clq_recycle = res.clq_recycling
    col_on = resilient and res.coloring_enabled
    num_colors = res.num_colors
    wcdl = float(res.wcdl)
    width = core.issue_width
    mispredict = core.mispredict_penalty
    commit_lat = core.store_commit_latency
    baseline_drain = core.baseline_drain_latency
    sb_cap = res.sb_size if resilient else 8

    reg_ready = [0.0] * _NREGS
    cycle = 0.0
    issued_here = 0
    last_mem_cycle = -1.0
    seq_floor = 0.0
    final = 0.0
    data_stall = 0.0
    sb_stall = 0.0
    warfree = 0
    colored = 0
    quarantined = 0
    forced = 0
    # Region lifecycle (flat RegionBoundaryBuffer). ``unverified`` is a
    # FIFO of (deadline, instance); ``uv_head`` is its consumed prefix;
    # ``next_due`` caches the head deadline so the common no-op case of
    # the verification drain is one float compare.
    cur_inst = -1
    next_instance = 0
    unverified: list[tuple[float, int]] = []
    uv_head = 0
    next_due = INF
    # Flat TimingStoreBuffer: (release, instance, addr) triples. An
    # infinite release marks a quarantined entry of the open region;
    # ``open_inf`` counts them so boundary closure skips the scan when
    # the open region quarantined nothing.
    sb_entries: list[tuple[float, int, int]] = []
    open_inf = 0
    # Cached minimum finite release across ``sb_entries`` (INF when all
    # entries are quarantined-open or the buffer is empty): the common
    # nothing-to-drain case of a store is then one float compare
    # instead of a list rebuild.
    sb_min = INF
    # Flat CLQ state (parity is never bad in a timing run, so the
    # conservative parity branches of the object model are elided).
    clq_loads: dict[int, set[int]] = {}
    clq_ranges: dict[int, list[int]] = {}  # instance -> [lo, hi, populated]
    clq_disabled = False
    occ_samples = 0
    occ_sum = 0
    occ_max = 0
    # Flat ColorMaps: AC free lists pop from the end; UC per-instance
    # reg->color assignments; VC last verified color per register.
    ac: dict[int, list[int]] = {}
    uc: dict[int, dict[int, int]] = {}
    vc: dict[int, int] = {}

    for op, fa, fb, fc, fd, fe in feed:
        if op == 0:  # ALU / MUL / DIV
            # Issue-slot logic, common case first: both operands ready
            # and no mispredict shadow -> issue this cycle (or roll to
            # the next when the width is exhausted). Provably the same
            # decision tree as the reference max/compare chain.
            r1 = reg_ready[fb]
            r2 = reg_ready[fc]
            ready = r1 if r1 >= r2 else r2
            if ready <= cycle:
                if seq_floor <= cycle:
                    t = cycle
                    if issued_here >= width:
                        t += 1.0
                        issued_here = 1
                    else:
                        issued_here += 1
                else:
                    t = seq_floor
                    issued_here = 1
            elif seq_floor > cycle:
                if ready > seq_floor:
                    data_stall += ready - seq_floor
                    t = ready
                else:
                    t = seq_floor
                issued_here = 1
            else:
                data_stall += ready - cycle
                t = ready
                issued_here = 1
            cycle = t
            t += fd
            reg_ready[fa] = t
            if t > final:
                final = t
            continue
        if op <= 2:  # branch (outcome baked into the opcode)
            r1 = reg_ready[fa]
            r2 = reg_ready[fb]
            ready = r1 if r1 >= r2 else r2
            if ready <= cycle:
                if seq_floor <= cycle:
                    t = cycle
                    if issued_here >= width:
                        t += 1.0
                        issued_here = 1
                    else:
                        issued_here += 1
                else:
                    t = seq_floor
                    issued_here = 1
            elif seq_floor > cycle:
                if ready > seq_floor:
                    data_stall += ready - seq_floor
                    t = ready
                else:
                    t = seq_floor
                issued_here = 1
            else:
                data_stall += ready - cycle
                t = ready
                issued_here = 1
            cycle = t
            resolve = t + 1
            seq_floor = 0.0 if op == 1 else resolve + mispredict
            if resolve > final:
                final = resolve
            continue
        if op == 3:  # region boundary
            if resilient:
                now = cycle
                if cur_inst >= 0:
                    if open_inf:
                        # set_instance_release: the open region's
                        # quarantined entries obtain end + WCDL (+1 per
                        # entry: one drain per cycle through the port).
                        base = now + wcdl
                        offset = 0
                        converted: list[tuple[float, int, int]] = []
                        for ent in sb_entries:
                            if ent[0] == INF:
                                converted.append(
                                    (base + offset, ent[1], ent[2])
                                )
                                offset += 1
                            else:
                                converted.append(ent)
                        sb_entries = converted
                        open_inf = 0
                        if base < sb_min:
                            sb_min = base
                    deadline = now + wcdl
                    unverified.append((deadline, cur_inst))
                    if next_due == INF:
                        next_due = deadline
                cur_inst = next_instance
                next_instance += 1
                if clq_on:
                    if next_due <= now:
                        n_unv = len(unverified)
                        while uv_head < n_unv and unverified[uv_head][0] <= now:
                            inst_id = unverified[uv_head][1]
                            uv_head += 1
                            if col_on:
                                promoted = uc.pop(inst_id, None)
                                if promoted:
                                    for reg, color in promoted.items():
                                        old = vc.get(reg)
                                        if old is not None and old != -1:
                                            free = ac.get(reg)
                                            if free is None:
                                                free = ac[reg] = list(
                                                    range(num_colors)
                                                )
                                            free.append(old)
                                        vc[reg] = color
                            if clq_ideal:
                                clq_loads.pop(inst_id, None)
                            else:
                                clq_ranges.pop(inst_id, None)
                        next_due = (
                            unverified[uv_head][0]
                            if uv_head < len(unverified)
                            else INF
                        )
                    prior_verified = uv_head >= len(unverified)
                    if clq_ideal:
                        clq_loads[cur_inst] = set()
                    else:
                        if clq_disabled:
                            if not prior_verified:
                                continue  # stay disabled, no tracking
                            clq_disabled = False
                            clq_ranges.clear()
                        if len(clq_ranges) >= clq_size:
                            if clq_recycle:
                                del clq_ranges[min(clq_ranges)]
                            else:
                                clq_ranges.clear()
                                clq_disabled = True
                                continue
                        clq_ranges[cur_inst] = [0, 0, 0]
            continue
        if op == 4:  # checkpoint store
            r1 = reg_ready[fa]
            r2 = reg_ready[fb]
            ready = r1 if r1 >= r2 else r2
            bc = seq_floor if seq_floor > cycle else cycle
            if ready > bc:
                data_stall += ready - bc
            candidate = ready if ready > seq_floor else seq_floor
            if candidate <= last_mem_cycle:
                candidate = last_mem_cycle + 1
            if candidate > cycle:
                t = candidate
                issued_here = 1
            else:
                t = cycle
                if issued_here >= width:
                    t += 1.0
                    issued_here = 1
                else:
                    issued_here += 1
            cycle = t
            last_mem_cycle = t
            commit = t + commit_lat
            if not resilient:
                if sb_entries:
                    sb_entries = [e for e in sb_entries if e[0] > commit]
                alloc = commit
                while len(sb_entries) >= sb_cap:
                    earliest = min(e[0] for e in sb_entries)
                    if alloc < earliest:
                        alloc = earliest
                    sb_entries = [e for e in sb_entries if e[0] > alloc]
                if alloc > commit:
                    sb_stall += alloc - commit
                    cycle = alloc
                    issued_here = 1
                sb_entries.append((alloc + baseline_drain, 0, -1))
                if alloc + baseline_drain > final:
                    final = alloc + baseline_drain
                continue
            if next_due <= commit:
                n_unv = len(unverified)
                while uv_head < n_unv and unverified[uv_head][0] <= commit:
                    inst_id = unverified[uv_head][1]
                    uv_head += 1
                    if col_on:
                        promoted = uc.pop(inst_id, None)
                        if promoted:
                            for reg, color in promoted.items():
                                old = vc.get(reg)
                                if old is not None and old != -1:
                                    free = ac.get(reg)
                                    if free is None:
                                        free = ac[reg] = list(
                                            range(num_colors)
                                        )
                                    free.append(old)
                                vc[reg] = color
                    if clq_on:
                        if clq_ideal:
                            clq_loads.pop(inst_id, None)
                        else:
                            clq_ranges.pop(inst_id, None)
                next_due = (
                    unverified[uv_head][0]
                    if uv_head < len(unverified)
                    else INF
                )
            instance = cur_inst if cur_inst >= 0 else 0
            released = False
            if col_on:
                assigned = uc.get(instance)
                if assigned is None:
                    assigned = uc[instance] = {}
                reg = fc
                color = assigned.get(reg)
                if color is None:
                    free = ac.get(reg)
                    if free is None:
                        free = ac[reg] = list(range(num_colors))
                    if free:
                        color = free.pop()
                        assigned[reg] = color
                    else:
                        assigned[reg] = color = -1
                if color != -1:
                    released = True
                    colored += 1
            if not released:
                quarantined += 1
                if sb_min <= commit:
                    sb_entries = [e for e in sb_entries if e[0] > commit]
                    sb_min = INF
                    for e in sb_entries:
                        if e[0] < sb_min:
                            sb_min = e[0]
                alloc = commit
                stalled_open = False
                while len(sb_entries) >= sb_cap:
                    if sb_min == INF:
                        stalled_open = True
                        break
                    if alloc < sb_min:
                        alloc = sb_min
                    sb_entries = [e for e in sb_entries if e[0] > alloc]
                    sb_min = INF
                    for e in sb_entries:
                        if e[0] < sb_min:
                            sb_min = e[0]
                if stalled_open:
                    # Safety valve: force-close the open region so its
                    # entries obtain release times (cold path).
                    forced += 1
                    base = commit + wcdl
                    offset = 0
                    converted = []
                    for ent in sb_entries:
                        if ent[1] == instance and ent[0] == INF:
                            converted.append((base + offset, ent[1], ent[2]))
                            offset += 1
                        else:
                            converted.append(ent)
                    sb_entries = converted
                    open_inf = 0
                    sb_min = INF
                    for e in sb_entries:
                        if e[0] < sb_min:
                            sb_min = e[0]
                    alloc = commit
                    while len(sb_entries) >= sb_cap:
                        if sb_min == INF:
                            break
                        if alloc < sb_min:
                            alloc = sb_min
                        sb_entries = [e for e in sb_entries if e[0] > alloc]
                        sb_min = INF
                        for e in sb_entries:
                            if e[0] < sb_min:
                                sb_min = e[0]
                if alloc > commit:
                    sb_stall += alloc - commit
                    cycle = alloc
                    issued_here = 1
                sb_entries.append((INF, instance, -1))
                open_inf += 1
            if commit > final:
                final = commit
            continue
        if op == 5:  # load
            r1 = reg_ready[fb]
            r2 = reg_ready[fc]
            ready = r1 if r1 >= r2 else r2
            bc = seq_floor if seq_floor > cycle else cycle
            if ready > bc:
                data_stall += ready - bc
            candidate = ready if ready > seq_floor else seq_floor
            if candidate <= last_mem_cycle:
                candidate = last_mem_cycle + 1
            if candidate > cycle:
                t = candidate
                issued_here = 1
            else:
                t = cycle
                if issued_here >= width:
                    t += 1.0
                    issued_here = 1
                else:
                    issued_here += 1
            cycle = t
            last_mem_cycle = t
            done = t + fd
            reg_ready[fa] = done
            if done > final:
                final = done
            if clq_on and cur_inst >= 0:
                if clq_ideal:
                    loads = clq_loads.get(cur_inst)
                    if loads is None:
                        loads = clq_loads[cur_inst] = set()
                    loads.add(fe)
                    occ_samples += 1
                    occ = len(clq_loads)
                    occ_sum += occ
                    if occ > occ_max:
                        occ_max = occ
                else:
                    rng = clq_ranges.get(cur_inst)
                    if rng is not None:
                        addr = fe
                        if rng[2]:
                            if addr < rng[0]:
                                rng[0] = addr
                            if addr > rng[1]:
                                rng[1] = addr
                        else:
                            rng[0] = rng[1] = addr
                            rng[2] = 1
                        occ_samples += 1
                        occ = 0
                        for other in clq_ranges.values():
                            if other[2]:
                                occ += 1
                        occ_sum += occ
                        if occ > occ_max:
                            occ_max = occ
            continue
        if op == 6:  # regular store
            r1 = reg_ready[fa]
            r2 = reg_ready[fb]
            ready = r1 if r1 >= r2 else r2
            bc = seq_floor if seq_floor > cycle else cycle
            if ready > bc:
                data_stall += ready - bc
            candidate = ready if ready > seq_floor else seq_floor
            if candidate <= last_mem_cycle:
                candidate = last_mem_cycle + 1
            if candidate > cycle:
                t = candidate
                issued_here = 1
            else:
                t = cycle
                if issued_here >= width:
                    t += 1.0
                    issued_here = 1
                else:
                    issued_here += 1
            cycle = t
            last_mem_cycle = t
            commit = t + commit_lat
            if not resilient:
                if sb_entries:
                    sb_entries = [e for e in sb_entries if e[0] > commit]
                alloc = commit
                while len(sb_entries) >= sb_cap:
                    earliest = min(e[0] for e in sb_entries)
                    if alloc < earliest:
                        alloc = earliest
                    sb_entries = [e for e in sb_entries if e[0] > alloc]
                if alloc > commit:
                    sb_stall += alloc - commit
                    cycle = alloc
                    issued_here = 1
                sb_entries.append((alloc + baseline_drain, 0, -1))
                if alloc + baseline_drain > final:
                    final = alloc + baseline_drain
                continue
            if next_due <= commit:
                n_unv = len(unverified)
                while uv_head < n_unv and unverified[uv_head][0] <= commit:
                    inst_id = unverified[uv_head][1]
                    uv_head += 1
                    if col_on:
                        promoted = uc.pop(inst_id, None)
                        if promoted:
                            for reg, color in promoted.items():
                                old = vc.get(reg)
                                if old is not None and old != -1:
                                    free = ac.get(reg)
                                    if free is None:
                                        free = ac[reg] = list(
                                            range(num_colors)
                                        )
                                    free.append(old)
                                vc[reg] = color
                    if clq_on:
                        if clq_ideal:
                            clq_loads.pop(inst_id, None)
                        else:
                            clq_ranges.pop(inst_id, None)
                next_due = (
                    unverified[uv_head][0]
                    if uv_head < len(unverified)
                    else INF
                )
            instance = cur_inst if cur_inst >= 0 else 0
            addr = fc
            released = False
            if clq_on:
                if clq_ideal:
                    loads_set = clq_loads.get(instance)
                    war = True if loads_set is None else addr in loads_set
                else:
                    rng = clq_ranges.get(instance)
                    war = (
                        True
                        if rng is None
                        else bool(rng[2]) and rng[0] <= addr <= rng[1]
                    )
                if not war:
                    if sb_min <= commit:
                        sb_entries = [e for e in sb_entries if e[0] > commit]
                        sb_min = INF
                        for e in sb_entries:
                            if e[0] < sb_min:
                                sb_min = e[0]
                    pending = any(e[2] == addr for e in sb_entries)
                    if not pending:
                        released = True
                        warfree += 1
            if not released:
                quarantined += 1
                if sb_min <= commit:
                    sb_entries = [e for e in sb_entries if e[0] > commit]
                    sb_min = INF
                    for e in sb_entries:
                        if e[0] < sb_min:
                            sb_min = e[0]
                alloc = commit
                stalled_open = False
                while len(sb_entries) >= sb_cap:
                    if sb_min == INF:
                        stalled_open = True
                        break
                    if alloc < sb_min:
                        alloc = sb_min
                    sb_entries = [e for e in sb_entries if e[0] > alloc]
                    sb_min = INF
                    for e in sb_entries:
                        if e[0] < sb_min:
                            sb_min = e[0]
                if stalled_open:
                    forced += 1
                    base = commit + wcdl
                    offset = 0
                    converted = []
                    for ent in sb_entries:
                        if ent[1] == instance and ent[0] == INF:
                            converted.append((base + offset, ent[1], ent[2]))
                            offset += 1
                        else:
                            converted.append(ent)
                    sb_entries = converted
                    open_inf = 0
                    sb_min = INF
                    for e in sb_entries:
                        if e[0] < sb_min:
                            sb_min = e[0]
                    alloc = commit
                    while len(sb_entries) >= sb_cap:
                        if sb_min == INF:
                            break
                        if alloc < sb_min:
                            alloc = sb_min
                        sb_entries = [e for e in sb_entries if e[0] > alloc]
                        sb_min = INF
                        for e in sb_entries:
                            if e[0] < sb_min:
                                sb_min = e[0]
                if alloc > commit:
                    sb_stall += alloc - commit
                    cycle = alloc
                    issued_here = 1
                sb_entries.append((INF, instance, addr))
                open_inf += 1
            if commit > final:
                final = commit
            continue
        # op == 7: return
        r1 = reg_ready[fa]
        r2 = reg_ready[fb]
        ready = r1 if r1 >= r2 else r2
        if ready <= cycle:
            if seq_floor <= cycle:
                t = cycle
                if issued_here >= width:
                    t += 1.0
                    issued_here = 1
                else:
                    issued_here += 1
            else:
                t = seq_floor
                issued_here = 1
        elif seq_floor > cycle:
            if ready > seq_floor:
                data_stall += ready - seq_floor
                t = ready
            else:
                t = seq_floor
            issued_here = 1
        else:
            data_stall += ready - cycle
            t = ready
            issued_here = 1
        cycle = t
        if t + 1 > final:
            final = t + 1

    n_instr, n_bound, n_st, n_spill, n_ckpt, n_miss = meta
    stats = SimStats()
    stats.cycles = final if final > cycle else cycle
    stats.instructions = n_instr
    stats.sb_stall_cycles = sb_stall
    stats.data_stall_cycles = data_stall
    # Exact: the object-model reference adds the integer penalty once
    # per miss.
    stats.branch_stall_cycles = n_miss * float(mispredict)
    stats.stores_total = n_st
    stats.checkpoints_total = n_ckpt
    stats.warfree_released = warfree
    stats.colored_released = colored
    stats.quarantined = quarantined
    stats.spill_stores = n_spill
    stats.app_stores = n_st - n_spill
    stats.regions = n_bound if resilient else 0
    stats.forced_region_closures = forced
    stats.branch_mispredictions = n_miss
    stats.cache = dict(cache_stats)
    if clq_on:
        stats.clq_occupancy_avg = (
            occ_sum / occ_samples if occ_samples else 0.0
        )
        stats.clq_occupancy_max = occ_max
    return stats
