"""The columnar (struct-of-arrays) hot path of the performance simulator.

:func:`repro.cpu.simulator.simulate` dispatches here when the ``columnar``
hot path is selected (the default; see :func:`resolve_hotpath`).  The
driver *speculates* that no packet is dropped, solves the whole run with
numpy cumulative arithmetic, and verifies the speculation afterwards:

* **admission** — the serializing wire and the PCIe descriptor budget are
  max-plus recurrences ``free_j = max(free_{j-1}, now_j) + t_j``, solved
  exactly by :func:`_chain`; any backlog beyond the slack window would
  have dropped a packet, so the driver falls back to the event loop;
* **steering** — eligible engines expose ``steer_batch`` (round-robin row
  math for SCR, an indirection-table gather for RSS, the steering plan's
  core column for hybrid);
* **stolen rows** — losses fixed before the run (SCR's ``loss_rate``
  draws, a drop-only fault plan) are steered but never enqueued; each
  is charged to the next delivery on its core (:func:`_consume_stolen`);
* **core drain** — per-core FIFO service is the same max-plus recurrence
  over (arrival, service) rows.  SCR's history depth reads the global
  steer counter at *service* time, so the first ``k-1`` packets are
  resolved by an exact scalar prefix walk and every later packet is in
  steady state (``h = k-1``); ring occupancy is checked after the fact
  and any overflow falls back to the event loop;
* **commit** — counters, the L2 model, and engine steer state are updated
  once, in batch, through ``engine.service_batch`` /
  ``CoreCounters.charge_batch``, in the exact scalar accumulation order.

Every float is added in the same order as the scalar reference
(``np.add.accumulate`` is sequential left-to-right), so the result is
**bit-identical** to the event loop — the parity tests and the scalar
oracle (``--hotpath scalar``) pin this.  See docs/HOTPATH.md.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from ..nic.nic import (ETHERNET_OVERHEAD_BYTES, MIN_FRAME_BYTES, PCIE_DESCRIPTOR_BYTES,
                       WIRE_SLACK_FRAMES)
from ..telemetry.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..faults.plan import FaultPlan
    from ..hostprof.clock import PhaseClock
    from ..obs.spans import SpanEmitter
    from ..telemetry.events import EventTracer
    from .cache import L2Model
    from .simulator import PerfEngine, PerfTrace, SimResult

__all__ = [
    "HOTPATH_ENV",
    "HOTPATH_MODES",
    "resolve_hotpath",
    "use_hotpath",
    "l2_spill_rows",
    "simulate_columnar",
]

#: Environment variable selecting the hot path (``scalar`` | ``columnar``).
#: The CLI ``--hotpath`` flag sets it so ``--jobs N`` workers inherit it.
HOTPATH_ENV = "REPRO_HOTPATH"

HOTPATH_MODES = ("scalar", "columnar")


def resolve_hotpath(explicit: Optional[str] = None) -> str:
    """The active hot-path mode: ``explicit`` arg > env var > columnar."""
    mode = explicit or os.environ.get(HOTPATH_ENV) or "columnar"
    if mode not in HOTPATH_MODES:
        raise ValueError(
            f"unknown hotpath {mode!r}; expected one of {', '.join(HOTPATH_MODES)}"
        )
    return mode


@contextmanager
def use_hotpath(mode: str) -> Iterator[None]:
    """Temporarily pin the hot-path mode (process-wide, via the env var)."""
    if mode not in HOTPATH_MODES:
        raise ValueError(
            f"unknown hotpath {mode!r}; expected one of {', '.join(HOTPATH_MODES)}"
        )
    previous = os.environ.get(HOTPATH_ENV)
    os.environ[HOTPATH_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(HOTPATH_ENV, None)
        else:
            os.environ[HOTPATH_ENV] = previous


# -- exact max-plus chain solver ------------------------------------------------


def _chain_scalar(arrivals: np.ndarray, services: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reference python loop for ``b_j = max(b_{j-1}, a_j) + s_j``."""
    n = len(arrivals)
    start = np.empty(n, dtype=np.float64)
    finish = np.empty(n, dtype=np.float64)
    a = arrivals.tolist()
    s = services.tolist()
    busy = 0.0
    for j in range(n):
        st = busy if busy > a[j] else a[j]
        busy = st + s[j]
        start[j] = st
        finish[j] = busy
    return start, finish


def _chain(arrivals: np.ndarray, services: np.ndarray,
           max_rounds: int = 64) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``b_j = max(b_{j-1}, a_j) + s_j`` (``b_{-1} = 0``) exactly.

    Iterative reset-point detection: hypothesize which packets start a
    fresh busy period (initially all — the pointwise-minimal solution),
    recompute finishes per busy period with a sequential
    ``np.add.accumulate`` (bit-identical to the scalar left-to-right
    adds), and repeat until the hypothesis reproduces itself — a
    self-consistent hypothesis *is* the solution.  Underload converges in
    one round (every packet resets).  Otherwise the second hypothesis
    comes from the closed form ``b_j = S_j + max_{i<=j}(a_i - S_{i-1})``
    (``S`` the prefix sums of the services): rounded, so it is only a
    guess, but its busy periods are right up to float ties, where
    merging one period per round could take as many rounds as a period
    has packets.  The round cap only bounds the loop — on the
    non-converged path the exact scalar walk answers.
    """
    n = len(arrivals)
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    base = arrivals + services
    finish = base.copy()
    reset = np.empty(n, dtype=bool)
    for round_ in range(max_rounds):
        reset[0] = True
        reset[1:] = finish[:-1] <= arrivals[1:]
        new_finish = base.copy()
        seg_start = np.flatnonzero(reset)
        seg_end = np.append(seg_start[1:], n)
        long_segs = seg_end - seg_start > 1
        for s0, s1 in zip(seg_start[long_segs].tolist(), seg_end[long_segs].tolist()):
            tmp = services[s0:s1].copy()
            tmp[0] = base[s0]
            np.add.accumulate(tmp, out=tmp)
            new_finish[s0:s1] = tmp
        if np.array_equal(new_finish, finish):
            prev = np.concatenate((np.zeros(1), new_finish[:-1]))
            start = np.where(reset, arrivals, prev)
            return start, new_finish
        if round_ == 0:
            sums = np.cumsum(services)
            new_finish = sums + np.maximum.accumulate(arrivals - (sums - services))
        finish = new_finish
    return _chain_scalar(arrivals, services)


# -- vectorized L2 model --------------------------------------------------------


def l2_spill_rows(
    l2: "L2Model",
    trace: "PerfTrace",
    rows: np.ndarray,
    cores: np.ndarray,
    num_cores: int,
    commit: bool = False,
    touches: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :meth:`~repro.cpu.cache.L2Model.access` over ``rows``.

    ``rows``/``cores`` list packets in service order (per-core order is
    what matters — cores never share L2 state).  Returns per-row
    ``(miss_frac, spill_ns)`` arrays, zero for packets that never touch
    state: invalid ones, or the rows ``touches`` (a whole-trace mask,
    default ``trace.valid``) leaves out.  With ``commit=True`` the
    touched keys are also installed into the model's resident sets,
    completing the state the scalar loop would have built.  Assumes the
    model was just reset — the hot path always runs right after
    ``engine.reset()``.
    """
    key_ids = trace.key_ids[rows]
    touched = (trace.valid if touches is None else touches)[rows]
    miss_frac = np.zeros(len(rows), dtype=np.float64)
    spill = np.zeros(len(rows), dtype=np.float64)
    for core in range(num_cores):
        sel = np.flatnonzero((cores == core) & touched)
        if len(sel) == 0:
            continue
        ids = key_ids[sel]
        uniq, first_idx = np.unique(ids, return_index=True)
        first = np.zeros(len(ids), dtype=bool)
        first[first_idx] = True
        resident = np.cumsum(first)
        excess = resident - l2.capacity_entries
        over = excess > 0
        frac = np.where(
            first, 1.0,
            np.where(over, excess / np.maximum(resident, 1), 0.0),
        )
        miss_frac[sel] = frac
        spill[sel] = frac * l2.spill_ns
        if commit:
            table = trace.key_table
            l2.install(core, (table[int(i)] for i in uniq))
    return miss_frac, spill


# -- the columnar driver --------------------------------------------------------

#: One delivery that consumes stolen rows: ``(row, h, lost, gap,
#: recovery)`` — its history depth, the injected losses and fault drops
#: it catches up on, and the ``recovery`` terms of its cost formula.
_Consumer = Tuple[int, int, int, int, Tuple[float, ...]]


def simulate_columnar(
    perf_trace: "PerfTrace",
    rate_pps: float,
    engine: "PerfEngine",
    line_rate_gbps: float,
    ring_capacity: int,
    burst_size: int,
    grace_fraction: float,
    grace_min_ns: float,
    pcie_rate_gbps: float,
    collect_latency: bool,
    tracer: "EventTracer",
    faults: Optional["FaultPlan"],
    spans: "SpanEmitter",
    hostprof: "PhaseClock",
) -> Optional["SimResult"]:
    """One fixed-rate run on the columnar hot path, or ``None`` to fall
    back to the scalar event loop.

    Fallback triggers (see module docstring): per-packet telemetry or
    spans enabled, a fault plan with any fault besides wire→ring drops,
    an engine without batched row math, or the no-drop speculation
    failing (wire/PCIe backlog beyond slack, or a ring backing up past
    capacity).  Engine loss draws and a plan's drops become stolen rows
    instead.  The engine is only mutated after every check passes, so
    the scalar rerun starts from the same freshly-reset state.
    """
    if tracer.enabled or spans.enabled:
        return None
    if faults is not None and not faults.any_faults:
        faults = None
    if faults is not None and not faults.drops_only:
        return None
    eligible = getattr(engine, "columnar_eligible", None)
    if not callable(eligible) or not eligible():
        return None
    n = len(perf_trace)
    if n == 0:
        return None

    hp_on = hostprof.enabled
    if hp_on:
        hostprof.push("sim.columnar")
    try:
        return _run(perf_trace, rate_pps, engine, line_rate_gbps,
                    ring_capacity, burst_size, grace_fraction, grace_min_ns,
                    pcie_rate_gbps, collect_latency, faults)
    finally:
        if hp_on:
            hostprof.pop()


def _run(
    trace: "PerfTrace",
    rate_pps: float,
    engine: "PerfEngine",
    line_rate_gbps: float,
    ring_capacity: int,
    burst_size: int,
    grace_fraction: float,
    grace_min_ns: float,
    pcie_rate_gbps: float,
    collect_latency: bool,
    faults: Optional["FaultPlan"],
) -> Optional["SimResult"]:
    from .simulator import SimResult

    n = len(trace)
    k = engine.num_cores
    interval = 1e9 / rate_pps
    line_rate_bps = line_rate_gbps * 1e9
    pcie_rate_bps = pcie_rate_gbps * 1e9

    #: arrival timestamps: fixed spacing, bursts share a slot (the exact
    #: integer-then-float arithmetic of the scalar loop).
    slot = (np.arange(n, dtype=np.int64) // burst_size) * burst_size
    now = slot.astype(np.float64) * interval

    # Wire admission: free_j = max(free_{j-1}, now_j) + wt_j; a packet is
    # dropped when the *preceding* backlog exceeds the slack window.
    wire_len = engine.wire_len_batch(trace)
    frame = np.maximum(wire_len, MIN_FRAME_BYTES) + ETHERNET_OVERHEAD_BYTES
    wt = (frame * 8) / line_rate_bps * 1e9
    wire_slack_ns = float(wt[0]) * WIRE_SLACK_FRAMES
    _, wire_free = _chain(now, wt)
    backlog = np.concatenate((np.zeros(1), wire_free[:-1])) - now
    if bool(np.any(backlog > wire_slack_ns)):
        return None

    # Host interconnect: DMA payload + descriptor + completion traffic.
    dma_len = engine.dma_len_batch(trace)
    dt = ((dma_len + PCIE_DESCRIPTOR_BYTES) * 8) / pcie_rate_bps * 1e9
    pcie_slack_ns = float(dt[0]) * WIRE_SLACK_FRAMES
    _, pcie_free = _chain(now, dt)
    backlog = np.concatenate((np.zeros(1), pcie_free[:-1])) - now
    if bool(np.any(backlog > pcie_slack_ns)):
        return None

    cores = np.asarray(engine.steer_batch(trace), dtype=np.int64)

    # Stolen rows: steered (they advance the steer counter) but lost
    # before their ring — fault drops first, then the engine's own loss
    # draws, which skip fault-dropped rows like the scalar loop does.
    fault_dropped = faults.drop_column(n) if faults is not None else None
    lost = engine.loss_batch(trace, fault_dropped)
    stolen = None
    if fault_dropped is not None and fault_dropped.any():
        stolen = fault_dropped
    if lost is not None and lost.any():
        stolen = lost if stolen is None else stolen | lost
    touches = engine.state_access_batch(trace)
    if stolen is not None:
        touches = touches & ~stolen

    # Pure per-row L2 outcome (per-core first-touch + capacity spill; the
    # service-order restriction of each core equals its FIFO order).
    all_rows = np.arange(n, dtype=np.int64)
    miss_frac, spill = l2_spill_rows(engine.l2, trace, all_rows, cores, k,
                                     touches=touches)

    # History depth: h_j = min(seq_at_service - 1, cap).  In steady state
    # (arrival index >= cap) the steer counter has always advanced past
    # cap, so only the first ``cap`` packets need the exact prefix walk.
    cap = engine.history_cap()
    h = np.full(n, cap, dtype=np.int64)
    if cap > 0:
        _resolve_history_prefix(trace, engine, now, cores, miss_frac, spill,
                                h, cap, stolen)

    services = engine.service_rows(trace, all_rows, miss_frac, spill, h)

    stream_end = n * interval
    horizon = stream_end + max(grace_min_ns, grace_fraction * stream_end)

    # Per-core FIFO drain: the same max-plus recurrence per core, over
    # the rows that reach a ring.
    starts = np.empty(n, dtype=np.float64)
    finishes = np.empty(n, dtype=np.float64)
    order = np.argsort(cores, kind="stable")
    if stolen is not None:
        starts[stolen] = np.inf  # never served
        order = order[~stolen[order]]
    core_of_sorted = cores[order]
    boundaries = np.flatnonzero(np.diff(core_of_sorted)) + 1
    per_core = np.split(order, boundaries)
    for rows_c in per_core:
        s, f = _chain(now[rows_c], services[rows_c])
        starts[rows_c] = s
        finishes[rows_c] = f

    consumers: List[_Consumer] = []
    pending = ([0] * k, [0] * k)
    if stolen is not None and engine.catches_up:
        resolved = _consume_stolen(engine, stolen, lost, cores, per_core, now,
                                   touches, miss_frac, spill, services, starts,
                                   finishes, horizon, cap)
        if resolved is None:
            return None
        consumers, pending = resolved

    # Pop events: packet j leaves its ring at the first arrival i > j with
    # now_i >= start_j (every arrival drains all cores first), or at the
    # final grace drain (m = n).  ``searchsorted`` is exact because the
    # arrival grid is nondecreasing.
    m = np.searchsorted(now, starts, side="left")
    m = np.maximum(m, all_rows + 1)

    # Ring occupancy at each enqueue: FIFO position minus how many of the
    # core's earlier packets popped at or before this arrival.  Any ring
    # at capacity means the scalar loop would have dropped — fall back.
    for rows_c in per_core:
        m_c = m[rows_c]
        popped_before = np.searchsorted(m_c, rows_c, side="right")
        occupancy = np.arange(len(rows_c)) - popped_before
        if bool(np.any(occupancy >= ring_capacity)):
            return None

    # Speculation holds: no drops beyond the stolen rows.  Commit.
    popped = starts <= horizon
    processed = int(np.count_nonzero(popped))
    stolen_count = 0 if stolen is None else int(np.count_nonzero(stolen))
    unfinished = n - stolen_count - processed

    engine.commit_steer_batch(n)
    pop_rows = np.flatnonzero(popped)
    # Scalar pop order: by drain event, then core (drained 0..k-1), then
    # FIFO position (== arrival index within a core).
    pop_rows = pop_rows[np.lexsort(
        (pop_rows, cores[pop_rows], m[pop_rows])
    )]
    recovery = None
    if consumers:
        columns = np.zeros((4, n), dtype=np.float64)
        rows = [consumer[0] for consumer in consumers]
        columns[:, rows] = np.array([consumer[4] for consumer in consumers]).T
        recovery = list(columns[:, pop_rows])
    committed = engine.service_batch(
        trace, pop_rows, cores[pop_rows], starts[pop_rows], m[pop_rows],
        recovery)
    if lost is not None or stolen is not None:
        # Gap counters fold in scalar pop order.
        rank = np.empty(n, dtype=np.int64)
        rank[pop_rows] = np.arange(len(pop_rows))
        consumers.sort(key=lambda consumer: rank[consumer[0]])
        engine.commit_stolen([consumer[1:4] for consumer in consumers],
                             *pending)

    per_core_packets = np.bincount(cores[pop_rows], minlength=k).tolist()
    last_finish = float(np.max(finishes[pop_rows])) if processed else 0.0
    duration = max(last_finish, stream_end)

    fault_stats = None
    if faults is not None:
        from ..faults.inject import SimFaults

        sim_faults = SimFaults(faults, k)
        sim_faults.dropped = int(np.count_nonzero(fault_dropped))
        fault_stats = sim_faults.summary()
        recovery_summary = getattr(engine, "fault_summary", None)
        if recovery_summary is not None:
            fault_stats.update(recovery_summary())
    placement = getattr(engine, "placement_summary", None)
    placement_stats = placement() if placement is not None else None

    latency_samples: Optional[List[float]] = None
    latency_hist: Optional[Histogram] = None
    if collect_latency:
        latency_hist = Histogram("latency_ns")
        samples = (starts[pop_rows] + committed) - now[pop_rows]
        latency_samples = samples.tolist()
        for value in latency_samples:
            latency_hist.observe(value)

    return SimResult(
        offered=n,
        processed=processed,
        wire_dropped=0,
        ring_dropped=0,
        injected_lost=0 if lost is None else int(np.count_nonzero(lost)),
        unfinished=unfinished,
        duration_ns=duration,
        rate_pps=rate_pps,
        counters=engine.counters,
        pcie_dropped=0,
        per_core_packets=per_core_packets,
        latency_samples_ns=latency_samples,
        latency_histogram=latency_hist,
        fault_stats=fault_stats,
        placement_stats=placement_stats,
    )


#: Rows :func:`_rechain` walks in Python before it hands the rest of a
#: window to the vectorized :func:`_chain`.
_WALK_ROWS = 64


def _rechain(now_c: np.ndarray, s_c: np.ndarray, st: np.ndarray,
             fi: np.ndarray, lo: int, hi: int) -> int:
    """Re-solve rows ``lo..hi-1`` of one core's chain in place, after a
    service before ``lo`` grew; returns how many leading rows are exact.

    Rows from ``lo`` on hold the consumer-free chain, and every service
    from ``lo`` on is still the consumer-free one, so the walk stops at
    the first start that matches that chain: from there it is the new
    chain, to the end of the core.
    """
    busy = float(fi[lo - 1]) if lo else 0.0
    walk = min(hi, lo + _WALK_ROWS)
    new_st: List[float] = []
    new_fi: List[float] = []
    done = False
    for arrival, old, service in zip(now_c[lo:walk].tolist(),
                                     st[lo:walk].tolist(),
                                     s_c[lo:walk].tolist()):
        start = busy if busy > arrival else arrival
        if start == old:
            done = True
            break
        busy = start + service
        new_st.append(start)
        new_fi.append(busy)
    end = lo + len(new_st)
    st[lo:end] = new_st
    fi[lo:end] = new_fi
    if done:
        return len(st)
    if walk < hi:
        arrivals = now_c[walk:hi].copy()
        if busy > arrivals[0]:
            arrivals[0] = busy
        free = st[walk:hi].copy()
        st[walk:hi], fi[walk:hi] = _chain(arrivals, s_c[walk:hi])
        if bool(np.any(st[walk:hi] == free)):
            return len(st)
    return hi


def _consume_stolen(
    engine: "PerfEngine",
    stolen: np.ndarray,
    lost: Optional[np.ndarray],
    cores: np.ndarray,
    per_core: List[np.ndarray],
    now: np.ndarray,
    touches: np.ndarray,
    miss_frac: np.ndarray,
    spill: np.ndarray,
    services: np.ndarray,
    starts: np.ndarray,
    finishes: np.ndarray,
    horizon: float,
    cap: int,
) -> Optional[Tuple[List[_Consumer], Tuple[List[int], List[int]]]]:
    """Charge every stolen row to the delivery that consumes it.

    A stolen row ``l`` registers on its core right after the drain at
    arrival ``l``, so it is owed by the first delivery on that core (a
    popped row that touches state) whose pop event ``m_j > l`` — that is
    ``j > l`` or ``start_j > now_l``.  That delivery consumes every
    stolen row of its core below ``m_j`` that no earlier one did, and its
    service grows (``engine.pending_service``), which delays the rows
    after it.  So each core is resolved front to back, one consumer at a
    time: the chain is re-solved (:func:`_rechain`) only up to the first
    touching row past the next stolen row — the furthest its consumer can
    be — and once more after the last consumer.  Consumers only move
    forward and each consumes at least one stolen row, so the pass is
    bounded by their number.

    Updates ``starts``/``finishes`` in place and returns the consumers
    plus each core's leftover ``(lost, gap)`` counts — or ``None`` to
    fall back, when a consumer sits in the history prefix whose depths
    were resolved beforehand.
    """
    k = engine.num_cores
    consumers: List[_Consumer] = []
    pending_lost = [0] * k
    fault_gap = [0] * k
    stolen_rows = np.flatnonzero(stolen)
    stolen_cores = cores[stolen_rows]
    stolen_lost = (lost[stolen_rows] if lost is not None
                   else np.zeros(len(stolen_rows), dtype=bool))
    serviced = {int(cores[rows_c[0]]): rows_c for rows_c in per_core}
    none = np.empty(0, dtype=np.int64)
    for core in np.unique(stolen_cores).tolist():
        sel = stolen_cores == core
        stolen_c = stolen_rows[sel]
        lost_c = stolen_lost[sel]
        rows_c = serviced.get(core, none)
        now_c = now[rows_c]
        free_st = starts[rows_c]
        free_fi = finishes[rows_c]
        st = free_st.copy()
        fi = free_fi.copy()
        s_c = services[rows_c]
        touch_c = touches[rows_c]
        touch_pos = np.flatnonzero(touch_c)
        touch_rows = rows_c[touch_pos]
        exact = len(rows_c)
        p = q = 0
        while p < len(stolen_c) and len(touch_pos):
            ell = int(stolen_c[p])
            # A touching row after ``ell`` pops after ``ell`` registers:
            # the consumer is that row or an earlier one.
            t = int(np.searchsorted(touch_rows, ell, side="right"))
            bound = int(touch_pos[min(t, len(touch_pos) - 1)]) + 1
            if bound <= q:
                break
            if exact < bound:
                exact = _rechain(now_c, s_c, st, fi, exact, bound)
            m_w = np.maximum(np.searchsorted(now, st[q:bound], side="left"),
                             rows_c[q:bound] + 1)
            hit = np.flatnonzero(touch_c[q:bound] & (st[q:bound] <= horizon)
                                 & (m_w > ell))
            if not len(hit):
                break
            q += int(hit[0])
            row = int(rows_c[q])
            if row < cap:
                return None
            m_row = int(m_w[hit[0]])
            end = int(np.searchsorted(stolen_c, m_row, side="left"))
            lost_n = int(np.count_nonzero(lost_c[p:end]))
            gap_n = end - p - lost_n
            p = end
            service, recovery = engine.pending_service(
                min(m_row - 1, cap), float(miss_frac[row]), float(spill[row]),
                lost_n, gap_n)
            consumers.append((row, min(m_row - 1, cap), lost_n, gap_n,
                              recovery))
            s_c[q] = service
            fi[q] = st[q] + service
            q += 1
            # Past the consumer: back to the consumer-free chain, which
            # _rechain stops against.
            st[q:] = free_st[q:]
            fi[q:] = free_fi[q:]
            exact = q
        if exact < len(rows_c):
            _rechain(now_c, s_c, st, fi, exact, len(rows_c))
        left_lost = int(np.count_nonzero(lost_c[p:]))
        pending_lost[core] = left_lost
        fault_gap[core] = len(stolen_c) - p - left_lost
        starts[rows_c] = st
        finishes[rows_c] = fi
    return consumers, (pending_lost, fault_gap)


def _resolve_history_prefix(
    trace: "PerfTrace",
    engine: "PerfEngine",
    now: np.ndarray,
    cores: np.ndarray,
    miss_frac: np.ndarray,
    spill: np.ndarray,
    h: np.ndarray,
    cap: int,
    stolen: Optional[np.ndarray],
) -> None:
    """Exact history depths for the first ``cap`` packets, in place.

    Each prefix packet's start time depends only on earlier prefix
    packets on its core, so a short scalar walk resolves the order
    dependence the steady state is free of: pop event
    ``m = max(first arrival >= start, j+1)`` gives ``h = min(m-1, cap)``.
    Every prefix row is priced at every depth ``0..cap`` in one call;
    stolen rows never occupy their core.
    """
    prefix = min(cap, len(now))
    rows = np.repeat(np.arange(prefix, dtype=np.int64), cap + 1)
    depths = np.tile(np.arange(cap + 1, dtype=np.int64), prefix)
    services = engine.service_rows(trace, rows, miss_frac[rows], spill[rows],
                                   depths).reshape(prefix, cap + 1).tolist()
    core_busy = [0.0] * engine.num_cores
    for j in range(prefix):
        if stolen is not None and stolen[j]:
            continue
        core = int(cores[j])
        arrival = float(now[j])
        busy = core_busy[core]
        start = busy if busy > arrival else arrival
        m = max(int(np.searchsorted(now, start, side="left")), j + 1)
        h[j] = hj = min(m - 1, cap)
        core_busy[core] = start + services[j][hj]
