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
    adds), and repeat until the hypothesis reproduces itself.  Underload
    converges in one round (every packet resets); overload merges busy
    periods monotonically.  The round cap only bounds the loop — on the
    (never observed) non-converged path the exact scalar walk answers.
    """
    n = len(arrivals)
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    base = arrivals + services
    finish = base.copy()
    reset = np.empty(n, dtype=bool)
    for _ in range(max_rounds):
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
    spans enabled, a fault plan attached, an engine without batched row
    math, or the no-drop speculation failing (wire/PCIe backlog beyond
    slack, or a ring backing up past capacity).  The engine is only
    mutated after every check passes, so the scalar rerun starts from the
    same freshly-reset state.
    """
    if tracer.enabled or spans.enabled:
        return None
    if faults is not None and faults.any_faults:
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
                    pcie_rate_gbps, collect_latency)
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

    # Pure per-row L2 outcome (per-core first-touch + capacity spill; the
    # service-order restriction of each core equals its FIFO order).
    all_rows = np.arange(n, dtype=np.int64)
    miss_frac, spill = l2_spill_rows(engine.l2, trace, all_rows, cores, k,
                                     touches=engine.state_access_batch(trace))

    # History depth: h_j = min(seq_at_service - 1, cap).  In steady state
    # (arrival index >= cap) the steer counter has always advanced past
    # cap, so only the first ``cap`` packets need the exact prefix walk.
    cap = engine.history_cap()
    h = np.full(n, cap, dtype=np.int64)
    if cap > 0:
        _resolve_history_prefix(trace, engine, now, cores, miss_frac, spill,
                                h, cap)

    services = engine.service_rows(trace, all_rows, miss_frac, spill, h)

    # Per-core FIFO drain: the same max-plus recurrence per core.
    starts = np.empty(n, dtype=np.float64)
    finishes = np.empty(n, dtype=np.float64)
    order = np.argsort(cores, kind="stable")
    core_of_sorted = cores[order]
    boundaries = np.flatnonzero(np.diff(core_of_sorted)) + 1
    for rows_c in np.split(order, boundaries):
        s, f = _chain(now[rows_c], services[rows_c])
        starts[rows_c] = s
        finishes[rows_c] = f

    # Pop events: packet j leaves its ring at the first arrival i > j with
    # now_i >= start_j (every arrival drains all cores first), or at the
    # final grace drain (m = n).  ``searchsorted`` is exact because the
    # arrival grid is nondecreasing.
    m = np.searchsorted(now, starts, side="left")
    m = np.maximum(m, all_rows + 1)

    # Ring occupancy at each enqueue: FIFO position minus how many of the
    # core's earlier packets popped at or before this arrival.  Any ring
    # at capacity means the scalar loop would have dropped — fall back.
    for rows_c in np.split(order, boundaries):
        m_c = m[rows_c]
        popped_before = np.searchsorted(m_c, rows_c, side="right")
        occupancy = np.arange(len(rows_c)) - popped_before
        if bool(np.any(occupancy >= ring_capacity)):
            return None

    # Speculation holds: no drops anywhere.  Commit.
    stream_end = n * interval
    horizon = stream_end + max(grace_min_ns, grace_fraction * stream_end)
    popped = starts <= horizon
    processed = int(np.count_nonzero(popped))
    unfinished = n - processed

    engine.commit_steer_batch(n)
    pop_rows = np.flatnonzero(popped)
    # Scalar pop order: by drain event, then core (drained 0..k-1), then
    # FIFO position (== arrival index within a core).
    pop_rows = pop_rows[np.lexsort(
        (pop_rows, cores[pop_rows], m[pop_rows])
    )]
    committed = engine.service_batch(
        trace, pop_rows, cores[pop_rows], starts[pop_rows], m[pop_rows]
    )

    per_core_packets = np.bincount(cores[pop_rows], minlength=k).tolist()
    last_finish = float(np.max(finishes[pop_rows])) if processed else 0.0
    duration = max(last_finish, stream_end)

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
        injected_lost=0,
        unfinished=unfinished,
        duration_ns=duration,
        rate_pps=rate_pps,
        counters=engine.counters,
        pcie_dropped=0,
        per_core_packets=per_core_packets,
        latency_samples_ns=latency_samples,
        latency_histogram=latency_hist,
        fault_stats=None,
        placement_stats=placement_stats,
    )


def _resolve_history_prefix(
    trace: "PerfTrace",
    engine: "PerfEngine",
    now: np.ndarray,
    cores: np.ndarray,
    miss_frac: np.ndarray,
    spill: np.ndarray,
    h: np.ndarray,
    cap: int,
) -> None:
    """Exact history depths for the first ``cap`` packets, in place.

    Each prefix packet's start time depends only on earlier prefix
    packets on its core, so a short scalar walk resolves the order
    dependence the steady state is free of: pop event
    ``m = max(first arrival >= start, j+1)`` gives ``h = min(m-1, cap)``.
    Every prefix row is priced at every depth ``0..cap`` in one call.
    """
    prefix = min(cap, len(now))
    rows = np.repeat(np.arange(prefix, dtype=np.int64), cap + 1)
    depths = np.tile(np.arange(cap + 1, dtype=np.int64), prefix)
    services = engine.service_rows(trace, rows, miss_frac[rows], spill[rows],
                                   depths).reshape(prefix, cap + 1).tolist()
    core_busy = [0.0] * engine.num_cores
    for j in range(prefix):
        core = int(cores[j])
        arrival = float(now[j])
        busy = core_busy[core]
        start = busy if busy > arrival else arrival
        m = max(int(np.searchsorted(now, start, side="left")), j + 1)
        h[j] = hj = min(m - 1, cap)
        core_busy[core] = start + services[j][hj]
