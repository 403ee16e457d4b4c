"""Run one workload: cold set-ups, timed passes, output checks, metrics.

An item (one MLFFR search, or one functional run plus its reference) is
timed over the passes made in ``seconds``, and its time is the sum of
its units' best times (see :func:`_best_ns`): on a shared 2-core host a
single pass's total varies ~2x while best-of-repeats stays within ~5 %.
Passes interleave the items, so a burst of host noise lands on one
repeat of every item rather than on every repeat of one item.  Set-up
time is composed the same way from the units of the run's cold set-ups
(each synthesis, each lowering, each engine build).  Host times are
then scaled to a reference host by a calibration loop timed
in the same run (see README.md).
"""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.bench.mlffr import MlffrResult, find_mlffr
from repro.bench.model import predicted_scr_mpps
from repro.core import ScrFunctionalEngine, reference_run
from repro.cpu.costmodel import TABLE4_PARAMS
from repro.cpu.simulator import SimResult, simulate
from repro.faults.plan import FaultPlan
from repro.perf.profiler import attribute_result
from repro.programs.registry import make_program
from repro.scenario import StackBuilder

from . import checks
from .spans import Span, SpanRecorder, instrument, self_times
from .workloads import FuncItem, SimItem, Workload

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "RunResult",
    "calibration_ns",
    "compose_setup_ns",
    "end_to_end",
    "host_scale",
    "known_defects",
    "prepare",
    "run_workload",
    "tail_rank",
]

#: Iterations of the calibration loop (about 1.5 ms) and its best time on
#: the reference host, a quiet 2-core box.  Host times are scaled by
#: reference / measured, both best-of-passes estimates from the same run,
#: so a slower or busier host moves the calibration, not the metrics.
CALIBRATION_ITERS = 10_000
CALIBRATION_REF_NS = 1_450_000

#: Offered rate of the latency probe: below every item's MLFFR, so p99
#: sojourn reads service and light queueing.  At the reported rate it
#: reads how close the 0.4 Mpps search grid landed to saturation, which
#: swings ~2x from seed to seed.
P99_RATE_PPS = 4e6

TECHNIQUES = ("scr", "relaxed_scr", "rss", "shared", "hybrid")
DROP_CAUSES = ("wire", "ring", "pcie", "unfinished", "fault")
SPAN_NAMES = ("bench.item", "mlffr.search", "sim.probe", "sim.columnar",
              "func.run", "sequencer.process", "core.receive", "core.reference")

#: (name, unit, better) of every metric an untraced run prints.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("grid_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("search_p50_s", "s", "lower"),
    ("search_tail_s", "s", "lower"),
    ("mlffr_mpps", "Mpps", "higher"),
    ("p99_sojourn_us", "us", "lower"),
    ("passed_fraction", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every metric a traced run prints.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("traffic.synthesize_s", "s", "lower"),
    ("traffic.packets", "count", "lower"),
    ("lower.s", "s", "lower"),
    ("lower.unique_keys", "count", "lower"),
    ("engine.build_s", "s", "lower"),
    ("setup.peak_rss_mb", "MB", "lower"),
    ("mlffr.probes", "count", "lower"),
    ("mlffr.probe_packets", "count", "lower"),
    ("sim.probe_s", "s", "lower"),
    ("sim.probe_p50_ms", "ms", "lower"),
    ("sim.probe_tail_ms", "ms", "lower"),
    ("sim.host_ns_per_pkt", "ns/pkt", "lower"),
    *((f"sim.probe_s.{t}", "s", "lower") for t in TECHNIQUES),
    ("sim.columnar_attempts", "count", "lower"),
    ("sim.columnar_commits", "count", "higher"),
    ("sim.columnar_commit_ratio", "ratio", "higher"),
    ("sim.columnar_wasted_s", "s", "lower"),
    ("sim.scalar_s", "s", "lower"),
    ("simcost.dispatch_share", "fraction", "lower"),
    ("simcost.history_share", "fraction", "lower"),
    ("simcost.contention_share", "fraction", "lower"),
    ("sim.core_util_mean", "fraction", "higher"),
    *((f"sim.drops.{c}", "count", "lower") for c in DROP_CAUSES),
    ("placement.promotions", "count", "lower"),
    ("placement.migrations", "count", "lower"),
    ("faults.dropped", "count", "lower"),
    ("faults.duplicated", "count", "lower"),
    ("recovery.resyncs", "count", "lower"),
    ("ledger.unaccounted_pkts", "count", "lower"),
    ("sequencer.process_s", "s", "lower"),
    ("core.receive_s", "s", "lower"),
    ("core.reference_s", "s", "lower"),
    ("func.kpps", "kpps", "higher"),
    ("core.recovered", "count", "higher"),
    ("core.skipped", "count", "lower"),
    ("core.divergent_runs", "count", "lower"),
    ("model_residual", "ratio", "lower"),
    ("failed_fraction", "fraction", "lower"),
    ("trace.grid_s", "s", "lower"),
    *((f"self.{n}_s", "s", "lower") for n in SPAN_NAMES),
    ("trace_overhead", "ratio", "lower"),
    ("host.calibration_ms", "ms", "lower"),
)


@dataclass
class Prepared:
    """One item turned into runnable objects by a set-up."""

    item: object
    label: str
    technique: str
    perf_trace: object = None
    engine: object = None
    plan: Optional[FaultPlan] = None
    trace: object = None


@dataclass
class SetupStats:
    packets: int = 0
    unique_keys: int = 0


def _span(rec: Optional[SpanRecorder], name: str):
    return rec.span(name) if rec is not None else nullcontext()


#: One timed set-up unit: (group, host ns).  Syntheses of traces of one
#: shape share a group (see :func:`compose_setup_ns`); other units have
#: none.
Unit = Tuple[Optional[Hashable], int]


@contextmanager
def _unit(units: List[Unit], rec: Optional[SpanRecorder], name: str,
          group: Optional[Hashable] = None) -> Iterator[None]:
    """Time one set-up unit into ``units`` (and span it when traced)."""
    t0 = perf_counter_ns()
    with _span(rec, name):
        yield
    units.append((group, perf_counter_ns() - t0))


def _func_engine(item: FuncItem) -> ScrFunctionalEngine:
    return ScrFunctionalEngine(
        make_program(item.program), item.cores,
        with_recovery=item.loss_rate > 0, loss_rate=item.loss_rate,
        seed=item.seed,
    )


def known_defects(item: object) -> FrozenSet[str]:
    """The failure causes a known defect of the program explains for
    ``item`` (see :func:`checks.known_defects`)."""
    if isinstance(item, FuncItem):
        return checks.known_defects(item.program, item.trace.packet_size is not None)
    s = item.scenario
    return checks.known_defects(s.program, s.trace.packet_size is not None)


def prepare(items: Sequence[object], rec: Optional[SpanRecorder] = None
            ) -> Tuple[List[Prepared], SetupStats, List[Unit]]:
    """Synthesize, lower and build engines for ``items`` from a cold
    builder with no disk cache (the set-up).  Also returns the host ns
    of each set-up unit, in an order fixed by ``items``."""
    builder = StackBuilder()
    stats = SetupStats()
    units: List[Unit] = []
    specs = []
    for item in items:
        spec = item.trace if isinstance(item, FuncItem) else item.scenario.trace
        if spec not in specs:
            specs.append(spec)
    for spec in specs:
        with _unit(units, rec, "traffic.synthesize",
                   group=dataclasses.replace(spec, seed=0)):
            trace = builder.trace(spec)
        stats.packets += len(trace)
    lowered = set()
    for item in items:
        if isinstance(item, SimItem):
            key = (item.scenario.program, item.scenario.trace)
            if key not in lowered:
                lowered.add(key)
                with _unit(units, rec, "lower"):
                    pt = builder.perf_trace(*key)
                stats.unique_keys += pt.unique_keys
    prepared = []
    for item in items:
        if isinstance(item, FuncItem):
            with _unit(units, rec, "engine.build"):
                engine = _func_engine(item)
            prepared.append(Prepared(item, item.label, "functional",
                                     engine=engine,
                                     trace=builder.trace(item.trace)))
            continue
        s = item.scenario
        with _unit(units, rec, "engine.build"):
            engine = builder.engine(s)
            plan = (FaultPlan(s.faults)
                    if s.faults is not None and s.faults.any_faults else None)
        prepared.append(Prepared(item, item.label, s.technique,
                                 perf_trace=builder.perf_trace(s.program, s.trace),
                                 engine=engine, plan=plan))
    return prepared, stats, units


def _search(p: Prepared) -> MlffrResult:
    s = p.item.scenario
    return find_mlffr(p.perf_trace, p.engine, line_rate_gbps=s.line_rate_gbps,
                      burst_size=s.burst_size, faults=p.plan)


def calibration_ns() -> int:
    """Host ns of a fixed pure-Python loop: dict, integer and list work
    independent of the program, timed beside every item."""
    t0 = perf_counter_ns()
    table: Dict[int, int] = {}
    acc = []
    for i in range(CALIBRATION_ITERS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        if i & 7 == 0:
            acc.append(i * 3 % 7)
    acc.sort()
    return perf_counter_ns() - t0


class _ProbeClock:
    """Host time of each probe of an untraced search (a timer, not a span).

    A search's time is composed from its probes' best times over the
    passes, plus the best time of the rest of the search: a probe is the
    finest unit that repeats exactly, and only short units catch the
    host's quiet moments (see README.md).
    """

    def __init__(self) -> None:
        self.ns: List[int] = []

    @contextmanager
    def installed(self) -> Iterator[None]:
        import repro.bench.mlffr as mlffr

        original = mlffr.simulate

        def timed(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                self.ns.append(perf_counter_ns() - t0)

        mlffr.simulate = timed
        try:
            yield
        finally:
            mlffr.simulate = original


def _run_item(p: Prepared, rec: Optional[SpanRecorder],
              clock: Optional[_ProbeClock] = None) -> Tuple[List[int], object]:
    """Run one item; returns (host ns of its timed units, outcome).  The
    units are a functional run and its reference, or a search's probes
    (when ``clock`` is given) and the rest of the search."""
    if isinstance(p.item, FuncItem):
        program = make_program(p.item.program)
        t0 = perf_counter_ns()
        with _span(rec, "bench.item"):
            with _span(rec, "func.run"):
                run = p.engine.run(p.trace)
            t1 = perf_counter_ns()
            with _span(rec, "core.reference"):
                ref = reference_run(program, p.trace)
        return [t1 - t0, perf_counter_ns() - t1], (run, ref[0], ref[1])
    if clock is not None:
        clock.ns = []
    t0 = perf_counter_ns()
    with _span(rec, "bench.item"):
        with _span(rec, "mlffr.search"):
            res = _search(p)
    total = perf_counter_ns() - t0
    probes = clock.ns if clock is not None else []
    return probes + [total - sum(probes)], res


def _best_ns(samples: Sequence[List[int]]) -> int:
    """An item's time: the sum over its units of each unit's best over
    the passes (the best total if the passes split it differently)."""
    if len({len(units) for units in samples}) != 1:
        return min(map(sum, samples))
    return sum(min(unit) for unit in zip(*samples))


def compose_setup_ns(setups: Sequence[List[Unit]]) -> float:
    """A set-up's time: the sum of its units' bests over the passes, with
    the syntheses of traces of one shape (specs that differ only in their
    seed) counted at the median of their bests.  A trace's synthesis time
    is set by its largest flows, which synthesis materializes whole: it
    is heavy-tailed across seeds (0.01..0.35 s for one caida or univ_dc
    trace), and the median keeps a rare heavy trace from setting a run's
    set-up time.  A change to synthesis cost still moves the median."""
    total = 0.0
    groups: Dict[Hashable, List[int]] = {}
    for unit in zip(*setups):
        best = min(ns for _, ns in unit)
        group = unit[0][0]
        if group is None:
            total += best
        else:
            groups.setdefault(group, []).append(best)
    return total + sum(len(b) * statistics.median(b) for b in groups.values())


def _fingerprint(p: Prepared, outcome) -> str:
    if isinstance(p.item, FuncItem):
        return checks.func_fingerprint(*outcome)
    return checks.search_fingerprint(outcome)


@dataclass
class RunResult:
    """Everything one run measured and checked."""

    labels: List[str]
    best_ns: List[int]
    passes: int
    #: a cold set-up's time, composed from its units' bests (host ns).
    setup_ns: float
    #: peak resident memory while the items ran, and during set-up (MB).
    peak_rss_mb: float
    setup_rss_mb: float
    #: the calibration loop's best-of-passes time, averaged over slots.
    calibration_ns: float
    #: failure causes of each timed item.
    causes: Dict[str, List[str]] = field(default_factory=dict)
    #: failure causes of each untimed companion search (not attempted).
    companion_causes: Dict[str, List[str]] = field(default_factory=dict)
    #: the causes a known defect explains, per timed or companion item.
    known: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    run_causes: List[str] = field(default_factory=list)
    mlffr_mpps: Dict[str, float] = field(default_factory=dict)
    p99_us: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.causes)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.causes.values() if c)

    @property
    def correct(self) -> bool:
        """No failure other than a known defect on an item it affects."""
        if self.run_causes:
            return False
        items = {**self.causes, **self.companion_causes}
        return all(set(c) <= self.known.get(label, frozenset())
                   for label, c in items.items())


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile with ten samples beyond it;
    the slowest sample when that percentile would not exceed the median."""
    return n - 10 if n - 10 > (n + 1) / 2 else n


def _tail(values: Sequence[float]) -> float:
    return sorted(values)[tail_rank(len(values)) - 1]


def _geomean(values: Sequence[float]) -> float:
    # A zero (a search with no lossless rate) already fails its checks.
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


class _SimTotals:
    """Per-layer quantities read off the reported points (deterministic)."""

    def __init__(self) -> None:
        self.v: Dict[str, float] = {}
        self.busy = 0.0
        self.util: List[float] = []
        self.residuals: List[float] = []

    def add(self, name: str, value: float) -> None:
        self.v[name] = self.v.get(name, 0.0) + value

    def point(self, best: SimResult) -> None:
        faults = best.fault_stats or {}
        fault_drops = faults.get("fault_dropped", 0) + faults.get("fault_pop_dropped", 0)
        self.add("sim.drops.wire", best.wire_dropped)
        self.add("sim.drops.ring", best.ring_dropped)
        self.add("sim.drops.pcie", best.pcie_dropped)
        self.add("sim.drops.unfinished", best.unfinished)
        self.add("sim.drops.fault", fault_drops + best.injected_lost)
        self.add("faults.dropped", fault_drops)
        self.add("faults.duplicated", faults.get("fault_duplicated", 0))
        self.add("recovery.resyncs", faults.get("resyncs", 0))
        packets_in, accounted = checks.ledger(best)
        self.add("ledger.unaccounted_pkts", packets_in - accounted)
        placement = best.placement_stats or {}
        self.add("placement.promotions", placement.get("promotions", 0))
        self.add("placement.migrations", placement.get("migrations", 0))
        totals = attribute_result(best).totals()
        self.busy += totals["busy_ns"]
        self.add("dispatch_ns", totals["dispatch_ns"])
        self.add("history_ns", totals["history_ns"])
        self.add("contention_ns", totals["contention_ns"])
        util = best.core_utilization()
        if util:
            self.util.append(sum(util) / len(util))


def _check_sim(p: Prepared, res: MlffrResult, totals: _SimTotals,
               out: RunResult, residual: bool) -> List[str]:
    """Output checks on one search, plus its simulated metrics (and its
    Appendix A model residual if ``residual``)."""
    s = p.item.scenario
    causes = checks.check_probes(res.probes, res.mlffr_pps)
    best = res.result_at_mlffr
    out.mlffr_mpps[p.label] = res.mlffr_mpps
    if residual and s.technique == "scr":
        predicted = predicted_scr_mpps(TABLE4_PARAMS[s.program], s.cores)
        totals.residuals.append(abs(res.mlffr_mpps - predicted) / predicted)
    if best is None:
        return causes
    causes += checks.check_ledger(best)
    common = dict(line_rate_gbps=s.line_rate_gbps, burst_size=s.burst_size,
                  faults=p.plan)
    eligible = getattr(p.engine, "columnar_eligible", None)
    if p.plan is None and callable(eligible) and eligible():
        scalar = simulate(p.perf_trace, res.mlffr_pps, p.engine,
                          hotpath="scalar", **common)
        if checks.sim_fingerprint(scalar) != checks.sim_fingerprint(best):
            causes.append("parity.scalar")
    probe = simulate(p.perf_trace, P99_RATE_PPS, p.engine,
                     collect_latency=True, **common)
    out.p99_us[p.label] = probe.latency_percentile_ns(0.99) / 1e3
    totals.point(best)
    return causes


def run_workload(workload: Workload, seconds: float, traced: bool) -> RunResult:
    """Timed passes until ``seconds`` is spent, then the output checks.

    Every pass starts from a cold :class:`StackBuilder` (its set-up is
    timed apart from the items), so work a layer defers until first use
    is paid inside the items, once per pass, as in a user's sweep.  A
    traced run alternates untraced and traced passes.
    """
    setup_rec = SpanRecorder() if traced else None
    grid_rec = SpanRecorder() if traced else None
    causes: Dict[str, List[str]] = {item.label: [] for item in workload.timed}
    untraced: List[List[List[int]]] = []
    traced_ns: List[List[List[int]]] = []
    clock = _ProbeClock()
    calibration: List[List[int]] = []
    setup_units: List[List[Unit]] = []
    rss: List[Tuple[float, float]] = []
    first = None
    reference: List[str] = []
    start = perf_counter()
    while True:
        for with_trace in ((False, True) if traced else (False,)):
            if with_trace:
                setup_rec.item = f"setup:{len(traced_ns)}"
            gc.collect()
            _reset_peak_rss()
            prepared, stats, units = prepare(
                workload.timed, setup_rec if with_trace else None)
            gc.collect()
            setup_rss = peak_rss_mb()
            _reset_peak_rss()
            times, cal, outcomes = [], [], []
            for idx, p in enumerate(prepared):
                cal.append(calibration_ns())
                if with_trace:
                    grid_rec.item = f"{len(traced_ns)}:{idx}"
                    grid_rec.technique = p.technique
                    with instrument(grid_rec):
                        ns, outcome = _run_item(p, grid_rec)
                else:
                    with clock.installed():
                        ns, outcome = _run_item(p, None, clock)
                times.append(ns)
                outcomes.append(outcome)
            grid_rss = peak_rss_mb()
            prints = [_fingerprint(p, o) for p, o in zip(prepared, outcomes)]
            if first is None:
                first = (prepared, stats, outcomes)
                reference = prints
            else:
                cause = "determinism.traced" if with_trace else "determinism.repeat"
                for p, a, b in zip(prepared, reference, prints):
                    if a != b and cause not in causes[p.label]:
                        causes[p.label].append(cause)
            if with_trace:
                traced_ns.append(times)
            else:
                untraced.append(times)
                calibration.append(cal)
                setup_units.append(units)
                rss.append((setup_rss, grid_rss))
        rounds = len(untraced)
        elapsed = perf_counter() - start
        if (rounds >= (1 if traced else workload.min_passes)
                and elapsed * (rounds + 1) / rounds > seconds):
            break

    prepared, stats, outcomes = first
    out = RunResult(labels=[p.label for p in prepared],
                    best_ns=[_best_ns(col) for col in zip(*untraced)],
                    passes=rounds, setup_ns=compose_setup_ns(setup_units),
                    setup_rss_mb=max(s for s, _ in rss),
                    peak_rss_mb=max(g for _, g in rss),
                    calibration_ns=statistics.mean(
                        min(col) for col in zip(*calibration)),
                    causes=causes,
                    known={item.label: known_defects(item)
                           for item in workload.timed + workload.companion})

    # -- output checks (untimed), on the first pass's outcomes -------------
    totals = _SimTotals()
    func = {"offered": 0, "recovered": 0, "skipped": 0, "divergent": 0}
    for p, outcome in zip(prepared, outcomes):
        if isinstance(p.item, FuncItem):
            run, ref_verdicts, ref_state = outcome
            found = checks.check_functional(run, ref_verdicts, ref_state,
                                            lossless=p.item.loss_rate == 0)
            func["offered"] += run.offered
            func["recovered"] += run.recovered
            func["skipped"] += run.skipped
            func["divergent"] += bool(found)
        else:
            totals.add("mlffr.probes", outcome.iterations)
            totals.add("mlffr.probe_packets", outcome.iterations * len(p.perf_trace))
            found = _check_sim(p, outcome, totals, out, workload.model_residual)
        causes[p.label].extend(found)
    if workload.companion:
        for p in prepare(workload.companion)[0]:
            out.companion_causes[p.label] = _check_sim(
                p, _search(p), totals, out, workload.model_residual)

    if traced:
        _layer_metrics(out, totals, func, stats, setup_rec.spans,
                       grid_rec.spans, untraced, traced_ns)
        out.spans = setup_rec.spans + grid_rec.spans
    return out


def _layer_metrics(out: RunResult, totals: _SimTotals, func: Dict[str, int],
                   stats: SetupStats, setup_spans: List[Span],
                   spans: List[Span], untraced: List[List[List[int]]],
                   traced_ns: List[List[List[int]]]) -> None:
    n = len(traced_ns)
    layer = out.layer
    for name, _, _ in PER_LAYER:
        layer[name] = 0.0

    def total_s(group: Sequence[Span], name: str, tag: Optional[str] = None) -> float:
        return sum(s.dur_ns for s in group
                   if s.name == name and (tag is None or s.tag == tag)) / 1e9

    layer["traffic.synthesize_s"] = total_s(setup_spans, "traffic.synthesize") / n
    layer["traffic.packets"] = stats.packets
    layer["lower.s"] = total_s(setup_spans, "lower") / n
    layer["lower.unique_keys"] = stats.unique_keys
    layer["engine.build_s"] = total_s(setup_spans, "engine.build") / n
    layer["setup.peak_rss_mb"] = out.setup_rss_mb
    for name in ("mlffr.probes", "mlffr.probe_packets", "placement.promotions",
                 "placement.migrations", "faults.dropped", "faults.duplicated",
                 "recovery.resyncs", "ledger.unaccounted_pkts",
                 *(f"sim.drops.{c}" for c in DROP_CAUSES)):
        layer[name] = totals.v.get(name, 0.0)
    probes = [s.dur_ns / 1e6 for s in spans if s.name == "sim.probe"]
    if probes:
        layer["sim.probe_p50_ms"] = statistics.median(probes)
        layer["sim.probe_tail_ms"] = _tail(probes)
    layer["sim.probe_s"] = total_s(spans, "sim.probe") / n
    for t in TECHNIQUES:
        layer[f"sim.probe_s.{t}"] = total_s(spans, "sim.probe", t) / n
    if layer["mlffr.probe_packets"]:
        layer["sim.host_ns_per_pkt"] = (layer["sim.probe_s"] * 1e9
                                        / layer["mlffr.probe_packets"])
    columnar = [s for s in spans if s.name == "sim.columnar"]
    commits = [s for s in columnar if s.tag == "commit"]
    layer["sim.columnar_attempts"] = len(columnar) / n
    layer["sim.columnar_commits"] = len(commits) / n
    if columnar:
        layer["sim.columnar_commit_ratio"] = len(commits) / len(columnar)
    layer["sim.columnar_wasted_s"] = total_s(columnar, "sim.columnar", "fallback") / n
    layer["sim.scalar_s"] = layer["sim.probe_s"] - total_s(commits, "sim.columnar") / n
    if totals.busy:
        for part in ("dispatch", "history", "contention"):
            layer[f"simcost.{part}_share"] = totals.v[f"{part}_ns"] / totals.busy
    if totals.util:
        layer["sim.core_util_mean"] = sum(totals.util) / len(totals.util)
    layer["sequencer.process_s"] = total_s(spans, "sequencer.process") / n
    layer["core.receive_s"] = total_s(spans, "core.receive") / n
    layer["core.reference_s"] = total_s(spans, "core.reference") / n
    func_run_s = total_s(spans, "func.run") / n
    if func_run_s:
        layer["func.kpps"] = func["offered"] / func_run_s / 1e3
    layer["core.recovered"] = func["recovered"]
    layer["core.skipped"] = func["skipped"]
    layer["core.divergent_runs"] = func["divergent"]
    if totals.residuals:
        layer["model_residual"] = sum(totals.residuals) / len(totals.residuals)
    layer["failed_fraction"] = out.failed / out.attempted

    roots_ns = sum(s.dur_ns for s in spans if s.parent < 0)
    selfs = self_times(spans)
    if sum(selfs.values()) != roots_ns or set(selfs) - set(SPAN_NAMES):
        out.run_causes.append("trace.self_sum")
    layer["trace.grid_s"] = roots_ns / 1e9 / n
    for name in SPAN_NAMES:
        layer[f"self.{name}_s"] = selfs.get(name, 0) / 1e9 / n
    untraced_s = sum(sum(map(sum, units)) for units in untraced) / len(untraced) / 1e9
    layer["trace_overhead"] = layer["trace.grid_s"] / untraced_s
    layer["host.calibration_ms"] = out.calibration_ns / 1e6


def host_scale(out: RunResult) -> float:
    """Reference-host seconds per measured second (see CALIBRATION_REF_NS)."""
    return CALIBRATION_REF_NS / out.calibration_ns


def end_to_end(out: RunResult) -> Dict[str, float]:
    scale = host_scale(out)
    best_s = [ns / 1e9 * scale for ns in out.best_ns]
    return {
        "grid_s": sum(best_s),
        "setup_s": out.setup_ns / 1e9 * scale,
        "search_p50_s": statistics.median(best_s),
        "search_tail_s": _tail(best_s),
        "mlffr_mpps": _geomean(list(out.mlffr_mpps.values())),
        "p99_sojourn_us": _geomean(list(out.p99_us.values())),
        "passed_fraction": (out.attempted - out.failed) / out.attempted,
        "peak_rss_mb": out.peak_rss_mb,
    }


def _reset_peak_rss() -> None:
    """Restart the kernel's resident-memory high-water mark (Linux; where
    that is refused, peaks cover the process so far)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Resident-memory high-water mark since the last reset, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024 if sys.platform != "darwin" else kb / 2**20
