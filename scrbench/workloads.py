"""The benchmark's four workloads, each generated from one seed.

A workload is a tuple of *timed* items (MLFFR searches or functional
runs, the unit a user waits on) plus, for ``functional-verify`` only,
untimed *companion* searches that give that workload its simulated
metrics without putting the simulator into its host time.  The program
only ever receives :class:`~repro.scenario.Scenario` specs or
synthesized traces; every seed-dependent choice is made here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union

from repro.faults import FaultSpec
from repro.placement import PlacementSpec
from repro.programs.registry import make_program, program_names
from repro.scenario import Scenario, TraceSpec

__all__ = ["SimItem", "FuncItem", "Item", "Workload", "WORKLOADS", "build"]

#: Packets per synthesized trace on the simulator workloads: the
#: Scenario default, i.e. what ``scr-repro mlffr``/``sweep`` measure.
SIM_PACKETS = 4000

#: zipf-hybrid's window: half the multitenant suite's 1500 packets, which
#: its classifier thresholds (HYBRID_PLACEMENT) were calibrated on.  A
#: hybrid search costs ~10x an scr search on the same trace, and the run
#: needs many traces (below); at 750 packets eight sweeps fit in a run.
ZIPF_PACKETS = 750

#: Sweeps per run.  One trace's flow mix decides whether an elephant
#: pins an RSS core (fig6-caida rss MLFFR: 9.0..17.75 Mpps over ten
#: seeds), how well the hybrid classifier separates elephants (16..48
#: Mpps) or how long synthesis takes (it materializes every admitted flow
#: whole, so caida and univ_dc traces take 0.01..0.35 s by seed), and with
#: it the metrics of the run; many independent traces per run average
#: that out.  So a fig6-caida or loss-recovery sweep gives each core
#: count a trace of its own, which all its searches share (8 and 6
#: traces per run), zipf-hybrid gives each sweep one trace per flow count
#: (16 per run), and functional-verify gives each program a trace of its
#: own (12 per run).  zipf-hybrid's item times are bimodal (hybrid vs
#: purebred), so its median and tail item settle only with ~48 items: at
#: 24 they spread ~0.2 of their median over ten seeds, at 48 ~0.1.
#: Trace seeds are ``seed * n .. seed * n + n - 1`` for a run of ``n``
#: traces.
FIG6_SWEEPS = 2
ZIPF_SWEEPS = 8
LOSS_SWEEPS = 2

FIG6_CORES = (1, 2, 4, 8)
LOSS_CORES = (2, 4, 8)

#: Flows per trace.  With the Scenario default of 60, how many packets a
#: trace holds depends on the seed (caida: 425..4000 of 4000; univ_dc:
#: 1703..4000), and with it every host time; these counts fill the
#: window on every seed.  1000 caida flows also halve the seed-to-seed
#: MLFFR spread of fig6-caida (from ~11 % to ~5 %).
CAIDA_FLOWS = 1000
UNIV_DC_FLOWS = 200
FUNC_FLOWS = 200

#: Packets per functional run.  The byte-level engine costs ~0.25 ms per
#: packet, so 24 runs of 1000 packets already take ~6 s per pass.
FUNC_PACKETS = 1000

#: §4.2: every packet truncated to 192 B on the functional path.
FUNC_PACKET_SIZE = 192

#: The multitenant suite's classifier calibration (repro.perf.suite).
HYBRID_PLACEMENT = PlacementSpec(
    max_elephants=12, promote_threshold=24, demote_threshold=8
)


@dataclass(frozen=True)
class SimItem:
    """One whole MLFFR search of one scenario."""

    scenario: Scenario

    @property
    def label(self) -> str:
        s = self.scenario
        extra = ""
        kwargs = s.engine_kwargs_dict()
        if kwargs.get("loss_rate"):
            extra += f" loss={kwargs['loss_rate']}"
        if s.faults is not None:
            extra += f" faults[{s.faults.describe()}]"
        if s.trace.workload == "zipf":
            extra += f" flows={s.trace.num_flows}"
        return f"{s.program}/{s.technique}@{s.cores}{extra} seed={s.trace.seed}"


@dataclass(frozen=True)
class FuncItem:
    """One ``ScrFunctionalEngine.run`` plus its ``reference_run``."""

    program: str
    cores: int
    loss_rate: float
    trace: TraceSpec
    seed: int

    @property
    def label(self) -> str:
        return (f"{self.program}/functional@{self.cores} loss={self.loss_rate}"
                f" seed={self.trace.seed}")


Item = Union[SimItem, FuncItem]


@dataclass(frozen=True)
class Workload:
    name: str
    timed: Tuple[Item, ...]
    #: untimed searches feeding the simulated metrics (functional-verify).
    companion: Tuple[SimItem, ...] = ()
    #: whether the lossless Appendix A model applies to its scr searches.
    model_residual: bool = False
    #: fewest timed passes of an untraced run.  Each pass starts with a
    #: cold set-up, and each item's and set-up unit's time is a
    #: best-of-passes.
    min_passes: int = 3


def _trace_seeds(seed: int, count: int) -> range:
    return range(seed * count, seed * count + count)


def fig6_caida(seed: int) -> Workload:
    """ddos @ caida, four techniques x cores 1/2/4/8 (the Fig. 6 sweep);
    the four techniques at one core count share a trace."""
    seeds = _trace_seeds(seed, FIG6_SWEEPS * len(FIG6_CORES))
    items = tuple(
        SimItem(Scenario.create("ddos", "caida", technique, cores,
                                num_flows=CAIDA_FLOWS,
                                max_packets=SIM_PACKETS, seed=trace_seed))
        for trace_seed, cores in zip(seeds, FIG6_CORES * FIG6_SWEEPS)
        for technique in ("scr", "relaxed_scr", "rss", "shared")
    )
    return Workload("fig6-caida", items, model_residual=True)


def zipf_hybrid(seed: int) -> Workload:
    """ddos @ zipf at 8 cores, 10^3 and 10^5 nominal flows, hybrid vs
    both purebreds on identical traces."""
    items = tuple(
        SimItem(Scenario.create(
            "ddos", "zipf", technique, 8, num_flows=flows,
            max_packets=ZIPF_PACKETS, seed=trace_seed,
            placement=HYBRID_PLACEMENT if technique == "hybrid" else None,
        ))
        for trace_seed in _trace_seeds(seed, ZIPF_SWEEPS)
        for flows in (1_000, 100_000)
        for technique in ("hybrid", "scr", "rss")
    )
    # Two passes: its searches are the longest, and three would take
    # ~60 s a run on a slow 2-core host.
    return Workload("zipf-hybrid", items, min_passes=2)


def loss_recovery(seed: int) -> Workload:
    """port_knocking @ univ_dc, SCR with recovery: engine loss x cores
    (Fig. 10b) plus two repro.faults regimes at 4 cores; the searches at
    one core count share a trace."""
    def scr(trace_seed: int, cores: int, faults: "FaultSpec | None" = None,
            loss_rate: float = 0.0) -> SimItem:
        kwargs: Dict[str, object] = {"with_recovery": True, "seed": trace_seed}
        if loss_rate:
            kwargs["loss_rate"] = loss_rate
        return SimItem(Scenario.create(
            "port_knocking", "univ_dc", "scr", cores, num_flows=UNIV_DC_FLOWS,
            max_packets=SIM_PACKETS, seed=trace_seed, engine_kwargs=kwargs,
            faults=faults,
        ))

    items = []
    seeds = _trace_seeds(seed, LOSS_SWEEPS * len(LOSS_CORES))
    for ts, cores in zip(seeds, LOSS_CORES * LOSS_SWEEPS):
        items += [scr(ts, cores, loss_rate=loss) for loss in (0.001, 0.01)]
        if cores == 4:
            items.append(scr(ts, 4, FaultSpec(seed=ts, drop_rate=0.01)))
            items.append(scr(ts, 4, FaultSpec(seed=ts, duplicate_rate=0.01,
                                              reorder_rate=0.02)))
    return Workload("loss-recovery", tuple(items))


def functional_verify(seed: int) -> Workload:
    """Every registered program, functional SCR at 4 cores, lossless and
    1 % loss, on a 192 B truncated caida trace of its own; plus one
    untimed scr@4 search per program on the same trace."""
    timed = []
    companion = []
    programs = program_names()
    for program, trace_seed in zip(programs, _trace_seeds(seed, len(programs))):
        spec = TraceSpec(
            workload="caida", num_flows=FUNC_FLOWS,
            max_packets=FUNC_PACKETS, seed=trace_seed,
            bidirectional=bool(make_program(program).bidirectional),
            packet_size=FUNC_PACKET_SIZE,
        )
        for loss_rate in (0.0, 0.01):
            timed.append(FuncItem(program, 4, loss_rate, spec, trace_seed))
        companion.append(SimItem(Scenario.create(
            program, "caida", "scr", 4, num_flows=FUNC_FLOWS,
            max_packets=FUNC_PACKETS, seed=trace_seed,
            packet_size=FUNC_PACKET_SIZE,
        )))
    return Workload("functional-verify", tuple(timed), tuple(companion))


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "fig6-caida": fig6_caida,
    "zipf-hybrid": zipf_hybrid,
    "loss-recovery": loss_recovery,
    "functional-verify": functional_verify,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
