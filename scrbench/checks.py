"""Output checks: every result the benchmark times is also verified.

Each check returns a list of failure *causes* (empty when the output is
right), so a run can count failures by cause.  :func:`known_defects`
names the causes that two known defects of the program produce, and
only on the items those defects affect; the benchmark keeps counting
them rather than hiding them (see README.md).  Any other cause makes
the run incorrect.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.bench.mlffr import LOSS_THRESHOLD, SEARCH_TOLERANCE_PPS
from repro.cpu.simulator import SimResult

__all__ = [
    "DUPLICATE_DEFECT",
    "FUNC_DIVERGENCE",
    "TRUNCATION_DIVERGENT",
    "MAX_PPS",
    "known_defects",
    "check_probes",
    "ledger",
    "check_ledger",
    "sim_fingerprint",
    "search_fingerprint",
    "func_fingerprint",
    "check_functional",
]

#: find_mlffr's default search ceiling.
MAX_PPS = 400e6

#: Duplicate faults are serviced but never booked (ROADMAP item 4): the
#: books miss at most one packet per injected duplicate.
DUPLICATE_DEFECT = "ledger.duplicates_unaccounted"

#: On truncated traces the functional replicas of these programs diverge
#: from the single-threaded reference (a heavy_hitter flow holds 54 B in
#: a replica and 192 B in the reference).
TRUNCATION_DIVERGENT = frozenset({"heavy_hitter", "peak_meter", "sampler"})
FUNC_DIVERGENCE = frozenset({
    "func.replicas_inconsistent",
    "func.verdict_mismatch",
    "func.state_mismatch",
})


def known_defects(program: str, truncated: bool) -> FrozenSet[str]:
    """The failure causes a known defect explains for an item of
    ``program`` (on a truncated trace or not).  Only
    :func:`check_ledger` emits :data:`DUPLICATE_DEFECT`, and only for a
    deficit no larger than the duplicates injected."""
    known = {DUPLICATE_DEFECT}
    if truncated and program in TRUNCATION_DIVERGENT:
        known |= FUNC_DIVERGENCE
    return frozenset(known)


def check_probes(
    probes: Sequence[Tuple[float, float]],
    mlffr_pps: float,
    max_pps: float = MAX_PPS,
    loss_threshold: float = LOSS_THRESHOLD,
    tolerance_pps: float = SEARCH_TOLERANCE_PPS,
) -> List[str]:
    """The search's probe list must support its answer: the best lossless
    probe is the reported rate, and the nearest lossy probe above it lies
    within the search tolerance (unless the search hit ``max_pps``)."""
    causes = []
    if mlffr_pps <= 0:
        causes.append("search.no_lossfree_rate")
    lossfree = [rate for rate, loss in probes if loss <= loss_threshold]
    if max(lossfree, default=0.0) != mlffr_pps:
        causes.append("probes.best_mismatch")
    if mlffr_pps < max_pps:
        above = [rate for rate, loss in probes
                 if loss > loss_threshold and rate > mlffr_pps]
        if not above or min(above) - mlffr_pps > tolerance_pps:
            causes.append("probes.gap")
    return causes


def ledger(res: SimResult) -> Tuple[int, int]:
    """(packets in, packets accounted) at one simulated rate.

    In: offered originals plus injected duplicates.  Accounted: processed
    plus every drop cause plus what was still queued at the cutoff.
    """
    faults = res.fault_stats or {}
    duplicates = faults.get("fault_duplicated", 0)
    fault_drops = faults.get("fault_dropped", 0) + faults.get("fault_pop_dropped", 0)
    accounted = (res.processed + res.wire_dropped + res.ring_dropped
                 + res.pcie_dropped + res.injected_lost + fault_drops
                 + res.unfinished)
    return res.offered + duplicates, accounted


def check_ledger(res: SimResult) -> List[str]:
    """The books balance.  A deficit of at most the injected duplicates
    is the known duplicate defect; any other imbalance is not."""
    packets_in, accounted = ledger(res)
    if packets_in == accounted:
        return []
    duplicated = (res.fault_stats or {}).get("fault_duplicated", 0)
    if 0 < packets_in - accounted <= duplicated:
        return [DUPLICATE_DEFECT]
    return ["ledger.unbalanced"]


def _plain(obj: object) -> object:
    # Mappings may have tuple keys (flow state): order entries by key repr.
    if isinstance(obj, Mapping):
        return sorted((repr(k), _plain(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_plain(v) for v in obj]
        return sorted(items, key=repr) if isinstance(obj, (set, frozenset)) else items
    return obj


def _canonical(obj: object) -> str:
    # JSON keeps every float digit (repr) and compares NaN equal to NaN.
    return json.dumps(_plain(obj), default=repr)


def sim_fingerprint(res: Optional[SimResult], latency: bool = False) -> str:
    """Every simulated output of one run, as a comparable string."""
    if res is None:
        return "null"
    data: Dict[str, object] = {
        "offered": res.offered,
        "processed": res.processed,
        "wire_dropped": res.wire_dropped,
        "ring_dropped": res.ring_dropped,
        "pcie_dropped": res.pcie_dropped,
        "injected_lost": res.injected_lost,
        "unfinished": res.unfinished,
        "duration_ns": res.duration_ns,
        "rate_pps": res.rate_pps,
        "per_core_packets": res.per_core_packets,
        "counters": res.counters.snapshot(),
        "fault_stats": res.fault_stats,
        "placement_stats": res.placement_stats,
    }
    if latency:
        data["latency_samples_ns"] = res.latency_samples_ns
    return _canonical(data)


def search_fingerprint(res) -> str:
    """An MlffrResult's answer, probes and reported point."""
    return _canonical({
        "mlffr_pps": res.mlffr_pps,
        "iterations": res.iterations,
        "probes": res.probes,
        "at_mlffr": sim_fingerprint(res.result_at_mlffr),
    })


def func_fingerprint(run, ref_verdicts: Mapping, ref_state: Mapping) -> str:
    """A functional run and its reference, as a comparable string."""
    return _canonical({
        "verdicts": run.verdicts,
        "lost": run.lost_seqs,
        "replicas": run.replica_snapshots,
        "blocked": run.blocked_cores,
        "recovered": run.recovered,
        "skipped": run.skipped,
        "ref_verdicts": ref_verdicts,
        "ref_state": ref_state,
    })


def check_functional(run, ref_verdicts: Mapping, ref_state: Mapping,
                     lossless: bool) -> List[str]:
    """Replicas agree, every delivered verdict equals the reference's,
    and a lossless run delivers every verdict and ends in the reference
    state."""
    causes = []
    if not run.replicas_consistent:
        causes.append("func.replicas_inconsistent")
    if any(ref_verdicts.get(seq) != verdict
           for seq, verdict in run.verdicts.items()):
        causes.append("func.verdict_mismatch")
    if lossless:
        if len(run.verdicts) != len(ref_verdicts):
            causes.append("func.undelivered")
        if not run.replica_snapshots or run.replica_snapshots[0] != ref_state:
            causes.append("func.state_mismatch")
    return causes
