"""Parallelization-technique advisor (``scr-repro/advice/v1``).

Given the static state-access facts of a program (:mod:`.dataflow`), its
measured per-packet cost parameters (Table 4's ``d``/``c1``/``c2``/``t``,
or a fresh profile), and a workload profile, score the candidate scaling
techniques against the paper's Appendix A cost model and predict the
MLFFR curve each would achieve at k = 1..K cores:

* **scr** — ``k / (t + (k-1)·c2)``: history fast-forward grows with k;
* **relaxed_scr** — ``k / (t + min(k-1, 1)·c2)`` when every written state
  field is commutative (the sequencer folds the history into one merged
  delta); degenerates to plain SCR otherwise;
* **rss** — shared-nothing sharding: ``1 / (s_k · (d + c1))`` where
  ``s_k`` is the busiest core's traffic share under the program's RSS key
  at k cores (perfect balance gives ``k / (d + c1)``; one elephant flow
  pins it at one core's rate).  Ineligible when the program keeps global
  or multi-entry state that sharding cannot place (§2.2);
* **shared** — one state map for all cores, atomics or per-entry locks by
  the program's Table 1 row: min of the per-core rate (each access pays
  the cache-line bounce) and the hottest entry's serialization rate;
* **hybrid** — elephant/mice placement (:mod:`repro.placement`): the hot
  flows ride SCR (replicated, sprayed), everyone else stays RSS-sharded.
  Per-core load is ``e/k·(t + (k-1)·c2) + (1-e)·s_mice·t`` plus the
  per-packet classifier probe; eligible only when the program is
  shardable *and* the workload carries enough concurrent flows for
  placement to pay for the classifier.

The advisor is *pure*: it sees measurements only through its arguments,
so the same inputs always produce the same advice.  Measurement-backed
validation lives in the perf layer (``repro.perf.advise`` and the
``advisor_validation`` suite), which checks these predictions against the
simulated engines for every registered program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cpu.costmodel import DEFAULT_CONTENTION, ContentionParams, CostParams
from .dataflow import ProgramFacts

__all__ = [
    "ADVICE_SCHEMA",
    "ADVISOR_TECHNIQUES",
    "HYBRID_MIN_FLOWS",
    "WorkloadProfile",
    "TechniqueScore",
    "Advice",
    "advise_program",
    "eligible_techniques",
]

ADVICE_SCHEMA = "scr-repro/advice/v1"

#: The techniques the advisor ranks, in presentation order.
ADVISOR_TECHNIQUES = ("scr", "relaxed_scr", "rss", "shared", "hybrid")

#: Concurrent flows below which elephant/mice placement cannot pay for
#: its classifier: with few flows a purebred technique already places
#: them all, so the hybrid is scored ineligible rather than recommended
#: off sketch noise.
HYBRID_MIN_FLOWS = 1024

_NS_TO_MPPS = 1e3  # 1 packet/ns == 1000 Mpps


@dataclass(frozen=True)
class WorkloadProfile:
    """What the advisor needs to know about the offered traffic.

    The defaults describe the paper's headline adversarial workload — a
    single elephant flow (Figure 1): the hottest key receives everything
    and RSS cannot spread it at all.
    """

    #: fraction of packets hitting the hottest state key.
    hot_key_share: float = 1.0
    #: fraction of packets updating program-global state (NAT pool).
    global_fraction: float = 0.0
    #: k -> busiest core's traffic share when RSS hashes the program's key
    #: fields; missing entries fall back to the single-elephant worst case.
    rss_core_shares: Mapping[int, float] = field(default_factory=dict)
    #: distinct state keys seen concurrently (the hybrid technique's
    #: eligibility gate); the single-elephant default is 1.
    flow_count: int = 1

    def rss_share(self, k: int) -> float:
        if k <= 1:
            return 1.0
        share = self.rss_core_shares.get(k)
        if share is None:
            share = self.hot_key_share  # the elephant pins one core
        # The busiest core can never hold less than a perfect 1/k split.
        return min(1.0, max(share, 1.0 / k))


@dataclass(frozen=True)
class TechniqueScore:
    """One technique's predicted MLFFR curve."""

    technique: str
    eligible: bool
    #: Mpps at each evaluated core count, in `cores` order; empty when
    #: ineligible.
    mlffr_mpps: Tuple[float, ...]
    cores: Tuple[int, ...]
    reason: str

    @property
    def best(self) -> Tuple[int, float]:
        """(k, Mpps) of the curve's peak; (0, 0.0) when ineligible."""
        if not self.mlffr_mpps:
            return (0, 0.0)
        i = max(range(len(self.mlffr_mpps)), key=lambda j: self.mlffr_mpps[j])
        return (self.cores[i], self.mlffr_mpps[i])

    def at(self, k: int) -> float:
        try:
            return self.mlffr_mpps[self.cores.index(k)]
        except ValueError:
            return 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "technique": self.technique,
            "eligible": self.eligible,
            "cores": list(self.cores),
            "mlffr_mpps": [round(v, 4) for v in self.mlffr_mpps],
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Advice:
    """The advisor's verdict for one program."""

    program: str
    facts: ProgramFacts
    scores: Tuple[TechniqueScore, ...]
    #: technique with the highest predicted MLFFR at the largest k.
    recommended: str
    decision_cores: int

    def score(self, technique: str) -> Optional[TechniqueScore]:
        for s in self.scores:
            if s.technique == technique:
                return s
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": ADVICE_SCHEMA,
            "program": self.program,
            "recommended": self.recommended,
            "decision_cores": self.decision_cores,
            "facts": self.facts.to_dict(),
            "scores": [s.to_dict() for s in self.scores],
        }


def eligible_techniques(facts: ProgramFacts) -> Tuple[str, ...]:
    """Which of the advisor's techniques can run this program at all."""
    out = ["scr", "relaxed_scr", "shared"]
    if not (facts.has_global_state or facts.multi_key):
        out.append("rss")
    return tuple(t for t in ADVISOR_TECHNIQUES if t in out)


# -- per-technique analytic curves --------------------------------------------


def _scr_curve(costs: CostParams, cores: Sequence[int]) -> List[float]:
    return [k * _NS_TO_MPPS / costs.scr_service_ns(k - 1) for k in cores]


def _relaxed_curve(
    facts: ProgramFacts, costs: CostParams, cores: Sequence[int]
) -> Tuple[List[float], str]:
    if facts.all_commutative:
        curve = [k * _NS_TO_MPPS / costs.scr_service_ns(min(k - 1, 1))
                 for k in cores]
        return curve, (
            "all written fields commutative "
            f"({', '.join(f.field for f in facts.fields)}): history folds "
            "into one merged delta, per-core cost stops growing with k"
        )
    return _scr_curve(costs, cores), (
        "non-commutative state: merged-delta pruning unsound, "
        "degenerates to plain SCR"
    )


def _rss_curve(
    costs: CostParams, workload: WorkloadProfile, cores: Sequence[int]
) -> List[float]:
    per_pkt = costs.d + costs.c1
    return [_NS_TO_MPPS / (workload.rss_share(k) * per_pkt) for k in cores]


def _shared_curve(
    facts: ProgramFacts,
    costs: CostParams,
    workload: WorkloadProfile,
    contention: ContentionParams,
    cores: Sequence[int],
) -> Tuple[List[float], str]:
    curve: List[float] = []
    transfer = contention.line_transfer_ns
    for k in cores:
        if k == 1:
            if facts.needs_locks:
                service = costs.d + contention.lock_hold_ns(costs.c1, 1)
            else:
                service = costs.d + costs.c1 + contention.atomic_ns
            bounds = [_NS_TO_MPPS / service]
        elif facts.needs_locks:
            # Round-robin spray bounces the entry line on essentially every
            # hot-key access; the hold inflates with the spinning cores.
            hold = contention.lock_hold_ns(costs.c1, k)
            bounds = [k * _NS_TO_MPPS / (costs.d + hold)]
            if workload.hot_key_share > 0:
                bounds.append(_NS_TO_MPPS / (workload.hot_key_share * hold))
        else:
            # Atomics: the load misses (dirty elsewhere) and the RMW then
            # owns the line for a full cross-core transfer.
            stall = transfer + contention.atomic_hold_ns()
            bounds = [k * _NS_TO_MPPS / (costs.d + costs.c1 + stall)]
            if workload.hot_key_share > 0:
                bounds.append(_NS_TO_MPPS / (
                    workload.hot_key_share * contention.atomic_hold_ns()
                ))
        if facts.has_global_state and workload.global_fraction > 0 and k > 1:
            hold_g = contention.lock_hold_ns(costs.c1 * 0.5, k)
            bounds.append(
                _NS_TO_MPPS / (workload.global_fraction * hold_g)
            )
        curve.append(min(bounds))
    flavor = "per-entry spinlocks" if facts.needs_locks else "hardware atomics"
    return curve, (
        f"{flavor}: min of the per-core rate (every access bounces the "
        "entry line) and the hottest entry's serialization rate"
    )


def _hybrid_curve(
    costs: CostParams,
    workload: WorkloadProfile,
    contention: ContentionParams,
    cores: Sequence[int],
) -> Tuple[List[float], str]:
    """Elephant/mice placement: the hot share ``e`` is sprayed SCR-style
    over all cores, the mice stay sharded; every packet pays one sketch
    probe.  Degenerates toward plain SCR at e→1 and toward RSS at e→0."""
    e = min(1.0, max(0.0, workload.hot_key_share))
    probe = contention.atomic_ns
    mice_cost = costs.t + probe
    curve: List[float] = []
    for k in cores:
        if e >= 1.0:
            mice_share = 0.0
        else:
            # Busiest mice core once the elephant traffic is carved out of
            # the RSS load; never better than a perfect 1/k split.
            mice_share = min(
                1.0, max(1.0 / k, (workload.rss_share(k) - e) / (1.0 - e))
            )
        per_core = (
            e / k * (costs.scr_service_ns(k - 1) + probe)
            + (1.0 - e) * mice_share * mice_cost
        )
        curve.append(_NS_TO_MPPS / per_core)
    return curve, (
        f"elephants ({e:.0%} of traffic) replicated via SCR, mice stay "
        "sharded; every packet pays one classifier probe"
    )


def advise_program(
    facts: ProgramFacts,
    costs: CostParams,
    workload: Optional[WorkloadProfile] = None,
    cores: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    contention: ContentionParams = DEFAULT_CONTENTION,
) -> Advice:
    """Score every technique for one program and pick a winner.

    The winner is the eligible technique with the highest predicted MLFFR
    at the largest evaluated core count (scaling is the whole point);
    ineligible techniques are reported with empty curves and a reason.
    """
    if not cores:
        raise ValueError("need at least one core count")
    workload = workload or WorkloadProfile()
    cores = tuple(sorted(set(int(k) for k in cores)))
    if cores[0] < 1:
        raise ValueError("core counts must be >= 1")
    eligible = set(eligible_techniques(facts))
    scores: List[TechniqueScore] = []

    for technique in ADVISOR_TECHNIQUES:
        if technique == "hybrid":
            # Placement eligibility is workload-dependent, unlike the
            # purely structural gates below.
            if "rss" not in eligible:
                reason = (
                    "mice sharding needs flow-placeable state; global/"
                    "multi-entry state rules out the RSS half (§2.2)"
                )
            elif workload.flow_count < HYBRID_MIN_FLOWS:
                reason = (
                    f"only {workload.flow_count} concurrent flows "
                    f"(placement pays off from {HYBRID_MIN_FLOWS}); "
                    "a purebred technique already places them all"
                )
            else:
                curve, why = _hybrid_curve(costs, workload, contention, cores)
                scores.append(
                    TechniqueScore(
                        technique=technique,
                        eligible=True,
                        mlffr_mpps=tuple(curve),
                        cores=cores,
                        reason=why,
                    )
                )
                continue
            scores.append(
                TechniqueScore(
                    technique=technique,
                    eligible=False,
                    mlffr_mpps=(),
                    cores=cores,
                    reason=reason,
                )
            )
            continue
        if technique not in eligible:
            scores.append(
                TechniqueScore(
                    technique=technique,
                    eligible=False,
                    mlffr_mpps=(),
                    cores=cores,
                    reason=(
                        "global/multi-entry state cannot be placed by "
                        "flow sharding (§2.2)"
                    ),
                )
            )
            continue
        if technique == "scr":
            curve = _scr_curve(costs, cores)
            reason = "Appendix A: t + (k-1)*c2 history fast-forward per packet"
        elif technique == "relaxed_scr":
            curve, reason = _relaxed_curve(facts, costs, cores)
        elif technique == "rss":
            curve = _rss_curve(costs, workload, cores)
            share = workload.rss_share(cores[-1])
            reason = (
                f"shared-nothing: gated by the busiest core "
                f"({share:.0%} of traffic at k={cores[-1]})"
            )
        else:
            curve, reason = _shared_curve(
                facts, costs, workload, contention, cores
            )
        scores.append(
            TechniqueScore(
                technique=technique,
                eligible=True,
                mlffr_mpps=tuple(curve),
                cores=cores,
                reason=reason,
            )
        )

    decision_k = cores[-1]
    recommended = max(
        (s for s in scores if s.eligible),
        key=lambda s: s.at(decision_k),
    ).technique
    return Advice(
        program=facts.program_name or facts.class_name,
        facts=facts,
        scores=tuple(scores),
        recommended=recommended,
        decision_cores=decision_k,
    )
