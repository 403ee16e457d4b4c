"""The Appendix A analytic throughput model.

With ``k`` cores, dispatch ``d``, current-packet compute ``c1`` and
per-history-item transition ``c2`` (all ns), each piggybacked packet costs
``t + (k-1)·c2`` where ``t = d + c1``, and the system processes external
packets at ``k / (t + (k-1)·c2)`` per nanosecond.  When ``t ≫ (k-1)·c2``
this is ≈ ``k/t`` — linear in cores.  Figure 11 shows the model matches the
measured SCR throughput; ``benchmarks/bench_fig11_model.py`` regenerates
that comparison against our simulator.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..cpu.costmodel import TABLE4_PARAMS, CostParams

__all__ = [
    "predicted_scr_pps",
    "predicted_scr_mpps",
    "predicted_series",
    "linear_scaling_limit",
    "fit_cost_params",
]


def predicted_scr_pps(costs: CostParams, num_cores: int) -> float:
    """Predicted SCR packets/second for ``num_cores`` (Appendix A)."""
    if num_cores < 1:
        raise ValueError("need at least one core")
    return num_cores / costs.scr_service_ns(num_cores - 1) * 1e9


def predicted_scr_mpps(costs: CostParams, num_cores: int) -> float:
    return predicted_scr_pps(costs, num_cores) / 1e6


def predicted_series(
    program_name: str, cores: Iterable[int]
) -> List[Tuple[int, float]]:
    """(cores, predicted Mpps) series for a Table 4 program."""
    costs = TABLE4_PARAMS[program_name]
    return [(k, predicted_scr_mpps(costs, k)) for k in cores]


def fit_cost_params(
    measurements: Sequence[Tuple[int, float]], dispatch_fraction: float = 0.75
) -> CostParams:
    """Recover (t, c2) from measured (cores, pps) points — Appendix A inverted.

    The model says per-packet time ``T(k) = k / pps(k) = t + (k-1)·c2``, a
    line in ``k-1``; ordinary least squares on the measured points yields
    intercept ``t`` and slope ``c2``.  This is how one would calibrate the
    simulator for a *new* program from two or more MLFFR measurements.

    ``dispatch_fraction`` apportions ``t`` between ``d`` and ``c1`` for
    callers that need the split (the model itself only uses t and c2).
    """
    if len(measurements) < 2:
        raise ValueError("need at least two (cores, pps) measurements")
    xs, ys = [], []
    for cores, pps in measurements:
        if cores < 1 or pps <= 0:
            raise ValueError(f"invalid measurement ({cores}, {pps})")
        xs.append(cores - 1)
        ys.append(cores / pps * 1e9)  # per-packet ns
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        raise ValueError("measurements must span more than one core count")
    c2 = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
    t = mean_y - c2 * mean_x
    c2 = max(0.0, c2)
    t = max(1e-9, t)
    return CostParams(
        t=t, c2=c2, d=t * dispatch_fraction, c1=t * (1 - dispatch_fraction)
    )


def linear_scaling_limit(costs: CostParams, efficiency: float = 0.5) -> int:
    """The core count where SCR's per-core rate drops to ``efficiency`` of
    the single-core rate — i.e. where history compute has grown to rival
    ``t`` (Principle #3's taper point).

    Solves ``t / (t + (k-1)·c2) = efficiency`` for k.
    """
    if not 0 < efficiency < 1:
        raise ValueError("efficiency must be in (0, 1)")
    if costs.c2 <= 0:
        return 10**9  # a stateless program never tapers from history work
    k = 1 + costs.t * (1 - efficiency) / (efficiency * costs.c2)
    return max(1, int(k))
