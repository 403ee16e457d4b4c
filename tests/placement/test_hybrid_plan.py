"""Hybrid steering plan vs live steering: identical SimResults or nothing.

The hybrid engine precomputes a per-trace steering plan and replays it
(as columns on the columnar hot path, row by row in the scalar loop,
going live after the first admission drop).  Live steering — the engine
with the plan monkeypatched away, on the scalar loop — is the oracle:
every observable of every run must match it exactly, placement counters
included.
"""

import pytest

from repro.bench.mlffr import find_mlffr
from repro.cpu import PerfTrace, simulate
from repro.cpu.columnar import use_hotpath
from repro.faults import FaultPlan, FaultSpec
from repro.packet import make_udp_packet
from repro.parallel import HybridEngine, make_engine
from repro.placement import PlacementSpec
from repro.programs import make_program
from repro.scenario import (
    Scenario,
    ScenarioExecutor,
    build_perf_trace,
    scenario_grid,
)
from repro.traffic import Trace
from tests.cpu.test_hotpath_parity import _assert_deep_equal

#: zipf-hybrid's classifier thresholds (calibrated for 750-packet traces).
_PLACEMENT = PlacementSpec(max_elephants=12, promote_threshold=24,
                           demote_threshold=8)


def _zipf_trace(flows=1000, seed=3):
    return build_perf_trace(Scenario.create(
        "ddos", "zipf", "hybrid", 8, num_flows=flows, max_packets=750,
        seed=seed, placement=_PLACEMENT))


def _hybrid(cores=8, placement=_PLACEMENT, **kw) -> HybridEngine:
    return make_engine("hybrid", make_program("ddos"), cores,
                       placement=placement, **kw)


def _live(engine, monkeypatch):
    """The oracle: no plan is ever bound, so the scalar loop steers live."""
    monkeypatch.setattr(engine, "bind_trace", lambda trace: None)
    monkeypatch.setattr(engine, "columnar_eligible", lambda: False)
    return engine


def _assert_plan_matches_live(trace, rates, monkeypatch, engine_kw=None,
                              **sim_kw):
    """One planned engine reused over ``rates`` (as a search reuses it)
    against a live engine per rate; returns the planned results."""
    planned = _hybrid(**(engine_kw or {}))
    out = []
    for rate in rates:
        got = simulate(trace, rate, planned, **sim_kw)
        want = simulate(trace, rate, _live(_hybrid(**(engine_kw or {})),
                                           monkeypatch), **sim_kw)
        assert got.placement_stats is not None
        _assert_deep_equal(got, want, f"rate={rate}")
        out.append(got)
    return out


def test_every_probe_of_a_zipf_search(monkeypatch):
    trace = _zipf_trace()
    planned = _hybrid()
    search = find_mlffr(trace, planned, collect_latency=True)
    live = find_mlffr(trace, _live(_hybrid(), monkeypatch),
                      collect_latency=True)
    assert search.probes == live.probes
    _assert_deep_equal(search.result_at_mlffr, live.result_at_mlffr)
    rates = [rate for rate, _ in search.probes]
    assert 64e6 in rates
    results = _assert_plan_matches_live(trace, rates, monkeypatch,
                                        collect_latency=True)
    assert any(r.wire_dropped for r in results)
    assert any(r.placement_stats["promotions"] for r in results)
    # A run that admits every packet reports the plan's own tallies.
    plan = planned._plan
    full = next(r for r in results if r.offered == r.processed)
    assert full.placement_stats["migrations"] == int(plan.migrations.sum())
    assert full.placement_stats["migration_ns_total"] == float(
        plan.migration_ns.sum())


@pytest.mark.parametrize("hotpath", ["scalar", "columnar"])
def test_both_hot_paths_replay_the_plan(monkeypatch, hotpath):
    trace = _zipf_trace(flows=100_000, seed=5)
    with use_hotpath(hotpath):
        _assert_plan_matches_live(trace, [4e6, 24e6, 40e6, 64e6],
                                  monkeypatch, collect_latency=True)


def _tail_heavy_trace(small=200, large=12):
    """Minimum-size frames, then a run of jumbo-ish frames at the end:
    at the right rate the wire backs up only on the trailing packets."""
    pkts = [make_udp_packet(1 + i % 9, 2, 3, 4) for i in range(small)]
    pkts += [make_udp_packet(100 + i, 2, 3, 4, wire_len=1500)
             for i in range(large)]
    return PerfTrace.from_trace(Trace(pkts), make_program("ddos"))


def test_trailing_only_wire_drop(monkeypatch):
    trace = _tail_heavy_trace()
    placement = PlacementSpec(promote_threshold=8, demote_threshold=2)
    for rate in [r * 1e6 for r in range(10, 80, 2)]:
        engine = _hybrid(cores=4, placement=placement)
        steered = []
        steer = engine.steer

        def recording(pp, steer=steer, steered=steered):
            steered.append(pp.index)
            return steer(pp)

        engine.steer = recording
        res = simulate(trace, rate, engine)
        if res.wire_dropped and steered == list(range(len(steered))):
            break
    else:
        pytest.fail("no rate drops only the trailing packets")
    # No later packet was admitted, so only placement_summary sees that
    # the plan ran ahead of the admitted prefix.
    assert len(steered) < len(trace)
    _assert_plan_matches_live(trace, [rate], monkeypatch,
                              engine_kw=dict(cores=4, placement=placement))


def test_quota_exhausted_tenants(monkeypatch):
    placement = PlacementSpec(num_tenants=4, tenant_quota=8,
                              max_elephants=12, promote_threshold=24,
                              demote_threshold=8)
    results = _assert_plan_matches_live(
        _zipf_trace(flows=100_000), [4e6, 30e6, 64e6], monkeypatch,
        engine_kw=dict(placement=placement), collect_latency=True)
    assert all(r.placement_stats["stateless_packets"] for r in results)
    assert all(r.placement_stats["tenant_quota_drops_total"] for r in results)


def test_count_wire_overhead(monkeypatch):
    results = _assert_plan_matches_live(
        _zipf_trace(), [4e6, 30e6, 56e6, 64e6], monkeypatch,
        engine_kw=dict(count_wire_overhead=True), collect_latency=True)
    assert any(r.wire_dropped for r in results)


def test_fault_plan(monkeypatch):
    plan = FaultPlan(FaultSpec.create(seed=3, drop_rate=0.03,
                                      duplicate_rate=0.02, reorder_rate=0.02))
    results = _assert_plan_matches_live(
        _zipf_trace(), [4e6, 30e6, 64e6], monkeypatch, faults=plan,
        collect_latency=True)
    assert all(r.fault_stats["fault_dropped"] for r in results)


def test_decay_and_demotion_schedule(monkeypatch):
    placement = PlacementSpec(max_elephants=6, promote_threshold=10,
                              demote_threshold=6, decay_interval=64)
    results = _assert_plan_matches_live(
        _zipf_trace(), [4e6, 30e6, 64e6], monkeypatch,
        engine_kw=dict(placement=placement), collect_latency=True)
    assert all(r.placement_stats["demotions"] for r in results)
    assert all(r.placement_stats["decays"] for r in results)


def test_serial_live_matches_parallel_planned(monkeypatch):
    grid = scenario_grid("ddos", "zipf", ["hybrid"], [4, 8], num_flows=1000,
                         max_packets=750, placement=_PLACEMENT)

    def series(results):
        return [(r.scenario.cores, r.mlffr_mpps, r.probes, r.counters,
                 r.placement_stats) for r in results]

    with monkeypatch.context() as m:
        m.setattr(HybridEngine, "bind_trace", lambda self, trace: None)
        m.setattr(HybridEngine, "columnar_eligible", lambda self: False)
        serial_live = ScenarioExecutor(jobs=1).run(grid)
    parallel = ScenarioExecutor(jobs=2).run(grid)
    assert series(serial_live) == series(parallel)
    assert all(r.placement_stats["promotions"] for r in parallel)
