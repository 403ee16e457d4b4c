"""Columnar hot path vs the scalar event loop: bit-identical or nothing.

The scalar loop in ``repro.cpu.simulator`` is the reference oracle; the
columnar driver in ``repro.cpu.columnar`` must reproduce every observable
of every run it claims — SimResult fields, counters, per-core packet
counts, latency samples and histogram state — *exactly*, across the whole
program zoo, every eligible technique, underload and overload, clean and
faulted, serial and multi-process.  Anything less falls back.
"""

import numpy as np
import pytest

from repro.cpu import PerfTrace, simulate
from repro.cpu.columnar import resolve_hotpath, use_hotpath
from repro.faults import FaultPlan, FaultSpec
from repro.parallel import COLUMNAR_TECHNIQUES, TECHNIQUES, BaseEngine, make_engine
from repro.programs import make_program, program_names
from repro.scenario import Scenario, ScenarioExecutor, build_perf_trace, scenario_grid
from repro.telemetry import EventTracer

_TRACE_KW = dict(num_flows=12, max_packets=500)

#: Under 4-core SCR capacity for every program / comfortably above it.
_UNDERLOAD_PPS = 2e6
_OVERLOAD_PPS = 4e7


def _perf_trace(program):
    return build_perf_trace(
        Scenario.create(program, "univ_dc", "scr", 1, **_TRACE_KW))


@pytest.fixture(scope="module")
def traces():
    return {name: _perf_trace(name) for name in program_names()}


def _state_of(obj):
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return d
    return {s: getattr(obj, s) for s in type(obj).__slots__}


def _assert_deep_equal(a, b, path=""):
    """Field-wise bitwise equality for SimResult and everything hanging
    off it (counters, histograms, numpy arrays, floats compared by ==)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(np.asarray(a), np.asarray(b)), path
        return
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        for k in a:
            _assert_deep_equal(a[k], b[k], f"{path}.{k}")
        return
    if isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_deep_equal(x, y, f"{path}[{i}]")
        return
    if isinstance(a, (int, float, str, bool, bytes, type(None))):
        assert a == b, f"{path}: {a!r} != {b!r}"
        return
    assert type(a) is type(b), path
    _assert_deep_equal(_state_of(a), _state_of(b), path)


def _count_commits(monkeypatch):
    """Record the engine name of every columnar commit (the batch
    service call only a committing columnar run makes)."""
    commits = []
    service_batch = BaseEngine.service_batch

    def counting(self, *args, **kwargs):
        commits.append(self.name)
        return service_batch(self, *args, **kwargs)

    monkeypatch.setattr(BaseEngine, "service_batch", counting)
    return commits


def _run_pair(trace, technique, cores=4, rate=_UNDERLOAD_PPS, engine_kw=None,
              **sim_kw):
    program = make_program(trace.program_name)
    out = []
    for mode in ("scalar", "columnar"):
        engine = make_engine(technique, program, cores, **(engine_kw or {}))
        with use_hotpath(mode):
            out.append(simulate(trace, rate, engine, **sim_kw))
    return out


class TestResolveHotpath:
    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOTPATH", raising=False)
        assert resolve_hotpath() == "columnar"

    def test_explicit_beats_env(self):
        with use_hotpath("columnar"):
            assert resolve_hotpath("scalar") == "scalar"

    def test_env_var(self):
        with use_hotpath("scalar"):
            assert resolve_hotpath() == "scalar"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_hotpath("vectorized")
        with pytest.raises(ValueError):
            use_hotpath("vectorized").__enter__()


class TestProgramZooParity:
    """All 12 programs x every columnar-eligible technique x both load
    regimes: SimResult (with counters, latency, histogram) bit-identical."""

    @pytest.mark.parametrize("program", program_names())
    @pytest.mark.parametrize("technique", COLUMNAR_TECHNIQUES)
    @pytest.mark.parametrize("rate", [_UNDERLOAD_PPS, _OVERLOAD_PPS])
    def test_parity(self, traces, program, technique, rate):
        scalar, columnar = _run_pair(
            traces[program], technique, rate=rate,
            grace_fraction=0.1, collect_latency=True)
        _assert_deep_equal(scalar, columnar, f"{program}/{technique}")

    @pytest.mark.parametrize("technique", [t for t in TECHNIQUES
                                           if t not in COLUMNAR_TECHNIQUES])
    def test_ineligible_techniques_unaffected(self, traces, technique):
        """shared / rss++ always run the scalar loop; the dispatch layer
        must be a no-op for them."""
        scalar, columnar = _run_pair(
            traces["ddos"], technique, collect_latency=True)
        _assert_deep_equal(scalar, columnar, technique)


class TestVariantParity:
    def test_bursts_and_grace(self, traces):
        scalar, columnar = _run_pair(
            traces["heavy_hitter"], "scr", burst_size=4,
            grace_fraction=0.2, grace_min_ns=5_000.0, collect_latency=True)
        _assert_deep_equal(scalar, columnar)

    def test_scr_with_recovery_logging(self, traces):
        scalar, columnar = _run_pair(
            traces["token_bucket"], "scr",
            engine_kw=dict(with_recovery=True), collect_latency=True)
        _assert_deep_equal(scalar, columnar)

    def test_scr_in_frame_history(self, traces):
        scalar, columnar = _run_pair(
            traces["ddos"], "scr",
            engine_kw=dict(count_wire_overhead=False), collect_latency=True)
        _assert_deep_equal(scalar, columnar)

    def test_relaxed_scr_keeps_pruned_history(self, traces):
        scalar, columnar = _run_pair(
            traces["ddos"], "relaxed_scr", cores=7, collect_latency=True)
        _assert_deep_equal(scalar, columnar)

    def test_single_core(self, traces):
        scalar, columnar = _run_pair(
            traces["conntrack"], "scr", cores=1, collect_latency=True)
        _assert_deep_equal(scalar, columnar)

    @pytest.mark.parametrize("program, technique, engine_kw", [
        ("ddos", "scr", dict(extra_compute_ns=25.0)),
        ("conntrack", "scr", dict(count_wire_overhead=False, dummy_eth=False)),
        ("ddos", "relaxed_scr", dict(with_recovery=True)),
    ], ids=["scr-extra-compute", "scr-nic-sequencer", "relaxed-scr-recovery"])
    def test_cost_formula_variants(self, traces, monkeypatch, program,
                                   technique, engine_kw):
        """Knobs that reach the cost formula or the frame bytes: the Fig. 9
        compute inflation, a NIC-resident sequencer (DMA bytes > wire
        bytes), relaxed history with recovery logging.  The columnar run
        must commit (not fall back) and match the oracle bit for bit."""
        commits = _count_commits(monkeypatch)
        scalar, columnar = _run_pair(traces[program], technique,
                                     engine_kw=engine_kw, collect_latency=True)
        assert commits == [technique]
        _assert_deep_equal(scalar, columnar)


class TestFallbackPaths:
    def test_faults_fall_back_and_match(self, traces):
        """A faulted run reports fault stats and matches the oracle.  (A
        drop-only plan like this one now commits on the columnar path;
        the other fault kinds still fall back — see TestStolenRows.)"""
        plan_kw = dict(faults=FaultPlan(FaultSpec.create(seed=3, drop_rate=0.05)))
        scalar, columnar = _run_pair(traces["ddos"], "scr",
                                     collect_latency=True, **plan_kw)
        assert columnar.fault_stats is not None
        assert columnar.fault_stats["fault_dropped"] > 0
        _assert_deep_equal(scalar, columnar)

    def test_tracer_falls_back_with_identical_events(self, traces):
        """Per-packet telemetry is scalar-only; the event stream must not
        depend on the requested mode."""
        streams = []
        program = make_program("ddos")
        for mode in ("scalar", "columnar"):
            tracer = EventTracer()
            engine = make_engine("scr", program, 4, tracer=tracer)
            with use_hotpath(mode):
                simulate(traces["ddos"], _UNDERLOAD_PPS, engine, tracer=tracer)
            streams.append([e.to_dict() for e in tracer.events()])
        assert streams[0] == streams[1]
        assert len(streams[0]) > 0

    def test_overload_drops_fall_back_and_match(self, traces):
        """Above MLFFR the rings back up and packets drop — speculation
        fails, the event loop answers, and results still match."""
        scalar, columnar = _run_pair(
            traces["ddos"], "scr", rate=2e8, collect_latency=True)
        assert scalar.wire_dropped + scalar.ring_dropped > 0
        _assert_deep_equal(scalar, columnar)

    def test_loss_rate_scr_matches_scalar(self, traces, monkeypatch):
        commits = _count_commits(monkeypatch)
        scalar, columnar = _run_pair(
            traces["ddos"], "scr",
            engine_kw=dict(loss_rate=0.01, with_recovery=True))
        _assert_deep_equal(scalar, columnar)
        assert commits == ["scr"]


class TestMlffrParity:
    @pytest.mark.parametrize("technique", COLUMNAR_TECHNIQUES)
    def test_search_trajectory_identical(self, traces, technique):
        from repro.bench.mlffr import find_mlffr

        program = make_program("ddos")
        results = []
        for mode in ("scalar", "columnar"):
            engine = make_engine(technique, program, 4)
            with use_hotpath(mode):
                results.append(find_mlffr(traces["ddos"], engine))
        assert results[0].mlffr_pps == results[1].mlffr_pps
        assert results[0].probes == results[1].probes

    @pytest.mark.parametrize("engine_kw, spec", [
        (dict(with_recovery=True, loss_rate=0.01), None),
        (dict(with_recovery=True), dict(seed=3, drop_rate=0.01)),
    ], ids=["scr-loss", "scr-drop-plan"])
    def test_search_under_loss_identical(self, long_traces, engine_kw, spec):
        """Searches whose probes take stolen rows on the columnar path."""
        from repro.bench.mlffr import find_mlffr

        trace = long_traces["port_knocking"]
        program = make_program("port_knocking")
        results = []
        for mode in ("scalar", "columnar"):
            engine = make_engine("scr", program, 4, seed=5, **engine_kw)
            plan = FaultPlan(FaultSpec.create(**spec)) if spec else None
            with use_hotpath(mode):
                results.append(find_mlffr(trace, engine, faults=plan,
                                          collect_latency=True))
        assert results[0].mlffr_pps == results[1].mlffr_pps
        assert results[0].probes == results[1].probes
        _assert_deep_equal(results[0].result_at_mlffr,
                           results[1].result_at_mlffr)


#: Stolen rows (engine loss draws, drop-only fault plans) on a trace
#: long enough for rings to back up and gaps to pile up behind a busy
#: core: 1200 packets of port_knocking (strict SCR) and ddos (relaxed
#: SCR prunes its history to one merged delta).
_STOLEN_PROGRAMS = {"scr": "port_knocking", "relaxed_scr": "ddos"}


@pytest.fixture(scope="module")
def long_traces():
    return {
        program: build_perf_trace(Scenario.create(
            program, "univ_dc", "scr", 1, num_flows=40, max_packets=1200,
            seed=5))
        for program in ("port_knocking", "ddos")
    }


@pytest.fixture(scope="module")
def saturation_pps(long_traces):
    """Each (technique, cores) pair's MLFFR at 1 % loss on its long
    trace, where the rings hold a backlog and losses wait longest."""
    from repro.bench.mlffr import find_mlffr

    out = {}
    for technique, program in _STOLEN_PROGRAMS.items():
        for cores in (1, 2, 4, 8):
            engine = make_engine(technique, make_program(program), cores,
                                 with_recovery=True, loss_rate=0.01)
            out[technique, cores] = find_mlffr(long_traces[program],
                                               engine).mlffr_pps
    return out


def _engine_state(engine):
    """Recovery state a columnar commit writes back, plus the RNG
    position (its next draw)."""
    return (engine.fault_summary(), engine.injected,
            list(engine._pending_lost), list(engine._fault_gap),
            engine._rng.random())


def _stolen_pair(trace, technique, cores, rate, engine_kw, faults=None):
    program = make_program(trace.program_name)
    out = []
    for mode in ("scalar", "columnar"):
        engine = make_engine(technique, program, cores, **engine_kw)
        with use_hotpath(mode):
            result = simulate(trace, rate, engine, faults=faults,
                              collect_latency=True)
        out.append((result, engine))
    return out


class TestStolenRows:
    """Engine ``loss_rate`` draws and drop-only fault plans run on the
    columnar path as stolen rows: steered, never enqueued, charged to the
    next delivery on their core.  Results *and* the engine's recovery
    state must match the oracle."""

    @pytest.mark.parametrize("technique", ["scr", "relaxed_scr"])
    @pytest.mark.parametrize("loss", [0.001, 0.01, 0.2])
    @pytest.mark.parametrize("cores", [1, 2, 4, 8])
    @pytest.mark.parametrize("load", ["under", "saturated"])
    def test_engine_loss(self, long_traces, saturation_pps, monkeypatch,
                         technique, loss, cores, load):
        trace = long_traces[_STOLEN_PROGRAMS[technique]]
        rate = (_UNDERLOAD_PPS if load == "under"
                else 0.95 * saturation_pps[technique, cores])
        commits = _count_commits(monkeypatch)
        (scalar, s_engine), (columnar, c_engine) = _stolen_pair(
            trace, technique, cores, rate,
            dict(with_recovery=True, loss_rate=loss, seed=11))
        assert commits == [technique]
        assert scalar.injected_lost > 0
        _assert_deep_equal(scalar, columnar)
        assert _engine_state(s_engine) == _engine_state(c_engine)

    @pytest.mark.parametrize("cores, spec, engine_kw", [
        (4, dict(drop_rate=0.02), {}),
        (4, dict(drop_rate=0.3), {}),
        (4, dict(drop_indices=[0, 1, 2, 3, 600, 1199]), {}),
        (4, dict(drop_rate=0.02), dict(num_slots=12)),
        (1, dict(drop_rate=0.02), {}),
        (4, dict(drop_rate=0.02), dict(with_recovery=True, loss_rate=0.01)),
        (2, dict(drop_rate=0.01, truncate_rate=0.5), dict(with_recovery=True)),
    ], ids=["rate", "heavy", "indices", "covered", "one-core",
            "with-loss", "truncation"])
    @pytest.mark.parametrize("load", ["under", "saturated"])
    def test_drop_only_plans(self, long_traces, saturation_pps, monkeypatch,
                             cores, spec, engine_kw, load):
        """Rate drops (light, and heavy enough for gaps of many sizes),
        explicit drops (first and last packet included), gaps a widened
        window covers, one core, engine loss on top, and a sequencer-only
        truncation riding along."""
        trace = long_traces["port_knocking"]
        rate = (_UNDERLOAD_PPS if load == "under"
                else 0.95 * saturation_pps["scr", cores])
        plan = FaultPlan(FaultSpec.create(seed=3, **spec))
        commits = _count_commits(monkeypatch)
        (scalar, s_engine), (columnar, c_engine) = _stolen_pair(
            trace, "scr", cores, rate, dict(engine_kw, seed=11), plan)
        assert commits == ["scr"]
        assert scalar.fault_stats["fault_dropped"] > 0
        _assert_deep_equal(scalar.fault_stats, columnar.fault_stats)
        _assert_deep_equal(scalar, columnar)
        assert _engine_state(s_engine) == _engine_state(c_engine)
        if engine_kw.get("num_slots"):
            assert columnar.fault_stats["fault_gaps_covered"] > 0

    @pytest.mark.parametrize("technique", ["rss", "hybrid"])
    def test_drop_only_plans_other_techniques(self, long_traces, monkeypatch,
                                              technique):
        """Without per-core replicas a stolen row is just lost."""
        plan = FaultPlan(FaultSpec.create(seed=3, drop_rate=0.05))
        commits = _count_commits(monkeypatch)
        scalar, columnar = _run_pair(long_traces["ddos"], technique,
                                     collect_latency=True, faults=plan)
        assert commits == [technique]
        assert columnar.fault_stats["fault_dropped"] > 0
        _assert_deep_equal(scalar, columnar)

    def test_drop_column_matches_scalar_decisions(self):
        plan = FaultPlan(FaultSpec.create(seed=2**70 + 3, drop_rate=0.2,
                                          drop_indices=[0, 5, 4999, 7000]))
        column = plan.drop_column(5000)
        assert column.tolist() == [plan.drops(i) for i in range(5000)]
        assert plan.drop_column(5000) is column  # memoized per length

    @pytest.mark.parametrize("spec", [
        dict(pop_drop_rate=0.02),
        dict(duplicate_rate=0.02),
        dict(reorder_rate=0.05),
        dict(drop_rate=0.02, core_stalls=[(1, 100, 5_000.0)]),
        dict(drop_rate=0.02, core_kills=[(2, 700)]),
    ], ids=["pop-drop", "duplicate", "reorder", "stall", "kill"])
    def test_other_fault_kinds_fall_back(self, long_traces, monkeypatch,
                                         spec):
        plan = FaultPlan(FaultSpec.create(seed=3, **spec))
        commits = _count_commits(monkeypatch)
        (scalar, s_engine), (columnar, c_engine) = _stolen_pair(
            long_traces["port_knocking"], "scr", 4, _UNDERLOAD_PPS,
            dict(with_recovery=True, loss_rate=0.01, seed=11), plan)
        assert commits == []
        _assert_deep_equal(scalar, columnar)
        assert _engine_state(s_engine) == _engine_state(c_engine)


class TestExecutorParity:
    def test_parallel_columnar_matches_serial_scalar(self):
        """jobs=2 columnar == jobs=1 scalar: worker processes inherit the
        mode via the environment and stay bit-identical."""
        grid = scenario_grid("ddos", "caida", ["scr", "rss"], [1, 2],
                             num_flows=10, max_packets=400)

        def series(results):
            return [(r.scenario.technique, r.scenario.cores,
                     r.mlffr_mpps, r.probes) for r in results]

        with use_hotpath("scalar"):
            serial = ScenarioExecutor(jobs=1).run(grid)
        with use_hotpath("columnar"):
            parallel = ScenarioExecutor(jobs=2).run(grid)
        assert series(serial) == series(parallel)


class TestColumnarTrace:
    """PerfTrace as a struct-of-arrays container."""

    def test_columns_match_records(self, traces):
        pt = traces["ddos"]
        records = pt.records
        assert len(pt) == len(records)
        assert pt.wire_lens.tolist() == [r.wire_len for r in records]
        assert pt.valid.tolist() == [r.valid for r in records]
        assert pt.hash_l4.tolist() == [r.hash_l4 for r in records]
        assert pt.hash_l3.tolist() == [r.hash_l3 for r in records]
        assert pt.hash_sym.tolist() == [r.hash_sym for r in records]
        assert [pt.key_table[i] for i in pt.key_ids.tolist()] == \
            [r.key for r in records]

    def test_columns_are_read_only(self, traces):
        with pytest.raises(ValueError):
            traces["ddos"].key_ids[0] = 7

    def test_unique_keys_lazy_and_cached(self):
        pt = _perf_trace("ddos")
        assert pt._unique_keys is None
        expected = len({r.key for r in pt.records if r.valid})
        assert pt.unique_keys == expected
        assert pt._unique_keys == expected  # memoized

    def test_scalar_and_columnar_lowering_agree(self):
        spec_trace = Scenario.create("conntrack", "caida", "scr", 1,
                                     num_flows=8, max_packets=300)
        from repro.scenario.build import StackBuilder

        builder = StackBuilder(None)
        raw = builder.trace(spec_trace.trace)
        program = make_program("conntrack")
        a = PerfTrace.from_trace(raw, program, hotpath="scalar")
        b = PerfTrace.from_trace(raw, program, hotpath="columnar")
        for col in ("key_ids", "hash_l3", "hash_l4", "hash_sym",
                    "wire_lens", "valid", "touches_global"):
            assert np.array_equal(getattr(a, col), getattr(b, col)), col
        assert a.key_table == b.key_table
