"""The benchmark's own checks reject doctored outputs, and a fixed seed
reproduces every deterministic metric exactly.

Run with ``python -m pytest scrbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.core import ScrFunctionalEngine, reference_run
from repro.cpu.counters import SystemCounters
from repro.cpu.simulator import SimResult
from repro.programs.registry import make_program
from repro.scenario import StackBuilder, TraceSpec

from scrbench import checks, harness, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _result(**fields) -> SimResult:
    base = dict(offered=1000, processed=990, wire_dropped=4, ring_dropped=3,
                injected_lost=1, unfinished=2, duration_ns=1e5, rate_pps=1e7,
                counters=SystemCounters())
    base.update(fields)
    return SimResult(**base)


# -- probe lists ----------------------------------------------------------------

def test_consistent_probe_list_passes():
    probes = [(1e6, 0.0), (2e6, 0.0), (4e6, 0.2), (3e6, 0.1),
              (2.5e6, 0.05), (2.25e6, 0.0)]
    assert checks.check_probes(probes, 2.25e6) == []


def test_probe_list_with_a_gap_is_rejected():
    # The search stopped bisecting: the nearest lossy probe is 2 Mpps away.
    probes = [(1e6, 0.0), (2e6, 0.0), (4e6, 0.2)]
    assert checks.check_probes(probes, 2e6) == ["probes.gap"]


def test_reported_rate_must_be_the_best_lossless_probe():
    probes = [(1e6, 0.0), (2e6, 0.0), (2.25e6, 0.01), (2.4e6, 0.2)]
    assert checks.check_probes(probes, 2e6) == ["probes.best_mismatch"]


def test_a_search_at_the_rate_ceiling_needs_no_lossy_probe():
    assert checks.check_probes([(checks.MAX_PPS, 0.0)], checks.MAX_PPS) == []


def test_zero_rate_is_a_failure():
    assert "search.no_lossfree_rate" in checks.check_probes([(1e6, 0.5)], 0.0)


# -- packet ledger --------------------------------------------------------------

def test_balanced_ledger_passes():
    assert checks.check_ledger(_result()) == []
    faulted = _result(processed=980, fault_stats={
        "fault_dropped": 6, "fault_pop_dropped": 4, "fault_duplicated": 0})
    assert checks.check_ledger(faulted) == []


def test_unbalanced_ledger_is_rejected():
    assert checks.check_ledger(_result(processed=989)) == ["ledger.unbalanced"]


def test_unbooked_duplicates_are_the_known_defect():
    res = _result(fault_stats={"fault_duplicated": 41})
    assert checks.ledger(res) == (1041, 1000)
    assert checks.check_ledger(res) == [checks.DUPLICATE_DEFECT]
    assert checks.DUPLICATE_DEFECT in checks.known_defects("port_knocking", True)
    assert "ledger.unbalanced" not in checks.known_defects("port_knocking", True)


def test_deficit_beyond_the_duplicates_is_not_the_known_defect():
    # 41 duplicates cannot explain 42 missing packets, nor a surplus.
    lost = _result(processed=989, fault_stats={"fault_duplicated": 41})
    assert checks.ledger(lost) == (1041, 999)
    assert checks.check_ledger(lost) == ["ledger.unbalanced"]
    fewer = _result(processed=991, fault_stats={"fault_duplicated": 41})
    assert checks.check_ledger(fewer) == [checks.DUPLICATE_DEFECT]
    surplus = _result(processed=1032, fault_stats={"fault_duplicated": 41})
    assert checks.check_ledger(surplus) == ["ledger.unbalanced"]


def _verdict(program: str, causes, truncated: bool = True) -> harness.RunResult:
    label = f"{program}/functional@4"
    return harness.RunResult(
        labels=[label], best_ns=[1], passes=1, setup_ns=1,
        peak_rss_mb=1.0, setup_rss_mb=1.0,
        calibration_ns=1.0, causes={label: causes},
        known={label: checks.known_defects(program, truncated)})


def test_functional_divergence_is_known_only_where_it_was_found():
    assert _verdict("heavy_hitter", ["func.replicas_inconsistent",
                                     "func.state_mismatch"]).correct
    assert _verdict("sampler", ["func.verdict_mismatch"]).correct
    assert not _verdict("ddos", ["func.verdict_mismatch"]).correct
    assert not _verdict("nat", ["func.replicas_inconsistent"]).correct
    assert not _verdict("heavy_hitter", ["func.verdict_mismatch"],
                        truncated=False).correct
    assert not _verdict("heavy_hitter", ["func.undelivered"]).correct


def test_unknown_cause_anywhere_makes_the_run_incorrect():
    run = _verdict("ddos", [])
    assert run.correct and run.attempted == 1 and run.failed == 0
    run.companion_causes["ddos/scr@4"] = ["probes.gap"]
    run.known["ddos/scr@4"] = checks.known_defects("ddos", True)
    assert not run.correct and run.attempted == 1
    assert not dataclasses.replace(_verdict("ddos", []),
                                   run_causes=["trace.self_sum"]).correct


def test_fingerprint_sees_every_simulated_field():
    a = _result()
    assert checks.sim_fingerprint(a) == checks.sim_fingerprint(_result())
    for name, value in (("duration_ns", 1e5 + 1e-9), ("unfinished", 3),
                        ("per_core_packets", [1]), ("fault_stats", {"x": 1})):
        assert checks.sim_fingerprint(a) != checks.sim_fingerprint(
            dataclasses.replace(a, **{name: value}))


# -- functional runs ------------------------------------------------------------

@pytest.fixture(scope="module")
def functional():
    trace = StackBuilder().trace(TraceSpec(
        workload="caida", max_packets=300, seed=3, packet_size=192))
    run = ScrFunctionalEngine(make_program("ddos"), 4).run(trace)
    ref_verdicts, ref_state = reference_run(make_program("ddos"), trace)
    return run, ref_verdicts, ref_state


def test_faithful_functional_run_passes(functional):
    run, ref_verdicts, ref_state = functional
    assert checks.check_functional(run, ref_verdicts, ref_state, lossless=True) == []


def test_flipped_verdict_is_rejected(functional):
    run, ref_verdicts, ref_state = functional
    seq = next(iter(run.verdicts))
    flipped = dict(ref_verdicts)
    flipped[seq] = [v for v in type(flipped[seq]) if v != flipped[seq]][0]
    assert checks.check_functional(run, flipped, ref_state, lossless=False) == [
        "func.verdict_mismatch"]


def test_lossless_run_must_match_state_and_deliver_everything(functional):
    run, ref_verdicts, ref_state = functional
    state = dict(ref_state)
    state.pop(next(iter(state)))
    assert checks.check_functional(run, ref_verdicts, state, lossless=True) == [
        "func.state_mismatch"]
    shorter = dataclasses.replace(run, verdicts=dict(list(run.verdicts.items())[1:]))
    assert checks.check_functional(shorter, ref_verdicts, ref_state,
                                   lossless=True) == ["func.undelivered"]


# -- set-up time ----------------------------------------------------------------

def test_setup_time_counts_syntheses_of_one_shape_at_their_median():
    caida, zipf = "caida-shape", "zipf-shape"
    passes = [
        [(caida, 10), (caida, 90), (caida, 30), (zipf, 7), (None, 5), (None, 4)],
        [(caida, 12), (caida, 80), (caida, 20), (zipf, 9), (None, 3), (None, 6)],
    ]
    # Bests: caida 10/80/20 -> 3 x 20; zipf 7; ungrouped 3 + 4.
    assert harness.compose_setup_ns(passes) == 3 * 20 + 7 + 3 + 4


# -- whole runs -----------------------------------------------------------------

@pytest.fixture(scope="module")
def loss_runs():
    wl = dataclasses.replace(workloads.build("loss-recovery", 5), min_passes=1)
    return [harness.run_workload(wl, 0, traced=traced)
            for traced in (False, False, True)]


def test_fixed_seed_reproduces_every_deterministic_metric(loss_runs):
    first, second, traced = loss_runs
    for other in (second, traced):
        assert other.mlffr_mpps == first.mlffr_mpps
        assert other.p99_us == first.p99_us
        assert other.causes == first.causes
    e2e = [harness.end_to_end(r) for r in (first, second)]
    for name in ("mlffr_mpps", "p99_sojourn_us", "passed_fraction"):
        assert e2e[0][name] == e2e[1][name]


def test_known_defect_is_counted_not_hidden(loss_runs):
    run = loss_runs[0]
    failing = [c for c in run.causes.values() if c]
    assert failing == [[checks.DUPLICATE_DEFECT]] * workloads.LOSS_SWEEPS
    assert run.correct and run.attempted == 8 * workloads.LOSS_SWEEPS


def test_traced_self_times_sum_to_traced_grid(loss_runs):
    traced = loss_runs[2]
    assert traced.run_causes == []
    layer = traced.layer
    self_sum = sum(layer[f"self.{n}_s"] for n in harness.SPAN_NAMES)
    assert self_sum == pytest.approx(layer["trace.grid_s"], rel=1e-12)
    assert layer["sim.columnar_commits"] == 0  # loss-recovery runs scalar
    assert layer["ledger.unaccounted_pkts"] > 0
    assert layer["failed_fraction"] == pytest.approx(1 / 8)
    assert layer["model_residual"] == 0  # the lossless model is fig6-caida's


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in harness.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in harness.PER_LAYER]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "scrbench"), tmp_path / "scrbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "scrbench/run.py", "--workload", "fig6-caida",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
