"""Tests of the benchmark itself: its correctness gates catch planted faults,
its counts repeat exactly, and it refuses to run without the library.

    python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import u4codes as u  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = (
    "codes.rows_reduced", "codes.rank_sum", "codes.membership_probes",
    "weights.codewords", "sring.inverse_calls", "torsion.t3_calls",
    "codes.validate_canonical_calls", "codes.span_basis_calls",
)


@pytest.fixture
def off_by_one_t3(monkeypatch):
    """A planted fault in the closed form: every t3 comes out one too high."""
    original = u.torsion.t3

    def wrong(code):
        res = original(code)
        return u.T3Result(t3=res.t3 + 1, path=res.path)

    monkeypatch.setattr(u.torsion, "t3", wrong)


@pytest.mark.parametrize("name", ["verify_small", "enum_verify"])
def test_planted_formula_fault_drives_fail_frac_above_zero(name, off_by_one_t3, tmp_path):
    record = run.run_workload(name, seed=5, seconds=0, trace=False, workdir=tmp_path)
    assert record["fail_frac"] > 0


def test_clean_run_has_no_failures(tmp_path):
    record = run.run_workload("verify_small", seed=5, seconds=0, trace=False, workdir=tmp_path)
    assert record["failed"] == 0 and record["attempted"] > 0


def _small_code(seed):
    shape = workloads.Shape(2, 1, 3, {0: 6, 1: 5, 2: 3}, 0.5)
    return workloads.make_code(workloads.random.Random(seed), shape)


def test_closed_form_check_compares_with_the_oracle():
    code = _small_code(1)
    report = u.analyze(code)
    right = (report.t3, report.wt_sp, report.wt_rt)
    wrong = (report.t3, report.wt_sp + 1, report.wt_rt)
    unit = workloads.OracleChecked(code)
    outcomes = workloads._closed_form_check([(0, unit, (right, 0.1)), (0, unit, (wrong, 0.1))])
    assert [o.ok for o in outcomes] == [True, False]


def test_closed_form_check_catches_a_fault_in_the_weight_table(monkeypatch):
    monkeypatch.setattr(u.weights, "wt_sp_from_t3", lambda t3, p, k: 1)
    unit = workloads.OracleChecked(_small_code(2))
    outcome = workloads._closed_form_check([(0, unit, workloads._closed_form_call(unit, None))])
    assert not outcome[0].ok


def test_reference_weight_table_matches_the_library_at_this_commit():
    for p, k in [(2, 1), (2, 4), (3, 3), (5, 1), (5, 3), (7, 2)]:
        for t3 in range(p**k + 1):
            assert workloads.wt_sp_reference(t3, p, k) == u.wt_sp_from_t3(t3, p, k)


@pytest.mark.parametrize("name", ["verify_small", "enum_verify"])
def test_counts_repeat_exactly_for_a_seed(name, tmp_path):
    first, second = (
        run.run_workload(name, seed=9, seconds=0, trace=True, workdir=tmp_path)["per_layer"]
        for _ in range(2)
    )
    for metric in COUNT_METRICS:
        assert first[metric] == second[metric], metric
    assert first["torsion.t3_calls"][0] > 0
    assert not hasattr(u.cli.span_basis, "__wrapped__")
    assert u.cli.analyze_code is u.weights.analyze


def test_latency_in_reference_units_cancels_a_uniform_slowdown():
    latencies = [0.20, 0.25, 0.21, 0.30]
    gaps = [[0.0030, 0.0031, 0.0029], [0.0035, 0.0030, 0.0032], [0.0030, 0.0031, 0.0033],
            [0.0034, 0.0030, 0.0031], [0.0029, 0.0030, 0.0036]]

    def relative(factor):
        local = run.local_reference([[t * factor for t in gap] for gap in gaps])
        return [lat * factor / ref for lat, ref in zip(latencies, local)]

    assert relative(1.0) == pytest.approx(relative(1.3))
    assert run.local_reference(gaps)[0] == pytest.approx(0.00305)  # median of six


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
