"""Self-test of the benchmark harness on the smoke workload (h1 and Cartan).

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import judge  # noqa: E402
from workloads import pass_specs  # noqa: E402

END_TO_END = ["verdict_s", "pass_s", "peak_rss_mb", "setup_s", "verdict_errors"]
LAYERS = [
    "expr.simplify.calls", "expr.simplify.top_s", "expr.simplify.changed_ratio",
    "expr.add.calls", "expr.mul.calls", "expr.differentiate.calls",
    "expr.pool_nodes", "expr.diff_cache_entries",
    "contact.extract_contact_data_s", "contact.morimoto_grading_contact_s",
    "contact.connection_prime_s", "contact.connection_double_prime_s",
    "contact.morimoto_connection_contact_s",
    "g235.intrinsic_frame_235_s", "g235.morimoto_grading_235_s",
    "g235.morimoto_connection_235_s",
    "connection.Connection_init_s", "connection.torsion_tensor_s",
    "connection.curvature_tensor_s", "connection.torsion_at_s",
    "connection.curvature_at_s", "connection.check_morimoto_s",
    "connection.flatness_check_s",
    "manifold.check_constant_symbol_s", "manifold.structure_functions_s",
    "manifold.frame_inverse_s", "lie.isometry_algebra_s", "models.build_s",
    "trace.overhead_ratio",
]


def bench(trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def lines(proc):
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


@pytest.fixture(scope="module")
def untraced():
    return lines(bench(0))


@pytest.fixture(scope="module")
def traced():
    return lines(bench(1))


def outcomes(bench_pass):
    return [(c["verdicts"], c["residuals"]) for c in bench_pass["charts"]]


def test_result_line_follows_benchmark_json(untraced, traced):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for (_, result), key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {n: m["unit"] for n, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in contract[key]}


def test_every_named_metric_is_reported_with_a_unit(untraced, traced):
    for report, names in ((untraced[0], END_TO_END), (traced[0], LAYERS)):
        for name in names:
            metric = report["metrics"][name]
            assert metric["unit"], name
            assert isinstance(metric["value"], (int, float)), name
    assert untraced[0]["metrics"]["verdict_errors"]["value"] == 0


def test_report_records_seed_parameters_and_environment(untraced):
    report = untraced[0]
    assert report["seed"] == 5
    specs = pass_specs("smoke", 5, 0)
    charts = report["passes"][0]["charts"]
    assert [(c["params"], c["points"]) for c in charts] == [
        (s["params"], s["points"]) for s in specs
    ]
    env = report["environment"]
    assert env["python"] and env["numpy"] and env["nproc"] >= 1 and env["src_lines"] > 0


def test_tracing_changes_no_verdict_or_residual(untraced, traced):
    passes = traced[0]["passes"]
    assert [p["traced"] for p in passes[:2]] == [False, True]
    assert traced[0]["trace_mismatches"] == []
    expected = outcomes(untraced[0]["passes"][0])
    assert all(outcomes(p) == expected for p in passes)


def test_overhead_ratio_is_the_median_of_adjacent_pairs(traced):
    ratios = traced[0]["overhead_ratios"]
    assert len(ratios) == len(traced[0]["passes"]) // 2 >= 1
    assert traced[0]["metrics"]["trace.overhead_ratio"]["value"] == statistics.median(ratios)


def test_self_times_account_for_traced_chart_time(traced):
    m = {k: v["value"] for k, v in traced[0]["metrics"].items()}
    layer_self = sum(v for k, v in m.items()
                     if k.endswith("_s") and not k.startswith("trace."))
    charts = m["trace.charts_s"]
    assert layer_self + m["trace.unattributed_ratio"] * charts == pytest.approx(charts)


def test_wrong_verdicts_are_counted():
    spec = pass_specs("smoke", 5, 0)[0]  # flat h1
    ok = {"constant": True, "strongly_compatible": True}
    small = {"morimoto_r": 0.0, "morimoto_t": 0.0, "torsion": 0.0, "curvature": 0.0}
    assert judge(spec, {"verdicts": ok, "residuals": small, "error": None})["mismatch"] is None
    ambiguous = dict(small, curvature=1e-5)
    bad = judge(spec, {"verdicts": ok, "residuals": ambiguous, "error": None})
    assert bad["mismatch"]["wrong"] == ["flat"]
    curved = dict(spec, expected=dict(spec["expected"], flat=False))
    assert judge(curved, {"verdicts": ok, "residuals": small, "error": None})["mismatch"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
