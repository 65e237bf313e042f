"""Chart-to-verdict benchmark for ``srgeom``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's charts from ``--seed``, solves each one in a worker
interpreter (``worker.py``) and checks every verdict triple against the
answer known from the chart's construction.  Passes of the workload repeat
until ``--seconds`` is spent; every pass runs at least once.

With ``--trace 0`` the end-to-end metrics are measured.  With ``--trace 1``
each worker of one pass runs twice in a row, untraced and with spans and
counters installed (``tracing.py``), in alternating order; up to three such
rounds run.  The per-layer metrics come from the first traced pass, and every
traced residual must equal the untraced one bit for bit.

Standard output ends with two JSON lines: the full report (seed, drawn
parameters, every chart's verdicts and residuals, environment, all metrics)
and the result object whose metrics are the ones ``BENCHMARK.json`` lists
for the mode.  Reports and spans are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import TIMED
from workloads import WORKLOADS, pass_specs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

SETUP_PER_SLOT = 4  # setup samples before each worker and after the last
OVERHEAD_ROUNDS = 3  # most rounds of plain/traced pairs in a traced run
SETUP_IMPORT = "import srgeom.models, srgeom.contact, srgeom.g235"
FLAT_TOL = 1e-8  # a flat chart's residuals are at most this
CURVED_TOL = 1e-3  # a curved chart's largest residual exceeds this


class Deadline(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # string hashing cannot reorder any computation between runs
    env["PYTHONHASHSEED"] = "0"
    # the untimed first import writes srgeom's bytecode, so no measured
    # interpreter compiles it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(job: dict, deadline: float) -> tuple:
    """Run one worker interpreter on ``job``; returns (wall seconds, output)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)], input=json.dumps(job),
            capture_output=True, text=True, env=worker_env(),
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise Deadline("worker exceeded the run's time limit") from None
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return wall, {"failure": f"worker exit {proc.returncode}: {tail[0]}"}
    out = json.loads(lines[-1])
    if not Path(out["srgeom_file"]).is_relative_to(SRC):
        return wall, {"failure": f"srgeom imported from {out['srgeom_file']}"}
    return wall, out


def worker_groups(workload: str, specs: list) -> list:
    """Charts per worker: one interpreter per chart if isolated, else one in all."""
    return [[s] for s in specs] if WORKLOADS[workload].isolated else [specs]


def solve_group(group: list, trace: bool, spans_path: str | None, deadline: float) -> dict:
    """One worker interpreter solving ``group``, its charts judged."""
    job = {"charts": group, "trace": trace, "spans_path": spans_path if trace else None}
    wall, out = spawn(job, deadline)
    charts = []
    for j, spec in enumerate(group):
        if "failure" in out:
            res = {"verdicts": None, "residuals": None, "seconds": wall,
                   "error": {"stage": "worker", "exception": out["failure"]}}
        else:
            res = out["charts"][j]
        charts.append(judge(spec, res))
    return {"wall_s": wall, "charts": charts, "procs": [out]}


def merge(results: list, wall_s: float) -> dict:
    """One pass from the results of its workers."""
    return {"wall_s": wall_s, "charts": [c for r in results for c in r["charts"]],
            "procs": [p for r in results for p in r["procs"]]}


def run_pass(workload: str, specs: list, deadline: float, setup: list) -> dict:
    """Solve one untraced pass, sampling ``setup_s`` before each worker.

    The setup samples are spread through the run so that they see the same
    machine as the charts; their time is not part of the pass's wall time.
    """
    results, setup_wall = [], 0.0
    start = time.perf_counter()
    for group in worker_groups(workload, specs):
        t = time.perf_counter()
        setup.extend(import_srgeom(deadline) for _ in range(SETUP_PER_SLOT))
        setup_wall += time.perf_counter() - t
        results.append(solve_group(group, False, None, deadline))
    return merge(results, time.perf_counter() - start - setup_wall)


def traced_pairs(workload: str, specs: list, tag: str, deadline: float) -> tuple:
    """Solve each worker of the pass untraced and traced, back to back.

    The order within a pair alternates, so that a steady drift of the
    machine's speed does not count as tracing overhead.  Rounds repeat, up to
    ``OVERHEAD_ROUNDS``, while the next one is expected to end within two
    thirds of the run's time limit.  Returns the passes (plain and traced, alternately)
    and the traced/plain wall ratio of every pair.
    """
    groups = worker_groups(workload, specs)
    budget = WORKLOADS[workload].limit_s * 2 / 3
    passes, ratios = [], []
    start = time.perf_counter()
    for r in range(OVERHEAD_ROUNDS):
        t = time.perf_counter()
        plain, traced = [], []
        for i, group in enumerate(groups):
            path = str(OUT / f"{tag}-round{r}-proc{i}.spans.json")
            for trace in (False, True) if (r + i) % 2 == 0 else (True, False):
                (traced if trace else plain).append(solve_group(group, trace, path, deadline))
            ratios.append(traced[-1]["wall_s"] / plain[-1]["wall_s"])
        for results in (plain, traced):
            passes.append(merge(results, sum(x["wall_s"] for x in results)))
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > budget:
            break
    return passes, ratios


def judge(spec: dict, res: dict) -> dict:
    """Attach the spec and the verdict check to one chart result."""
    chart = {"kind": spec["kind"], "params": spec["params"], "points": spec["points"],
             "expected": spec["expected"], **res, "mismatch": None}
    if res["error"]:
        return chart
    r = res["residuals"]
    worst = max(r["torsion"], r["curvature"])
    flat = True if worst <= FLAT_TOL else False if worst > CURVED_TOL else None
    got = {
        "constant": res["verdicts"]["constant"],
        "morimoto": res["verdicts"]["strongly_compatible"]
        and max(r["morimoto_r"], r["morimoto_t"]) <= spec["morimoto_tol"],
        "flat": flat,
    }
    wrong = [k for k, v in spec["expected"].items() if got[k] != v]
    if wrong:
        chart["mismatch"] = {"got": got, "wrong": wrong}
    return chart


def failed(chart: dict) -> bool:
    return bool(chart["error"] or chart["mismatch"])


def import_srgeom(deadline: float) -> float:
    """Wall seconds of one interpreter start plus the ``srgeom`` import."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_IMPORT], env=worker_env(),
                   check=True, capture_output=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return time.perf_counter() - start


def lower_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def end_to_end(passes: list, setup: list) -> dict:
    charts = [c for p in passes for c in p["charts"]]
    # each chart of the pass: median over passes; then the mean over charts,
    # since a median across charts of different sizes jumps between sizes
    per_chart = zip(*[[c["seconds"] for c in p["charts"]] for p in passes])
    rss = [max(pr.get("peak_rss_kb", 0) for pr in p["procs"]) / 1024 for p in passes]
    return {
        "verdict_s": (statistics.fmean(map(statistics.median, per_chart)), "s"),
        "pass_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        # the lower quartile: a start slowed by a neighbour says nothing of
        # the program, and such slow starts come in bursts on a shared host
        "setup_s": (lower_quartile(setup), "s"),
        "verdict_errors": (sum(map(failed, charts)), "count"),
    }


def span_totals(procs: list) -> dict:
    """Calls, inclusive and self seconds per span name, summed over workers."""
    spans: dict = {}
    for pr in procs:
        for name, agg in pr["trace"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
    return spans


def per_layer(procs: list, spans: dict, overhead: float) -> dict:
    """Layer metrics of one traced pass from its workers and span totals."""

    def total(key):
        return sum(pr["trace"][key] for pr in procs)

    def count(name):
        return sum(pr["trace"]["counts"].get(name, 0) for pr in procs)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    calls = total("simplify_calls")
    out = {
        "expr.simplify.calls": (calls, "count"),
        "expr.simplify.top_s": (spans.get("expr.simplify", {}).get("total_s", 0.0), "s"),
        "expr.add.calls": (count("expr.add"), "count"),
        "expr.mul.calls": (count("expr.mul"), "count"),
        "expr.differentiate.calls": (count("expr.differentiate"), "count"),
        "expr.pool_nodes": (max((pr["pool_nodes"] for pr in procs), default=0), "count"),
        "expr.diff_cache_entries": (
            max((pr["diff_cache_entries"] for pr in procs), default=0), "count"),
        "models.build_s": (self_s("models.build"), "s"),
    }
    for _, _, name in TIMED:
        out[f"{name}_s"] = (self_s(name), "s")
    chart = spans.get("chart", {"total_s": 0.0, "self_s": 0.0})
    out["expr.simplify.changed_ratio"] = (total("simplify_changed") / max(calls, 1), "ratio")
    out["trace.charts_s"] = (chart["total_s"], "s")
    out["trace.unattributed_ratio"] = (chart["self_s"] / max(chart["total_s"], 1e-12), "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def trace_mismatches(passes: list) -> list:
    """Charts whose verdicts or residuals differ between any two passes."""
    outcomes = [[(c["verdicts"], c["residuals"]) for c in p["charts"]] for p in passes]
    return [i for i, row in enumerate(zip(*outcomes)) if row.count(row[0]) != len(row)]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(
            len(f.read_text().splitlines()) for f in sorted((SRC / "srgeom").rglob("*.py"))
        ),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "srgeom" / "__init__.py").is_file():
        print(f"srgeom sources not found under {SRC}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + WORKLOADS[args.workload].limit_s
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    report = {"workload": args.workload, "why": WORKLOADS[args.workload].why,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "error": None}

    passes, mismatched = [], []
    try:
        import_srgeom(deadline)
        if args.trace:
            specs = pass_specs(args.workload, args.seed, 0)
            passes, ratios = traced_pairs(args.workload, specs, tag, deadline)
            report["overhead_ratios"] = ratios
            mismatched = trace_mismatches(passes)
            traced = passes[1]
            procs = [pr for pr in traced["procs"] if pr.get("trace")]
            report["spans"] = span_totals(procs)
            metrics = per_layer(procs, report["spans"], statistics.median(ratios))
            metrics["trace.verdict_s"] = (
                statistics.median(c["seconds"] for c in traced["charts"]), "s")
            names = [m["name"] for m in contract["per_layer"]]
        else:
            setup = []
            report["setup_samples"] = setup
            start = time.perf_counter()
            while True:
                specs = pass_specs(args.workload, args.seed, len(passes))
                passes.append(run_pass(args.workload, specs, deadline, setup))
                last = passes[-1]["wall_s"]
                if (time.perf_counter() - start + last > args.seconds
                        or time.monotonic() + last > deadline):
                    break
            setup.extend(import_srgeom(deadline) for _ in range(SETUP_PER_SLOT))
            metrics = end_to_end(passes, setup)
            names = [m["name"] for m in contract["end_to_end"]]
    except Deadline as exc:
        report["error"] = str(exc)
        metrics, names = {}, []

    charts = [c for p in passes for c in p["charts"]]
    errors = sum(map(failed, charts)) + len(mismatched)
    report["passes"] = [{"wall_s": p["wall_s"], "charts": p["charts"]} for p in passes]
    if args.trace:
        for i, p in enumerate(report["passes"]):
            p["traced"] = i % 2 == 1
    report["trace_mismatches"] = mismatched
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "correct": report["error"] is None and errors == 0 and bool(charts),
        "attempted": max(len(charts), 1),
        "failed": errors if charts else 1,
        "metrics": {n: report["metrics"][n] for n in names},
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
