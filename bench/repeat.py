"""Run the benchmark once per seed and summarize each metric's spread.

    python3 bench/repeat.py --workload NAME --seeds 101-110 [--json FILE]

Every run is untraced and measures ``BENCHMARK.json``'s ``run_seconds``.
For every metric prints the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the quartile distance as a share of the median, next to
the bound ``BENCHMARK.json`` fixes for it.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="N or LO-HI")
    ap.add_argument("--json", type=Path, help="write the summary here")
    args = ap.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}",
              file=sys.stderr)

    names = list(runs[0]["metrics"])
    summary = {
        "workload": args.workload, "seconds": seconds,
        "seeds": args.seeds, "all_correct": all(r["correct"] for r in runs),
        "metrics": {
            n: {"unit": runs[0]["metrics"][n]["unit"],
                **summarize([r["metrics"][n]["value"] for r in runs])}
            for n in names
        },
    }
    for n, s in summary["metrics"].items():
        bound = bounds.get(n)
        print(f"{n:40s} median {s['median']:.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
              + (f" (bound {bound})" if bound is not None else ""))
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
