"""Run the benchmark on several seeds per workload and report its spread.

For each end-to-end metric this prints the median of the runs and their
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound.  Raw results go to perfbench/results/.

    python3 perfbench/stability.py --seeds 1-10 --seconds 15
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    all_within = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.perf_counter() - start
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, {result['attempted']} attempted, "
                  f"{result['failed']} failed, correct {result['correct']}, {values}", flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            all_within &= name == "setup_s" or spread <= bound
            print(f"  {workload} {name}: median {median:.4g}, spread {spread:.3f} (bound {bound})")
        report[workload] = runs
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"stability-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"raw results in {path.relative_to(ROOT)}")
    return 0 if all_within else 1


if __name__ == "__main__":
    sys.exit(main())
