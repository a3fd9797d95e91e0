"""Per-layer times of the engine in two checkouts, from perfbench's trace.

Each run starts, in each checkout and alternating which goes first,

    python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 1

for W = survey and precise, the workloads BENCHMARK.json gates, with the
checkout as working directory, so every side builds and runs what its own
sources say; perfbench is run as a black box. The script reads the
metrics from the JSON object on the last line of stdout (the per-layer
metrics named in BENCHMARK.json plus trace.overhead_ratio), the pass count
from the "W N passes" line, and times each run's wall clock. A run whose
checks fail (exit code not 0, or "correct" false) stops the script.

It writes BENCH_layers.json in the current directory: per workload and
metric, the median, quartiles and IQR of each side, and how many runs the
change won where BENCHMARK.json gives the metric a direction; per workload,
the wall time and pass count of every run.

    python3 scripts/bench_layers.py PARENT_CHECKOUT CHANGE_CHECKOUT --runs 5 --seconds 10
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("survey", "precise")
SEED = 0


def run_perfbench(checkout: Path, workload: str, seconds: float):
    """(metrics {name: value}, wall seconds, passes) of one traced run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", "1"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{checkout}: {' '.join(argv)} failed "
                         f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}"
                         f"{proc.stderr[-2000:]}")
    passes = re.search(rf"^{workload} (\d+) passes", proc.stdout, re.M)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, round(wall, 1), int(passes.group(1)) if passes else None


def machine() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        model = platform.processor() or "unknown cpu"
    return f"{platform.machine()}, {model}, {os.cpu_count()} CPUs"


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def directions(checkout: Path) -> dict:
    """{metric: "higher" | "lower"} from a checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec.get("per_layer", []) + spec.get("end_to_end", [])}


def wins(better: str, parent, change) -> int:
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--runs", type=int, default=5,
                        help="traced runs per workload and checkout (default 5)")
    parser.add_argument("--seconds", type=float, default=10,
                        help="perfbench --seconds of each run (default 10)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    better = directions(sides["change"])
    result = {
        "command": "python3 scripts/bench_layers.py PARENT CHANGE "
                   f"--runs {args.runs} --seconds {args.seconds}",
        "unit": "per traced decision, as perfbench/run.py --trace 1 prints them",
        "runs": args.runs,
        "python": sys.version.split()[0],
        "machine": machine(),
        "workloads": {},
    }
    for workload in WORKLOADS:
        values = {side: {} for side in sides}
        runs = {side: [] for side in sides}
        for run in range(args.runs):
            order = list(sides) if run % 2 == 0 else list(reversed(sides))
            for side in order:
                metrics, wall, passes = run_perfbench(
                    sides[side], workload, args.seconds)
                runs[side].append({"wall_s": wall, "passes": passes})
                for name, value in metrics.items():
                    values[side].setdefault(name, []).append(value)
                print(f"{workload} run {run + 1} {side}: {wall} s, "
                      f"{passes} passes", file=sys.stderr)
        shared = sorted(set(values["parent"]) & set(values["change"]))
        result["workloads"][workload] = {
            "metrics": {
                name: {"parent": spread(values["parent"][name]),
                       "change": spread(values["change"][name]),
                       **({"better": better[name],
                           "change_wins": wins(better[name], values["parent"][name],
                                               values["change"][name])}
                          if name in better else {})}
                for name in shared},
            "only_parent": sorted(set(values["parent"]) - set(shared)),
            "only_change": sorted(set(values["change"]) - set(shared)),
            "runs": runs,
        }
    Path("BENCH_layers.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
