"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads survey,scan]
                                  [--trace] [--write]

Runs `run.py --workload W --seed S --seconds <run_seconds> --trace 0` for
each workload and seed, one at a time, as BENCHMARK.json's command runs,
and prints per metric the median, the quartiles and the spread: the distance
between the first and third quartile as a share of the median (the
statistic each end-to-end bound in BENCHMARK.json is compared with). With
--trace it also makes one traced run per workload at the first seed. With
--write it stores the machine, the medians and spreads, the traced layers
and each workload's input properties in baseline.json, replacing the entries
of the workloads it ran.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    start = time.perf_counter()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    print(f"  {workload} seed {seed} trace {trace}: "
          f"{time.perf_counter() - start:.1f} s", flush=True)
    return json.loads(lines[-1]), lines[:-1]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    path = HERE / "baseline.json"
    out = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    out.update(machine=run.machine(), run_seconds=seconds)
    worst = 0.0
    for workload in args.workloads.split(","):
        values, properties = {}, None
        for seed in _seeds(args.seeds):
            result, lines = _run(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print("\n".join(lines))
                raise SystemExit(f"{workload} seed {seed}: incorrect or failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if properties is None:
                properties = next(json.loads(line.split(" inputs ", 1)[1])
                                  for line in lines if " inputs " in line)
        entry = {"inputs": properties, "end_to_end": {}}
        for name, vals in values.items():
            s = spread(vals)
            entry["end_to_end"][name] = dict(s, runs=vals)
            if name != "setup_s":
                worst = max(worst, s["spread"] / bounds[name])
            print(f"{workload:8s} {name:16s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}) runs "
                  + " ".join(f"{v:.4g}" for v in vals), flush=True)
        if args.trace:
            traced, _ = _run(workload, _seeds(args.seeds)[0], seconds, 1)
            entry["per_layer"] = {k: m["value"]
                                  for k, m in traced["metrics"].items()}
        entry["seeds"] = args.seeds
        out["workloads"][workload] = entry
    print(f"largest spread / bound, setup_s aside: {worst:.3f}")
    if args.write:
        path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
