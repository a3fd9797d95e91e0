"""darmonsel benchmark: seeded workloads through the engine's public entry
points, with every decision checked.

    python3 perfbench/run.py --workload survey --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Workloads (workloads.py): survey, scan, widened, precise; `all` runs each
in turn, and --seconds defaults to run_seconds in BENCHMARK.json. Each run
writes the generated config documents to a work directory under
.perfbench_out, then starts the engine in fresh worker processes
(worker.py), one at a time. A `measure` worker makes one pass over the
items, so a cache inside the engine helps an item only where the workload
itself repeats an input within the pass.

  --trace 0  `measure` workers, one pass each, until the passes' wall-clock
             decision time reaches --seconds (at least MIN_PASSES);
             SETUP_RUNS `setup` workers, spread among them, run interpreter
             start, import, input load and one warm-up decision. Prints the
             end-to-end metrics, each the median over the passes of that
             pass's figure:
               decisions_per_s   records / the sum of the items' times
               decision_ms_p50   median and 90th percentile of per-record
               decision_ms_p90   time (not for scan: run_batch does not
                                 time a single record)
             and
               setup_s           median CPU time of the setup workers
               peak_rss_mb       largest VmHWM of the measure workers
             Times are the worker's CPU time, which leaves out the time a
             shared host's hypervisor steals (up to a fifth of wall time
             on a 2-vCPU Xeon VM), divided by the pass's slowdown on the yardstick
             (yardstick.py), which takes out the minutes in which the host's
             vCPU itself runs up to 1.7x slower; setup_s is divided by the
             passes' median slowdown. The wall-clock throughput of each
             pass, the slowdowns and the unscaled figures are printed beside
             the metrics.
  --trace 1  alternating untraced and traced workers, one pass each, at
             least MIN_PASSES pairs and --seconds of wall-clock decision
             time. Prints the per-layer metrics named in BENCHMARK.json, per
             traced decision, each the median over the traced passes, and
             trace.overhead_ratio: the median over pairs of traced /
             untraced decisions_per_s. The per-pair ratios of wall-clock
             pass throughput are printed beside it. The first traced pass's
             spans go to .perfbench_out/spans-<workload>-<seed>.tsv.gz.

Afterwards every record's report is verified (verify.py) and, for the
default seed, the workload digest is compared with digests.json. The last
line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit code 1 when a check fails, 2 when the engine sources are missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import yardstick  # noqa: E402

SETUP_RUNS = 11
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "decisions_per_s": "1/s",
    "decision_ms_p50": "ms",
    "decision_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer_metrics():
    return {m["name"]: m["unit"] for m in spec()["per_layer"]}


def _worker(mode, workdir, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(workdir),
           *map(str, extra)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker exited with {proc.returncode}")
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _pass(mode, workdir: Path, n: int):
    """One pass in a fresh worker. Only the first pass of a mode keeps its
    reports and outputs, for verification."""
    passdir = workdir / f"{mode}-{n:03d}"
    _worker(mode, workdir, passdir, int(n == 0))
    result = json.loads((passdir / "result.json").read_text())
    if n:
        shutil.rmtree(passdir)
    return result


def _prepare(workload, seed, workdir: Path):
    items = workloads.generate(workload, seed)
    (workdir / "inputs.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "items": items}))
    (workdir / "warmup.json").write_text(json.dumps(
        {"schema_version": 1, "records": [workloads.warmup()]}))
    if workload == "scan":
        for k, chunk in enumerate(items):
            (workdir / f"chunk-{k:03d}.json").write_text(json.dumps(
                {"schema_version": 1, "records": chunk}))
    return items


def _records(workload, items, passdir: Path):
    """(config, code, report text or None, error) per record, input order."""
    reports = passdir / "reports"
    if workload != "scan":
        for k, config in enumerate(items):
            meta = json.loads((reports / f"{k:04d}.json").read_text())
            path = reports / f"{k:04d}.report.json"
            yield (config, meta["code"],
                   path.read_text() if path.exists() else None, meta["error"])
        return
    for k, chunk in enumerate(items):
        summary = json.loads((reports / f"chunk-{k:03d}.json").read_text())
        rows = {row["id"]: row for row in summary.get("rows", [])}
        for config in chunk:
            row = rows.get(config["id"], {"verdict": "ERROR",
                                          "error": summary.get("error")})
            code = {"feasible": 0, "infeasible": 2}.get(row["verdict"], 1)
            # generated ids are already safe file names
            path = passdir / f"out-{k:03d}" / f"{config['id']}.json"
            yield (config, code, path.read_text() if code != 1 else None,
                   row.get("error"))


def verify_run(workload, seed, items, passdir: Path):
    """Checks every record; returns (digest, problems, input properties)."""
    import darmonsel
    import verify
    entries, problems = [], []
    degrees, precisions, exact_inert = {}, {}, {}
    seen, repeats, n = set(), 0, 0
    for config, code, text, error in _records(workload, items, passdir):
        n += 1
        key = json.dumps([config["field_poly"], config["delta"]])
        repeats += key in seen
        seen.add(key)
        d = str(len(config["field_poly"]) - 1)
        degrees[d] = degrees.get(d, 0) + 1
        bits = str(config.get("options", {}).get("precision_bits", 32))
        precisions[bits] = precisions.get(bits, 0) + 1
        if code not in (0, 2):
            entries.append(verify.failure_entry(code, error))
            continue
        entry, found, exact = verify.examine(code, text, config, darmonsel)
        entries.append(entry)
        problems.extend(f"{config['id']}: {p}" for p in found)
        exact_inert[str(exact)] = exact_inert.get(str(exact), 0) + 1
    properties = {
        "records": n,
        "degree_mix": degrees,
        "repeat_share": repeats / n,
        "exact_inert_primes": dict(sorted(exact_inert.items(),
                                          key=lambda kv: int(kv[0]))),
        "precision_bits": precisions,
    }
    if workload == "scan":
        properties["batch_records"] = workloads.SCAN_CHUNK
    digest = verify.digest(entries)
    if seed == workloads.DEFAULT_SEED:
        stored = json.loads((HERE / "digests.json").read_text()).get(workload)
        if stored != digest:
            problems.append(f"digest {digest} differs from stored {stored}")
    return digest, problems, properties


def throughput(result):
    """Records per second of one pass's wall-clock decision time."""
    return sum(result["sizes"]) / (sum(result["wall_ns"]) / 1e9)


def pass_values(result, slowdown=1.0):
    """One pass's decisions_per_s and, where every item is one record, the
    median and 90th percentile of the records' times in ms, from CPU times
    divided by `slowdown`."""
    times = [ns / 1e9 / slowdown for ns in result["item_ns"]]
    values = {"decisions_per_s": sum(result["sizes"]) / sum(times)}
    if len(times) == sum(result["sizes"]):
        values["decision_ms_p50"], values["decision_ms_p90"] = _quantiles(
            [t * 1e3 for t in times])
    return values


def _scaled_rate(result):
    return pass_values(result, yardstick.slowdown(result["yard_ns"]))[
        "decisions_per_s"]


def _median_values(passes, slowdowns):
    per_pass = [pass_values(p, s) for p, s in zip(passes, slowdowns)]
    return {name: statistics.median(v[name] for v in per_pass)
            for name in per_pass[0]}


def _quantiles(values):
    cuts = statistics.quantiles(values, n=10)
    return statistics.median(values), cuts[8]


def _spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def _combine(passes):
    """Totals over passes, plus how many items had an outcome that differed
    from their first pass."""
    first = passes[0]["outcomes"]
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]][:5],
        "nondeterministic": sum(1 for p in passes[1:]
                                for a, b in zip(first, p["outcomes"]) if a != b),
    }


def _measure(workdir, seconds):
    """Passes in fresh workers until their wall-clock decision time reaches
    `seconds`, at least MIN_PASSES of them, with SETUP_RUNS setup workers
    spread evenly among them: the host's slow stretches last seconds, and a
    median over setups made back to back would fall in one of them."""
    passes, setups, spent, budget = [], [], 0, seconds * 1e9
    while len(passes) < MIN_PASSES or spent < budget:
        passes.append(_pass("measure", workdir, len(passes)))
        spent += sum(passes[-1]["wall_ns"])
        while len(setups) < SETUP_RUNS * min(1.0, spent / budget):
            setups.append(_worker("setup", workdir))
    return passes, setups


def _trace(workdir, seconds):
    """Alternating untraced and traced passes, at least MIN_PASSES pairs,
    until their decision time reaches `seconds`."""
    pairs, budget = [], seconds * 1e9
    while len(pairs) < MIN_PASSES or budget > 0:
        plain = _pass("measure", workdir, len(pairs))
        traced = _pass("trace", workdir, len(pairs))
        pairs.append((plain, traced))
        budget -= sum(plain["wall_ns"]) + sum(traced["wall_ns"])
    return pairs


def run_workload(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        items = _prepare(workload, seed, workdir)
        if trace:
            pairs = _trace(workdir, seconds)
            passes = [traced for _, traced in pairs]
            mode = "trace"
        else:
            passes, setups = _measure(workdir, seconds)
            mode = "measure"
        digest, problems, properties = verify_run(
            workload, seed, items, workdir / f"{mode}-000")
        totals = _combine(passes)
        if totals["nondeterministic"]:
            problems.append(f"{totals['nondeterministic']} decisions differed "
                            "from their first pass")
        if trace:
            layers = {name: statistics.median(p["trace"][name] for p in passes)
                      for name in passes[0]["trace"]}
            layers["trace.overhead_ratio"] = statistics.median(
                _scaled_rate(t) / _scaled_rate(u) for u, t in pairs)
            ratios = [throughput(t) / throughput(u) for u, t in pairs]
            notes = [f"traced / untraced wall-clock throughput of each of "
                     f"{len(ratios)} pass pairs: "
                     + " ".join(f"{r:.3f}" for r in ratios)
                     + f" (median {statistics.median(ratios):.3f},"
                     f" spread {_spread(ratios):.3f})"]
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in per_layer_metrics().items()}
            shutil.copy(workdir / "trace-000" / "spans.tsv.gz",
                        OUT / f"spans-{workload}-{seed}.tsv.gz")
        else:
            # CPU time leaves out the hypervisor's steal, and the
            # yardstick's slowdown the minutes in which the vCPU runs slow
            slow = [yardstick.slowdown(p["yard_ns"]) for p in passes]
            values = _median_values(passes, slow)
            values["setup_s"] = (statistics.median(setups)
                                 / statistics.median(slow))
            values["peak_rss_mb"] = max(p["peak_rss_kb"] for p in passes) / 1024
            raw = _median_values(passes, [1.0] * len(passes))
            raw["setup_s"] = statistics.median(setups)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items() if name in values}
            layers = None
            rates = [throughput(p) for p in passes]
            notes = [f"wall-clock throughput of each pass (1/s): "
                     + " ".join(f"{r:.4g}" for r in rates)
                     + f" (median {statistics.median(rates):.4g},"
                     f" spread {_spread(rates):.3f})",
                     "yardstick slowdown of each pass: "
                     + " ".join(f"{x:.3f}" for x in slow),
                     "unscaled CPU-time figures: "
                     + ", ".join(f"{k} {v:.4g}" for k, v in raw.items())]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "correct": not problems,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "failed_share": totals["failed"] / totals["attempted"],
        "errors": totals["errors"],
        "problems": problems,
        "digest": digest,
        "passes": len(passes),
        "notes": notes,
        "properties": properties,
        "metrics": metrics,
        "layers": layers,
    }


def machine():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": model}


def print_result(res):
    w = res["workload"]
    for name, m in res["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    print(f"{w} failed_share {res['failed_share']:.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    print(f"{w} {res['passes']} passes, one fresh process each")
    for line in res["notes"]:
        print(f"{w} {line}")
    print(f"{w} inputs {json.dumps(res['properties'], sort_keys=True)}")
    print(f"{w} digest {res['digest']}")
    if res["layers"]:
        top = sorted(((k[:-len('.self_ms')], v) for k, v in res["layers"].items()
                      if k.endswith(".self_ms") and k.count(".") == 2),
                     key=lambda kv: -kv[1])[:5]
        print(f"{w} top self time (ms/decision): "
              + ", ".join(f"{k} {v:.3g}" for k, v in top))
    for line in res["errors"] + res["problems"]:
        print(f"{w} PROBLEM {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "darmonsel" / "__init__.py").is_file():
        print(f"error: engine sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        print_result(res)
        results.append(res)
    correct = all(r["correct"] for r in results)
    if args.workload == "all":
        line = {"correct": correct, "machine": machine(),
                "workloads": {r["workload"]: r["metrics"] for r in results}}
    else:
        res = results[0]
        line = {"correct": res["correct"], "attempted": res["attempted"],
                "failed": res["failed"], "metrics": res["metrics"]}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
