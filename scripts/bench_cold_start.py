"""Cold-start CPU time of the engine in two checkouts, stage by stage.

Each run starts one fresh interpreter per stage and checkout, alternating
which checkout goes first, and takes the child's CPU time (user + system)
from getrusage(RUSAGE_CHILDREN). The stages are cumulative:

- bare: the interpreter alone (python -c pass);
- import: import darmonsel, darmonsel.cli;
- decide: that import plus one cli.run_single on the first record of
  corpus/golden.json.

So import - bare is the engine's import and decide - import its first
decision. The children get this interpreter's flags and environment: with
PYTHONDONTWRITEBYTECODE=1, every import compiles the package from source.
The script also reads `-X importtime` once per run and checkout and keeps
the self time of each darmonsel module. It writes BENCH_cold_start.json in
the current directory: median, quartiles and IQR of each stage in ms, the
pairs the change won, and the module self times.

    python3 scripts/bench_cold_start.py PARENT_CHECKOUT CHANGE_CHECKOUT --runs 20
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("bare", "import", "decide")


def stage_code(stage: str, src: Path, doc: dict) -> str:
    if stage == "bare":
        return "pass"
    code = f"import sys\nsys.path.insert(0, {str(src)!r})\nimport darmonsel, darmonsel.cli\n"
    if stage == "decide":
        code += ("from darmonsel import cli, serialize\n"
                 f"assert cli.run_single(serialize.config_from_doc({doc!r}))[0] in (0, 2)\n")
    return code


def child_cpu_ms(argv) -> float:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(argv, check=True, capture_output=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return 1000 * ((after.ru_utime - before.ru_utime)
                   + (after.ru_stime - before.ru_stime))


def import_self_us(src: Path) -> dict:
    """Self time in us of each darmonsel module, from -X importtime."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", stage_code("import", src, {})],
        check=True, capture_output=True, text=True).stderr
    out = {}
    for line in err.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[2].startswith("darmonsel"):
            out[parts[2]] = int(parts[0])
    return out


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2),
            "iqr": round(q3 - q1, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--runs", type=int, default=20,
                        help="interpreters per stage and checkout (default 20)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    sides = {"parent": Path(args.parent).resolve() / "src",
             "change": Path(args.change).resolve() / "src"}
    doc = json.loads((ROOT / "corpus" / "golden.json").read_text())["records"][0]
    cpu = {side: {stage: [] for stage in STAGES} for side in sides}
    modules = {side: {} for side in sides}
    for run in range(args.runs):
        order = list(sides) if run % 2 == 0 else list(reversed(sides))
        for stage in STAGES:
            for side in order:
                argv = [sys.executable, "-c", stage_code(stage, sides[side], doc)]
                cpu[side][stage].append(child_cpu_ms(argv))
        for side in order:
            for name, us in import_self_us(sides[side]).items():
                modules[side].setdefault(name, []).append(us)
    result = {
        "command": "python3 scripts/bench_cold_start.py PARENT CHANGE "
                   f"--runs {args.runs}",
        "unit": "ms of child CPU time (user + system)",
        "runs": args.runs,
        "record": doc["id"],
        "python": sys.version.split()[0],
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "stages": {side: {stage: spread(cpu[side][stage]) for stage in STAGES}
                   for side in sides},
        # per-run differences: the engine's import and its first decision
        "parts_median": {side: {
            "import - bare": round(statistics.median(
                i - b for b, i in zip(cpu[side]["bare"], cpu[side]["import"])), 2),
            "decide - import": round(statistics.median(
                d - i for i, d in zip(cpu[side]["import"], cpu[side]["decide"])), 2)}
            for side in sides},
        "change_wins": {stage: sum(c < p for p, c in zip(cpu["parent"][stage],
                                                         cpu["change"][stage]))
                        for stage in STAGES},
        "import_self_us_median": {
            side: {name: statistics.median(v) for name, v in sorted(mods.items())}
            for side, mods in modules.items()},
    }
    Path("BENCH_cold_start.json").write_text(json.dumps(result, indent=2) + "\n")
    for stage in STAGES:
        p, c = (result["stages"][side][stage] for side in sides)
        print(f"{stage:>6}: parent {p['median']:7.2f} ms (IQR {p['iqr']:.2f}), "
              f"change {c['median']:7.2f} ms (IQR {c['iqr']:.2f}), change "
              f"faster in {result['change_wins'][stage]}/{args.runs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
