"""Compare the decisions of two source trees on the same inputs.

Runs every record of corpus/golden.json and the seed-0 inputs of the four
benchmark workloads (survey, precise, widened, scan) through cli.run_single
of each tree, each in its own interpreter, and compares:

- exit codes;
- report documents, after dropping the keys that only one tree's reports
  carry (an added key; the keys dropped are printed);
- verdict lines of the trace;
- the multiset of "(label, ok|FAIL)" check lines of the trace.

Exits 1 if any exit code, report or verdict differs; trace check-line
differences are printed per record prefix, for the reader to judge.

    python3 scripts/compare_decisions.py OLD_CHECKOUT NEW_CHECKOUT
"""

import argparse
import collections
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECK_LINE = re.compile(r"^    (\S+) (ok|FAIL):")


def inputs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    docs = json.loads((ROOT / "corpus" / "golden.json").read_text())["records"]
    for name in ("survey", "precise", "widened", "scan"):
        generated = workloads.generate(name, 0)
        if name == "scan":
            generated = [doc for chunk in generated for doc in chunk]
        docs += generated
    return docs


def dump(checkout: str):
    """Print one JSON line per input: id, exit code, report, trace."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    from darmonsel import cli, serialize
    for doc in inputs():
        code, report, trace = cli.run_single(serialize.config_from_doc(doc))
        print(json.dumps({"id": doc.get("id"), "code": code,
                          "report": json.loads(report) if report else None,
                          "trace": trace}))


def decisions(checkout: str):
    out = subprocess.run([sys.executable, __file__, "--dump", checkout],
                         capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def drop_one_sided_keys(old, new) -> set:
    """Remove from every report the top-level keys that only one side's
    reports carry; return those keys."""
    keys = [set().union(*(row["report"] for row in rows if row["report"]))
            for rows in (old, new)]
    one_sided = keys[0] ^ keys[1]
    for row in old + new:
        for key in one_sided:
            if row["report"] is not None:
                row["report"].pop(key, None)
    return one_sided


def check_lines(trace: str) -> collections.Counter:
    return collections.Counter(m.groups() for m in map(CHECK_LINE.match, trace.splitlines())
                               if m)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    old = decisions(args.old)
    new = decisions(args.new)
    print("report keys on one side only, not compared: "
          + (", ".join(sorted(drop_one_sided_keys(old, new))) or "none"))
    differ = collections.Counter()
    lines = collections.defaultdict(collections.Counter)
    for a, b in zip(old, new, strict=True):
        assert a["id"] == b["id"]
        differ["exit code"] += a["code"] != b["code"]
        differ["report"] += a["report"] != b["report"]
        verdicts = [[x for x in r["trace"].splitlines() if x.startswith("verdict:")]
                    for r in (a, b)]
        differ["verdict"] += verdicts[0] != verdicts[1]
        before, after = check_lines(a["trace"]), check_lines(b["trace"])
        prefix = (a["id"] or "?").split("-")[0]
        for key, n in (after - before).items():
            lines[prefix][("+",) + key] += n
        for key, n in (before - after).items():
            lines[prefix][("-",) + key] += n
    print(f"{len(old)} decisions; differing: " + ", ".join(
        f"{what} {n}" for what, n in differ.items()))
    for prefix, counts in sorted(lines.items()):
        print(f"trace check lines, {prefix}: "
              + ", ".join(f"{s}{label} {status} x{n}"
                          for (s, label, status), n in sorted(counts.items())))
    return 1 if sum(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
