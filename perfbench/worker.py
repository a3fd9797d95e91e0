"""One benchmark process: import the engine, load the inputs, decide.

    python3 perfbench/worker.py setup   WORKDIR
    python3 perfbench/worker.py measure WORKDIR PASSDIR REPORTS
    python3 perfbench/worker.py trace   WORKDIR PASSDIR REPORTS

WORKDIR holds inputs.json and warmup.json written by run.py. Every mode
first makes one warm-up decision on warmup.json, whose field and extension
no workload uses, so it warms the interpreter and the lazy prime sieve but
no cache an item could hit. `setup` stops there; its parent takes the
whole process's CPU time. `measure` makes
exactly one pass over the items as a closed loop (one caller, the next
decision only after the previous one returns) and writes
PASSDIR/result.json. An item is a config, or for scan a batch corpus handed
to run_batch. run.py starts one process per pass, so an input reaches the
engine more than once in a process only where the workload itself repeats
it. `trace` does the same with every public engine function
wrapped.

Each timed call starts after gc.collect() and one timed run of the
yardstick, both outside the timed region. gc.collect() is there because
otherwise garbage left by a large widened decision makes the next
decisions' times swing by 2x from pass to pass.

With REPORTS = 1 the pass writes each decision's report under
PASSDIR/reports for run.py to verify. Every pass records a hash of each
item's outcome, so run.py can check that passes agree. That bookkeeping
stays outside the timed region.
"""

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import yardstick  # noqa: E402


def _import_engine():
    import darmonsel
    from darmonsel import cli, serialize
    if Path(darmonsel.__file__).resolve().parent != ROOT / "src" / "darmonsel":
        raise SystemExit(f"engine imported from {darmonsel.__file__}, "
                         f"not from {ROOT / 'src'}")
    return cli, serialize


def _peak_rss_kb() -> int:
    """This process's own peak RSS. Linux carries ru_maxrss across exec, so
    it can report the parent's peak instead; VmHWM starts afresh."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """One pass over the items; keeps what run.py needs to score and verify
    them."""

    def __init__(self, workdir: Path, passdir: Path, reports: bool,
                 cli, serialize):
        self.workdir = workdir
        self.passdir = passdir
        self.cli = cli
        self.serialize = serialize
        doc = json.loads((workdir / "inputs.json").read_text())
        self.workload = doc["workload"]
        self.items = doc["items"]  # configs, or for scan batch corpora
        self.reports = passdir / "reports" if reports else None
        if self.reports:
            self.reports.mkdir(parents=True)
        self.item_ns = []
        self.wall_ns = []
        self.yard_ns = []
        self.outcomes = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def warm_up(self):
        warmup = self.workdir / "warmup.json"
        if self.workload == "scan":
            self.cli.run_batch(str(warmup), str(self.passdir / "warmup"))
        else:
            doc = json.loads(warmup.read_text())["records"][0]
            self.cli.run_single(self.serialize.config_from_doc(doc))

    def _single(self, k):
        doc = self.items[k]
        gc.collect()
        self.yard_ns.append(yardstick.time_ns())
        wall, start = time.perf_counter_ns(), time.thread_time_ns()
        try:
            code, report, trace = self.cli.run_single(
                self.serialize.config_from_doc(doc))
        except Exception:  # an escaped exception is a failed decision
            code, report, trace = None, None, traceback.format_exc(limit=3)
        self._time(start, wall, 1)
        ok = code in (0, 2)
        if not ok:
            self.failed += 1
            self._error(doc["id"], trace)
        self.outcomes.append(_hash(json.dumps([code, report if ok else None])))
        if self.reports:
            (self.reports / f"{k:04d}.json").write_text(
                json.dumps({"id": doc["id"], "code": code,
                            "error": None if ok else trace}))
            if ok:
                (self.reports / f"{k:04d}.report.json").write_text(report)

    def _batch(self, k):
        corpus = self.workdir / f"chunk-{k:03d}.json"
        out = self.passdir / f"out-{k:03d}"
        size = len(self.items[k])
        gc.collect()
        self.yard_ns.append(yardstick.time_ns())
        wall, start = time.perf_counter_ns(), time.thread_time_ns()
        try:
            _, summary = self.cli.run_batch(str(corpus), str(out))
        except Exception:
            summary = {"rows": [], "error": traceback.format_exc(limit=3)}
        self._time(start, wall, size)
        rows = summary.get("rows", [])
        bad = size - sum(1 for r in rows if r["verdict"] != "ERROR")
        if bad:
            self.failed += bad
            self._error(f"chunk {k}", summary.get("error")
                        or [r.get("error") for r in rows if r["verdict"] == "ERROR"])
        written = sorted(out.glob("*.json")) if out.is_dir() else []
        self.outcomes.append(_hash(json.dumps(
            [summary, [(p.name, p.read_text()) for p in written]],
            sort_keys=True)))
        if self.reports:
            (self.reports / f"chunk-{k:03d}.json").write_text(json.dumps(summary))

    def _time(self, start, wall, records):
        self.item_ns.append(time.thread_time_ns() - start)
        self.wall_ns.append(time.perf_counter_ns() - wall)
        self.attempted += records

    def _error(self, where, what):
        if len(self.errors) < 5:
            self.errors.append(f"{where}: {what}")

    def run(self):
        step = self._batch if self.workload == "scan" else self._single
        for k in range(len(self.items)):
            step(k)

    def result(self):
        return {
            "item_ns": self.item_ns,
            "wall_ns": self.wall_ns,
            "yard_ns": self.yard_ns,
            "sizes": [len(x) for x in self.items] if self.workload == "scan"
                     else [1] * len(self.items),
            "outcomes": self.outcomes,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "peak_rss_kb": _peak_rss_kb(),
        }


def main(argv) -> int:
    mode, workdir = argv[0], Path(argv[1])
    passdir = Path(argv[2]) if mode != "setup" else workdir / "setup"
    passdir.mkdir(exist_ok=True)
    cli, serialize = _import_engine()
    one = Pass(workdir, passdir, mode != "setup" and argv[3] == "1",
               cli, serialize)
    one.warm_up()
    if mode == "setup":
        return 0
    # The harness's own objects (engine modules, inputs) leave the
    # collector's view, so a collection during a decision traverses only
    # what that decision made.
    gc.collect()
    gc.freeze()
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        one.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = one.result()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(passdir / "spans.tsv.gz")
    (passdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
