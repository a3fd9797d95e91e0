"""Spans around the engine's public functions, installed from outside.

Tracer.install() wraps every public function defined in each engine module
and rebinds the wrapper wherever the original is bound, including names
copied by `from .x import y` (quadratic.real_embeddings is
fields.real_embeddings). Nothing under src/ changes; uninstall() restores
every binding.

Most functions record a span: name, start, end, parent span and decision id,
kept in flat arrays and written out at the end. The arithmetic primitives in
COUNTED run hundreds of times per decision on a few coefficients; a span
each would cost more than the work it measures, so they only count calls,
and their time stays in the caller's self time.

A decision starts at each serialize.config_from_doc call: the benchmark loop
makes one per decision, and run_batch one per record.
"""

import functools
import gzip
import importlib
import sys
import time
from array import array

MODULES = ("intmath", "polymod", "polyarith", "fields", "quadratic",
           "feasibility", "oracle", "serialize", "cli")

COUNTED = {
    "intmath": {"is_prime", "is_perfect_square"},
    "polymod": {"trim", "reduce_mod", "deg", "add", "sub", "mul", "scal",
                "divmod_poly", "derivative_mod", "eval_mod", "monic_fp",
                "gcd_fp", "bezout_fp", "powmod"},
    "polyarith": {"trim", "deg", "add", "neg", "sub", "mul", "derivative",
                  "eval_at", "divmod_exact", "reduce_mod_poly", "cauchy_bound",
                  "interval_mul", "interval_eval", "sturm_count_halfopen"},
}

# counted calls reported as per-layer work counters
WORK_COUNTERS = ("polyarith.eval_at", "polyarith.sturm_count_halfopen",
                 "polymod.powmod")


def self_times(names, starts, ends, parents):
    """Self time of each span: its duration minus its children's durations.

    Spans of one thread never overlap their siblings, so the children's
    durations are exactly the part of the parent's interval they cover.
    """
    child = [0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(names))]


def selector_candidates(profile, allow_drop_b4: bool) -> int:
    """Candidates the two selectors walk for this profile."""
    inert_reals = sum(1 for _, t in profile.real_classes if t.value == "inert")
    exact = sum(1 for _, e in profile.inert_finite if e == 1)
    if allow_drop_b4:
        per_place = 2 ** exact
    else:
        per_place = 1 if all(e == 1 for _, e in profile.inert_finite) else 0
    return inert_reals * per_place + exact


def oracle_candidates(profile) -> int:
    """(real subsets) x (prime subsets) x (level choices) the oracle walks."""
    inert_reals = sum(1 for _, t in profile.real_classes if t.value == "inert")
    exact = sum(1 for _, e in profile.inert_finite if e == 1)
    return 2 ** inert_reals * 2 ** len(profile.inert_finite) * (1 + exact)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_decision = array("i")
        self.stack = [-1]
        self.decision = 0
        self.counts: dict[str, int] = {}
        self.values = {"report_bytes": 0, "trace_bytes": 0, "specs": 0,
                       "selector_candidates": 0, "oracle_specs": 0,
                       "oracle_candidates": 0}
        self._bindings: list[tuple[object, str, object]] = []
        self._decision_start = -1  # name id of serialize.config_from_doc

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # ---- wrappers ----

    def _span(self, name, fn):
        nid = self._name_id(name)
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        two_adic = self._name_id(name + ".two_adic") if name.endswith(
            "classify_finite_prime") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if nid == self._decision_start:
                self.decision += 1
            idx = len(self.span_name)
            which = nid
            if two_adic is not None and args[1].p == 2:
                which = two_adic
            self.span_name.append(which)
            self.span_parent.append(self.stack[-1])
            self.span_decision.append(self.decision)
            self.span_start.append(0)
            self.span_end.append(0)
            self.stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if hook is not None:
                hook(result, args, kwargs)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ---- yields and sizes, read from return values ----

    def _on_serialize_emit_report(self, result, args, kwargs):
        self.values["report_bytes"] += len(result)

    def _on_cli_format_trace(self, result, args, kwargs):
        self.values["trace_bytes"] += len(result)

    def _on_feasibility_feasibility_report(self, result, args, kwargs):
        self.values["specs"] += (len(result.gartner_options)
                                 + len(result.greenberg_options))
        self.values["selector_candidates"] += selector_candidates(
            result.profile, kwargs.get("allow_drop_b4", False))

    def _on_oracle_enumerate_admissible(self, result, args, kwargs):
        self.values["oracle_specs"] += len(result)
        self.values["oracle_candidates"] += oracle_candidates(args[0])

    # ---- installation ----

    def install(self):
        wrapped = {}
        for mod_name in MODULES:
            module = importlib.import_module(f"darmonsel.{mod_name}")
            for attr, value in vars(module).items():
                if (attr.startswith("_") or isinstance(value, type)
                        or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                name = f"{mod_name}.{attr}"
                make = (self._counted if attr in COUNTED.get(mod_name, ())
                        else self._span)
                wrapped[id(value)] = make(name, value)
        self._decision_start = self.names.index("serialize.config_from_doc")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "darmonsel" and not mod_name.startswith("darmonsel."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and callable(value):
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])

    def uninstall(self):
        for module, attr, value in reversed(self._bindings):
            setattr(module, attr, value)
        self._bindings.clear()

    # ---- results ----

    def layer_totals(self):
        """{span name: [self_ns, calls, inclusive_ns]} plus the residue tests
        made under quadratic.make_extension. Inclusive time counts only the
        outermost span of a recursive call chain."""
        selfs = self_times(self.span_name, self.span_start, self.span_end,
                           self.span_parent)
        totals = {name: [0, 0, 0] for name in self.names}
        make_ext = self.names.index("quadratic.make_extension")
        character = self.names.index("polymod.fq_quadratic_character")
        under = bytearray(len(selfs))
        residue_tests = 0
        for i, nid in enumerate(self.span_name):
            entry = totals[self.names[nid]]
            entry[0] += selfs[i]
            entry[1] += 1
            parent = self.span_parent[i]
            if parent < 0 or self.span_name[parent] != nid:
                entry[2] += self.span_end[i] - self.span_start[i]
            if parent >= 0:
                under[i] = under[parent] or self.span_name[parent] == make_ext
            if nid == character and under[i]:
                residue_tests += 1
        return totals, residue_tests

    def summary(self):
        """Per-layer metrics, each per decision unless it is a ratio."""
        totals, residue_tests = self.layer_totals()
        n = max(self.decision, 1)
        out = {}
        for name, (self_ns, calls, total_ns) in totals.items():
            out[f"{name}.self_ms"] = self_ns / 1e6 / n
            out[f"{name}.total_ms"] = total_ns / 1e6 / n
            out[f"{name}.calls"] = calls / n
        for name in WORK_COUNTERS:
            out[f"{name}.calls"] = self.counts[name] / n
        cfp = "quadratic.classify_finite_prime"
        out[f"{cfp}.odd_ms"] = out.pop(f"{cfp}.self_ms")
        out[f"{cfp}.two_adic_ms"] = out.pop(f"{cfp}.two_adic.self_ms")
        out[f"{cfp}.calls"] += out.pop(f"{cfp}.two_adic.calls")
        out[f"{cfp}.total_ms"] += out.pop(f"{cfp}.two_adic.total_ms")
        out["fields.real_embeddings.calls_per_decision"] = (
            totals["fields.real_embeddings"][1] / n)
        out["quadratic.make_extension.residue_tests"] = residue_tests / n
        v = self.values
        out["serialize.report_bytes"] = v["report_bytes"] / n
        out["cli.trace_bytes"] = v["trace_bytes"] / n
        out["feasibility.specs_per_decision"] = v["specs"] / n
        out["feasibility.selector_yield"] = (
            v["specs"] / v["selector_candidates"] if v["selector_candidates"] else 0.0)
        out["oracle.yield"] = (v["oracle_specs"] / v["oracle_candidates"]
                               if v["oracle_candidates"] else 0.0)
        modules = {}
        for name, (self_ns, _, _) in totals.items():
            mod = name.split(".", 1)[0]
            modules[mod] = modules.get(mod, 0) + self_ns
        for mod, self_ns in modules.items():
            out[f"{mod}.self_ms"] = self_ns / 1e6 / n
        out["decisions"] = self.decision
        out["spans"] = len(self.span_name)
        return out

    def write_spans(self, path):
        """Gzipped TSV, one line per span: decision, span, parent, name,
        start_ns, end_ns."""
        with gzip.open(path, "wt") as fh:
            fh.write("decision\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{self.span_decision[i]}\t{i}\t{self.span_parent[i]}\t"
                         f"{self.names[nid]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\n")
