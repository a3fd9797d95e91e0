"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json

import pytest

import darmonsel
import tracer
import verify
import workloads
from darmonsel import cli, fields, quadratic, serialize


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = json.dumps(workloads.generate(workload, 3))
    assert json.dumps(workloads.generate(workload, 3)) == first
    assert json.dumps(workloads.generate(workload, 4)) != first


def test_widened_primes_have_the_promised_classes():
    for doc in workloads.widened(0)[:4]:
        for factor in doc["conductor"]["factors"]:
            chi = workloads.residue_character((0, 1), factor["local_factor"],
                                              factor["p"])
            assert chi in (1, -1)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 100] has children a [10, 40] and b [50, 90]; a has c [15, 25]
    names = ["root", "a", "c", "b"]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert tracer.self_times(names, starts, ends, parents) == [30, 20, 10, 40]


def test_tracer_wraps_rebound_names_and_restores_them():
    original = fields.real_embeddings
    t = tracer.Tracer()
    t.install()
    try:
        assert quadratic.real_embeddings is fields.real_embeddings
        assert fields.real_embeddings is not original
        cli.run_single(serialize.config_from_doc(GOLDEN_CUBIC))
    finally:
        t.uninstall()
    assert fields.real_embeddings is original
    assert quadratic.real_embeddings is original
    summary = t.summary()
    assert summary["decisions"] == 1
    # make_extension and build_profile each isolate the real places once
    assert summary["fields.real_embeddings.calls_per_decision"] == 2
    assert summary["polyarith.isolate_real_roots.self_ms"] > 0


GOLDEN_CUBIC = {"schema_version": 1, "id": "cubic-theta", "field_poly": [-1, -2, 1, 1],
                "delta": [0, 1], "conductor": {"factors": [
                    {"p": 13, "local_factor": [5, 1], "e": 1, "f": 1, "exponent": 1}]}}


def _digest(code, doc):
    entry, problems, _ = verify.examine(code, json.dumps(doc), GOLDEN_CUBIC,
                                        darmonsel)
    assert problems == []
    return verify.digest([entry])


def test_digest_ignores_added_keys_but_sees_a_sign_flip():
    code, report, _ = cli.run_single(serialize.config_from_doc(GOLDEN_CUBIC))
    doc = json.loads(report)
    base = _digest(code, doc)
    assert _digest(code, dict(doc, checks=[{"label": "B1", "ok": True}])) == base
    flipped = verify.examine(code, json.dumps(dict(doc, sign=-doc["sign"])),
                             GOLDEN_CUBIC, darmonsel)[0]
    assert verify.digest([flipped]) != base


def test_passes_scale_by_the_yardstick_and_flag_disagreement():
    import run
    import yardstick
    ref = yardstick.REF_NS
    # the second pass ran on a host half as fast, by its yardstick
    passes = [{"item_ns": [2e6, 6e6], "yard_ns": [ref, ref], "sizes": [1, 1],
               "outcomes": ["a", "b"], "attempted": 2, "failed": 0,
               "errors": []},
              {"item_ns": [4e6, 12e6], "yard_ns": [2 * ref, 2 * ref],
               "sizes": [1, 1], "outcomes": ["a", "c"], "attempted": 2,
               "failed": 1, "errors": ["x"]}]
    values = [run.pass_values(p, yardstick.slowdown(p["yard_ns"]))
              for p in passes]
    assert values[0] == values[1]
    assert values[0]["decisions_per_s"] == 250
    assert values[0]["decision_ms_p50"] == 4
    # a batch item of several records has no per-record quantiles
    batch = dict(passes[0], item_ns=[8e6], sizes=[2])
    assert run.pass_values(batch) == {"decisions_per_s": 250}
    totals = run._combine(passes)
    assert totals["attempted"] == 4 and totals["failed"] == 1
    assert totals["nondeterministic"] == 1


def test_warmup_shares_no_field_with_a_workload():
    poly = workloads.warmup()["field_poly"]
    assert all(tuple(poly) != f for f in workloads.FIELDS.values())
