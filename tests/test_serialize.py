import copy
import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

from darmonsel.errors import DarmonselError, InputError
from darmonsel.feasibility import feasibility_report
from darmonsel.fields import IdealFactorization, factor_ideal, parse_field, primes_above
from darmonsel.quadratic import make_extension
from darmonsel.serialize import (
    InputConfig,
    Options,
    config_from_doc,
    emit_config,
    emit_report,
    parse_config,
    parse_report,
    realize_config,
)

GOLDEN_22 = {
    "schema_version": 1,
    "id": "g22",
    "field_poly": [0, 1],
    "delta": [5],
    "conductor": {"generator": [22]},
}


def test_parse_config_golden():
    config = config_from_doc(GOLDEN_22)
    assert config.field_poly == (0, 1)
    assert config.delta == (5,)
    assert config.options == Options()
    assert config.config_id == "g22"
    K, N, order = realize_config(config)
    assert N.norm() == 22 and order is None
    assert K.base.degree == 1


def test_parse_config_rejections():
    with pytest.raises(InputError):
        parse_config("not json")
    with pytest.raises(InputError):
        config_from_doc({**GOLDEN_22, "schema_version": 2})
    with pytest.raises(InputError):
        config_from_doc({**GOLDEN_22, "conductor": {}})
    with pytest.raises(InputError):
        config_from_doc({**GOLDEN_22, "conductor": {
            "generator": [22], "factors": []}})
    with pytest.raises(InputError):
        config_from_doc({**GOLDEN_22, "unknown_key": 1})
    with pytest.raises(InputError):
        config_from_doc({**GOLDEN_22, "options": {"precision_bits": 0}})
    with pytest.raises(InputError):
        config_from_doc({**GOLDEN_22, "options": {"allow_drop_b4": "yes"}})
    with pytest.raises(InputError):
        config_from_doc({**GOLDEN_22, "delta": [1.5]})
    missing = dict(GOLDEN_22)
    del missing["conductor"]
    with pytest.raises(InputError):
        config_from_doc(missing)


def test_config_roundtrip():
    config = config_from_doc({**GOLDEN_22,
                              "order_conductor": {"generator": [3]},
                              "options": {"oracle_check": True,
                                          "precision_bits": 64}})
    again = parse_config(emit_config(config))
    assert again == config


def test_factored_conductor_form(F_sqrt2):
    P1, P2 = primes_above(F_sqrt2, 7)
    doc = {
        "schema_version": 1,
        "field_poly": [-2, 0, 1],
        "delta": [0, 1],
        "conductor": {"factors": [
            {"p": 7, "local_factor": list(P1.local_factor),
             "e": P1.e, "f": P1.f, "exponent": 2},
        ]},
    }
    K, N, order = realize_config(config_from_doc(doc))
    assert N.exponent_of(P1) == 2 and N.norm() == 49


def test_report_roundtrip_feasible(K_sqrt5, rational_ideal):
    rep = feasibility_report(K_sqrt5, rational_ideal(22))
    text = emit_report(rep)
    assert parse_report(text) == rep
    doc = json.loads(text)
    assert doc["sign"] == -1
    assert len(doc["greenberg_options"]) == 1
    assert doc["greenberg_options"][0]["distinguished"]["prime"]["p"] == 2
    assert doc["schema_version"] == 1


def test_report_roundtrip_infeasible(K_sqrt5, rational_ideal):
    rep = feasibility_report(K_sqrt5, rational_ideal(6))
    assert parse_report(emit_report(rep)) == rep


def test_report_roundtrip_atr(K_atr):
    rep = feasibility_report(K_atr, IdealFactorization.unit())
    text = emit_report(rep)
    assert parse_report(text) == rep
    doc = json.loads(text)
    (g,) = doc["gartner_options"]
    assert g["distinguished"] == {"real_place": 1}
    # interval endpoints serialize as exact rational strings
    lo = doc["real_classes"][0]["lo"]
    assert isinstance(lo, str) and "/" in lo


def test_report_roundtrip_with_order_and_explicit_primes(F_sqrt2_full):
    from darmonsel.quadratic import make_extension
    K = make_extension(F_sqrt2_full, [0, 1])
    # (7) splits over Q(sqrt2), so a rational generator is ambiguous; build
    # the ideal from explicit prime pairs
    P1, P2 = primes_above(F_sqrt2_full, 7)
    N = IdealFactorization.from_pairs([(P1, 1), (P2, 1)])
    order = IdealFactorization.from_pairs([(P2, 1)])
    rep = feasibility_report(K, N, order_conductor=order)
    assert parse_report(emit_report(rep)) == rep


def test_report_roundtrip_ramified_input(K_sqrt5, rational_ideal):
    rep = feasibility_report(K_sqrt5, rational_ideal(15))
    assert parse_report(emit_report(rep)) == rep


@functools.cache
def valid_report_docs():
    F = parse_field([0, 1])
    K5 = make_extension(F, [5])
    F2 = parse_field([-2, 0, 1])
    atr = make_extension(F2, [0, 1])
    inert = [P for p in (3, 5) for P in primes_above(F2, p)]
    reports = [
        feasibility_report(K5, factor_ideal(F, generator=[22])),
        feasibility_report(K5, factor_ideal(F, generator=[60]),
                           order_conductor=factor_ideal(F, generator=[3])),
        feasibility_report(atr, IdealFactorization.from_pairs(
            (P, 1) for P in inert), allow_drop_b4=True),
    ]
    return [json.loads(emit_report(rep)) for rep in reports]


def _key_paths(node, path=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


RETYPED = [None, "x", "1/0", 1.5, -1, 0, True, [], [1], {}, {"p": 2}]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_parse_report_mutations_raise_only_typed_errors(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(valid_report_docs())))
    path = data.draw(st.sampled_from(list(_key_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["delete"] + RETYPED))
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = action
    try:
        parse_report(json.dumps(doc))
    except DarmonselError:
        pass


def test_parse_report_malformed_documents():
    text = emit_report(feasibility_report(
        make_extension(parse_field([0, 1]), [5]),
        factor_ideal(parse_field([0, 1]), generator=[6])))
    good = json.loads(text)
    assert parse_report(text).failure_reasons
    mutations = [
        lambda d: d.pop("sign"),
        lambda d: d.update(field=None),
        lambda d: d.update(sign=0),
        lambda d: d.update(inert_real_count=1),
        lambda d: d.update(disc_coprime=False),
        lambda d: d.update(inert_part_squarefree=1),
        lambda d: d["real_classes"][0].update(type="wild"),
        lambda d: d["failure_reasons"][0].update(code="NoSuchCode"),
        lambda d: d["failure_reasons"].pop(),
        lambda d: d["checks"][0].update(ok="yes"),
        lambda d: d["checks"][0].pop("detail"),
        lambda d: d["checks"].append({"label": "(vii)", "subject": "greenberg",
                                      "ok": False, "detail": "odd"}),
    ]
    for mutate in mutations:
        doc = copy.deepcopy(good)
        mutate(doc)
        with pytest.raises(InputError):
            parse_report(json.dumps(doc))
    older = copy.deepcopy(good)
    del older["checks"]
    with pytest.raises(InputError, match="regenerate"):
        parse_report(json.dumps(older))
    for text in ("{not json", "[]", "null"):
        with pytest.raises(InputError):
            parse_report(text)
    spec_doc = copy.deepcopy(valid_report_docs()[0])
    spec_doc["greenberg_options"][0]["kind"] = "other"
    with pytest.raises(InputError):
        parse_report(json.dumps(spec_doc))
