import json
from fractions import Fraction
from pathlib import Path

import pytest

from darmonsel import polyarith
from darmonsel.cli import main, run_batch, run_single
from darmonsel.errors import InputError
from darmonsel.serialize import (
    MAX_PRECISION_BITS,
    Options,
    config_from_doc,
    parse_report,
)

CORPUS = str(Path(__file__).resolve().parents[1] / "corpus" / "golden.json")

GOLDEN_22 = {"schema_version": 1, "field_poly": [0, 1], "delta": [5],
             "conductor": {"generator": [22]}}
GOLDEN_6 = {**GOLDEN_22, "conductor": {"generator": [6]}}
GOLDEN_ATR = {"schema_version": 1, "field_poly": [-2, 0, 1], "delta": [0, 1],
              "conductor": {"factors": []}}
NOT_TOTALLY_REAL = {**GOLDEN_22, "field_poly": [1, 0, 1]}
GOLDEN_CUBIC = {"schema_version": 1, "field_poly": [-1, -2, 1, 1],
                "delta": [0, 1], "conductor": {"generator": [2]}}

# conductor factor entries over Q that are malformed in one key each
_P11 = {"p": 11, "local_factor": [0, 1], "e": 1, "f": 1, "exponent": 1}
MALFORMED_FACTORS = {
    "e-zero": _P11 | {"e": 0},
    "f-mismatch": _P11 | {"f": 2},
    "not-monic": _P11 | {"local_factor": [0, 2]},
    "empty-local-factor": _P11 | {"local_factor": [], "f": -1},
    "exponent-string": _P11 | {"exponent": "1"},
    "exponent-bool": _P11 | {"exponent": True},
    "exponent-zero": _P11 | {"exponent": 0},
}
# (x + 1)^1 does not exactly divide x^2 - 5 = (x + 1)^2 mod 2, an index prime
BOGUS_INDEX_PRIME = {"schema_version": 1, "id": "index-prime-bogus",
                     "field_poly": [-5, 0, 1], "delta": [0, 1],
                     "conductor": {"factors": [
                         {"p": 2, "local_factor": [1, 1], "e": 1, "f": 1,
                          "exponent": 1}]}}
# at width 1/2 two isolation cells of this cubic share an endpoint
TOUCHING_CELLS = {"schema_version": 1, "field_poly": [-1, -6, -6, 1],
                  "delta": [0, 1], "conductor": {"factors": []},
                  "options": {"precision_bits": 1}}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_single_exit_codes():
    code, report, trace = run_single(config_from_doc(GOLDEN_22))
    assert code == 0 and report is not None
    code, report, trace = run_single(config_from_doc(GOLDEN_6))
    assert code == 2 and report is not None
    code, report, trace = run_single(config_from_doc(NOT_TOTALLY_REAL))
    assert code == 1 and report is None
    assert "NotTotallyReal" in trace


def test_run_single_oracle_check():
    doc = {**GOLDEN_22, "options": {"oracle_check": True}}
    code, report, trace = run_single(config_from_doc(doc))
    assert code == 0


def test_trace_cites_assumption_labels():
    code, report, trace = run_single(config_from_doc(GOLDEN_22))
    for label in ("A", "B1", "C1", "C2", "C3", "(iv)", "(vii)", "(viii)"):
        assert label in trace, label
    assert "sign of the functional equation" in trace
    assert "B2" in trace
    assert "FEASIBLE" in trace
    code, report, trace = run_single(config_from_doc(GOLDEN_ATR))
    assert "B4" in trace and "INFEASIBLE" not in trace


def test_main_single_stdout(capsys, tmp_path):
    path = write_json(tmp_path / "c.json", GOLDEN_22)
    assert main(["--input", path]) == 0
    captured = capsys.readouterr()
    report = parse_report(captured.out)
    assert report.sign == -1 and len(report.greenberg_options) == 1
    assert "verdict" in captured.err


def test_main_single_out_file(capsys, tmp_path):
    path = write_json(tmp_path / "c.json", GOLDEN_ATR)
    out = tmp_path / "report.json"
    assert main(["--input", path, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    report = parse_report(out.read_text())
    assert len(report.gartner_options) == 1


def test_main_no_trace_silences_stderr(capsys, tmp_path):
    path = write_json(tmp_path / "c.json", GOLDEN_6)
    assert main(["--input", path, "--no-trace"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["sign"] == 1


def test_main_input_errors(capsys, tmp_path):
    assert main(["--input", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["--input", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "error" in captured.err and captured.out == ""


def test_main_flags_strengthen_options(capsys, tmp_path):
    path = write_json(tmp_path / "c.json", GOLDEN_ATR)
    assert main(["--input", path, "--oracle", "--precision-bits", "48",
                 "--no-trace"]) == 0
    report = parse_report(capsys.readouterr().out)
    widths = [place.hi - place.lo for place, _ in report.profile.real_classes]
    assert max(widths) <= 2 ** -48


def test_main_precision_bits_validation(capsys, tmp_path):
    path = write_json(tmp_path / "c.json", GOLDEN_22)
    assert main(["--input", path, "--precision-bits", "0"]) == 1


def test_run_batch_golden_corpus(tmp_path):
    code, summary = run_batch(CORPUS, str(tmp_path / "out"),
                              override=Options(oracle_check=True))
    assert code == 0
    rows = summary["rows"]
    assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)
    by_id = {r["id"]: r for r in rows}
    assert by_id["rational-sqrt5-N22"] == {
        "id": "rational-sqrt5-N22", "sign": -1, "gartner": 0, "greenberg": 1,
        "verdict": "feasible"}
    assert by_id["atr-sqrt2-N1"]["gartner"] == 1
    assert by_id["rational-sqrt5-N6"]["verdict"] == "infeasible"
    written = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert written == summary
    report = parse_report(
        (tmp_path / "out" / "rational-sqrt5-N22.json").read_text())
    assert report.feasible
    # the infeasible record still gets a machine report on disk
    assert (tmp_path / "out" / "rational-sqrt5-N6.json").exists()


def test_run_batch_isolates_bad_records(tmp_path):
    corpus = [GOLDEN_22 | {"id": "ok"},
              NOT_TOTALLY_REAL | {"id": "broken"},
              {"id": "malformed", "schema_version": 1}]
    path = write_json(tmp_path / "corpus.json", corpus)
    code, summary = run_batch(path, str(tmp_path / "out"))
    assert code == 1
    by_id = {r["id"]: r for r in summary["rows"]}
    assert by_id["ok"]["verdict"] == "feasible"
    assert by_id["broken"]["verdict"] == "ERROR"
    assert "NotTotallyReal" in by_id["broken"]["error"]
    assert by_id["malformed"]["verdict"] == "ERROR"
    assert not (tmp_path / "out" / "broken.json").exists()


def test_run_batch_anonymous_records_and_empty(tmp_path):
    path = write_json(tmp_path / "corpus.json", {"records": [GOLDEN_6]})
    code, summary = run_batch(path, str(tmp_path / "o1"))
    assert code == 0
    assert summary["rows"][0]["id"] == "record-001"
    path = write_json(tmp_path / "empty.json", [])
    code, summary = run_batch(path, str(tmp_path / "o2"))
    assert code == 0 and summary["rows"] == []


def test_main_batch(capsys, tmp_path):
    out = tmp_path / "out"
    assert main(["--batch", CORPUS, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert len(summary["rows"]) == 3
    assert "rational-sqrt5-N22: feasible" in captured.err


def test_main_batch_requires_out(capsys):
    assert main(["--batch", CORPUS]) == 1
    assert "--out" in capsys.readouterr().err


def _malformed_factor_docs():
    return [{**GOLDEN_22, "id": name, "conductor": {"factors": [entry]}}
            for name, entry in MALFORMED_FACTORS.items()] + [BOGUS_INDEX_PRIME]


def test_malformed_factor_entries_are_input_errors(capsys, tmp_path):
    for doc in _malformed_factor_docs():
        code, report, trace = run_single(config_from_doc(doc))
        assert (code, report) == (1, None), doc["id"]
        assert trace.startswith("error: InputError"), (doc["id"], trace)
        path = write_json(tmp_path / f"{doc['id']}.json", doc)
        assert main(["--input", path]) == 1
        captured = capsys.readouterr()
        assert "InputError" in captured.err and "Traceback" not in captured.err
    good = {**GOLDEN_22, "id": "good",
            "conductor": {"factors": [_P11, _P11 | {"p": 2}]}}
    corpus = write_json(tmp_path / "corpus.json",
                        [good] + _malformed_factor_docs())
    code, summary = run_batch(corpus, str(tmp_path / "out"))
    assert code == 1
    by_id = {r["id"]: r for r in summary["rows"]}
    assert by_id["good"]["verdict"] == "feasible"
    assert (tmp_path / "out" / "good.json").exists()
    for doc in _malformed_factor_docs():
        assert by_id[doc["id"]]["verdict"] == "ERROR"
        assert by_id[doc["id"]]["error"].startswith("error: InputError"), doc["id"]


def test_malformed_input_under_optimize(run_optimized):
    # the checks must not depend on assert, which python -O strips
    out = run_optimized(f"""
        import json
        from fractions import Fraction
        from darmonsel.cli import run_single
        from darmonsel.errors import InputError
        from darmonsel.serialize import Options, config_from_doc
        assert False, "asserts must be stripped"
        for doc in json.loads({json.dumps(json.dumps(_malformed_factor_docs()))}):
            code, _, trace = run_single(config_from_doc(doc))
            print(doc["id"], code, trace.split(":")[1].strip())
        for bits in (0, 4097):
            try:
                Options(precision_bits=bits)
            except InputError:
                print("precision_bits", bits, "InputError")
        code, report, _ = run_single(config_from_doc({TOUCHING_CELLS!r}))
        places = json.loads(report)["real_classes"]
        print("touching-cells", code, all(
            Fraction(a["hi"]) < Fraction(b["lo"]) for a, b in zip(places, places[1:])))
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"{doc['id']} 1 InputError" for doc in _malformed_factor_docs()] + [
        "precision_bits 0 InputError", "precision_bits 4097 InputError",
        "touching-cells 2 True"]


PSI_12 = 318665857834031151167461
# a config prime psi_12, and a norm whose cofactor is psi_12
PSI_12_CONDUCTORS = {
    "psi12-factor": {"factors": [_P11 | {"p": 2}, _P11 | {"p": PSI_12}]},
    "psi12-norm": {"generator": [2 * PSI_12]}}


def test_unproven_prime_in_config_exits_1(capsys, tmp_path, run_optimized):
    # psi_12 passes Miller-Rabin on the bases 2..37 but is composite
    paths = [write_json(tmp_path / f"{rid}.json",
                        {**GOLDEN_22, "id": rid, "conductor": conductor})
             for rid, conductor in PSI_12_CONDUCTORS.items()]
    for path in paths:
        assert main(["--input", path]) == 1
        captured = capsys.readouterr()
        assert "PrimalityUnproven" in captured.err and "Traceback" not in captured.err
    out = run_optimized(f"""
        import sys
        from darmonsel.cli import main
        assert False, "asserts must be stripped"
        print([main(["--input", path, "--no-trace"]) for path in {paths!r}])
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[1,", "1]"]
    assert out.stderr.count("PrimalityUnproven") == 2 and "Traceback" not in out.stderr


def test_touching_isolation_cells_are_separated(capsys, tmp_path):
    path = write_json(tmp_path / "cubic.json", TOUCHING_CELLS)
    assert main(["--input", path]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    places = json.loads(captured.out)["real_classes"]
    assert len(places) == 3
    for a, b in zip(places, places[1:]):
        assert Fraction(a["hi"]) < Fraction(b["lo"])


def test_precision_bits_cap(capsys, tmp_path):
    # over Q the real place is exact, so the largest precision costs nothing
    assert MAX_PRECISION_BITS == 4096
    at_cap = {**GOLDEN_22, "options": {"precision_bits": 4096}}
    code, report, _ = run_single(config_from_doc(at_cap))
    assert code == 0
    assert json.loads(report)["real_classes"][0]["precision"] == str(
        Fraction(1, 2**4096))
    with pytest.raises(InputError, match="4096"):
        config_from_doc({**GOLDEN_22, "options": {"precision_bits": 4097}})
    with pytest.raises(InputError):
        Options(precision_bits=4097)
    over = write_json(tmp_path / "over.json",
                      {**GOLDEN_22, "options": {"precision_bits": 4097}})
    assert main(["--input", over]) == 1
    assert "InputError" in capsys.readouterr().err
    path = write_json(tmp_path / "c.json", GOLDEN_22)
    assert main(["--input", path, "--precision-bits", "4096", "--no-trace"]) == 0
    capsys.readouterr()
    for bits in ("4097", "0"):
        assert main(["--input", path, "--precision-bits", bits]) == 1
        captured = capsys.readouterr()
        assert "InputError" in captured.err and captured.out == ""
    assert main(["--batch", CORPUS, "--out", str(tmp_path / "o"),
                 "--precision-bits", "4097"]) == 1
    assert not (tmp_path / "o").exists()


def test_precision_flag_32_overrides_record(capsys, tmp_path):
    record = GOLDEN_ATR | {"id": "atr", "options": {"precision_bits": 256}}
    corpus = write_json(tmp_path / "corpus.json", [record])
    for bits in (32, 33):
        out = tmp_path / f"out{bits}"
        assert main(["--batch", corpus, "--out", str(out), "--no-trace",
                     "--precision-bits", str(bits)]) == 0
        report = parse_report((out / "atr.json").read_text())
        assert {v.precision for v, _ in report.profile.real_classes} == {
            Fraction(1, 2**bits)}
    out = tmp_path / "kept"
    assert main(["--batch", corpus, "--out", str(out), "--no-trace"]) == 0
    report = parse_report((out / "atr.json").read_text())
    assert {v.precision for v, _ in report.profile.real_classes} == {
        Fraction(1, 2**256)}
    capsys.readouterr()


def test_one_real_place_computation_per_decision(monkeypatch):
    calls = {"isolate_real_roots": 0, "sign_at_root": 0}

    def counted(name):
        original = getattr(polyarith, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(polyarith, name, counted(name))
    for doc, degree in ((GOLDEN_22, 1), (GOLDEN_ATR, 2), (GOLDEN_CUBIC, 3)):
        for key in calls:
            calls[key] = 0
        code, report, _ = run_single(config_from_doc(doc))
        assert code in (0, 2) and report is not None
        assert calls == {"isolate_real_roots": 1, "sign_at_root": degree}, doc


def test_run_batch_turns_an_untyped_failure_into_its_error_row(monkeypatch, tmp_path):
    # an exception outside the DarmonselError tree ends only its own record
    import darmonsel.cli as cli

    original = cli.realize_config

    def flaky(config):
        if config.config_id == "b-boom":
            raise RuntimeError("boom")
        return original(config)

    monkeypatch.setattr(cli, "realize_config", flaky)
    corpus = [GOLDEN_22 | {"id": "a-ok"}, GOLDEN_6 | {"id": "b-boom"},
              GOLDEN_ATR | {"id": "c-ok"}]
    path = write_json(tmp_path / "corpus.json", corpus)
    code, summary = run_batch(path, str(tmp_path / "out"))
    assert code == 1
    by_id = {r["id"]: r for r in summary["rows"]}
    assert by_id["b-boom"]["verdict"] == "ERROR"
    assert by_id["b-boom"]["error"] == "RuntimeError: boom"
    assert "in flaky" in by_id["b-boom"]["traceback"]
    assert "traceback" not in by_id["a-ok"]
    assert by_id["a-ok"]["verdict"] == "feasible"
    assert by_id["c-ok"]["verdict"] == "feasible"
    assert (tmp_path / "out" / "c-ok.json").exists()
    assert json.loads((tmp_path / "out" / "summary.json").read_text()) == summary
