"""CLI subcommands, exit codes, and the expression parser."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import prymcert
from prymcert import certify, cli
from prymcert import weil_model as wm
from prymcert.cli import (
    ParseError,
    MAX_NESTING,
    MAX_POWER_SIZE,
    build_parser,
    main,
    parse_poly,
    power_size_bound,
    product_size_bound,
)
from prymcert.certify import run_pipeline
from prymcert.exactnum import IMAG_UNIT, GaussianRational
from prymcert.multipoly import GaussianForm, Polynomial, UnknownVariable, VariableRegistry
from prymcert.weil_model import ENTRY_DIGITS, IDENTITY_NAMES, generators

REG = VariableRegistry(("s", "t", "x", "y"))


# -- parser ---------------------------------------------------------------

def test_parse_generator_expressions():
    g = generators()
    assert parse_poly("s + t + x + y", REG) == g["a1"]
    assert parse_poly("s - i*t - x + i*y", REG) == g["p1"] - IMAG_UNIT * g["q1"]
    assert not parse_poly("(s+t)^2 - s^2 - 2*s*t - t^2", REG)


def test_parse_whitespace_insensitive():
    assert parse_poly("s+t", REG) == parse_poly("  s\n +\t t ", REG)


def test_parse_rationals_and_powers():
    p = parse_poly("-3/4 * s^2 + 1/2", REG)
    s = Polynomial.variable(REG, "s")
    assert p == Fraction(-3, 4) * s ** 2 + Fraction(1, 2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("s + ", REG)
    assert err.value.line == 1 and err.value.column == 5
    assert err.value.expected

    with pytest.raises(ParseError) as err:
        parse_poly("s +\n t * ^", REG)
    assert err.value.line == 2

    with pytest.raises(ParseError):
        parse_poly("2 ^ -1", REG)  # exponents are unsigned
    with pytest.raises(ParseError):
        parse_poly("1/0", REG)
    with pytest.raises(ParseError):
        parse_poly("s t", REG)  # implicit multiplication is not allowed
    with pytest.raises(ParseError):
        parse_poly("s $ t", REG)
    # an integer is ASCII digits only: no superscripts, no other scripts' digits;
    # an identifier is ASCII letters, digits and _
    for text, column, char in (("s^\u00b2", 3, "\u00b2"), ("1\u00b2", 2, "\u00b2"),
                               ("\u0663*s", 1, "\u0663"), ("\u00e9*s", 1, "\u00e9"),
                               ("x\u00b2+x", 2, "\u00b2")):
        with pytest.raises(ParseError, match=f"unexpected character '{char}'") as err:
            parse_poly(text, REG)
        assert (err.value.line, err.value.column) == (1, column)


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable) as err:
        parse_poly("s + q", REG)
    assert "line 1, column 5" in str(err.value)


def test_registry_may_not_contain_i():
    with pytest.raises(ValueError):
        parse_poly("i", VariableRegistry(("i", "s")))


def test_render_parse_round_trip_random():
    rng = random.Random(47)
    for _ in range(150):
        p = Polynomial.zero(REG)
        for _ in range(rng.randint(0, 5)):
            mono = tuple(rng.randint(0, 3) for _ in range(4))
            coeff = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                     Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            p = p + Polynomial(REG, {mono: coeff})
        assert parse_poly(p.render(), REG) == p


# -- subcommands -------------------------------------------------------------

def test_verify_identities(capsys):
    assert main(["verify", "identities"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 17
    assert all(line.startswith("Pass ") for line in lines)
    assert lines[0] == "Pass cubic"


def test_verify_identities_json(capsys):
    assert main(["verify", "identities", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"identity_verdicts"}
    assert len(doc["identity_verdicts"]) == 17
    assert set(doc["identity_verdicts"].values()) == {"Pass"}


def test_verify_eigenspaces(capsys):
    assert main(["verify", "eigenspaces"]) == 0
    out = capsys.readouterr().out
    assert "dimension 6" in out and "dimension 4" in out
    assert main(["verify", "eigenspaces", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigenspace_dims"] == [6, 4, 3, 3]


def test_verify_diagonal(capsys):
    assert main(["verify", "diagonal", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"diagonal_factors": ["2", "4", "2", "1", "1", "1"],
                   "base_point_free": True}


def test_verify_genus(capsys):
    assert main(["verify", "genus"]) == 0
    out = capsys.readouterr().out
    assert "chow coefficient 24" in out and "genus 13" in out


def test_detm_at_origin(capsys):
    assert main(["detm", "--at", "0,0,0,0,0,0,0,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_detm_at_zero_locus(capsys):
    assert main(["detm", "--at", "1,0,0,0,0,0,1/4,0,0"]) == 1
    assert capsys.readouterr().out.strip() == "0"
    assert main(["detm", "--at", "1,0,0,0,0,0,1/4,0,0", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"det_m_value": "0"}


def test_detm_symbolic_json(capsys):
    assert main(["detm", "--symbolic", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["det_m_term_count"] == 383
    assert doc["det_m_nonzero"] is True
    assert doc["det_m_at_origin"] == "1"
    assert doc["det_m"].count("+") + doc["det_m"].count("-") >= 382


def test_detm_usage_errors(capsys):
    assert main(["detm", "--at", "1,2,3"]) == 2
    assert "9 comma-separated rationals" in capsys.readouterr().err
    assert main(["detm", "--at", "a,b,c,d,e,f,g,h,j"]) == 2
    capsys.readouterr()
    assert main(["detm", "--at", "1_0,0,0,0,0,0,0,0,0"]) == 2
    assert capsys.readouterr().err == "error: not a decimal-free rational: '1_0'\n"


@pytest.mark.parametrize("command", ["detm", "quadric", "fpf"])
def test_zero_denominator_is_a_usage_error(command, capsys):
    assert main([command, "--at", "1/0,0,0,0,0,0,0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "zero denominator" in captured.err


def test_quadric(capsys):
    assert main(["quadric", "--at", "0,0,0,0,0,0,0,0,0"]) == 1
    assert "dimension 3" in capsys.readouterr().out
    assert main(["quadric", "--at", "6,5,6,-6,6,-1,-2,-8,-2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quadric_kernel_dim"] == 1
    assert len(doc["quadric_relation"]) == 7


@pytest.mark.parametrize("triple, dimension", [
    ("0,0,0,0,0,0,0,0,0", 3),
    ("1,0,0,0,0,0,0,0,0", 2),
], ids=["origin", "a1-one"])
def test_quadric_rank_deficient_json(triple, dimension, capsys):
    assert main(["quadric", "--at", triple, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"quadric_kernel_dim": dimension}


def test_fpf(capsys):
    assert main(["fpf", "--at", "6,5,6,-6,6,-1,-2,-8,-2"]) == 0
    assert capsys.readouterr().out.strip() == "CertifiedEmpty"
    assert main(["fpf", "--at", "1/2,0,0,1/4,0,0,1/4,0,0"]) == 1
    assert capsys.readouterr().out.strip() == "MeetsDiagonal"


def test_certify_and_recheck(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    assert main(["certify", "--seed", "0", "--max-attempts", "100",
                 "--out", str(out_file)]) == 0
    summary = capsys.readouterr().out
    assert "Pass overall" in summary
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == \
        "ee3194657db4b8d7145c00cd39832165e8b252614241b9e3e4501afe54210abf"

    assert main(["recheck", "--cert", str(out_file)]) == 0
    assert capsys.readouterr().out.strip() == "Pass recheck"

    doc = json.loads(out_file.read_text())
    doc["witness_det_m"] = "12345"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["recheck", "--cert", str(tampered)]) == 1
    assert "witness_det_m" in capsys.readouterr().out


def test_certify_json_output(capsys):
    assert main(["certify", "--seed", "0", "--max-attempts", "100", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "Pass"
    assert doc["witness_triple"] == ["6", "5", "6", "-6", "6", "-1", "-2", "-8", "-2"]


def test_certify_summary_reads_the_universal_verdicts(capsys, monkeypatch):
    # a universal check that fails stops certify with one line, so every
    # universal line of a printed summary reads Pass
    assert main(["certify", "--seed", "0", "--max-attempts", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert [line for line in lines if not line.startswith("Pass ")] == [
        "Fail witness (none within 0 attempts)", "Fail overall"]
    monkeypatch.setattr(wm, "chow_coefficient", lambda factors: 22)
    assert main(["certify", "--seed", "0"]) == 1
    assert capsys.readouterr().out == "Fail certify: top intersection number 22, expected 24\n"


def test_certify_without_witness(capsys):
    assert main(["certify", "--seed", "3", "--max-attempts", "0"]) == 1
    assert "Fail witness" in capsys.readouterr().out


def test_certify_rejects_negative_max_attempts(capsys):
    assert main(["certify", "--seed", "0", "--max-attempts", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-attempts must be non-negative, got -5\n"


@pytest.fixture(scope="module")
def seed0_document():
    return json.loads(run_pipeline(0, 100).to_json())


def _recheck(tmp_path, document) -> int:
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(document))
    return main(["recheck", "--cert", str(path)])


_TAMPERED = {
    "genus": 7,
    "overall": "Fail",
    "identity_verdicts": {name: "Fail" for name in IDENTITY_NAMES},
    "tool_version": "9.9",
}


@pytest.mark.parametrize("field", list(_TAMPERED))
def test_recheck_rejects_tampered_field(seed0_document, tmp_path, capsys, field):
    assert _recheck(tmp_path, {**seed0_document, field: _TAMPERED[field]}) == 1
    out = capsys.readouterr().out
    assert out.startswith("Fail recheck:") and f"field {field!r}" in out


@pytest.mark.parametrize("triple, det, dimension, verdict, field", [
    ("0,0,0,0,0,0,0,0,0", "1", 3, "CertifiedEmpty", "witness_quadric_kernel_dim"),
    ("1,0,0,0,0,0,0,0,0", "1", 2, "CertifiedEmpty", "witness_quadric_kernel_dim"),
    ("1,0,0,0,0,0,1/4,0,0", "0", 2, "MeetsDiagonal", "witness_det_m"),
    ("1/2,0,0,1/4,0,0,1/4,0,0", "0", 3, "MeetsDiagonal", "witness_det_m"),
], ids=["origin", "a1-one", "zero-det", "meets-diagonal"])
def test_recheck_rejects_degenerate_witness(seed0_document, tmp_path, capsys,
                                            triple, det, dimension, verdict, field):
    # every field agrees with a recomputation; the witness conditions do not hold
    document = {**seed0_document, "witness_triple": triple.split(","),
                "witness_det_m": det, "witness_quadric_kernel_dim": dimension,
                "fixed_point_free": verdict, "overall": "Pass"}
    assert _recheck(tmp_path, document) == 1
    out = capsys.readouterr().out
    assert out.startswith("Fail recheck:") and f"field {field!r}" in out
    assert "witness condition" in out


# for each JSON type, a value of another type (true is not an int in a certificate)
_OTHER_KIND = {str: 0, int: True, bool: 1, dict: [], list: {}}

# each edit of the seed-0 document with the start of its load error
_MALFORMED = {
    "witness_triple_int": (lambda doc: {**doc, "witness_triple": 5},
                           "certificate field 'witness_triple' must be list, got int"),
    "null_kernel_dim": (lambda doc: {**doc, "witness_quadric_kernel_dim": None},
                        "certificate field 'witness_quadric_kernel_dim' must be int"),
    "top_level_list": (lambda doc: [], "certificate must be a JSON object, not list"),
    "negative_seed": (lambda doc: {**doc, "seed": -1},
                      "certificate field 'seed' must be non-negative, got -1"),
    "text_seed": (lambda doc: {**doc, "seed": "abc"}, "certificate field 'seed' must be int"),
    "underscore_rational": (lambda doc: {**doc, "witness_det_m": "-5_548257727"},
                            "not a decimal-free rational: '-5_548257727'"),
    "missing_witness_det": (lambda doc: {k: v for k, v in doc.items() if k != "witness_det_m"},
                            "certificate field 'witness_det_m' is missing"),
    # past the int-string limit
    "oversized_rational": (lambda doc: {**doc, "witness_det_m": "1" * 5000}, ""),
    "verdict_not_text": (lambda doc: {**doc, "identity_verdicts": {"cubic": True}},
                         "certificate field 'identity_verdicts' must map names to strings"),
    "dims_item_text": (lambda doc: {**doc, "eigenspace_dims": [6, 4, 3, "3"]},
                       "certificate field 'eigenspace_dims' must hold only int values"),
    "dims_too_short": (lambda doc: {**doc, "eigenspace_dims": [6, 4, 3]},
                       "certificate field 'eigenspace_dims' must have 4 entries, got 3"),
    **{f"{name}_kind": (lambda doc, name=name: {**doc, name: _OTHER_KIND[type(doc[name])]},
                        f"certificate field {name!r} must be ")
       for name, _ in certify.FIELDS},
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_recheck_rejects_malformed_certificate(seed0_document, tmp_path, capsys, case):
    edit, message = _MALFORMED[case]
    assert _recheck(tmp_path, edit(dict(seed0_document))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot load certificate: {message}")
    assert captured.err.count("\n") == 1


# each way a recheck fails, with the message of its one Fail line
_RECHECK_FAILURES = {
    "tampered-field": (lambda doc: {**doc, "genus": 7},
                       "certificate field 'genus': recorded 7, recomputed 13"),
    "degenerate-witness": (
        lambda doc: {**doc, "witness_triple": ["0"] * 9, "witness_det_m": "1",
                     "witness_quadric_kernel_dim": 3},
        "certificate field 'witness_quadric_kernel_dim': 3 fails the witness condition "
        "(kernel dimension 1)"),
    "no-witness": (lambda doc: {**{k: v for k, v in doc.items()
                                   if k not in certify._WITNESS_FIELDS}, "overall": "Fail"},
                   "certificate has no witness to re-check"),
    "universal-check": (lambda doc: doc, "top intersection number 22, expected 24"),
}


@pytest.mark.parametrize("case", list(_RECHECK_FAILURES))
def test_recheck_fails_one_way(seed0_document, tmp_path, capsys, monkeypatch, case):
    edit, message = _RECHECK_FAILURES[case]
    if case == "universal-check":
        monkeypatch.setattr(wm, "chow_coefficient", lambda factors: 22)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(edit(dict(seed0_document))))
    assert main(["recheck", "--cert", str(path)]) == 1
    assert capsys.readouterr() == (f"Fail recheck: {message}\n", "")
    assert main(["recheck", "--cert", str(path), "--json"]) == 1
    assert capsys.readouterr() == (json.dumps({"error": message}, indent=2) + "\n", "")


def test_recheck_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["recheck", "--cert", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: cannot load certificate: certificate JSON is nested too deeply\n"


def _entries(digits, seed):
    """Nine entries p/q, p and q random numbers of exactly `digits` digits."""
    rng = random.Random(seed)
    low, high = 10 ** (digits - 1), 10 ** digits - 1
    return [f"{rng.choice(('', '-'))}{rng.randint(low, high)}/{rng.randint(low, high)}"
            for _ in range(9)]


def test_triples_at_the_entry_bound_print(seed0_document, tmp_path, capsys):
    entries = _entries(ENTRY_DIGITS, 5)
    at = ",".join(entries)
    for command, lines in (("detm", 1), ("quadric", 2), ("fpf", 1)):
        assert main([command, f"--at={at}"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("\n") == lines
    # the recorded det M is the seed-0 value, so the recomputed one differs
    assert _recheck(tmp_path, {**seed0_document, "witness_triple": entries}) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1
    assert captured.out.startswith("Fail recheck: certificate field 'witness_det_m'")


@pytest.mark.parametrize("entries", [_entries(ENTRY_DIGITS + 1, 6), ["7" * 4000] * 9],
                         ids=["one-digit-over", "4000-sevens"])
@pytest.mark.parametrize("command", ["detm", "quadric", "fpf", "recheck"])
def test_entries_over_the_bound_are_usage_errors(seed0_document, tmp_path, capsys,
                                                 command, entries):
    if command == "recheck":
        code = _recheck(tmp_path, {**seed0_document, "witness_triple": entries})
    else:
        code = main([command, "--at=" + ",".join(entries)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    prefix = "error: cannot load certificate: " if command == "recheck" else "error: "
    assert captured.err == (f"{prefix}entry 1 of the triple has more than {ENTRY_DIGITS} "
                            f"digits in its numerator or denominator\n")


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_certify_unwritable_out_is_a_usage_error(target, tmp_path, capsys, monkeypatch):
    def refuse(*_args):
        raise AssertionError("the pipeline ran before the output path was checked")
    monkeypatch.setattr(certify, "run_pipeline", refuse)
    path = tmp_path / "no" / "such" / "x.json" if target == "missing-dir" else tmp_path
    assert main(["certify", "--seed", "0", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write certificate: ")
    assert captured.err.count("\n") == 1 and str(path) in captured.err


def test_certify_rejects_negative_seed(capsys):
    assert main(["certify", "--seed", "-1", "--max-attempts", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be non-negative, got -1\n"


def test_recheck_missing_file(capsys):
    assert main(["recheck", "--cert", "/nonexistent/cert.json"]) == 2
    assert "cannot load" in capsys.readouterr().err


def test_parse_subcommand(capsys):
    assert main(["parse", "--expr", "(s+t)^2"]) == 0
    assert capsys.readouterr().out.strip() == "s^2 + 2*s*t + t^2"

    assert main(["parse", "--expr", "u*v", "--vars", "u,v"]) == 0
    assert capsys.readouterr().out.strip() == "u*v"

    assert main(["parse", "--expr", "s + q"]) == 2
    assert "unknown variable" in capsys.readouterr().err

    assert main(["parse", "--expr", "s +"]) == 2
    assert "expected" in capsys.readouterr().err

    # --vars names only what the grammar can read
    for expr, names, bad in (("s", "s,x-y,s t", "x-y"), ("x\u00b2+x", "x,x\u00b2", "x\u00b2"),
                             ("s", "s,2s", "2s")):
        assert main(["parse", "--expr", expr, "--vars", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: variable name {bad!r} is not an ASCII identifier\n"

    assert main(["parse", "--expr", "s", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"polynomial": "s"}


def test_parse_nesting_limit(capsys):
    nested = "(" * MAX_NESTING + "s" + ")" * MAX_NESTING
    assert main(["parse", "--expr", nested]) == 0
    assert capsys.readouterr().out == "s\n"
    for depth in (MAX_NESTING + 1, 3000):
        assert main(["parse", "--expr", "(" * depth + "s" + ")" * depth]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: line 1, column {MAX_NESTING + 1}: "
                                f"parentheses nested deeper than {MAX_NESTING}\n")


def test_parse_long_chains(capsys):
    assert main(["parse", "--expr", "s+" * 3000 + "s"]) == 0
    assert capsys.readouterr().out == "3001*s\n"
    assert main(["parse", "--expr", "s*" * 3000 + "s", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"polynomial": "s^3001"}


def test_parse_refuses_a_power_too_large_to_compute(capsys, monkeypatch):
    def refuse(*_args):
        raise AssertionError("the power was computed")
    monkeypatch.setattr(GaussianForm, "__pow__", refuse)
    for expr in ("99999999999999999999999^9999999999999", "(s+t+x+y)^100",
                 "(s + 1/3*i)^100000"):
        assert main(["parse", "--expr", expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: power too large to compute")
        assert captured.err.count("\n") == 1


def _size(poly):
    """Terms times the largest coefficient bits, read from the computed polynomial."""
    parts = [p for _, c in poly.terms()
             for p in ((c.re, c.im) if isinstance(c, GaussianRational) else (c,))]
    bits = max((Fraction(p).numerator.bit_length() + Fraction(p).denominator.bit_length()
                for p in parts), default=0)
    return poly.term_count() * bits


def test_power_size_bound_admits_ordinary_powers():
    for text, exponent in [("s", 1000), ("s*t*x*y", 100), ("99999", 1000),
                           ("s+2", 100), ("s+t+x+y", 12), ("s-i*t+1/2", 20)]:
        base = parse_poly(text, REG)
        bound = power_size_bound(GaussianForm.of(base), exponent)
        assert bound <= MAX_POWER_SIZE, text
        assert _size(base ** exponent) <= bound, text


def test_parse_refuses_a_product_too_large_to_compute(capsys, monkeypatch):
    real_mul = GaussianForm.__mul__

    def guarded(self, other):
        if min(len(self.terms), len(other.terms)) > 1000:
            raise AssertionError("the product was computed")
        return real_mul(self, other)

    monkeypatch.setattr(GaussianForm, "__mul__", guarded)
    factor = "(s+t+x+y)^15"  # each power passes power_size_bound
    for count in (3, 4):
        assert main(["parse", "--expr", "*".join([factor] * count)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: product too large to compute")
        assert captured.err.count("\n") == 1


def test_product_size_bound_admits_ordinary_products():
    for left, right in [("(s+t+x+y)^10", "(s+t+x+y)^10"), ("s*t*x*y", "s^100"),
                        ("99999", "99999"), ("s-i*t+1/2", "(s+1/3*i)^5"), ("0", "s+t"),
                        ("s^3001", "s"), ("(s+2)^100", "(s-2)^100")]:
        p, q = parse_poly(left, REG), parse_poly(right, REG)
        bound = product_size_bound(GaussianForm.of(p), GaussianForm.of(q))
        assert bound <= MAX_POWER_SIZE, (left, right)
        assert _size(p * q) <= bound, (left, right)


def test_parse_product_with_many_distinct_denominators(capsys, monkeypatch):
    # the product scales each factor by the lcm of 120 distinct 4-digit primes
    primes = [p for p in range(1000, 10000) if all(p % d for d in range(2, 100))]

    def factors(count):
        return (" + ".join(f"1/{p}*s^{k}" for k, p in enumerate(primes[:count])),
                " + ".join(f"1/{p}*t^{k}" for k, p in enumerate(primes[count:2 * count])))

    left, right = factors(120)
    begin = time.perf_counter()
    poly = parse_poly(f"({left})*({right})", REG)
    elapsed = time.perf_counter() - begin
    assert poly.term_count() == 120 * 120
    assert poly.coefficient((7, 5, 0, 0)) == Fraction(1, primes[7] * primes[125])
    assert elapsed < 2.0, elapsed
    # 200 terms each are refused by the size bound before any product is computed
    real_mul = GaussianForm.__mul__

    def guarded(self, other):
        if min(len(self.terms), len(other.terms)) > 1:
            raise AssertionError("the product was computed")
        return real_mul(self, other)

    monkeypatch.setattr(GaussianForm, "__mul__", guarded)
    assert main(["parse", "--expr", "({})*({})".format(*factors(200))]) == 2
    assert capsys.readouterr().err.startswith("error: product too large to compute")


def test_parse_sum_with_many_distinct_denominators():
    # one sum over the lcm of 1000 distinct 4-digit primes: each term is
    # scaled once, not once per later term
    primes = [p for p in range(1000, 10000) if all(p % d for d in range(2, 100))]
    text = " + ".join(f"1/{p}*s^{k}" for k, p in enumerate(primes[:1000]))
    begin = time.perf_counter()
    poly = parse_poly(text, REG)
    elapsed = time.perf_counter() - begin
    assert poly.term_count() == 1000
    assert poly.coefficient((999, 0, 0, 0)) == Fraction(1, primes[999])
    assert elapsed < 2.0, elapsed


def test_parse_output_too_long_to_render(capsys):
    assert main(["parse", "--expr", "99999^1000"]) == 2  # 5000 digits
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("expr, message", [
    ("q + )", "unknown variable 'q' at line 1, column 1 (registry ('s', 't', 'x', 'y'))"),
    ("(s+t+x+y)^100 )", f"power too large to compute: its size bound exceeds "
                        f"{MAX_POWER_SIZE} (terms times coefficient bits)"),
    ("s^\u00b2 )", "line 1, column 3: unexpected character '\u00b2'"),
], ids=["unknown-variable", "power", "non-ascii-digit"])
def test_parse_reports_the_first_fault_in_reading_order(expr, message, capsys):
    # each input also has a syntax error after its first fault
    assert main(["parse", "--expr", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _parse_inputs(count, seed):
    """Seeded parse inputs: half valid expressions, half valid expressions
    given exactly one fault, taken in turn from the kinds below."""
    rng = random.Random(seed)

    def atom():
        return rng.choice([str(rng.randint(0, 9)), f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}",
                           "i", *"stxy"])

    def expression(nested):
        # a term has at most one group, the square of a sum of monomials, so
        # no valid expression comes near a size bound
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = [atom() + rng.choice(["", "", f"^{rng.randint(0, 2 if nested else 4)}"])
                       for _ in range(rng.randint(1, 2 if nested else 3))]
            if not nested and rng.random() < 0.4:
                factors[rng.randrange(len(factors))] = f"({expression(True)})^{rng.randint(1, 2)}"
            terms.append("*".join(factors))
        return terms[0] + "".join(rng.choice([" + ", " - ", "+", "-"]) + term
                                  for term in terms[1:])

    def unknown_variable(text):
        spots = [k for k, ch in enumerate(text) if ch in "stxy"]
        if not spots:
            return text + "*q"
        k = rng.choice(spots)
        return text[:k] + rng.choice(["q", "u", "s1", "_w"]) + text[k + 1:]

    def nesting(text):
        depth = MAX_NESTING + rng.randint(1, 3)
        return rng.choice(["", "s + ", "2*"]) + "(" * depth + text + ")" * depth

    faults = [
        lambda text: text + rng.choice([" +", " )", " s", " ^ -1", " * *", " 2/", " $", "()"]),
        lambda text: (lambda k: text[:k] + rng.choice(")(^*/") + text[k:])(
            rng.randrange(len(text) + 1)),
        unknown_variable,
        lambda text: rng.choice([f"{text} + 1/0", f"-5/0*({text})"]),
        nesting,
        lambda text: text + rng.choice([" + (s+t+x+y)^100", "*2^9999999", " - (s+1/3*i)^99999"]),
        lambda text: text + " + (s+1)^100*(t+1)^100",
    ]
    inputs = []
    for k in range(count):
        text = expression(False)
        inputs.append(text if k % 2 == 0 else faults[k // 2 % len(faults)](text))
    return inputs


# The parse outputs (stdout, stderr and exit code, plain and --json) on
# _parse_inputs(300, seed=29); the hash pins the bytes.
PINNED_PARSE_OUTPUTS = "b8e22c0a56cb3fbecfd7774b4289246724f499c5b3db9d20a09b46ad9792dd26"


def test_parse_outputs_are_pinned(capsys):
    transcript = []
    codes = []
    for text in _parse_inputs(300, seed=29):
        for extra in ([], ["--json"]):
            codes.append(main(["parse", f"--expr={text}"] + extra))
            captured = capsys.readouterr()
            transcript.append(f"{text!r} {' '.join(extra)} -> {codes[-1]}\n"
                              f"{captured.out}{captured.err}")
    text = "".join(transcript)
    assert codes.count(0) == 300 and codes.count(2) == 300
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PARSE_OUTPUTS


def _fresh_modules(code: str) -> "set[str]":
    """The modules a fresh interpreter imports while running code."""
    src = str(Path(prymcert.__file__).resolve().parents[1])
    probe = ("import sys\nbefore = set(sys.modules)\n" + code +
             "\nprint(' '.join(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    return set(result.stdout.split())


def test_cli_import_needs_no_dataclasses():
    loaded = _fresh_modules("import prymcert.cli")
    # every module loaded here is compiled by each CLI process, parse included
    assert {name for name in loaded if name.split(".")[0] == "prymcert"} == {
        "prymcert", "prymcert.cli", "prymcert.exactnum", "prymcert.multipoly"}
    assert "dataclasses" not in loaded


def test_parse_loads_neither_certify_nor_weil_model():
    loaded = _fresh_modules("from prymcert import cli\n"
                            "assert cli.main(['parse', '--expr', 's']) == 0")
    assert "prymcert.multipoly" in loaded
    assert not loaded & {"prymcert.certify", "prymcert.weil_model", "dataclasses"}


def test_certify_and_recheck_load_no_freeness_check(tmp_path):
    # the theorem is checked by verify freeness alone, never per certificate
    path = tmp_path / "cert.json"
    loaded = _fresh_modules(
        "import contextlib, io\nfrom prymcert import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['certify', '--seed', '0', '--out', {str(path)!r}]) == 0\n"
        f"    assert cli.main(['recheck', '--cert', {str(path)!r}]) == 0")
    assert {"prymcert.certify", "prymcert.weil_model"} <= loaded
    assert "prymcert.freeness" not in loaded


def test_usage_exit_codes(capsys):
    for argv in (["nonsense"],
                 ["detm"],  # one of --symbolic / --at is required
                 [],
                 ["verify", "bogus"],
                 ["fpf", "--at", "0,0,0,0,0,0,0,0,0", "--bogus"],
                 ["certify", "--seed", "x"],
                 ["quadric", "--at"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: prymcert"), (argv, captured.err)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["detm", "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: prymcert detm")


def read_alike(capsys, argv):
    """Run argv, whose last two words are an option and its value, in the
    "=" form and then as given, plain and with --json: each pair must give
    the same exit code and output.  Returns the outputs."""
    outputs = []
    for extra in ([], ["--json"]):
        code = main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"] + extra)
        expected = capsys.readouterr()
        assert main(argv + extra) == code
        assert capsys.readouterr() == expected
        outputs.append(expected)
    return outputs


@pytest.mark.parametrize("command", ["detm", "quadric", "fpf"])
@pytest.mark.parametrize("triple", ["-1,0,0,0,0,0,0,0,0", "-6,5,6,-6,6,-1,-2,-8,-2",
                                    "-1/2,0,0,1/4,0,0,1/4,0,0"])
def test_at_takes_a_negative_first_entry(capsys, command, triple):
    assert all(out.err == "" for out in read_alike(capsys, [command, "--at", triple]))


@pytest.mark.parametrize("argv", [
    ["parse", "--expr", "-1*s"],
    ["parse", "--expr", "-s"],
    ["parse", "--expr", "-2*u^2", "--vars", "u"],
    ["parse", "--expr", "1", "--vars", "-u"],
    ["certify", "--seed", "-1"],
    ["certify", "--seed", "0", "--max-attempts", "-5"],
    ["recheck", "--cert", "-no-such-file.json"],
], ids=["expr", "expr-syntax-error", "expr-with-vars", "vars", "seed", "max-attempts", "cert"])
def test_value_options_take_a_leading_dash(capsys, argv):
    assert all("expected one argument" not in out.err for out in read_alike(capsys, argv))


def test_every_option_that_takes_a_value_is_joined(capsys):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    takes_a_value = {option for parser in subparsers.choices.values()
                     for action in parser._actions if action.nargs != 0
                     for option in action.option_strings}
    assert takes_a_value == set(cli._VALUE_OPTIONS)
    # a word that starts with "--" is never a value
    assert main(["parse", "--expr", "--json"]) == 2
    assert capsys.readouterr().err == (
        "error: prymcert parse: argument --expr: expected one argument\n")


# The fpf, quadric and detm --at outputs (plain and --json) with their exit
# codes, at the seed-0 witness, the four degenerate triples of the benchmark
# oracle and 20 seeded height-10^6 rational triples; the hash pins the bytes.
PINNED_WITNESS_OUTPUTS = "897390b3cf5f86b3a66531d53fcf2298086f70f3b54332793163fa1596f3d760"


def _height_triples(count, seed):
    rng = random.Random(seed)
    return [",".join(str(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)))
                     for _ in range(9)) for _ in range(count)]


def test_witness_subcommand_outputs_are_pinned(capsys):
    triples = (["6,5,6,-6,6,-1,-2,-8,-2", "0,0,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0,0",
                "1,0,0,0,0,0,1/4,0,0", "1/2,0,0,1/4,0,0,1/4,0,0"]
               + _height_triples(20, seed=23))
    transcript = []
    for triple in triples:
        for command in ("fpf", "quadric", "detm"):
            for extra in ([], ["--json"]):
                code = main([command, f"--at={triple}"] + extra)
                out = capsys.readouterr().out
                transcript.append(f"{command} {triple} {' '.join(extra)} -> {code}\n{out}")
    text = "".join(transcript)
    assert text.count("CertifiedEmpty") == 46 and text.count("MeetsDiagonal") == 4
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_WITNESS_OUTPUTS


# The verify identities|eigenspaces|diagonal|genus outputs (plain and --json)
# with their exit codes, and the text summary of certify --seed 0.
PINNED_VERIFY_OUTPUTS = "2cc6e3cf6f58078fd7583b2c7546a2ffb3e8fdf61c6aadeef8ff0a407cbca53c"
PINNED_CERTIFY_SUMMARY = "be2604f002cca61f73095f44c2073cdf3d03b589d435f1654a3a0f3b94379c4a"


def test_verify_outputs_are_pinned(capsys):
    transcript = []
    for check in ("identities", "eigenspaces", "diagonal", "genus"):
        for extra in ([], ["--json"]):
            code = main(["verify", check] + extra)
            transcript.append(f"verify {check} {' '.join(extra)} -> {code}\n"
                              f"{capsys.readouterr().out}")
    text = "".join(transcript)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_VERIFY_OUTPUTS


def test_certify_summary_is_pinned(capsys):
    assert main(["certify", "--seed", "0"]) == 0
    summary = capsys.readouterr().out
    assert hashlib.sha256(summary.encode()).hexdigest() == PINNED_CERTIFY_SUMMARY
