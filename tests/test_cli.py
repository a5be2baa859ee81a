"""CLI subcommands, exit codes, and the expression parser."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from prymcert.cli import (
    Difference,
    Group,
    ImaginaryUnit,
    ParseError,
    Power,
    Product,
    RationalLiteral,
    Sum,
    VariableReference,
    lower,
    main,
    parse_expression,
    parse_poly,
)
from prymcert.certify import run_pipeline
from prymcert.exactnum import GaussianRational
from prymcert.multipoly import Polynomial, UnknownVariable, VariableRegistry
from prymcert.weil_model import IDENTITY_NAMES, generators

REG = VariableRegistry(("s", "t", "x", "y"))


# -- parser ---------------------------------------------------------------

def test_parse_generator_expressions():
    g = generators()
    assert parse_poly("s + t + x + y", REG) == g["a1"]
    assert parse_poly("s - i*t - x + i*y", REG) == g["c1"]
    assert not parse_poly("(s+t)^2 - s^2 - 2*s*t - t^2", REG)


def test_parse_whitespace_insensitive():
    assert parse_poly("s+t", REG) == parse_poly("  s\n +\t t ", REG)


def test_parse_rationals_and_powers():
    p = parse_poly("-3/4 * s^2 + 1/2", REG)
    s = Polynomial.variable(REG, "s")
    assert p == Fraction(-3, 4) * s ** 2 + Fraction(1, 2)


def test_parse_ast_shape():
    ast = parse_expression("(s + 2)*t^3 - i")
    assert isinstance(ast, Difference)
    assert isinstance(ast.right, ImaginaryUnit)
    assert isinstance(ast.left, Product)
    assert isinstance(ast.left.left, Group)
    assert isinstance(ast.left.left.inner, Sum)
    assert isinstance(ast.left.left.inner.right, RationalLiteral)
    assert isinstance(ast.left.right, Power)
    assert ast.left.right.exponent == 3
    assert isinstance(ast.left.right.base, VariableReference)


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


def test_lower_rejects_non_ast():
    with pytest.raises(TypeError):
        lower("not a node", REG)


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


def test_fpf(capsys):
    assert main(["fpf", "--at", "6,5,6,-6,6,-1,-2,-8,-2"]) == 0
    assert capsys.readouterr().out.strip() == "CertifiedEmpty"
    assert main(["fpf", "--at", "1/2,0,0,1/4,0,0,1/4,0,0"]) == 1
    assert capsys.readouterr().out.strip() == "Inconclusive"


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


@pytest.mark.parametrize("edit", [
    lambda doc: {**doc, "witness_triple": 5},
    lambda doc: {**doc, "witness_quadric_kernel_dim": None},
    lambda doc: [],
    lambda doc: {**doc, "seed": -1},
    lambda doc: {**doc, "seed": "abc"},
    lambda doc: {k: v for k, v in doc.items() if k != "witness_det_m"},
    lambda doc: {**doc, "witness_det_m": "1" * 5000},  # past the int-string limit
], ids=["witness_triple_int", "null_kernel_dim", "top_level_list", "negative_seed",
        "text_seed", "missing_witness_det", "oversized_rational"])
def test_recheck_rejects_malformed_certificate(seed0_document, tmp_path, capsys, edit):
    assert _recheck(tmp_path, edit(dict(seed0_document))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load certificate: ")
    assert captured.err.count("\n") == 1


def test_recheck_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["recheck", "--cert", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: cannot load certificate: certificate JSON is nested too deeply\n"


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

    assert main(["parse", "--expr", "s + q"]) == 1
    assert "unknown variable" in capsys.readouterr().err

    assert main(["parse", "--expr", "s +"]) == 1
    assert "expected" in capsys.readouterr().err

    assert main(["parse", "--expr", "s", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"polynomial": "s"}


def test_usage_exit_codes():
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["detm"])  # one of --symbolic / --at is required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
