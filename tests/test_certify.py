"""Pipeline determinism, certificate serialization, and re-verification."""

import hashlib
import re
from fractions import Fraction

import pytest

from prymcert import CheckFailed, certify, cli, exactnum
from prymcert import weil_model as wm
from prymcert.certify import (
    Certificate,
    SeededSampler,
    run_pipeline,
    verify_certificate,
)
from prymcert.weil_model import (
    IDENTITY_NAMES,
    CoefficientTriple,
    determinant_at,
    fixed_point_free_check,
    quadric_relation_kernel_dim,
)

def replace(cert, **changes):
    """A copy of cert with the given fields set to new values."""
    fields = {name: getattr(cert, name) for name in Certificate.__slots__}
    fields.update(changes)
    return Certificate(**fields)


def exactly(message):
    """A pytest.raises match pattern for exactly this message."""
    return f"^{re.escape(message)}$"


# first triple drawn from seed 0; passes all three witness conditions
SEED0_WITNESS = (6, 5, 6, -6, 6, -1, -2, -8, -2)
SEED0_DET = Fraction(-5548257727)


def test_sampler_is_deterministic():
    a = SeededSampler(42)
    b = SeededSampler(42)
    assert [a.next_int() for _ in range(50)] == [b.next_int() for _ in range(50)]
    c = SeededSampler(43)
    assert [SeededSampler(42).next_int() for _ in range(10)] != \
        [c.next_int() for _ in range(10)]


def test_sampler_range():
    sampler = SeededSampler(7)
    values = [sampler.next_int() for _ in range(500)]
    assert all(-10 <= v <= 10 for v in values)
    assert min(values) == -10 and max(values) == 10


def test_sampler_seed0_first_triple():
    triple = SeededSampler(0).next_triple()
    assert triple.values() == tuple(Fraction(v) for v in SEED0_WITNESS)


@pytest.fixture(scope="module")
def seed0_certificate():
    return run_pipeline(0, 100)


def test_pipeline_seed0(seed0_certificate):
    cert = seed0_certificate
    assert cert.overall == "Pass"
    assert all(v == "Pass" for v in cert.identity_verdicts.values())
    assert len(cert.identity_verdicts) == 17
    assert cert.eigenspace_dims == (6, 4, 3, 3)
    assert cert.diagonal_factors == (Fraction(2), Fraction(4), Fraction(2),
                                     Fraction(1), Fraction(1), Fraction(1))
    assert cert.chow_coefficient == 24
    assert cert.genus == 13
    assert cert.det_m_at_origin == 1
    assert cert.det_m_term_count == 383
    assert cert.det_m_nonzero
    assert cert.witness_triple.values() == tuple(Fraction(v) for v in SEED0_WITNESS)
    assert cert.witness_det_m == SEED0_DET
    assert cert.witness_quadric_kernel_dim == 1
    assert cert.fixed_point_free == "CertifiedEmpty"


def test_pipeline_determinism(seed0_certificate):
    again = run_pipeline(0, 100)
    assert again.to_json() == seed0_certificate.to_json()


def _refuse_gaussian(re, im):
    raise AssertionError(f"Q(i) arithmetic in the certified chain: {re} + {im}*i")


def test_the_certified_chain_runs_over_q(monkeypatch):
    # every result in Q(i) is built by exactnum._gaussian
    cached = [f for f in vars(wm).values() if hasattr(f, "cache_clear")]
    monkeypatch.setattr(exactnum, "_gaussian", _refuse_gaussian)
    for function in cached:
        function.cache_clear()
    try:
        text = run_pipeline(0).to_json()
        verify_certificate(Certificate.from_json(text))
    finally:  # later tests see values built with the true _gaussian again
        monkeypatch.undo()
        for function in cached:
            function.cache_clear()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "ee3194657db4b8d7145c00cd39832165e8b252614241b9e3e4501afe54210abf"


def test_the_q_i_patch_reaches_the_polynomial_product(monkeypatch, capsys):
    # the patch above covers every Q(i) value that parse returns: each is
    # built once, by GaussianForm.polynomial, for a sum as for a product
    monkeypatch.setattr(exactnum, "_gaussian", _refuse_gaussian)
    for expr in ("(s + i)+(t + s)", "(s + i)*(t + 1)"):
        with pytest.raises(AssertionError, match=r"Q\(i\) arithmetic"):
            cli.main(["parse", "--expr", expr])
    assert capsys.readouterr().out == ""


def test_pipeline_skips_a_triple_that_fails_a_condition(monkeypatch):
    # the origin has det M = 1 but a 3-dimensional quadric kernel
    triples = iter([CoefficientTriple.origin(), CoefficientTriple.from_rationals(SEED0_WITNESS)])
    monkeypatch.setattr(SeededSampler, "next_triple", lambda self: next(triples))
    cert = run_pipeline(0, 2)
    assert cert.overall == "Pass"
    assert cert.witness_triple.values() == tuple(Fraction(v) for v in SEED0_WITNESS)
    assert cert.witness_det_m == SEED0_DET


def test_pipeline_without_witness_search():
    cert = run_pipeline(5, 0)
    assert cert.overall == "Fail"
    assert cert.witness_triple is None
    assert cert.witness_det_m is None
    assert all(v == "Pass" for v in cert.identity_verdicts.values())
    assert cert.det_m_at_origin == 1
    doc = cert.to_json_dict()
    assert "witness_triple" not in doc
    assert doc["overall"] == "Fail"


def test_certificate_takes_exactly_its_fields(seed0_certificate):
    fields = {name: getattr(seed0_certificate, name) for name in Certificate.__slots__}
    del fields["overall"]
    with pytest.raises(TypeError, match=r"missing \['overall'\], unknown \[\]"):
        Certificate(**fields)
    with pytest.raises(TypeError, match=r"missing \[\], unknown \['verdict'\]"):
        Certificate(**fields, overall="Pass", verdict="Pass")


def test_json_round_trip(seed0_certificate):
    text = seed0_certificate.to_json()
    back = Certificate.from_json(text)
    assert back.to_json() == text
    assert back.witness_det_m == SEED0_DET


def test_json_key_order_is_stable(seed0_certificate):
    doc = seed0_certificate.to_json_dict()
    assert list(doc) == [
        "tool_version", "seed", "identity_verdicts", "eigenspace_dims",
        "diagonal_factors", "chow_coefficient", "genus", "det_m_at_origin",
        "det_m_term_count", "det_m_nonzero", "witness_triple", "witness_det_m",
        "witness_quadric_kernel_dim", "fixed_point_free", "overall",
    ]


def test_verify_certificate_round_trip(seed0_certificate):
    verify_certificate(seed0_certificate)  # must not raise


def test_verify_certificate_detects_tampered_det(seed0_certificate):
    tampered = replace(seed0_certificate, witness_det_m=SEED0_DET + 1)
    with pytest.raises(CheckFailed, match=exactly(
            f"certificate field 'witness_det_m': recorded {SEED0_DET + 1}, "
            f"recomputed {SEED0_DET}")):
        verify_certificate(tampered)


def test_verify_certificate_detects_origin_swap(seed0_certificate):
    # swap in the origin (det recorded accordingly): the kernel dimension
    # check must now flag the divergence (3 at the origin, 1 recorded)
    swapped = replace(seed0_certificate,
                      witness_triple=CoefficientTriple.origin(),
                      witness_det_m=Fraction(1))
    with pytest.raises(CheckFailed, match=exactly(
            "certificate field 'witness_quadric_kernel_dim': recorded 1, recomputed 3")):
        verify_certificate(swapped)


def test_cross_check_catches_wrong_symbolic_determinant(seed0_certificate, monkeypatch):
    # a Gauss-Jordan route that is off by one, with a certificate that agrees with
    # it: the field comparison passes, so only the symbolic det M can object
    real = certify.determinant_at
    monkeypatch.setattr(certify, "determinant_at", lambda triple: real(triple) + 1)
    consistent = replace(seed0_certificate, witness_det_m=SEED0_DET + 1)
    with pytest.raises(AssertionError, match="Gauss-Jordan") as err:
        verify_certificate(consistent)
    assert "certificate field" not in str(err.value)
    with pytest.raises(AssertionError, match="Gauss-Jordan"):
        run_pipeline(0, 1)


def test_verify_certificate_requires_witness():
    cert = run_pipeline(5, 0)
    with pytest.raises(CheckFailed, match=exactly("certificate has no witness to re-check")):
        verify_certificate(cert)


def test_rationals_serialized_as_text(seed0_certificate):
    doc = seed0_certificate.to_json_dict()
    assert doc["det_m_at_origin"] == "1"
    assert doc["witness_det_m"] == "-5548257727"
    assert doc["diagonal_factors"] == ["2", "4", "2", "1", "1", "1"]
    assert doc["witness_triple"] == [str(v) for v in SEED0_WITNESS]


_TAMPERED_FIELDS = {
    "tool_version": "9.9",
    "identity_verdicts": {name: "Fail" for name in IDENTITY_NAMES},
    "eigenspace_dims": (6, 4, 4, 2),
    "diagonal_factors": (Fraction(2), Fraction(4), Fraction(2),
                         Fraction(1), Fraction(1), Fraction(1, 2)),
    "chow_coefficient": 26,
    "genus": 7,
    "det_m_at_origin": Fraction(-1),
    "det_m_term_count": 384,
    "det_m_nonzero": False,
    "overall": "Fail",
}


@pytest.mark.parametrize("field", list(_TAMPERED_FIELDS))
def test_verify_certificate_detects_tampered_field(seed0_certificate, field):
    tampered = replace(seed0_certificate, **{field: _TAMPERED_FIELDS[field]})
    with pytest.raises(CheckFailed, match=exactly(
            f"certificate field {field!r}: recorded {_TAMPERED_FIELDS[field]}, "
            f"recomputed {getattr(seed0_certificate, field)}")):
        verify_certificate(tampered)


# degenerate witnesses, each with the field whose witness condition fails first:
# det M = 0, kernel dimension 1 and CertifiedEmpty are checked in that order
DEGENERATE_WITNESSES = {
    "origin": ((0,) * 9, "witness_quadric_kernel_dim"),
    "a1-one": ((1,) + (0,) * 8, "witness_quadric_kernel_dim"),
    "zero-det": ((1, 0, 0, 0, 0, 0, Fraction(1, 4), 0, 0), "witness_det_m"),
    "meets-diagonal": ((Fraction(1, 2), 0, 0, Fraction(1, 4), 0, 0, Fraction(1, 4), 0, 0),
                       "witness_det_m"),
}


def with_recomputed_witness(cert, values):
    """cert with another witness triple and its correctly recomputed fields."""
    triple = CoefficientTriple.from_rationals(values)
    return replace(cert, witness_triple=triple,
                   witness_det_m=determinant_at(triple),
                   witness_quadric_kernel_dim=quadric_relation_kernel_dim(triple),
                   fixed_point_free=fixed_point_free_check(triple))


@pytest.mark.parametrize("name", list(DEGENERATE_WITNESSES))
def test_verify_certificate_requires_witness_conditions(seed0_certificate, name):
    values, field = DEGENERATE_WITNESSES[name]
    degenerate = with_recomputed_witness(seed0_certificate, values)
    assert degenerate.overall == "Pass"
    with pytest.raises(CheckFailed, match="^" + re.escape(
            f"certificate field {field!r}: {getattr(degenerate, field)} "
            f"fails the witness condition (")):
        verify_certificate(degenerate)
