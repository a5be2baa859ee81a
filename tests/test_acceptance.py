"""Acceptance gate: one test per criterion, every check exact (tolerance zero).

Each test prints a single PASS line with its elapsed time (visible with
pytest -s); a failure raises, so the line is printed only for passes.
Run just this gate with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

from prymcert.certify import (
    Certificate,
    SeededSampler,
    run_pipeline,
    verify_certificate,
)
from prymcert.exactnum import GaussianRational
from prymcert.linalg import PolyMatrix, ScalarMatrix, det_expansion, det_rref
from prymcert.multipoly import Polynomial, VariableRegistry
from prymcert import weil_model as wm


class _Timer:
    def __init__(self, budget: float):
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False

    def report(self, number: int, text: str) -> None:
        print(f"PASS criterion {number}: {text} [{self.elapsed:.2f}s "
              f"< {self.budget:.0f}s budget]")
        assert self.elapsed < self.budget, f"criterion {number} exceeded time budget"


def test_criterion_1_identity_suite():
    with _Timer(5.0) as timer:
        residuals = wm.identity_residuals()
        assert len(residuals) == 17
        for name, residual in residuals.items():
            assert not residual, f"identity {name} has nonzero residual"
    timer.report(1, "all 17 identities reduce to the exact zero polynomial")


def test_criterion_2_eigenspaces():
    with _Timer(1.0) as timer:
        dims = wm.eigen_decomposition()  # raises on any span mismatch
        assert dims == (6, 4, 3, 3)
    timer.report(2, "eigenspace dimensions (6, 4, 3, 3), spans match the named bases")


def test_criterion_3_diagonal_restriction():
    with _Timer(5.0) as timer:
        factors = wm.verify_diagonal()  # raises unless base-point-free
        assert factors == (Fraction(2), Fraction(4), Fraction(2),
                           Fraction(1), Fraction(1), Fraction(1))
    timer.report(3, "diagonal factors (2, 4, 2, 1, 1, 1), no common projective zero")


def test_criterion_4_determinant_certificate():
    with _Timer(30.0) as timer:
        det = wm.elimination_determinant()
        assert det.term_count() >= 1
        assert wm.determinant_at(wm.CoefficientTriple.origin()) == 1
        wm.cross_check_determinant(wm.CoefficientTriple.origin(), Fraction(1))
    timer.report(4, "det M: symbolic, det(origin) = 1, nonzero, "
                    "Q elimination agrees at the origin")


def test_criterion_5_quadric_uniqueness():
    with _Timer(10.0) as timer:
        assert wm.quadric_relation_kernel_dim(wm.CoefficientTriple.origin()) == 3
        sampler = SeededSampler(1)
        for _ in range(20):
            triple = sampler.next_triple()
            assert wm.quadric_relation_kernel_dim(triple) == 1
    timer.report(5, "kernel dim 3 at the origin, dim 1 at 20 seeded triples")


def test_criterion_6_genus():
    with _Timer(1.0) as timer:
        assert wm.genus_check() == (24, 13)
    timer.report(6, "intersection number 24, genus 13")


def test_criterion_7_witness_pipeline():
    with _Timer(60.0) as timer:
        cert = run_pipeline(0, 100)
        assert cert.overall == "Pass"
        assert cert.witness_triple is not None
        assert cert.witness_det_m != 0
        assert cert.witness_quadric_kernel_dim == 1
        assert cert.fixed_point_free == "CertifiedEmpty"
        verify_certificate(cert)
        text = cert.to_json()
        assert run_pipeline(0, 100).to_json() == text       # byte-exact rerun
        assert Certificate.from_json(text).to_json() == text  # byte-exact reload
        verify_certificate(Certificate.from_json(text))
    timer.report(7, "seed-0 witness found, certificate re-validates byte-exactly")


def _naive_det(rows):
    # independent first-row Laplace expansion (no memoization)
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _naive_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def test_criterion_8_oracle_equivalences():
    reg = VariableRegistry(("u", "v"))
    rng = random.Random(20250809)

    def rand_scalar():
        return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    def rand_poly(max_terms=3, max_exp=2):
        p = Polynomial.zero(reg)
        for _ in range(rng.randint(0, max_terms)):
            mono = (rng.randint(0, max_exp), rng.randint(0, max_exp))
            p = p + Polynomial(reg, {mono: Fraction(rng.randint(-3, 3))})
        return p

    with _Timer(30.0) as timer:
        # 1. det_rref / det_expansion vs cofactor oracle: 100 scalar + 100 polynomial
        # (det_expansion over Q(i), det_rref, which works over Q, on the real parts)
        for _ in range(100):
            n = rng.randint(1, 5)
            rows = [[rand_scalar() for _ in range(n)] for _ in range(n)]
            assert det_expansion(ScalarMatrix.from_rows(rows)) == _naive_det(rows)
            real = [[z.re for z in row] for row in rows]
            assert det_rref(ScalarMatrix.from_rows(real)) == _naive_det(real)
        for _ in range(100):
            n = rng.randint(1, 5)
            rows = [[rand_poly() for _ in range(n)] for _ in range(n)]
            assert det_expansion(PolyMatrix.from_rows(rows)) == _naive_det(rows)

        # 2. evaluate(det M) = det(evaluated M) at 50 random triples
        det = wm.elimination_determinant()
        matrix = wm.eliminate().matrix
        for _ in range(50):
            triple = wm.CoefficientTriple.from_rationals(
                [rng.randint(-10, 10) for _ in range(9)])
            point = triple.as_point()
            scalar = ScalarMatrix.from_rows(matrix.map(lambda e: e.evaluate(point)))
            assert det.evaluate(point) == det_rref(scalar)

        # 3. substitute / evaluate homomorphism on 200 random pairs
        for _ in range(200):
            p, q = rand_poly(4), rand_poly(4)
            bindings = {"u": rand_poly(2, 1)}
            assert (p * q).substitute(bindings) == \
                p.substitute(bindings) * q.substitute(bindings)
            assert (p + q).substitute(bindings) == \
                p.substitute(bindings) + q.substitute(bindings)
            point = {"u": rand_scalar(), "v": rand_scalar()}
            assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
            assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    timer.report(8, "200 determinant oracles, 50 evaluation commutations, "
                    "200 homomorphism pairs")
