"""The model layer: group action, eigenbasis, identities, elimination, genus."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from prymcert.exactnum import GaussianRational, IMAG_UNIT
from prymcert.linalg import ScalarMatrix, det_rref, kernel_basis, rank
from prymcert.multipoly import Polynomial
from prymcert import weil_model as wm

WITNESS = wm.CoefficientTriple.from_rationals([6, 5, 6, -6, 6, -1, -2, -8, -2])
WITNESS_DET = Fraction(-5548257727)
# det vanishes when A1*C1 = 1/4 with all other coordinates zero
ZERO_DET_TRIPLE = wm.CoefficientTriple.from_rationals(
    [1, 0, 0, 0, 0, 0, Fraction(1, 4), 0, 0])


# -- group ------------------------------------------------------------------

def test_group_relations_as_maps():
    sigma, tau, ident = wm.SIGMA, wm.TAU, wm.IDENTITY
    assert sigma.power(4) == ident
    assert tau * tau == ident
    assert tau * sigma * tau == sigma.inverse()
    assert sigma.power(2) * sigma.power(2) == ident


def test_group_relations_on_all_monomials():
    reg = wm.chart_registry()
    sigma, tau = wm.SIGMA, wm.TAU
    for mono in wm.multilinear_monomials(reg):
        p = Polynomial(reg, {mono: 1})
        q = p
        for _ in range(4):
            q = wm.apply_group(sigma, q)
        assert q == p
        assert wm.apply_group(tau, wm.apply_group(tau, p)) == p
        lhs = wm.apply_group(tau, wm.apply_group(sigma, wm.apply_group(tau, p)))
        assert lhs == wm.apply_group(sigma.inverse(), p)


def test_action_convention_pinned():
    g = wm.generators()
    assert wm.apply_group(wm.SIGMA, g["a1"]) == g["a1"]
    assert wm.apply_group(wm.SIGMA, g["b1"]) == -g["b1"]
    assert wm.apply_group(wm.SIGMA, g["c1"]) == IMAG_UNIT * g["c1"]
    assert wm.apply_group(wm.SIGMA, g["d1"]) == -IMAG_UNIT * g["d1"]


def test_every_generator_is_an_eigenvector():
    g = wm.generators()
    eigenvalues = {"a": 1, "b": -1, "c": IMAG_UNIT, "d": -IMAG_UNIT}
    for name, poly in g.items():
        alpha = eigenvalues[name[0]]
        assert wm.apply_group(wm.SIGMA, poly) == alpha * poly, name


def test_invariants_are_tau_invariant():
    g = wm.generators()
    for name in wm.INVARIANT_NAMES:
        assert wm.apply_group(wm.TAU, g[name]) == g[name]


# -- eigen decomposition ------------------------------------------------------

def test_eigen_dimensions():
    decomposition = wm.eigen_decomposition()
    assert decomposition.dims == (6, 4, 3, 3)
    assert decomposition.generator("b4") == wm.generators()["b4"]
    with pytest.raises(KeyError):
        decomposition.generator("z9")


def test_named_generators_span_v():
    reg = wm.chart_registry()
    monos = wm.multilinear_monomials(reg)
    g = wm.generators()
    rows = [[poly.coefficient(m) for m in monos] for poly in g.values()]
    assert rank(ScalarMatrix.from_rows(rows)) == 16


def test_fixed_generators():
    g = wm.generators()
    assert wm.apply_group(wm.SIGMA, g["a4"]) == g["a4"]
    assert wm.apply_group(wm.SIGMA, g["b4"]) == -g["b4"]


# -- the identity suite -------------------------------------------------------

def test_all_seventeen_identities_hold():
    verdicts = wm.check_identities()
    assert len(verdicts) == 17
    assert all(verdicts.values()), [k for k, v in verdicts.items() if not v]
    wm.verify_identities()
    residuals = wm.identity_residuals()
    assert not residuals["cubic"]
    assert not any(residuals[name] for name in wm.B_IDENTITY_NAMES)
    assert not any(residuals[name] for name in wm.CD_IDENTITY_NAMES)


def test_identity_names_are_stable():
    assert wm.IDENTITY_NAMES[0] == "cubic"
    assert len(wm.IDENTITY_NAMES) == 17
    assert len(wm.B_IDENTITY_NAMES) == 7
    assert len(wm.CD_IDENTITY_NAMES) == 9


def test_mutated_cubic_fails():
    g = wm.generators()
    a1, a2, a3, a4, a5, a6 = (g[n] for n in wm.INVARIANT_NAMES)
    # coefficient 4 -> 5 must leave a nonzero residual
    mutated = (a1 ** 2 * a5 - a1 * a3 * a4 + a2 * a4 ** 2
               - 5 * (a2 * a5 * a6) + a3 ** 2 * a6)
    assert mutated
    # and so must the misprinted variant with a4 in the first term
    misprinted = (a1 ** 2 * a4 - a1 * a3 * a4 + a2 * a4 ** 2
                  - 4 * (a2 * a5 * a6) + a3 ** 2 * a6)
    assert misprinted


def test_mutated_product_identities_fail():
    g = wm.generators()
    a1, a2, a3, a4, a5, a6 = (g[n] for n in wm.INVARIANT_NAMES)
    assert g["b1"] ** 2 - (a1 ** 2 - 3 * (a2 * a6))          # 4 -> 3
    assert g["b3"] * g["b4"] - (a3 * a4 + 2 * (a1 * a5))     # sign flip
    i = IMAG_UNIT
    wrong = (1 / (1 - i)) * (g["c1"] * g["d2"] - i * (g["c2"] * g["d1"])) \
        - (a1 * a2 - 3 * (a3 * a6))
    assert wrong


def test_cubic_relation_is_unique():
    """The space of cubic relations among the six invariants is 1-dimensional."""
    g = wm.generators()
    gens = [g[n] for n in wm.INVARIANT_NAMES]
    triples = list(combinations_with_replacement(range(6), 3))
    products = [gens[i] * gens[j] * gens[k] for i, j, k in triples]
    monos = sorted({m for p in products for m, _ in p.terms()})
    matrix = ScalarMatrix.from_rows(
        [[p.coefficient(m) for p in products] for m in monos])
    vectors = kernel_basis(matrix)
    assert len(vectors) == 1
    relation = dict(zip(triples, vectors[0]))
    support = {t for t, c in relation.items() if c}
    assert support == {(0, 0, 4), (0, 2, 3), (1, 3, 3), (1, 4, 5), (2, 2, 5)}
    scale = relation[(0, 0, 4)]  # a1^2 a5 coefficient
    normalized = {t: Fraction(c) / Fraction(scale) for t, c in relation.items() if c}
    assert normalized == {
        (0, 0, 4): Fraction(1),    # a1^2 a5
        (0, 2, 3): Fraction(-1),   # a1 a3 a4
        (1, 3, 3): Fraction(1),    # a2 a4^2
        (1, 4, 5): Fraction(-4),   # a2 a5 a6
        (2, 2, 5): Fraction(1),    # a3^2 a6
    }


# -- diagonal restriction ------------------------------------------------------

def test_diagonal_factors():
    factors = wm.diagonal_restriction_factors()
    assert factors == (Fraction(2), Fraction(4), Fraction(2),
                       Fraction(1), Fraction(1), Fraction(1))


def test_diagonal_forms_exact():
    g = wm.generators()
    reg = wm.diagonal_registry()
    s, t = Polynomial.variables(reg, "s", "t")
    assert wm.restrict_to_diagonal(g["a4"]) == s ** 2 + t ** 2
    assert wm.restrict_to_diagonal(g["a1"]) == 2 * (s + t)
    assert wm.restrict_to_diagonal(g["a2"]) == 4 * (s * t)


def test_diagonal_base_point_free():
    report = wm.verify_diagonal()
    assert report.base_point_free
    assert report.factors == wm.diagonal_restriction_factors()


# -- elimination ----------------------------------------------------------------

def test_matrix_at_origin():
    elim = wm.eliminate()
    origin = wm.CoefficientTriple.origin().as_point()
    values = [[e.evaluate(origin) for e in row] for row in elim.matrix.entries]

    def row_of(*ints):
        return [GaussianRational(Fraction(v)) for v in ints]

    assert values == [
        row_of(1, 0, 0, 0, 0, 0),
        row_of(0, 1, 0, 0, -2, 0),
        row_of(0, 0, 1, 0, 0, 0),
        row_of(0, 0, 0, 1, 0, 0),
        row_of(0, 0, 0, 0, -1, 0),
        row_of(0, 0, 0, 0, 0, -1),
    ]


def test_matrix_entry_degrees():
    elim = wm.eliminate()
    assert all(e.total_degree() <= 2 for row in elim.matrix.entries for e in row)
    assert all(e.total_degree() <= 2 for row in elim.quadric_matrix.entries for e in row)


def test_full_matrix_unit_rows():
    elim = wm.eliminate()
    assert (elim.full_matrix.rows, elim.full_matrix.cols) == (9, 9)
    for k in range(3):
        row = elim.full_matrix.row(6 + k)
        for j, entry in enumerate(row):
            expected = 1 if j == 6 + k else 0
            assert entry == expected


def test_labels_and_basis_order():
    elim = wm.eliminate()
    assert elim.alpha_labels == ("a1^2", "a2^2", "a3^2", "a1*a2", "a1*a3", "a2*a3")
    assert elim.gamma_labels == ("c1*d1", "c2*d2", "c3*d3",
                                 "c1*d2-i*c2*d1", "c1*d3+c3*d1", "c2*d3+i*c3*d2")
    assert elim.quadric_labels == ("b1^2", "b2^2", "b3^2", "b1*b3",
                                   "b1*b4", "b3*b4", "b4^2")
    assert elim.b_basis_labels == ("b1*b2", "b2*b3", "b2*b4")


def test_quadric_matrix_rank_at_origin():
    elim = wm.eliminate()
    origin = wm.CoefficientTriple.origin().as_point()
    scalar = ScalarMatrix.from_rows(elim.quadric_matrix.map(lambda e: e.evaluate(origin)))
    assert rank(scalar) == 4


# -- determinant -----------------------------------------------------------------

def test_determinant_certificate():
    det = wm.elimination_determinant()
    assert det  # not the zero polynomial
    assert det.term_count() == 383
    assert det.total_degree() == 9
    assert wm.determinant_at(wm.CoefficientTriple.origin()) == 1
    render = det.render()
    assert len(render) == 9178
    assert hashlib.sha256(render.encode()).hexdigest() == \
        "b6a791c48cbe970e9fd821a4d9555382b7872744b986aa86f7332a77484cb0c3"


def test_full_matrix_determinant_matches_up_to_sign():
    from prymcert.linalg import det_expansion
    elim = wm.eliminate()
    det = wm.elimination_determinant()
    det_full = det_expansion(elim.full_matrix)
    assert det_full == det or det_full == -det


def test_determinant_evaluation_commutes():
    det = wm.elimination_determinant()
    elim = wm.eliminate()
    rng = random.Random(41)
    for _ in range(10):
        triple = wm.CoefficientTriple.from_rationals(
            [rng.randint(-10, 10) for _ in range(9)])
        point = triple.as_point()
        direct = det.evaluate(point)
        scalar = det_rref(
            ScalarMatrix.from_rows(elim.matrix.map(lambda e: e.evaluate(point))))
        assert direct == scalar


def test_determinant_cross_check():
    for triple, expected in [(wm.CoefficientTriple.origin(), 1),
                             (WITNESS, WITNESS_DET),
                             (ZERO_DET_TRIPLE, 0)]:
        value = wm.determinant_at(triple)
        assert value == expected
        wm.cross_check_determinant(triple, value)  # must not raise


def test_determinant_cross_check_rejects_wrong_value():
    for triple, wrong in [(wm.CoefficientTriple.origin(), 0),
                          (WITNESS, WITNESS_DET + 1),
                          (WITNESS, -WITNESS_DET),
                          (ZERO_DET_TRIPLE, 1)]:
        with pytest.raises(AssertionError, match="Gauss-Jordan"):
            wm.cross_check_determinant(triple, wrong)


# -- quadric relation --------------------------------------------------------------

def test_quadric_kernel_at_origin():
    origin = wm.CoefficientTriple.origin()
    assert wm.quadric_relation_kernel_dim(origin) == 3
    with pytest.raises(wm.KernelNotUnique) as err:
        wm.vanishing_quadric(origin)
    assert err.value.dimension == 3


def test_quadric_kernel_at_random_triples():
    rng = random.Random(43)
    for _ in range(8):
        triple = wm.CoefficientTriple.from_rationals(
            [rng.randint(-10, 10) for _ in range(9)])
        assert wm.quadric_relation_kernel_dim(triple) == 1


def test_vanishing_quadric_is_left_kernel_vector():
    relation = wm.vanishing_quadric(WITNESS)
    assert len(relation) == 7
    assert any(relation)
    elim = wm.eliminate()
    point = WITNESS.as_point()
    rows = [[e.evaluate(point) for e in row] for row in elim.quadric_matrix.entries]
    for j in range(6):
        total = 0
        for k in range(7):
            total = total + relation[k] * rows[k][j]
        assert total == 0


# -- fixed points and genus ----------------------------------------------------------

def test_fixed_point_free_at_witness():
    assert wm.fixed_point_free_check(WITNESS) == wm.CERTIFIED_EMPTY


def test_fixed_point_free_inconclusive_when_diagonal_is_hit():
    # this triple makes all three restricted equations vanish at s = t = 1,
    # so no certificate of emptiness may be produced
    hitting = wm.CoefficientTriple.from_rationals(
        [Fraction(1, 2), 0, 0, Fraction(1, 4), 0, 0, Fraction(1, 4), 0, 0])
    equations = [wm.restrict_to_diagonal(eq)
                 for eq in wm._elimination_equations(hitting)]
    point = {"s": 1, "t": 1}
    assert all(eq.evaluate(point) == 0 for eq in equations)
    assert wm.fixed_point_free_check(hitting) == wm.INCONCLUSIVE


def test_genus():
    report = wm.genus_check()
    assert report.chow_coefficient == 24
    assert report.genus == 13


def test_chow_partial_products():
    hyperplane = (1, 1, 1, 1)
    for j in range(4):
        axis = tuple(1 if k == j else 0 for k in range(4))
        assert wm.chow_coefficient([hyperplane] * 3 + [axis]) == 6
    assert wm.chow_coefficient([hyperplane] * 4) == 24


# -- coefficient triples ----------------------------------------------------------

def test_coefficient_triple_validation():
    with pytest.raises(ValueError):
        wm.CoefficientTriple.from_rationals([1, 2, 3])
    triple = wm.CoefficientTriple.from_rationals(range(9))
    assert triple.values() == tuple(Fraction(k) for k in range(9))
    assert triple.as_point()["B1"] == Fraction(3)
