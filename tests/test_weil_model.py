"""The model layer: group action, eigenbasis, identities, elimination, genus."""

import copy
import hashlib
import pickle
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod

import pytest

from prymcert import linalg
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

def _substitution(images):
    """A permutation of the chart variables acting on polynomials by substitution."""
    def act(poly):
        reg = poly.registry
        return poly.substitute({v: Polynomial.variable(reg, img) for v, img in images.items()})
    return act


# the pullback convention of the module docstring, the involution swapping
# the first and third factors, and sigma^3 = sigma^-1
SIGMA = _substitution({"s": "t", "t": "x", "x": "y", "y": "s"})
TAU = _substitution({"s": "x", "x": "s"})


def SIGMA_INVERSE(poly):
    return SIGMA(SIGMA(SIGMA(poly)))


def test_value_types_are_immutable():
    triple = wm.CoefficientTriple.from_rationals(range(9))
    values = [(triple, "a"), (IMAG_UNIT, "re")]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, ())
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
    assert triple.values() == tuple(Fraction(v) for v in range(9))
    for copier in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert copier(IMAG_UNIT) == IMAG_UNIT
        assert copier(triple).values() == triple.values()


def test_group_relations_on_all_monomials():
    reg = wm.chart_registry()
    for mono in wm.multilinear_monomials(reg):
        p = Polynomial(reg, {mono: 1})
        assert SIGMA(SIGMA_INVERSE(p)) == p  # sigma^4 = 1
        assert TAU(TAU(p)) == p
        assert TAU(SIGMA(TAU(p))) == SIGMA_INVERSE(p)


def test_action_convention_pinned():
    g = wm.generators()
    assert SIGMA(g["a1"]) == g["a1"]
    assert SIGMA(g["b1"]) == -g["b1"]
    assert SIGMA(g["c1"]) == IMAG_UNIT * g["c1"]
    assert SIGMA(g["d1"]) == -IMAG_UNIT * g["d1"]


def test_every_generator_is_an_eigenvector():
    g = wm.generators()
    eigenvalues = {"a": 1, "b": -1, "c": IMAG_UNIT, "d": -IMAG_UNIT}
    for name, poly in g.items():
        alpha = eigenvalues[name[0]]
        assert SIGMA(poly) == alpha * poly, name


def test_invariants_are_tau_invariant():
    g = wm.generators()
    for name in wm.INVARIANT_NAMES:
        assert TAU(g[name]) == g[name]


# -- eigen decomposition ------------------------------------------------------

def test_eigen_dimensions():
    assert wm.eigen_decomposition() == (6, 4, 3, 3)


def test_named_generators_span_v():
    # d_k is c_k with i replaced by -i, so c_k + d_k and i*(d_k - c_k) are
    # rational and span what c_k and d_k span; rank works over Q
    reg = wm.chart_registry()
    monos = wm.multilinear_monomials(reg)
    g = dict(wm.generators())
    for k in "123":
        c, d = g.pop("c" + k), g.pop("d" + k)
        g["c" + k + "+d" + k] = c + d
        g["i*(d" + k + "-c" + k + ")"] = IMAG_UNIT * (d - c)
    rows = [[poly.coefficient(m) for m in monos] for poly in g.values()]
    assert all(type(v) is int for row in rows for v in row)
    assert rank(ScalarMatrix.from_rows(rows)) == 16


def test_rotate_matches_the_substitution():
    reg = wm.chart_registry()
    for mono in wm.multilinear_monomials(reg):
        assert Polynomial(reg, {wm.rotate(mono): 1}) == SIGMA(Polynomial(reg, {mono: 1}))


def test_sigma_orbits():
    monos = wm.multilinear_monomials(wm.chart_registry())
    orbits = wm.sigma_orbits(monos)
    assert sorted(len(orbit) for orbit in orbits) == [1, 1, 2, 4, 4, 4]
    assert sorted(m for orbit in orbits for m in orbit) == sorted(monos)
    for orbit in orbits:
        assert orbit[0] == min(orbit, key=monos.index)
        for k, mono in enumerate(orbit):
            assert wm.rotate(mono) == orbit[(k + 1) % len(orbit)]


def test_eigen_decomposition_runs_no_elimination(monkeypatch):
    def refuse(*_args):
        raise AssertionError("eigenspaces need no elimination")
    for name in ("rank", "kernel_basis"):
        monkeypatch.setattr(wm, name, refuse)
    monkeypatch.setattr(linalg, "_rref", refuse)
    assert wm.eigen_decomposition() == (6, 4, 3, 3)


def _with_generators(monkeypatch, **changes):
    gens = dict(wm.generators(), **changes)
    monkeypatch.setattr(wm, "generators", lambda: gens)


def test_eigenbasis_mismatch_not_an_eigenvector(monkeypatch, capsys):
    from prymcert.cli import main

    g = wm.generators()
    _with_generators(monkeypatch, c2=g["c2"] + g["d2"])
    with pytest.raises(wm.EigenbasisMismatch, match=r"c2 is not a \+i-eigenvector"):
        wm.eigen_decomposition()
    assert main(["verify", "eigenspaces"]) == 1
    assert capsys.readouterr().out.startswith("Fail eigenspaces: named generator c2")


def test_eigenbasis_mismatch_dependent_generators(monkeypatch):
    g = wm.generators()
    _with_generators(monkeypatch, b3=g["b1"] - 2 * g["b4"])  # a -1-eigenvector
    with pytest.raises(wm.EigenbasisMismatch, match="named generators for -1 are dependent"):
        wm.eigen_decomposition()


def test_eigenbasis_mismatch_dimension(monkeypatch):
    monkeypatch.setitem(wm._EIGENSPACES, "+1", (1, ("a1", "a2", "a3", "a4", "a5")))
    with pytest.raises(wm.EigenbasisMismatch, match=r"eigenspace \+1: dimension 6, expected 5"):
        wm.eigen_decomposition()


def test_fixed_generators():
    g = wm.generators()
    assert SIGMA(g["a4"]) == g["a4"]
    assert SIGMA(g["b4"]) == -g["b4"]


# -- the identity suite -------------------------------------------------------

def test_all_seventeen_identities_hold():
    assert wm.check_identities() == wm.IDENTITY_NAMES  # raises on a nonzero residual
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
    assert wm.diagonal_generators() == {name: wm.restrict_to_diagonal(g[name])
                                        for name in wm.INVARIANT_NAMES}


def test_diagonal_checks_restrict_nothing_per_call(monkeypatch):
    wm.diagonal_generators()  # the one restriction of a1..a6

    def refuse(_poly):
        raise AssertionError("restricted again")

    monkeypatch.setattr(wm, "restrict_to_diagonal", refuse)
    assert wm.verify_diagonal() == (2, 4, 2, 1, 1, 1)
    assert wm.fixed_point_free_check(WITNESS) == wm.CERTIFIED_EMPTY


def test_diagonal_base_point_free():
    # raises BasePointFound unless the restricted system is base-point-free
    assert wm.verify_diagonal() == wm.diagonal_restriction_factors()


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


def test_labels_and_basis_order():
    assert wm.ALPHA_LABELS == ("a1^2", "a2^2", "a3^2", "a1*a2", "a1*a3", "a2*a3")
    assert wm.GAMMA_LABELS == ("c1*d1", "c2*d2", "c3*d3",
                               "c1*d2-i*c2*d1", "c1*d3+c3*d1", "c2*d3+i*c3*d2")
    assert wm.B_PRODUCT_LABELS == ("b1^2", "b2^2", "b3^2", "b1*b3",
                                   "b1*b4", "b3*b4", "b4^2")
    # rows and columns follow the labels: at the origin a4 = a5 = a6 = 0,
    # so c2*d2 = a2^2 - 2*a1*a3 + 2*a2*a4 and b1*b3 = a1*a3 - 2*a2*a4
    elim = wm.eliminate()
    origin = wm.CoefficientTriple.origin().as_point()
    assert [e.evaluate(origin) for e in elim.matrix.row(1)] == [0, 1, 0, 0, -2, 0]
    assert [e.evaluate(origin) for e in elim.quadric_matrix.row(3)] == [0, 0, 0, 0, 1, 0]


@pytest.mark.parametrize("table, row, label", [(0, 2, "b3^2"), (1, 4, "c1*d3+c3*d1")],
                         ids=["b-row", "cd-row"])
def test_term_outside_the_quadratic_basis_is_a_remainder(monkeypatch, table, row, label):
    real = wm._relation_tables

    def with_a_cubic_term(a):
        tables = [list(rows) for rows in real(a)]
        name, rhs = tables[table][row]
        tables[table][row] = (name, rhs + a["a1"] * a["a2"] * a["a3"])
        return tables

    monkeypatch.setattr(wm, "_relation_tables", with_a_cubic_term)
    with pytest.raises(wm.NonzeroRemainder) as raised:
        wm.eliminate.__wrapped__()
    assert str(raised.value) == f"{label}: remainder a1*a2*a3"


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
    gens = wm.generators()
    equations = [wm.restrict_to_diagonal(gens[target] - (u1 * gens["a1"] + u2 * gens["a2"]
                                                         + u3 * gens["a3"]))
                 for target, (u1, u2, u3) in zip(("a4", "a5", "a6"),
                                                 (hitting.a, hitting.b, hitting.c))]
    point = {"s": 1, "t": 1}
    assert all(eq.evaluate(point) == 0 for eq in equations)
    # at s = t = 1 a grid's value is the sum of its entries
    assert all(sum(map(sum, grid)) == 0 for grid in wm._diagonal_equations(hitting))
    assert wm.fixed_point_free_check(hitting) == wm.INCONCLUSIVE


def test_genus():
    assert wm.genus_check() == (24, 13)


def test_chow_partial_products():
    hyperplane = (1, 1, 1, 1)
    for j in range(4):
        axis = tuple(1 if k == j else 0 for k in range(4))
        assert wm.chow_coefficient([hyperplane] * 3 + [axis]) == 6
    assert wm.chow_coefficient([hyperplane] * 4) == 24


def test_chow_coefficient_matches_the_expansion():
    # expand the product term by term, one h_k from each factor, and keep
    # the choices that take every h_k exactly once (any other number of
    # factors leaves none)
    rng = random.Random(7)
    for count in range(7):
        factors = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(count)]
        expected = sum(prod(f[k] for f, k in zip(factors, choice))
                       for choice in product(range(4), repeat=count)
                       if sorted(choice) == [0, 1, 2, 3])
        assert wm.chow_coefficient(factors) == expected


# -- coefficient triples ----------------------------------------------------------

def test_coefficient_triple_validation():
    with pytest.raises(ValueError):
        wm.CoefficientTriple.from_rationals([1, 2, 3])
    triple = wm.CoefficientTriple.from_rationals(range(9))
    assert triple.values() == tuple(Fraction(k) for k in range(9))
    assert triple.as_point()["B1"] == Fraction(3)
    top = 10 ** wm.ENTRY_DIGITS - 1  # ENTRY_DIGITS nines
    wm.CoefficientTriple.from_rationals([Fraction(-top, top - 1)] * 9)
    for over in (top + 1, -top - 1, Fraction(1, top + 1)):
        with pytest.raises(ValueError, match="entry 9 of the triple has more than 100 digits"):
            wm.CoefficientTriple.from_rationals([top] * 8 + [over])
