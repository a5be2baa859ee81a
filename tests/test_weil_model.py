"""The model layer: group action, eigenbasis, identities, elimination, genus."""

import copy
import hashlib
import pickle
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod

import pytest

from prymcert import CheckFailed, linalg
from prymcert.exactnum import GaussianRational, IMAG_UNIT
from prymcert.linalg import ScalarMatrix, det_rref, kernel_basis
from prymcert.multipoly import Polynomial, VariableRegistry
from prymcert import weil_model as wm
from resultant_oracle import diagonal_equations
from substitution_reference import substitute

WITNESS = wm.CoefficientTriple.from_rationals([6, 5, 6, -6, 6, -1, -2, -8, -2])
WITNESS_DET = Fraction(-5548257727)
# det vanishes when A1*C1 = 1/4 with all other coordinates zero
ZERO_DET_TRIPLE = wm.CoefficientTriple.from_rationals(
    [1, 0, 0, 0, 0, 0, Fraction(1, 4), 0, 0])
# its curve meets the diagonal, so det M vanishes there too
MEETS_DIAGONAL_TRIPLE = wm.CoefficientTriple.from_rationals(
    [Fraction(1, 2), 0, 0, Fraction(1, 4), 0, 0, Fraction(1, 4), 0, 0])


# -- group ------------------------------------------------------------------

def _substitution(images):
    """A permutation of the chart variables acting on polynomials by substitution."""
    def act(poly):
        reg = poly.registry
        return substitute(poly, {v: Polynomial.variable(reg, img) for v, img in images.items()})
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
    assert SIGMA(g["p1"]) == g["q1"]
    assert SIGMA_INVERSE(g["p1"]) == -g["q1"]


def test_every_generator_is_an_eigenvector():
    # a and b directly; p and q through their complex forms c = p - i*q, d = p + i*q
    g = wm.generators()
    for name in wm.INVARIANT_NAMES:
        assert SIGMA(g[name]) == g[name], name
    for name in ("b1", "b2", "b3", "b4"):
        assert SIGMA(g[name]) == -g[name], name
    for k in "123":
        p, q = g["p" + k], g["q" + k]
        assert SIGMA(p) == q and SIGMA(q) == -p, k
        c, d = p - IMAG_UNIT * q, p + IMAG_UNIT * q
        assert SIGMA(c) == IMAG_UNIT * c and SIGMA(d) == -IMAG_UNIT * d, k


def test_invariants_are_tau_invariant():
    g = wm.generators()
    for name in wm.INVARIANT_NAMES:
        assert TAU(g[name]) == g[name]


# -- eigen decomposition ------------------------------------------------------

def test_eigen_dimensions():
    assert wm.eigen_decomposition() == (6, 4, 3, 3)


def test_named_generators_span_v():
    # p_k and q_k span what c_k = p_k - i*q_k and d_k = p_k + i*q_k span
    reg = wm.chart_registry()
    monos = wm.multilinear_monomials(reg)
    g = wm.generators()
    assert len(g) == 16
    rows = [[poly.coefficient(m) for m in monos] for poly in g.values()]
    assert all(type(v) is int for row in rows for v in row)
    assert kernel_basis(ScalarMatrix.from_rows(rows)) == []  # 16x16 of full rank


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
    monkeypatch.setattr(wm, "kernel_basis", refuse)
    monkeypatch.setattr(linalg, "_rref", refuse)
    assert wm.eigen_decomposition() == (6, 4, 3, 3)


def _with_generators(monkeypatch, **changes):
    gens = dict(wm.generators(), **changes)
    monkeypatch.setattr(wm, "generators", lambda: gens)


def test_eigenbasis_mismatch_not_an_eigenvector(monkeypatch, capsys):
    from prymcert.cli import main

    g = wm.generators()
    _with_generators(monkeypatch, b2=g["b2"] + g["a2"])
    with pytest.raises(CheckFailed, match=r"b2 is not a -1-eigenvector"):
        wm.eigen_decomposition()
    monkeypatch.undo()
    _with_generators(monkeypatch, p2=g["p2"] + g["q2"])  # sigma(p2 + q2) = q2 - p2
    with pytest.raises(CheckFailed, match="sigma does not turn p2 into q2 and q2 into -p2"):
        wm.eigen_decomposition()
    assert main(["verify", "eigenspaces"]) == 1
    assert capsys.readouterr().out == \
        "Fail eigenspaces: sigma does not turn p2 into q2 and q2 into -p2\n"


def test_eigenbasis_mismatch_dependent_generators(monkeypatch):
    g = wm.generators()
    _with_generators(monkeypatch, b3=g["b1"] - 2 * g["b4"])  # a -1-eigenvector
    with pytest.raises(CheckFailed, match="named generators for -1 are dependent"):
        wm.eigen_decomposition()
    monkeypatch.undo()
    _with_generators(monkeypatch, p3=g["p1"], q3=g["q1"])  # a rotation pair
    with pytest.raises(CheckFailed,
                       match="named generators for the rotation planes are dependent"):
        wm.eigen_decomposition()


def test_eigenbasis_mismatch_dimension(monkeypatch):
    monkeypatch.setitem(wm._EIGENSPACES, "+1", (1, ("a1", "a2", "a3", "a4", "a5")))
    with pytest.raises(CheckFailed, match=r"eigenspace \+1: dimension 6, expected 5"):
        wm.eigen_decomposition()
    monkeypatch.undo()
    monkeypatch.setattr(wm, "_ROTATION_PAIRS", wm._ROTATION_PAIRS[:2])
    with pytest.raises(CheckFailed, match="^3 rotation planes, expected 2$"):
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
    p1, p2, q1, q2 = g["p1"], g["p2"], g["q1"], g["q2"]
    wrong = (p1 * p2 + q1 * q2) - (p1 * q2 - q1 * p2) - (a1 * a2 - 3 * (a3 * a6))
    assert wrong


def _complex_forms():
    """The +-i-eigenvectors c1..c3 and d1..d3, written out over Q(i)."""
    s, t, x, y = Polynomial.variables(wm.chart_registry(), "s", "t", "x", "y")
    i = IMAG_UNIT
    c = {1: s - i * t - x + i * y,
         2: s * t - i * (t * x) - x * y + i * (y * s),
         3: t * x * y - i * (s * x * y) - s * t * y + i * (s * t * x)}
    d = {1: s + i * t - x - i * y,
         2: s * t + i * (t * x) - x * y - i * (y * s),
         3: t * x * y + i * (s * x * y) - s * t * y - i * (s * t * x)}
    return c, d


def test_complex_forms_are_the_rotation_pairs():
    g = wm.generators()
    c, d = _complex_forms()
    for k in (1, 2, 3):
        assert g[f"p{k}"] - IMAG_UNIT * g[f"q{k}"] == c[k]
        assert g[f"p{k}"] + IMAG_UNIT * g[f"q{k}"] == d[k]


def test_complex_left_sides_equal_the_integer_ones():
    # c_j*d_k = P_jk + i*Q_jk: each c*d identity, with its complex left side
    # times a constant of Q(i) (no division), is one identity over Z
    g = wm.generators()
    c, d = _complex_forms()
    p = {k: g[f"p{k}"] for k in (1, 2, 3)}
    q = {k: g[f"q{k}"] for k in (1, 2, 3)}

    def P(j, k):
        return p[j] * p[k] + q[j] * q[k]

    def Q(j, k):
        return p[j] * q[k] - q[j] * p[k]

    i, half = IMAG_UNIT, Fraction(1, 2)
    right = dict(wm._relation_tables(g)[1])
    right.update({"c1*d3-c3*d1": g["b2"] * g["b4"], "c1*d2+i*c2*d1": g["b1"] * g["b2"],
                  "c2*d3-i*c3*d2": g["b2"] * g["b3"]})
    cases = {  # name: (constant, complex left side, integer left side)
        "c1*d1": (1, c[1] * d[1], P(1, 1)),
        "c3*d3": (1, c[3] * d[3], P(3, 3)),
        "c2*d2": (1, c[2] * d[2], P(2, 2)),
        "c1*d3+c3*d1": (half, c[1] * d[3] + c[3] * d[1], P(1, 3)),
        "c1*d3-c3*d1": (half * i, c[1] * d[3] - c[3] * d[1], -Q(1, 3)),
        "c1*d2-i*c2*d1": (half * (1 + i), c[1] * d[2] - i * (c[2] * d[1]), P(1, 2) - Q(1, 2)),
        "c1*d2+i*c2*d1": (half * (1 + -i), c[1] * d[2] + i * (c[2] * d[1]), P(1, 2) + Q(1, 2)),
        "c2*d3+i*c3*d2": (half * (1 + -i), c[2] * d[3] + i * (c[3] * d[2]), P(2, 3) + Q(2, 3)),
        "c2*d3-i*c3*d2": (-half * (1 + i), c[2] * d[3] - i * (c[3] * d[2]), Q(2, 3) - P(2, 3)),
    }
    assert tuple(cases) == wm.CD_IDENTITY_NAMES
    for name, (constant, complex_side, integer_side) in cases.items():
        assert constant * complex_side == integer_side, name
        assert integer_side == right[name], name


@pytest.mark.parametrize("name, uses", [
    ("p1", "c1*d1, c1*d3+c3*d1, c1*d3-c3*d1, c1*d2-i*c2*d1, c1*d2+i*c2*d1"),
    ("q3", "c3*d3, c1*d3+c3*d1, c1*d3-c3*d1, c2*d3+i*c3*d2, c2*d3-i*c3*d2"),
], ids=["p1", "q3"])
def test_a_changed_rotation_generator_fails_the_identities_that_use_it(name, uses,
                                                                      monkeypatch):
    g = wm.generators()
    mono, _ = g[name].leading()
    changed = g[name] + Polynomial(wm.chart_registry(), {mono: 1})  # coefficient + 1
    _with_generators(monkeypatch, **{name: changed})
    wm.identity_residuals.cache_clear()
    try:
        with pytest.raises(CheckFailed) as err:
            wm.check_identities()
    finally:  # later tests see the true residuals again
        monkeypatch.undo()
        wm.identity_residuals.cache_clear()
    assert str(err.value) == f"nonzero residual in {uses}"


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


COEFFICIENT_DRAWS = {
    "int": lambda rng: rng.randint(-3, 3),
    "Fraction": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    "Q(i)": lambda rng: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                         rng.randint(-2, 2)),
}


@pytest.mark.parametrize("kind", sorted(COEFFICIENT_DRAWS))
def test_restriction_matches_the_substitution(kind):
    rng = random.Random(19)
    draw = COEFFICIENT_DRAWS[kind]
    s, t = Polynomial.variables(wm.diagonal_registry(), "s", "t")
    merged = 0
    for _ in range(200):
        poly = Polynomial(wm.chart_registry(),
                          {tuple(rng.randint(0, 2) for _ in range(4)): draw(rng)
                           for _ in range(rng.randint(0, 12))})
        restricted = wm.restrict_to_diagonal(poly)
        assert restricted == substitute(poly, {"x": s, "y": t})
        merged += restricted.term_count() < poly.term_count()
    assert merged > 50  # terms meet on the diagonal


@pytest.mark.parametrize("registry", [wm.diagonal_registry(), wm.coefficient_registry(),
                                      VariableRegistry(("s", "t", "y", "x"))],
                         ids=["diagonal", "coefficients", "reordered-chart"])
def test_restriction_refuses_another_registry(registry):
    poly = Polynomial.variable(registry, registry.names[0])
    with pytest.raises(ValueError, match=r"is not a polynomial in \('s', 't', 'x', 'y'\)"):
        wm.restrict_to_diagonal(poly)


def test_diagonal_checks_restrict_nothing_per_call(monkeypatch):
    wm.diagonal_generators()  # the one restriction of a1..a6

    def refuse(_poly):
        raise AssertionError("restricted again")

    monkeypatch.setattr(wm, "restrict_to_diagonal", refuse)
    assert wm.verify_diagonal() == (2, 4, 2, 1, 1, 1)
    assert wm.fixed_point_free_check(WITNESS) == wm.CERTIFIED_EMPTY


def test_freeness_takes_no_resultant_per_triple(monkeypatch):
    # the verdict reads det M; the resultants serve verify_diagonal only
    def refuse(*_args):
        raise AssertionError("resultant route taken per triple")

    for name in ("t_resultant", "_univariate_gcd", "_misses_common_zero"):
        monkeypatch.setattr(wm, name, refuse)
    for triple, verdict in ((WITNESS, wm.CERTIFIED_EMPTY),
                            (wm.CoefficientTriple.origin(), wm.CERTIFIED_EMPTY),
                            (ZERO_DET_TRIPLE, wm.MEETS_DIAGONAL),
                            (MEETS_DIAGONAL_TRIPLE, wm.MEETS_DIAGONAL)):
        assert wm.fixed_point_free_check(triple) == verdict


def test_freeness_reads_the_determinant_of_the_same_triple(monkeypatch):
    # determinant_at and fixed_point_free_check share one elimination per
    # triple object, and a new triple object is eliminated afresh
    calls = []
    real = wm.det_rref

    def counted(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(wm, "det_rref", counted)
    triple = wm.CoefficientTriple.from_rationals(WITNESS.values())
    assert wm.determinant_at(triple) == WITNESS_DET
    assert wm.fixed_point_free_check(triple) == wm.CERTIFIED_EMPTY
    assert len(calls) == 1
    again = wm.CoefficientTriple.from_rationals(ZERO_DET_TRIPLE.values())
    assert wm.fixed_point_free_check(again) == wm.MEETS_DIAGONAL
    assert wm.determinant_at(again) == 0 and len(calls) == 2
    assert wm.determinant_at(triple) == WITNESS_DET and len(calls) == 3


def test_diagonal_base_point_free():
    # raises CheckFailed unless the restricted system is base-point-free
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
    with pytest.raises(CheckFailed) as raised:
        wm.eliminate.__wrapped__()
    assert str(raised.value) == f"{label}: remainder a1*a2*a3"


def test_quadric_matrix_rank_at_origin():
    elim = wm.eliminate()
    origin = wm.CoefficientTriple.origin().as_point()
    scalar = ScalarMatrix.from_rows(elim.quadric_matrix.map(lambda e: e.evaluate(origin)))
    assert scalar.rows - len(kernel_basis(scalar.transpose())) == 4


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


def test_determinant_at_builds_no_symbolic_det_m(monkeypatch, capsys):
    from prymcert.cli import main

    wm.eliminate()  # the one elimination; det M at a triple needs nothing more

    def refuse(*_args):
        raise AssertionError("symbolic det M built")

    monkeypatch.setattr(wm, "det_expansion", refuse)
    monkeypatch.setattr(wm, "elimination_determinant", refuse)
    assert wm.determinant_at(WITNESS) == WITNESS_DET
    assert main(["detm", "--at=" + ",".join(map(str, WITNESS.values()))]) == 0
    assert capsys.readouterr().out == f"{WITNESS_DET}\n"


def _det_m_triples():
    rng = random.Random(47)
    integer = [[rng.randint(-10, 10) for _ in range(9)] for _ in range(5)]
    height = [[Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
               for _ in range(9)] for _ in range(3)]
    degenerate = [wm.CoefficientTriple.origin().values(), [1] + [0] * 8,
                  ZERO_DET_TRIPLE.values(), MEETS_DIAGONAL_TRIPLE.values()]
    return [wm.CoefficientTriple.from_rationals(v) for v in integer + height + degenerate]


@pytest.mark.parametrize("triple", _det_m_triples(), ids=(
    [f"integer-{k}" for k in range(5)] + [f"height-{k}" for k in range(3)]
    + ["origin", "A1-one", "zero-det", "meets-diagonal"]))
def test_determinant_at_agrees_with_the_symbolic_det_m(triple):
    value = wm.determinant_at(triple)
    assert type(value) is Fraction
    assert value == wm.elimination_determinant().evaluate(triple.as_point())


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


def _fresh_quadric_kernel(values):
    """The left kernel of the 7x6 relation matrix at a triple, from eliminate()
    evaluated by Polynomial.evaluate, outside the shared per-triple kernel."""
    point = wm.CoefficientTriple.from_rationals(values).as_point()
    rows = wm.eliminate().quadric_matrix.map(lambda e: e.evaluate(point))
    return kernel_basis(ScalarMatrix.from_rows(rows).transpose())


def _assert_fresh_quadric(triple, values):
    kernel = _fresh_quadric_kernel(values)
    assert wm.quadric_relation_kernel_dim(triple) == len(kernel)
    if len(kernel) == 1:
        assert wm.vanishing_quadric(triple) == kernel[0]
    else:
        with pytest.raises(wm.KernelNotUnique):
            wm.vanishing_quadric(triple)


QUADRIC_A = (6, 5, 6, -6, 6, -1, -2, -8, -2)
QUADRIC_B = (Fraction(3, 7), -2, Fraction(5, 9), 1, 0, Fraction(-4, 3), 2, 7, Fraction(1, 2))


def test_quadric_kernel_memo_does_not_cross_triples():
    a, b = (wm.CoefficientTriple.from_rationals(v) for v in (QUADRIC_A, QUADRIC_B))
    assert _fresh_quadric_kernel(QUADRIC_A) != _fresh_quadric_kernel(QUADRIC_B)
    for triple, values in [(a, QUADRIC_A), (b, QUADRIC_B), (a, QUADRIC_A)]:
        _assert_fresh_quadric(triple, values)
    # a triple with equal values is another key; one dropped after its check
    # cannot hand its id and its cached kernel to the next
    for values in [QUADRIC_A, (0,) * 9, QUADRIC_B, QUADRIC_A, (1,) + (0,) * 8]:
        _assert_fresh_quadric(wm.CoefficientTriple.from_rationals(values), values)


@pytest.fixture
def fresh_elimination():
    """Empty the cached elimination and symbolic det M before and after a test."""
    cached = (wm.eliminate, wm.elimination_determinant)
    for function in cached:
        function.cache_clear()
    yield
    for function in cached:
        function.cache_clear()


def test_quadric_kernel_and_plans_follow_a_new_elimination(monkeypatch, fresh_elimination):
    # the same triple object after eliminate.cache_clear(): neither the plans
    # nor the shared kernel may serve the old elimination's values
    triple = wm.CoefficientTriple.from_rationals(QUADRIC_A)
    before = wm.vanishing_quadric(triple)
    det_before = wm.determinant_at(triple)
    real = wm._relation_tables

    def with_doubled_first_rows(a):
        b_rows, cd_rows = real(a)
        (b_name, b_rhs), *b_rest = b_rows
        (cd_name, cd_rhs), *cd_rest = cd_rows
        return [(b_name, 2 * b_rhs), *b_rest], [(cd_name, 2 * cd_rhs), *cd_rest]

    monkeypatch.setattr(wm, "_relation_tables", with_doubled_first_rows)
    wm.eliminate.cache_clear()
    _assert_fresh_quadric(triple, QUADRIC_A)
    assert wm.vanishing_quadric(triple) != before
    assert wm.determinant_at(triple) == 2 * det_before


# -- fixed points and genus ----------------------------------------------------------

def test_fixed_point_free_at_witness():
    assert wm.fixed_point_free_check(WITNESS) == wm.CERTIFIED_EMPTY


def test_fixed_point_free_meets_diagonal_when_diagonal_is_hit():
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
    assert all(sum(map(sum, grid)) == 0 for grid in diagonal_equations(hitting))
    assert wm.fixed_point_free_check(hitting) == wm.MEETS_DIAGONAL


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
