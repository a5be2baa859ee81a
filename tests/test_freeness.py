"""The integer gcd, the resultant oracle, and the freeness verdict.

_univariate_gcd runs a primitive remainder sequence over Z, and the
resultant oracle (resultant_oracle, the route fixed_point_free_check took
before it read det M) works on equations scaled to integer grids with the
Bezout form of the t-resultant.  The references below are the plain
routes: Euclid's algorithm over Fraction, and the Sylvester determinant
of the unscaled equations (sylvester_reference).  Where the oracle
certifies a curve empty, fixed_point_free_check must too.
"""

import random
from fractions import Fraction

import pytest

from prymcert import weil_model as wm
from resultant_oracle import INCONCLUSIVE, diagonal_equations, resultant_verdict
from sylvester_reference import sylvester_resultant
from test_degenerate import BASE_POINT_GRIDS, DET_ZERO, MEETING

HEIGHT = 10 ** 6

# the degenerate triples of the benchmark oracle, by value
ORIGIN = (0,) * 9
A1_ONE = (1,) + (0,) * 8
ZERO_DET = (1, 0, 0, 0, 0, 0, Fraction(1, 4), 0, 0)
MEETS_DIAGONAL = (Fraction(1, 2), 0, 0, Fraction(1, 4), 0, 0, Fraction(1, 4), 0, 0)


def reference_mod(a, b):
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and r:
        if not r[-1]:
            r.pop()
            continue
        q = Fraction(r[-1]) / lead
        shift = len(r) - 1 - db
        for k in range(db + 1):
            r[shift + k] = r[shift + k] - q * b[k]
        r.pop()
    while r and not r[-1]:
        r.pop()
    return r


def degree(coeffs):
    return max((k for k, c in enumerate(coeffs) if c), default=-1)


def reference_gcd(a, b):
    """Monic gcd by Euclid's algorithm over Q."""
    a = [Fraction(c) for c in a[: degree(a) + 1]]
    b = [Fraction(c) for c in b[: degree(b) + 1]]
    while b:
        a, b = b, reference_mod(a, b)
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def assert_same_list(got, expected):
    assert got == expected, (got, expected)
    for g, e in zip(got, expected):
        assert type(g) is (int if e.denominator == 1 else Fraction), repr(g)


def random_list(rng, length):
    return [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(length)]


def multiply(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_gcd_of_random_lists():
    rng = random.Random(3)
    for _ in range(200):
        a = random_list(rng, rng.randint(1, 10))
        b = random_list(rng, rng.randint(1, 10))
        assert_same_list(wm._univariate_gcd(a, b), reference_gcd(a, b))


def test_gcd_of_pairs_with_a_shared_factor():
    rng = random.Random(4)
    for _ in range(100):
        shared = random_list(rng, rng.randint(2, 4))
        if not shared[-1]:
            shared[-1] = Fraction(1, 7)
        a = multiply(shared, random_list(rng, rng.randint(1, 6)))
        b = multiply(shared, random_list(rng, rng.randint(1, 6)))
        expected = reference_gcd(a, b)
        assert degree(expected) >= degree(shared)
        assert_same_list(wm._univariate_gcd(a, b), expected)


@pytest.mark.parametrize("a, b", [
    ([], []),
    ([0, 0, 0], [0]),
    ([], [Fraction(3, 4), 2]),
    ([0, 0], [Fraction(-6, 5), Fraction(2, 5), 0, 0]),
    ([5], [7]),
    ([Fraction(1, 3)], [1, 2, 3]),
    ([0, 0, 0, 4, 0, 0], [1, 0, 0, 0]),
    ([2, -3, 1, 0, 0], [Fraction(-1, 2), Fraction(1, 2), 0]),
    ([-1, 0, 1, 0], [1, 1, 0, 0, 0, 0]),
])
def test_gcd_edge_cases(a, b):
    assert_same_list(wm._univariate_gcd(a, b), reference_gcd(a, b))
    assert_same_list(wm._univariate_gcd(b, a), reference_gcd(b, a))


def reference_equations(triple):
    """The unscaled equations a_k - (u1*a1 + u2*a2 + u3*a3)."""
    gens = wm.generators()
    return [gens[target] - (u1 * gens["a1"] + u2 * gens["a2"] + u3 * gens["a3"])
            for target, (u1, u2, u3) in zip(("a4", "a5", "a6"), (triple.a, triple.b, triple.c))]


def reference_verdict(triple):
    restricted = [wm.restrict_to_diagonal(eq) for eq in reference_equations(triple)]
    if any(not g for g in restricted):
        return INCONCLUSIVE
    lists = []
    for other in restricted[1:]:
        r = sylvester_resultant(restricted[0], other, "t", 2, 2)
        if not r:
            return INCONCLUSIVE
        lists.append([r.coefficient((j, 0)) for j in range(9)])
    if all(degree(c) < 8 for c in lists):
        return INCONCLUSIVE  # common root at infinity
    if degree(reference_gcd(*lists)) != 0:
        return INCONCLUSIVE
    return wm.CERTIFIED_EMPTY


def rational_triples(count, seed):
    rng = random.Random(seed)
    return [wm.CoefficientTriple.from_rationals(
        [Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT)) for _ in range(9)])
        for _ in range(count)]


def test_freeness_verdict_at_rational_triples():
    for triple in rational_triples(50, seed=9):
        assert resultant_verdict(triple) == reference_verdict(triple)


@pytest.mark.parametrize("values", [ORIGIN, A1_ONE, ZERO_DET, MEETS_DIAGONAL],
                         ids=["origin", "a1-one", "zero-det", "meets-diagonal"])
def test_freeness_verdict_at_degenerate_triples(values):
    triple = wm.CoefficientTriple.from_rationals(values)
    assert resultant_verdict(triple) == reference_verdict(triple)


CONSISTENCY = {**{f"height-{k}": triple for k, triple in enumerate(rational_triples(50, seed=9))},
               **{name: wm.CoefficientTriple.from_rationals(values) for name, values in (
                   ("origin", ORIGIN), ("a1-one", A1_ONE), ("zero-det", ZERO_DET),
                   ("meets-diagonal", MEETS_DIAGONAL))}}


def test_oracle_certified_empty_implies_certified_empty():
    certified = 0
    for name, triple in CONSISTENCY.items():
        verdict = wm.fixed_point_free_check(triple)
        assert verdict == (wm.CERTIFIED_EMPTY if wm.determinant_at(triple)
                           else wm.MEETS_DIAGONAL), name
        if resultant_verdict(triple) == wm.CERTIFIED_EMPTY:
            certified += 1
            assert verdict == wm.CERTIFIED_EMPTY, name
    assert certified == 52  # all but the zero of det M and the meeting triple


def test_triple_meeting_the_diagonal_meets_the_diagonal():
    triple = wm.CoefficientTriple.from_rationals(MEETS_DIAGONAL)
    assert wm.fixed_point_free_check(triple) == wm.MEETS_DIAGONAL


def test_diagonal_resultants_match_the_oracle():
    forms = list(wm.diagonal_generators().values())
    grids = list(wm.diagonal_grids().values())
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            r = sylvester_resultant(forms[i], forms[j], "t", 2, 2)
            assert wm.t_resultant(grids[i], grids[j]) == [r.coefficient((k, 0))
                                                          for k in range(9)]


BUILT = {**{f"meets-{name}": triple for name, triple in MEETING.items()},
         **{f"det-zero-{name}": triple for name, triple in DET_ZERO.items()},
         **{name: wm.CoefficientTriple.from_rationals(values) for name, values in (
             ("origin", ORIGIN), ("a1-one", A1_ONE), ("zero-det", ZERO_DET),
             ("meets-diagonal", MEETS_DIAGONAL))}}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_common_zero_routine_at_built_triples(name):
    triple = BUILT[name]
    certified = wm._misses_common_zero(diagonal_equations(triple), ((0, 1), (0, 2)))
    assert certified == (reference_verdict(triple) == wm.CERTIFIED_EMPTY)


def test_common_zero_routine_on_built_grids():
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    assert wm._misses_common_zero(list(wm.diagonal_grids().values()), pairs)
    for grids in BASE_POINT_GRIDS.values():
        assert not wm._misses_common_zero(list(grids.values()), pairs)
    # a zero form leaves one nonzero resultant, a degree-8 form with a root
    f, g = wm.diagonal_grids()["a4"], wm.diagonal_grids()["a5"]
    zero = [[0] * 3 for _ in range(3)]
    assert any(wm.t_resultant(f, g))
    assert wm._misses_common_zero([f, g], [(0, 1)]) is False
    assert wm._misses_common_zero([f, zero, g], [(0, 1), (0, 2)]) is False
    assert wm._misses_common_zero([f, g], []) is False
