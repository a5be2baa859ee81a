"""The check of the freeness theorem (prymcert.freeness, verify freeness).

The theorem says that the curve of a rational triple meets the diagonal
exactly when det M vanishes there.  Its check recomputes three chart
identities, a Jacobian rank and an irreducibility certificate (a line
and a prime); each test below breaks one of them and expects one Fail
line.  The finite-field routines are checked against brute force.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from prymcert import CheckFailed, freeness
from prymcert import weil_model as wm
from prymcert.cli import main
from prymcert.multipoly import Polynomial
from test_degenerate import assert_one_fail_line


def test_verify_freeness_passes(capsys):
    assert main(["verify", "freeness"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Pass chart identity a1", "Pass chart identity a2", "Pass chart identity a3",
        "Pass Jacobian rank 8",
        f"Pass det M on the recorded line: degree 9, irreducible modulo {freeness.PRIME}",
        "Pass det M = 0 exactly where the curve meets the diagonal"]
    assert main(["verify", "freeness", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"freeness": {
        "chart_identities": ["a1", "a2", "a3"], "jacobian_rank": 8,
        "line": [list(freeness.LINE[0]), list(freeness.LINE[1])], "line_degree": 9,
        "prime": freeness.PRIME}}


@pytest.mark.parametrize("which", ["leading", "constant", "middle"])
def test_a_changed_det_m_coefficient_fails(which, capsys, monkeypatch):
    det = wm.elimination_determinant()
    terms = det.terms()
    mono = {"leading": terms[0][0], "constant": (0,) * 9,
            "middle": terms[len(terms) // 2][0]}[which]
    changed = det + Polynomial(det.registry, {mono: 1})
    monkeypatch.setattr(freeness, "elimination_determinant", lambda: changed)
    # the check fails, whichever of its parts notices first
    assert assert_one_fail_line(["verify", "freeness"], "freeness", capsys).startswith(
        "Fail freeness: ")
    for chart in (1, 2, 3):
        assert freeness.chart_identity(changed, chart)


def test_a_prime_modulo_which_the_restriction_is_reducible_fails(capsys, monkeypatch):
    restriction = freeness.line_restriction(wm.elimination_determinant(), freeness.LINE)
    prime = next(p for p in (2, 3, 5, 7, 11, 13, 17)
                 if restriction[-1] % p and not freeness.irreducible_mod(restriction, p))
    monkeypatch.setattr(freeness, "PRIME", prime)
    assert assert_one_fail_line(["verify", "freeness"], "freeness", capsys) == (
        f"Fail freeness: det M on the recorded line is reducible modulo {prime}")


@pytest.mark.parametrize("prime", [21, 1], ids=["composite", "one"])
def test_a_recorded_number_that_is_not_a_prime_fails(prime, capsys, monkeypatch):
    monkeypatch.setattr(freeness, "PRIME", prime)
    assert assert_one_fail_line(["verify", "freeness"], "freeness", capsys) == (
        f"Fail freeness: {prime} is not a prime that keeps the degree of det M "
        "on the recorded line")


def test_a_prime_dividing_the_leading_coefficient_fails(capsys, monkeypatch):
    restriction = freeness.line_restriction(wm.elimination_determinant(), freeness.LINE)
    prime = next(p for p in range(2, 10 ** 4) if freeness._is_prime(p)
                 and restriction[-1] % p == 0)
    monkeypatch.setattr(freeness, "PRIME", prime)
    assert assert_one_fail_line(["verify", "freeness"], "freeness", capsys) == (
        f"Fail freeness: {prime} is not a prime that keeps the degree of det M "
        "on the recorded line")


def test_a_line_that_drops_the_degree_fails(capsys, monkeypatch):
    # moving along the first row only, det M has its degree in that row, 3
    start, _ = freeness.LINE
    monkeypatch.setattr(freeness, "LINE", (start, (1,) + (0,) * 8))
    assert assert_one_fail_line(["verify", "freeness"], "freeness", capsys) == (
        "Fail freeness: det M on the recorded line has degree 3, expected its total degree 9")


def test_a_line_with_fractional_entries_fails(capsys, monkeypatch):
    start, direction = freeness.LINE
    monkeypatch.setattr(freeness, "LINE", (start, tuple(Fraction(q, 7) for q in direction)))
    assert assert_one_fail_line(["verify", "freeness"], "freeness", capsys) == (
        "Fail freeness: det M on the recorded line has a non-integer coefficient")


def test_a_point_where_the_chart_map_folds_fails(capsys, monkeypatch):
    # the chart map is symmetric in s and t, so at s = t its s- and
    # t-columns agree and the rank is at most 7
    monkeypatch.setattr(freeness, "RANK_POINT", (1, 1) + freeness.RANK_POINT[2:])
    assert assert_one_fail_line(["verify", "freeness"], "freeness", capsys) == (
        "Fail freeness: Jacobian of the chart-a3 map has rank 7 at the recorded point, "
        "expected 8")


def test_a_point_off_the_chart_fails(monkeypatch):
    # alpha_3 = 2*s*t*(s + t) vanishes at s = 0
    monkeypatch.setattr(freeness, "RANK_POINT", (0,) + freeness.RANK_POINT[1:])
    with pytest.raises(CheckFailed, match="^the recorded point is off chart a3$"):
        freeness.check_freeness()


def test_the_line_restriction_matches_direct_evaluation():
    det = wm.elimination_determinant()
    rng = random.Random(3)
    for _ in range(5):
        line = tuple(tuple(rng.randint(-5, 5) for _ in range(9)) for _ in range(2))
        coeffs = freeness.line_restriction(det, line)
        for x in (-3, 11, 40):
            point = {name: p + x * q for name, p, q in zip(wm.COEFF_VARS, *line)}
            assert sum(c * x ** k for k, c in enumerate(coeffs)) == det.evaluate(point)


def _divides(g, f, p):
    """Long division over F_p by a monic g (lowest coefficient first)."""
    r = list(f)
    while len(r) >= len(g):
        top = r.pop()
        for k in range(len(g) - 1):
            r[len(r) - len(g) + 1 + k] -= top * g[k]
    return all(c % p == 0 for c in r)


def _has_monic_factor(f, p):
    """Brute force: some monic polynomial of degree 1..deg f // 2 divides f over F_p."""
    n = len(f) - 1
    return any(_divides(list(low) + [1], f, p)
               for d in range(1, n // 2 + 1) for low in product(range(p), repeat=d))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rabin_agrees_with_brute_force(p):
    rng = random.Random(p)
    for _ in range(150):
        f = [rng.randrange(p) for _ in range(rng.randint(2, 6))] + [rng.randrange(1, p)]
        assert freeness.irreducible_mod(f, p) == (not _has_monic_factor(f, p)), f
