"""The parser's Gaussian-integer lowering against the Polynomial lowering,
the invariants of GaussianForm, and the screen of the size bounds."""

import random
from fractions import Fraction
from math import gcd

import pytest

from prymcert import cli
from prymcert.cli import MAX_POWER_SIZE, parse_poly, power_size_bound, product_size_bound
from prymcert.exactnum import GaussianRational
from prymcert.multipoly import GaussianForm, Polynomial, VariableRegistry

from parse_reference import reference_parse

REG = VariableRegistry(("s", "t", "x", "y"))


def _check_invariants(form):
    assert isinstance(form, GaussianForm) and form.registry == REG
    assert type(form.scale) is int and form.scale > 0
    assert all(type(re) is int and type(im) is int and (re or im)
               for re, im in form.terms.values())
    assert gcd(form.scale, *[p for pair in form.terms.values() for p in pair]) == 1
    return form


@pytest.fixture
def checked(monkeypatch):
    """Check the invariants of every form an operation or a grammar rule returns;
    yields the list of checked forms."""
    seen = []

    def wrap(function):
        def run(*args):
            seen.append(_check_invariants(function(*args)))
            return seen[-1]
        return run

    for name in ("__mul__", "__pow__"):
        monkeypatch.setattr(GaussianForm, name, wrap(getattr(GaussianForm, name)))
    monkeypatch.setattr(GaussianForm, "sum", classmethod(wrap(GaussianForm.sum.__func__)))
    for name in ("expr", "term", "factor", "base"):
        monkeypatch.setattr(cli._Parser, name, wrap(getattr(cli._Parser, name)))
    yield seen


def _random_text(rng, depth=0):
    def atom():
        return rng.choice([
            str(rng.randint(0, 12)), str(rng.randint(10 ** 8, 10 ** 9)),
            f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}", "i",
            f"({rng.randint(-5, 5)}/{rng.randint(1, 6)} + "
            f"{rng.randint(-5, 5)}/{rng.randint(1, 6)}*i)",
            *"stxy"])

    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            if depth < 2 and rng.random() < 0.3:  # a group: far from any size bound
                factors.append(f"({_random_text(rng, depth + 1)})^{rng.randint(1, 2)}")
            else:
                factors.append(atom() + rng.choice(["", "", f"^{rng.randint(0, 3)}"]))
        terms.append("*".join(factors))
    return terms[0] + "".join(rng.choice([" + ", " - "]) + term for term in terms[1:])


def _cancelling_texts(rng):
    """Texts whose value is 0, an int, a non-integer rational, or real
    while their factors are not."""
    text = _random_text(rng)
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    b = Fraction(rng.randint(1, 9), rng.randint(1, 7))
    return [f"({text}) - ({text})",
            f"({text}) + 5 - ({text})",
            f"({text}) - ({text}) + 3/4",
            f"({a} + {b}*i)*({a} - {b}*i)",
            f"(s + {b}*i)*(s - {b}*i) - s^2",
            f"(1 + i)^4 + ({text})*i - i*({text})",
            f"(s + {b}*i) + (t - {b}*i)",
            f"i*i*s - 2*({text}) + ({text})*2"]


def _signature(poly):
    return poly.render(), [(m, type(c), c) for m, c in poly.terms()]


def test_parse_matches_the_polynomial_lowering(checked):
    rng = random.Random(29)
    texts = [_random_text(rng) for _ in range(150)]
    for _ in range(12):
        texts += _cancelling_texts(rng)
    for text in texts:
        assert _signature(parse_poly(text, REG)) == _signature(reference_parse(text, REG)), text
    assert len(checked) > 10 * len(texts)
    assert all(parse_poly(text, REG).render() == "0" for text in texts[150::8])


@pytest.mark.parametrize("text, value", [
    ("(3/2 + 1/2*i)*(3/2 - 1/2*i)", Fraction(5, 2)), ("(1 + i)^4", -4),
    ("(s + i)*(s - i) - s^2", 1), ("i*i + 1", 0), ("(1/3 + i) - i", Fraction(1, 3)),
    ("6/4*s - 1/2*s - s", 0), ("0/7 + 0", 0), ("(2*i)^0", 1),
])
def test_parse_cancels_to_the_one_form(checked, text, value):
    poly = parse_poly(text, REG)
    assert poly == Polynomial.constant(REG, value)
    assert [type(c) for _, c in poly.terms()] == ([type(value)] if value else [])
    assert _signature(poly) == _signature(reference_parse(text, REG))


def _random_form(rng):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = tuple(rng.randint(0, 3) for _ in range(4))
        sizes = [10 ** rng.randint(0, 12) for _ in range(4)]
        parts = [Fraction(rng.randint(-size, size), rng.randint(1, bound))
                 for size, bound in zip(sizes[:2], sizes[2:])]
        terms[mono] = GaussianRational(*parts) if rng.random() < 0.7 else parts[0]
    return GaussianForm.of(Polynomial(REG, terms))


def test_the_screen_bounds_the_exact_bits(monkeypatch):
    rng = random.Random(31)
    forms = [_random_form(rng) for _ in range(200)]
    forms += [left * right for left, right in zip(forms, forms[1:40])]
    forms += [GaussianForm.sum([(1, left), (-1, right)])
              for left, right in zip(forms, forms[7:60])]
    for form in forms:
        _check_invariants(form)
        assert cli._screen_bits(form) >= cli._exact_bits(form)
    # the screen is tight when both parts have the scale as their denominator
    for text in ("1/7 + 1/7*i", "1/6*s - 5/6*i*s + 1/2*t"):
        form = GaussianForm.of(parse_poly(text, REG))
        assert cli._screen_bits(form) == cli._exact_bits(form), text
    pairs = list(zip(forms, forms[3:]))
    screened = [(product_size_bound(a, b), power_size_bound(a, 3)) for a, b in pairs]
    monkeypatch.setattr(cli, "_screen_bits", cli._exact_bits)
    exact = [(product_size_bound(a, b), power_size_bound(a, 3)) for a, b in pairs]
    assert all(s >= e for pair in zip(screened, exact) for s, e in zip(*pair))


def test_a_screen_past_the_limit_falls_back_to_the_exact_bits(monkeypatch, capsys):
    # the form of the base has scale 3^630 and the part 10^300 * 3^630, so its
    # screen reads 4 times the bits of its coefficients 10^300 and 1/3^630
    big = 10 ** 300
    base = f"{big}*s + 1/{3 ** 630}"
    form = GaussianForm.of(parse_poly(base, REG))
    exact = power_size_bound(form, 20)
    calls = []

    def exact_bits(form):
        calls.append(form)
        return real_exact_bits(form)

    real_exact_bits = cli._exact_bits
    monkeypatch.setattr(cli, "_exact_bits", exact_bits)
    poly = parse_poly(f"({base})^20", REG)
    assert calls
    assert poly.coefficient((20, 0, 0, 0)) == big ** 20
    assert poly.coefficient((0, 0, 0, 0)) == Fraction(1, 3 ** 12600)
    # with the screen's bits in place of the exact ones, the power is refused
    monkeypatch.setattr(cli, "_exact_bits", cli._screen_bits)
    assert power_size_bound(form, 20) > MAX_POWER_SIZE >= exact
    assert cli.main(["parse", "--expr", f"({base})^20"]) == 2
    assert capsys.readouterr().err.startswith("error: power too large to compute")
