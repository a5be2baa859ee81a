"""qi_algebra: Gaussian-rational polynomial algebra through the expression parser.

Each operation is one cli.parse_poly call over s, t, x, y on the text
(E) - (E'), where E is a product of powers of linear and quadratic forms
with Gaussian-rational coefficients (nonzero imaginary parts) and one
rotation-invariant factor a1..a5.  E' is E with its factors reordered, or
with the invariant factor written in the rotated variables
s->t, t->x, x->y, y->s.  Either way the known answer is the zero
polynomial, and the program has to do the whole Q(i) product to find it.
"""

from __future__ import annotations

import time
from fractions import Fraction

from common import SplitMix64, child_seconds, peak_rss_mb
from layers import fraction_parts, instrument, per_layer_metrics
from loop import COUNTER_PREFIX, closed_loop, end_to_end, mul_probe_ns, tracing_overhead_pct
from spans import OP, Tracer

VARIABLES = ("s", "t", "x", "y")
INVARIANTS = (
    "s + t + x + y",
    "s*t + t*x + x*y + y*s",
    "t*x*y + s*x*y + s*t*y + s*t*x",
    "s*x + t*y",
    "s*t*x*y",
)
_ROTATE = str.maketrans({"s": "t", "t": "x", "x": "y", "y": "s"})
SETUP_CHILDREN = 7

_IMPORT_SNIPPET = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import prymcert.cli\n"
    "print(time.perf_counter() - start)\n"
)


def _rational(rng: SplitMix64, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if value or not nonzero:
            return value


def _coefficient(rng: SplitMix64) -> str:
    re, im = _rational(rng), _rational(rng, nonzero=True)
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}*i)"


def _linear(rng: SplitMix64) -> str:
    terms = [f"{_coefficient(rng)}*{v}" for v in VARIABLES if rng.randint(0, 3)]
    return "(" + " + ".join(terms + [_coefficient(rng)]) + ")"


def _quadratic(rng: SplitMix64) -> str:
    terms = [f"{_coefficient(rng)}*{rng.choice(VARIABLES)}*{rng.choice(VARIABLES)}"
             for _ in range(rng.randint(2, 4))]
    return "(" + " + ".join(terms + [_coefficient(rng)]) + ")"


def expression_stream(seed: int):
    """Endless seeded stream of expression texts whose value is 0."""
    rng = SplitMix64(seed)
    while True:
        factors = [_linear(rng), _quadratic(rng) + "^2", _linear(rng)]
        invariant = rng.choice(INVARIANTS)
        spot = rng.randint(0, len(factors))
        left = factors[:spot] + [f"({invariant})"] + factors[spot:]
        if rng.randint(0, 1):
            right = factors[::-1] + [f"({invariant})"]
        else:
            right = factors[:spot] + [f"({invariant.translate(_ROTATE)})"] + factors[spot:]
        yield f"({' * '.join(left)}) - ({' * '.join(right)})"


def run(seed: int, seconds: float, traced: bool, outcome):
    from prymcert import cli
    from prymcert.multipoly import VariableRegistry

    setup = [child_seconds(_IMPORT_SNIPPET) for _ in range(SETUP_CHILDREN if not traced else 1)]
    registry = VariableRegistry(VARIABLES)
    tracer = Tracer()

    def run_op(text, index, is_traced):
        if is_traced:
            tracer.op = index
            instrument(tracer, ["algebra"])
        try:
            begin = time.perf_counter()
            poly = cli.parse_poly(text, registry)
            elapsed = time.perf_counter() - begin
        finally:
            tracer.unpatch()
        return (elapsed,), poly

    def verify(out, text, poly) -> bool:
        rendered = poly.render()
        return out.expect(rendered == "0", f"{text!r} rendered {rendered[:80]!r}, expected '0'")

    plain, with_trace, items = closed_loop(expression_stream(seed), run_op, verify, seconds,
                                           outcome, traced, min_traced=COUNTER_PREFIX)
    metrics, info = end_to_end(plain, setup, peak_rss_mb(children=False))
    if not traced:
        return metrics, info
    coefficients = []
    for text, _ in zip(expression_stream(seed), range(4)):
        product = text[1:text.index(") - (")]
        coefficients += [c for _, c in cli.parse_poly(product, registry).terms()
                         if any(fraction_parts(c)[1:])]
    pairs = [(c, coefficients[(7 * k + 3) % len(coefficients)])
             for k, c in enumerate(coefficients)]
    extras = {"overhead_pct": tracing_overhead_pct(plain, with_trace),
              "spans_per_op": sum(1 for s in tracer.spans if s[OP] >= 0) / items,
              "qi_mul_ns": mul_probe_ns(pairs[:4000])}
    return per_layer_metrics(tracer.export(), items, COUNTER_PREFIX, extras), info
