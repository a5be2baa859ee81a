"""witness_sweep: the per-triple witness checks in one warm process.

Set-up builds det M once.  Then each operation takes the next triple of a
seeded stream through determinant_at, quadric_relation_kernel_dim,
vanishing_quadric (when the kernel dimension is 1) and
fixed_point_free_check.  In every block of 20 triples, 15 are integer
triples in [-10, 10]; 4 are rational triples with numerators and
denominators up to 10^6, because the freeness check slows with height;
and 1 is a known degenerate triple (the origin, A1=1, a zero of det M, a
triple whose curve meets the diagonal), which reaches the Fail and
Inconclusive branches the sampler never reaches.
"""

from __future__ import annotations

import time
from fractions import Fraction

import oracle
from common import SplitMix64, child_seconds, peak_rss_mb
from layers import instrument, per_layer_metrics, shape_counts
from loop import COUNTER_PREFIX, closed_loop, end_to_end, mul_probe_ns, tracing_overhead_pct
from spans import OP, Tracer

BLOCK = 20
HEIGHT = 10 ** 6
SETUP_CHILDREN = 2

_SETUP_SNIPPET = (
    "import time\n"
    "from prymcert import weil_model\n"
    "start = time.perf_counter()\n"
    "weil_model.eliminate()\n"
    "weil_model.elimination_determinant()\n"
    "print(time.perf_counter() - start)\n"
)


def triple_stream(seed: int):
    """Endless seeded stream of (kind, nine rationals)."""
    rng = SplitMix64(seed)
    index = 0
    while True:
        if index % BLOCK == 0:
            yield "degenerate", oracle.DEGENERATE[(index // BLOCK) % len(oracle.DEGENERATE)]
        elif index % 5 == 1:
            yield "rational", tuple(Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))
                                    for _ in range(9))
        else:
            yield "integer", tuple(rng.randint(-10, 10) for _ in range(9))
        index += 1


def run(seed: int, seconds: float, traced: bool, outcome):
    from prymcert import weil_model as wm

    tracer = Tracer()
    if traced:
        instrument(tracer, ["witness"])
    start = time.perf_counter()
    elimination = wm.eliminate()
    det = wm.elimination_determinant()
    setup = [time.perf_counter() - start]
    tracer.unpatch()
    outcome.attempt()
    outcome.expect(det.term_count() == oracle.DET_M_TERMS,
                   f"det M has {det.term_count()} terms, expected {oracle.DET_M_TERMS}")
    for _ in range(SETUP_CHILDREN if not traced else 0):
        setup.append(child_seconds(_SETUP_SNIPPET))

    mix = {"integer": 0, "rational": 0, "degenerate": 0}

    def run_op(item, index, is_traced):
        kind, values = item
        mix[kind] += not is_traced
        triple = wm.CoefficientTriple.from_rationals(values)
        if is_traced:
            tracer.op = index
            instrument(tracer, ["witness"])
        try:
            begin = time.perf_counter()
            value = wm.determinant_at(triple)
            kdim = wm.quadric_relation_kernel_dim(triple)
            quadric = wm.vanishing_quadric(triple) if kdim == 1 else None
            verdict = wm.fixed_point_free_check(triple)
            elapsed = time.perf_counter() - begin
        finally:
            tracer.unpatch()
        return (elapsed,), (value, kdim, quadric, verdict)

    def verify(out, item, result) -> bool:
        kind, values = item
        value, kdim, quadric, verdict = result
        point = oracle.point(values)
        rows = oracle.quadric_rows(elimination, point)
        expected = (oracle.det_at(elimination, point), oracle.kernel_dim(rows))
        ok = out.expect((value, kdim) == expected,
                        f"{kind} {values}: (det, kdim) = ({value}, {kdim}), expected {expected}")
        if values in oracle.KNOWN_DET_KDIM:
            ok &= out.expect(expected == oracle.KNOWN_DET_KDIM[values],
                             f"oracle disagrees with the known answer at {values}")
        if kdim == 1:
            ok &= out.expect(quadric is not None and oracle.annihilates(quadric, rows),
                             f"{kind} {values}: returned quadric does not annihilate the rows")
        if values == oracle.MEETS_DIAGONAL:
            ok &= out.expect(verdict != "CertifiedEmpty",
                             f"{values} meets the diagonal but was certified empty")
        return ok

    plain, with_trace, items = closed_loop(triple_stream(seed), run_op, verify, seconds,
                                           outcome, traced, min_traced=COUNTER_PREFIX)
    metrics, info = end_to_end(plain, setup, peak_rss_mb(children=False))
    info["mix"] = mix
    if not traced:
        return metrics, info
    coefficients = [c for _, c in det.terms()]
    pairs = [(c, coefficients[(7 * k + 3) % len(coefficients)])
             for k, c in enumerate(coefficients)]
    extras = {"overhead_pct": tracing_overhead_pct(plain, with_trace),
              "spans_per_op": sum(1 for s in tracer.spans if s[OP] >= 0) / items,
              "real_mul_ns": mul_probe_ns(pairs * 10)}
    trace = tracer.export()
    info["counters"] = shape_counts(trace, COUNTER_PREFIX)
    return per_layer_metrics(trace, items, COUNTER_PREFIX, extras), info
