"""Where a traced run wraps prymcert's public functions, and the per-layer
metrics computed from the spans and counters it records.

The layers are the six modules under src/prymcert.  A span is named
after the layer whose function it wraps.  Functions are patched in every
namespace that calls them (for example certify imports determinant_at by
name), so the nesting seen by the tracer is the real call tree.  A name
that a later version of the program no longer has is skipped, and its
metric reads 0.
"""

from __future__ import annotations

from fractions import Fraction

from spans import outermost_totals, self_times_by_layer, totals_under

_SCALE = {"s": 1.0, "ms": 1e3, "ns": 1e9}


def shape_of(matrix, *_rest) -> str:
    return f"{getattr(matrix, 'rows', '?')}x{getattr(matrix, 'cols', '?')}"


def fraction_parts(value) -> "tuple[Fraction, ...]":
    """Rational components of a coefficient: (re, im) of a Gaussian rational, else itself."""
    if hasattr(value, "re"):
        return Fraction(value.re), Fraction(value.im)
    return (Fraction(value),)


def coefficient_bits(poly) -> int:
    """Largest bit length of any numerator or denominator among the coefficients."""
    return max((max(p.numerator.bit_length(), p.denominator.bit_length())
                for _, c in poly.terms() for p in fraction_parts(c)), default=0)


def _observe_det(tracer, result, _args) -> None:
    tracer.peak("multipoly.det_m_terms", result.term_count())


def _observe_resultant(tracer, result, _args) -> None:
    tracer.peak("multipoly.resultant_coeff_bits_max", coefficient_bits(result))
    tracer.peak("multipoly.resultant_degree_max", result.total_degree())


def _observe_shape(kind: str):
    def observe(tracer, _result, args) -> None:
        tracer.add(f"linalg.{kind}_{shape_of(args[0])}")
    return observe


def instrument(tracer, groups) -> None:
    """Patch the functions of the named groups: 'pipeline', 'witness', 'algebra'."""
    from prymcert import certify, cli, linalg, multipoly, weil_model

    poly = multipoly.Polynomial
    det_options = {"tag_of": shape_of}
    shared = [
        (weil_model, "eliminate", "weil_model.eliminate", {}),
        (weil_model, "elimination_determinant", "weil_model.elimination_determinant",
         {"observe": _observe_det}),
        (weil_model, "det_bareiss", "linalg.det_bareiss", det_options),
        (weil_model, "det_expansion", "linalg.det_expansion", det_options),
        (linalg, "det_bareiss", "linalg.det_bareiss", det_options),
    ]
    witness = [
        (weil_model, "determinant_at", "weil_model.determinant_at", {}),
        (weil_model, "quadric_relation_kernel_dim", "weil_model.quadric_relation_kernel_dim", {}),
        (weil_model, "vanishing_quadric", "weil_model.vanishing_quadric", {}),
        (weil_model, "fixed_point_free_check", "weil_model.fixed_point_free_check", {}),
        (weil_model, "rank", "linalg.rank",
         {"tag_of": shape_of, "observe": _observe_shape("rank")}),
        (weil_model, "kernel_basis", "linalg.kernel_basis",
         {"tag_of": shape_of, "observe": _observe_shape("kernel_basis")}),
        (weil_model, "sylvester_resultant", "multipoly.sylvester_resultant",
         {"observe": _observe_resultant}),
        (poly, "evaluate", "multipoly.evaluate", {}),
    ]
    pipeline = [
        (certify, name, f"weil_model.{name}", {})
        for name in ("check_identities", "eigen_decomposition", "verify_diagonal",
                     "genus_check", "determinant_at", "quadric_relation_kernel_dim",
                     "fixed_point_free_check")
    ] + [
        (certify, "elimination_determinant", "weil_model.elimination_determinant",
         {"observe": _observe_det}),
        (certify.SeededSampler, "next_triple", "certify.next_triple",
         {"observe": lambda tracer, _r, _a: tracer.add("certify.witness_attempts")}),
        (certify.SeededSampler, "next_uint64", "certify.next_uint64",
         {"observe": lambda tracer, _r, _a: tracer.add("certify.sampler_draws")}),
    ]
    algebra = [
        (cli, "parse_poly", "cli.parse_poly", {}),
        (cli, "parse_expression", "cli.parse_expression", {}),
        (cli, "lower", "cli.lower", {}),
        (poly, "__mul__", "multipoly.mul", {}),
        (poly, "__pow__", "multipoly.pow", {}),
    ]
    chosen = {"pipeline": shared + witness + pipeline,
              "witness": shared + witness,
              "algebra": algebra}
    seen = set()
    for group in groups:
        for owner, attr, name, options in chosen[group]:
            if (id(owner), attr) not in seen:
                seen.add((id(owner), attr))
                tracer.patch(owner, attr, name, **options)


# name, unit, how: ("time", span, tag) | ("under", span, parent) | ("self", layer)
#                  | ("count", counter, "sum" or "max") | ("extra", key)
PER_LAYER = [
    ("cli.import_s", "s", ("time", "cli.import", None)),
    ("cli.certify_process_s", "s", ("extra", "certify_process_s")),
    ("cli.recheck_process_s", "s", ("extra", "recheck_process_s")),
    ("cli.parse_lower_ms", "ms", ("time", "cli.parse_poly", None)),
    ("cli.parse_ms", "ms", ("time", "cli.parse_expression", None)),
    ("cli.self_ms", "ms", ("self", "cli")),
    ("certify.run_pipeline_s", "s", ("time", "certify.run_pipeline", None)),
    ("certify.verify_certificate_s", "s", ("time", "certify.verify_certificate", None)),
    ("certify.from_json_ms", "ms", ("time", "certify.from_json", None)),
    ("certify.to_json_ms", "ms", ("time", "certify.to_json", None)),
    ("certify.witness_attempts", "count", ("count", "certify.witness_attempts", "sum")),
    ("certify.sampler_draws", "count", ("count", "certify.sampler_draws", "sum")),
    ("certify.self_ms", "ms", ("self", "certify")),
    ("weil_model.identities_s", "s", ("time", "weil_model.check_identities", None)),
    ("weil_model.eigenspaces_s", "s", ("time", "weil_model.eigen_decomposition", None)),
    ("weil_model.diagonal_s", "s", ("time", "weil_model.verify_diagonal", None)),
    ("weil_model.genus_s", "s", ("time", "weil_model.genus_check", None)),
    ("weil_model.eliminate_s", "s", ("time", "weil_model.eliminate", None)),
    ("weil_model.det_symbolic_s", "s", ("time", "weil_model.elimination_determinant", None)),
    ("weil_model.det_at_ms", "ms", ("time", "weil_model.determinant_at", None)),
    ("weil_model.quadric_kdim_ms", "ms",
     ("time", "weil_model.quadric_relation_kernel_dim", None)),
    ("weil_model.vanishing_quadric_ms", "ms", ("time", "weil_model.vanishing_quadric", None)),
    ("weil_model.fpf_ms", "ms", ("time", "weil_model.fixed_point_free_check", None)),
    ("weil_model.self_ms", "ms", ("self", "weil_model")),
    ("linalg.det_bareiss_6x6_s", "s", ("time", "linalg.det_bareiss", "6x6")),
    ("linalg.det_expansion_9x9_s", "s", ("time", "linalg.det_expansion", "9x9")),
    ("linalg.det_bareiss_4x4_ms", "ms", ("time", "linalg.det_bareiss", "4x4")),
    ("linalg.rank_7x6_ms", "ms", ("time", "linalg.rank", "7x6")),
    ("linalg.kernel_basis_6x7_ms", "ms", ("time", "linalg.kernel_basis", "6x7")),
    ("linalg.self_ms", "ms", ("self", "linalg")),
    ("multipoly.evaluate_det_m_ms", "ms",
     ("under", "multipoly.evaluate", "weil_model.determinant_at")),
    ("multipoly.sylvester_resultant_ms", "ms", ("time", "multipoly.sylvester_resultant", None)),
    ("multipoly.resultant_coeff_bits_max", "count",
     ("count", "multipoly.resultant_coeff_bits_max", "max")),
    ("multipoly.resultant_degree_max", "count",
     ("count", "multipoly.resultant_degree_max", "max")),
    ("multipoly.det_m_terms", "count", ("count", "multipoly.det_m_terms", "max")),
    ("multipoly.mul_ms", "ms", ("time", "multipoly.mul", None)),
    ("multipoly.self_ms", "ms", ("self", "multipoly")),
    ("exactnum.qi_mul_ns", "ns", ("extra", "qi_mul_ns")),
    ("exactnum.real_mul_ns", "ns", ("extra", "real_mul_ns")),
    ("trace.overhead_pct", "%", ("extra", "overhead_pct")),
    ("trace.spans_per_op", "count", ("extra", "spans_per_op")),
]


def per_layer_metrics(trace: dict, n_ops: int, prefix: int, extras: dict) -> dict:
    """Every PER_LAYER metric, 0 where the workload never reaches that code.

    A time is the stage's set-up time (operation -1) plus its time per
    traced operation, over operations 0..n_ops-1; self times are per
    operation.
    Counts come from set-up plus the first `prefix` operations, so they
    repeat exactly for a given seed.
    """
    spans = trace["spans"]
    ops = range(n_ops)
    in_ops = outermost_totals(spans, ops)
    in_setup = outermost_totals(spans, range(-1, 0))
    self_ms = {layer: 1e3 * t / n_ops for layer, t in self_times_by_layer(spans, ops).items()}
    counted: dict = {}
    for op, name, value in trace["counters"]:
        if op < prefix:
            counted.setdefault(name, []).append(value)
    out = {}
    for name, unit, how in PER_LAYER:
        kind = how[0]
        if kind == "time":
            key = (how[1], how[2])
            value = (in_setup.get(key, 0.0) + in_ops.get(key, 0.0) / n_ops) * _SCALE[unit]
        elif kind == "under":
            value = totals_under(spans, ops, how[1], how[2]) / n_ops * _SCALE[unit]
        elif kind == "self":
            value = self_ms.get(how[1], 0.0)
        elif kind == "count":
            values = counted.get(how[1], [0])
            value = sum(values) if how[2] == "sum" else max(values)
        else:
            value = extras.get(how[1], 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def shape_counts(trace: dict, prefix: int) -> "dict[str, float]":
    """The matrix-shape counters (calls per shape) over set-up and the first `prefix` operations."""
    counts: dict = {}
    for op, name, value in trace["counters"]:
        if op < prefix and name.startswith(("linalg.rank_", "linalg.kernel_basis_")):
            counts[name] = counts.get(name, 0) + value
    return counts
