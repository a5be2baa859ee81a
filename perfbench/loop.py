"""The closed measuring loop and the metrics every workload reports."""

from __future__ import annotations

import time

from common import median, tail

# Counts are taken over set-up plus this many first operations of a traced
# run, so they repeat exactly for a seed however fast the machine is.
COUNTER_PREFIX = 10


def closed_loop(stream, run_op, verify, seconds: float, outcome, traced: bool,
                min_traced: int = 0) -> "tuple[list[float], list[float], int]":
    """One client, one operation at a time, until `seconds` have passed.

    run_op(item, index, traced) returns (timings, result), where timings
    is a tuple of one or more sample times in seconds, and
    verify(outcome, item, result) returns whether every check passed.  In a
    traced run each item runs untraced and then traced, so the two timings
    pair up.  An operation that raises or fails a check is counted in the
    outcome and left out of the timings.  Returns (untraced times, traced
    times, items run).
    """
    plain: "list[float]" = []
    with_trace: "list[float]" = []
    deadline = time.perf_counter() + seconds
    index = 0
    for item in stream:
        enough_traced = not traced or len(with_trace) >= min_traced
        if index and enough_traced and time.perf_counter() >= deadline:
            break
        for is_traced in ((False, True) if traced else (False,)):
            outcome.attempt()
            try:
                timings, result = run_op(item, index, is_traced)
            except Exception as exc:  # a raised operation is a counted failure
                outcome.fail(f"operation {index}{' (traced)' if is_traced else ''} "
                             f"on {item!r}: {type(exc).__name__}: {exc}")
                continue
            if verify(outcome, item, result):
                (with_trace if is_traced else plain).extend(timings)
        index += 1
    return plain, with_trace, index


def end_to_end(times: "list[float]", setup_samples: "list[float]",
               rss_mb: float) -> "tuple[dict, dict]":
    """The end-to-end metrics, with the tail's percentile and sample count for the log."""
    if not times:
        times = [0.0]
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": {"value": median(setup_samples), "unit": "s"},
        "op_ms_p50": {"value": 1e3 * median(times), "unit": "ms"},
        "op_ms_tail": {"value": 1e3 * tail_value, "unit": "ms"},
        "ops_per_s": {"value": len(times) / sum(times) if sum(times) else 0.0, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
    info = {"samples": len(times), "tail_percentile": tail_pct,
            "setup_samples": len(setup_samples)}
    return metrics, info


def tracing_overhead_pct(plain: "list[float]", with_trace: "list[float]") -> float:
    if not plain or not with_trace:
        return 0.0
    return 100.0 * ((sum(with_trace) / len(with_trace)) / (sum(plain) / len(plain)) - 1.0)


def mul_probe_ns(pairs, repeats: int = 5) -> float:
    """Median over repeats of the time per product of the given operand pairs."""
    if not pairs:
        return 0.0
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a, b in pairs:
            a * b
        samples.append((time.perf_counter() - start) / len(pairs))
    return 1e9 * median(samples)
