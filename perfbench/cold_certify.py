"""cold_certify: what a CLI user pays, one fresh process per call.

Each round runs two processes one after the other:
`prymcert certify --seed S --out F`, then `prymcert recheck --cert F`,
with S drawn from the benchmark seed.  One operation is one such round,
and its time is the wall time of both processes.  About 90 % of either
call is the symbolic det M (weil_model.elimination_determinant, then
linalg.det_bareiss), which recheck also pays to evaluate det M at one
point, so the two take about the same time.  The witness search barely
runs, because its first attempt passes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import oracle
from common import SCRATCH, SplitMix64, median, peak_rss_mb, run_python
from layers import per_layer_metrics
from loop import closed_loop, end_to_end, tracing_overhead_pct
from spans import merge

CHILD = Path(__file__).with_name("cold_child.py")
SETUP_CHILDREN = 7


def seed_stream(seed: int):
    rng = SplitMix64(seed)
    while True:
        yield rng.randint(0, 2 ** 31 - 1)


def _import_wall_s() -> float:
    """Interpreter start plus `import prymcert.cli`, timed from outside."""
    wall, proc = run_python(["-c", "import prymcert.cli"])
    if proc.returncode != 0:
        raise RuntimeError(f"import child failed: {proc.stderr.strip()[-300:]}")
    return wall


def check_certificate(out, cert_seed: int, text: str, elimination) -> bool:
    """Every universal field, the seed, and the witness fields against the oracle."""
    try:
        doc = json.loads(text)
        ok = True
        for key, expected in oracle.UNIVERSAL_FIELDS.items():
            ok &= out.expect(doc.get(key) == expected,
                             f"seed {cert_seed}: {key} = {doc.get(key)!r}, expected {expected!r}")
        verdicts = doc["identity_verdicts"]
        ok &= out.expect(len(verdicts) == oracle.IDENTITY_COUNT
                         and all(v == "Pass" for v in verdicts.values()),
                         f"seed {cert_seed}: identity verdicts {verdicts}")
        ok &= out.expect(doc["seed"] == cert_seed, f"seed field {doc['seed']} != {cert_seed}")
        witness = oracle.point(doc["witness_triple"])
        rows = oracle.quadric_rows(elimination, witness)
        det = oracle.det_at(elimination, witness)
        ok &= out.expect(det != 0 and Fraction(doc["witness_det_m"]) == det,
                         f"seed {cert_seed}: witness_det_m {doc['witness_det_m']}, expected {det}")
        ok &= out.expect(doc["witness_quadric_kernel_dim"] == 1 == oracle.kernel_dim(rows),
                         f"seed {cert_seed}: witness kernel dim "
                         f"{doc['witness_quadric_kernel_dim']}, oracle {oracle.kernel_dim(rows)}")
        ok &= out.expect(doc["fixed_point_free"] == "CertifiedEmpty",
                         f"seed {cert_seed}: fixed_point_free {doc['fixed_point_free']!r}")
        return ok
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        out.fail(f"seed {cert_seed}: malformed certificate: {type(exc).__name__}: {exc}")
        return False


def run(seed: int, seconds: float, traced: bool, outcome):
    from prymcert import weil_model as wm

    setup = [_import_wall_s() for _ in range(SETUP_CHILDREN if not traced else 1)]
    elimination = wm.eliminate()
    SCRATCH.mkdir(exist_ok=True)
    texts: "dict[int, str]" = {}
    walls: "dict[str, list[float]]" = {"certify": [], "recheck": []}
    trace: dict = {"spans": [], "counters": []}

    def certify_once(cert_seed: int, path: Path, is_traced: bool):
        if is_traced:
            return run_python([str(CHILD), "certify", str(cert_seed), str(path)])
        return run_python(["-m", "prymcert.cli", "certify", "--seed", str(cert_seed),
                           "--out", str(path)])

    def run_op(cert_seed, index, is_traced):
        path = SCRATCH / f"cert-{index}-{int(is_traced)}.json"
        try:
            certify_wall, certified = certify_once(cert_seed, path, is_traced)
            if is_traced:
                recheck_wall, rechecked = run_python([str(CHILD), "recheck", str(path)])
            else:
                recheck_wall, rechecked = run_python(["-m", "prymcert.cli", "recheck",
                                                      "--cert", str(path)])
            text = path.read_text(encoding="utf-8") if path.exists() else None
        finally:
            path.unlink(missing_ok=True)
        if is_traced:
            for proc in (certified, rechecked):
                if proc.returncode == 0:
                    merge(trace, json.loads(proc.stdout.strip().splitlines()[-1]), index)
        else:
            walls["certify"].append(certify_wall)
            walls["recheck"].append(recheck_wall)
        return (certify_wall + recheck_wall,), (certified, rechecked, text)

    def verify(out, cert_seed, result) -> bool:
        certified, rechecked, text = result
        ok = out.expect(certified.returncode == 0,
                        f"certify --seed {cert_seed} exited {certified.returncode}: "
                        f"{certified.stderr.strip()[-300:]}")
        ok &= out.expect(rechecked.returncode == 0,
                         f"recheck of seed {cert_seed} exited {rechecked.returncode}: "
                         f"{rechecked.stderr.strip()[-300:]}")
        if text is None:
            out.fail(f"certify --seed {cert_seed} wrote no certificate")
            return False
        ok &= check_certificate(out, cert_seed, text, elimination)
        if cert_seed in texts:
            ok &= out.expect(texts[cert_seed] == text,
                             f"two certificates for seed {cert_seed} differ")
        texts[cert_seed] = text
        return ok

    plain, with_trace, items = closed_loop(seed_stream(seed), run_op, verify, seconds,
                                           outcome, traced, min_traced=1)
    if not traced:
        # The same seed again, untimed: certificates must be byte-identical.
        first = next(seed_stream(seed))
        outcome.attempt()
        path = SCRATCH / "cert-repeat.json"
        try:
            _, proc = certify_once(first, path, False)
            text = path.read_text(encoding="utf-8") if path.exists() else None
        finally:
            path.unlink(missing_ok=True)
        outcome.expect(proc.returncode == 0 and text == texts.get(first),
                       f"repeated certify --seed {first} is not byte-identical")
    metrics, info = end_to_end(plain, setup, peak_rss_mb(children=True))
    if walls["certify"]:
        info["certify_wall_s_p50"] = median(walls["certify"])
        info["recheck_wall_s_p50"] = median(walls["recheck"])
    if not traced:
        return metrics, info
    extras = {"overhead_pct": tracing_overhead_pct(plain, with_trace),
              "spans_per_op": len(trace["spans"]) / items,
              "certify_process_s": info.get("certify_wall_s_p50", 0.0),
              "recheck_process_s": info.get("recheck_wall_s_p50", 0.0)}
    return per_layer_metrics(trace, items, 1, extras), info
