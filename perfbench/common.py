"""Helpers shared by the workloads: seeded inputs, order statistics, child
processes, resource usage and the record of failed checks.

Everything here is the benchmark's own code; nothing is imported from
prymcert, so input generation and statistics do not change when the
program does.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

_MASK64 = (1 << 64) - 1
CHILD_TIMEOUT_S = 120


class SplitMix64:
    """The benchmark's own seeded stream (independent of prymcert's sampler)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by rejection (no modulo bias)."""
        span = hi - lo + 1
        limit = ((1 << 64) // span) * span
        while True:
            z = self.next_u64()
            if z < limit:
                return lo + z % span

    def choice(self, items):
        return items[self.randint(0, len(items) - 1)]


# -- order statistics ---------------------------------------------------------

def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values) -> "tuple[float, float]":
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  Below 20 samples even the median has
    fewer than ten beyond it, so the maximum is returned, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


# -- child processes ----------------------------------------------------------

def child_env() -> "dict[str, str]":
    """Environment for a child Python: the checkout's src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_python(args, timeout: float = CHILD_TIMEOUT_S
               ) -> "tuple[float, subprocess.CompletedProcess]":
    """Run `python args...` from the checkout root and wait for it; (wall s, result).

    subprocess.run kills and reaps the child when the timeout expires.
    """
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - start, proc


def child_seconds(snippet: str) -> float:
    """Run a Python snippet in a fresh process; the float it prints last."""
    _, proc = run_python(["-c", snippet])
    if proc.returncode != 0:
        raise RuntimeError(f"timing child failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def import_src_package():
    """Import prymcert from the checkout's src/ and refuse any other copy."""
    if not (SRC / "prymcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no prymcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prymcert
    if Path(prymcert.__file__).resolve().parent != (SRC / "prymcert").resolve():
        raise SystemExit(f"error: prymcert imported from {prymcert.__file__}, not {SRC}")
    return prymcert


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size in MiB (ru_maxrss is KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(seed: int) -> "dict[str, object]":
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


# -- correctness bookkeeping --------------------------------------------------

class Outcome:
    """Counts attempted operations and those with a wrong or raised result.

    An operation fails once however many of its checks fail; every reason
    is kept, none is dropped.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: "list[str]" = []
        self._current_failed = False

    def attempt(self) -> None:
        """Start the next operation; later failures are charged to it."""
        self.attempted += 1
        self._current_failed = False

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)
        if not self._current_failed:
            self.failed += 1
            self._current_failed = True
        self.attempted = max(self.attempted, self.failed)

    def expect(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(reason)
        return ok

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
