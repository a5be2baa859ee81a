"""prymcert benchmark: one command for every workload, with its output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it imports prymcert from the
checkout's src/ and from nowhere else, and exits non-zero without a
result when src/prymcert is missing.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Earlier lines give the environment, each metric by name with
its unit, the sample counts, the failure ratio and the work counters.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import cold_certify
import qi_algebra
import witness_sweep
from common import SCRATCH, Outcome, environment, import_src_package

WORKLOADS = {
    "cold_certify": cold_certify.run,
    "witness_sweep": witness_sweep.run,
    "qi_algebra": qi_algebra.run,
}
MAX_REASONS_SHOWN = 20


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive_int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_src_package()
    print("# env " + json.dumps(environment(args.seed)))
    outcome = Outcome()
    try:
        metrics, info = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace),
                                                 outcome)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"# workload {args.workload} trace={args.trace} " + json.dumps(info))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# fail_ratio = {outcome.fail_ratio:.6g} ({outcome.failed}/{outcome.attempted})")
    for reason in outcome.reasons[:MAX_REASONS_SHOWN]:
        print(f"# FAIL {reason}")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
