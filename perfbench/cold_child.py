"""One traced certify or recheck in a fresh process (cold_certify's traced run).

    python perfbench/cold_child.py certify SEED OUT
    python perfbench/cold_child.py recheck CERT

It does what `prymcert certify --seed SEED --out OUT` or
`prymcert recheck --cert CERT` does, with each stage function of
run_pipeline, the JSON round trip and verify_certificate under its own
span, and prints the spans and counters as one JSON line at the end.
The src/ directory must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from layers import instrument
from spans import Tracer


def main(argv: "list[str]") -> int:
    tracer = Tracer()
    tracer.op = 0
    with tracer.span("cli.import"):
        import prymcert.cli  # noqa: F401  (the import a CLI call pays)
    from prymcert import certify

    instrument(tracer, ["pipeline"])
    if argv[0] == "certify":
        with tracer.span("certify.run_pipeline"):
            cert = certify.run_pipeline(int(argv[1]))
        with tracer.span("certify.to_json"):
            text = cert.to_json()
        with open(argv[2], "w", encoding="utf-8") as handle:
            handle.write(text)
        status = 0 if cert.overall == "Pass" else 1
    elif argv[0] == "recheck":
        text = Path(argv[1]).read_text(encoding="utf-8")
        with tracer.span("certify.from_json"):
            cert = certify.Certificate.from_json(text)
        with tracer.span("certify.verify_certificate"):
            certify.verify_certificate(cert)
        status = 0
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    print(json.dumps(tracer.export()))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
