"""The traced ``repro`` CLI process of the ``tractable-cli`` workload.

Usage: ``python3 perfbench/cli_traced.py TRACE_JSON <repro CLI args>``.
Runs ``repro.cli.main`` exactly as ``python -m repro`` does, with the
layer wrappers of :mod:`layers` installed, and writes the layer totals —
the ``import repro.cli`` time under the ``startup`` layer — to
``TRACE_JSON``.
"""

import json
import sys
import time

started = time.perf_counter()
import repro.cli  # noqa: E402

imported = time.perf_counter()
import layers  # noqa: E402


def main() -> int:
    tracer = layers.Tracer()
    tracer.self_s["startup"] = imported - started
    layers.install_layers(tracer)
    try:
        code = repro.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            json.dump(tracer.to_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
