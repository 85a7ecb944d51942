"""Run ``meskit.cli.main`` in this fresh interpreter, optionally traced.

Usage: ``python3 perfbench/boot.py <meskit arguments...>``.  With the
environment variable ``PERFBENCH_TRACE`` set to a file path, the layer
tracer is installed after ``import meskit.cli`` (timed as the ``cli.import``
span) and its totals are written to that file as JSON on exit.  Stdout,
stderr and the exit code are the CLI's own.
"""

import json
import os
import sys
import time


def main() -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    start = time.perf_counter()
    import meskit.cli

    import_s = time.perf_counter() - start
    if not trace_path:
        return meskit.cli.main(sys.argv[1:])
    from spans import Tracer

    tracer = Tracer()
    tracer.record("cli.import", import_s)
    tracer.install()
    try:
        return meskit.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        with open(trace_path, "w") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main())
