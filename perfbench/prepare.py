"""One workload set-up in a fresh interpreter; prints its phase times as JSON.

Usage: ``python3 perfbench/prepare.py <workload> <seed> <workdir>``.  The
benchmark times several of these runs from spawn to exit for ``setup_s``.
CLI workloads write their input files with ``meskit gen`` (called through
``meskit.cli.main`` in this one interpreter); the in-process workload builds
its inputs and warms the span(MES) bases.
"""

import json
import sys
import time

import workloads


def main(workload: str, seed: int, workdir: str) -> int:
    start = time.perf_counter()
    if workload == "decompose-inproc":
        import meskit
    else:
        import meskit.cli
    phases = {"import_s": time.perf_counter() - start}
    start = time.perf_counter()
    if workload == "decompose-inproc":
        items = workloads.decompose_inputs(seed)
        phases["inputs_s"] = time.perf_counter() - start
        start = time.perf_counter()
        workloads.warm_span_bases(items)
        phases["warm_s"] = time.perf_counter() - start
    else:
        for argv in workloads.gen_commands(workload, seed, workdir):
            code = meskit.cli.main(argv)
            if code != 0:
                print(f"meskit {' '.join(argv)} exited {code}", file=sys.stderr)
                return 1
        phases["inputs_s"] = time.perf_counter() - start
    print(json.dumps(phases))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
