"""meskit benchmark: one command, four workloads, outputs checked against truth.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``decompose-inproc``: ``meskit.classify.decompose`` in this process on one
  cycle of 30 seeded inputs: adjoint preservers with alternating sigma at
  (m,k) in {(2,2), (2,3), (3,2)}, one in five refused (trace form or adjoint
  plus 1e-6 noise).  Span bases are warmed in set-up.
* ``classify-cli``: one fresh ``meskit classify`` per file (both sigma per
  dims, plus a trace-form file that must exit 4).
* ``extend-cli``: ``meskit extend --sigma auto`` on generated files.
* ``lemmas-cli``: ``meskit check-lemmas`` per dims.

Load is a closed loop with one caller: one call or one subprocess at a time,
with one BLAS thread.  A run repeats whole cycles until ``--seconds`` have
passed (at least one cycle), so every run has the same mix.  Set-up runs
``SETUP_RUNS`` times in fresh interpreters; ``setup_s`` is their median.

``--trace 0`` measures the end-to-end metrics: the JSON result carries the
gated ones (``setup_s``, ``peak_rss_mb``, ``accuracy_digits``) and the report
the wall-time figures (``ops_per_s``, per-dims latency medians and tails,
refusal latency, ``fail_frac``).  ``--trace 1`` interleaves untraced and
traced cycles and gives per-layer metrics from spans recorded around each
meskit function (``spans.py``), per traced operation.  Lines before the last
are the human-readable report (machine, seed, every metric by name and
unit); the last line is the JSON result.  Any operation that fails the gate
(``gate.py``) makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
BLAS_THREADS = "1"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

TIMED_SPANS = [
    "serialize.read_json", "serialize.matrix_from_obj", "serialize.dumps", "serialize.write_json",
    "superop.span_mes_basis", "superop.preserves_mes", "superop.is_invertible_on_span",
    "choi.detect_sigma", "classify.decompose", "classify.recover_unitary",
    "classify.verify_theorem_form", "tensor.nearest_kron_factor", "extension.extend",
    "extension.ad_commutation_residual", "lemmas.run_all",
] + [f"lemmas.check_{name}" for name in (
    "vec_partial_trace", "mes_partial_trace", "pure_states_in_span", "orthogonality_equivalence",
    "choi_discriminant", "pair_semilinearity", "polarization", "family_alignment",
    "extension_preserves_mes", "structural_commutation", "switch_identities",
)]
COUNTED_SPANS = [
    "tensor.haar_unitary", "states.random_coisometry", "states.pi", "states.is_mes",
    "extension.ad_commutation_residual",
]
REFUSAL_TYPES = ("NotInvertibleError", "NotPreserverError")
BASELINE_SPANS = ("superop.span_mes_basis", "classify.recover_unitary", "classify.decompose", "extension.extend")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = [("cli.import_s", "s", "lower"), ("setup.span_warm_s", "s", "lower")]
    for name in TIMED_SPANS:
        out += [(f"{name}_s", "s/op", "lower"), (f"{name}.self_s", "s/op", "lower")]
    out += [(f"{name}.calls", "count/op", "lower") for name in COUNTED_SPANS]
    out += [
        ("superop.span_mes_basis.misses", "count/op", "lower"),
        ("superop.span_useful_ratio", "ratio", "higher"),
        ("serialize.bytes_read", "B/op", "lower"),
        ("serialize.bytes_written", "B/op", "lower"),
        ("extension.matrix_mb_computed", "MB/op", "lower"),
    ]
    out += [(f"classify.refusals.{name}", "count/op", "lower") for name in REFUSAL_TYPES]
    out += [("trace.overhead_frac", "ratio", "lower"), ("trace.coverage_frac", "ratio", "higher")]
    return out


def spawn(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path, deadline: float):
    """Run a child to completion; returns (wall seconds, exit code, peak RSS in KiB).

    The peak RSS is the child's own, from ``os.wait4``, so one large child
    does not raise the figure of the ones after it.  A child still running at
    ``deadline`` (monotonic) is killed.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def tail(values: list[float]) -> str:
    """The highest ladder percentile with at least ten samples beyond it, as text."""
    import numpy

    for p in TAIL_LADDER:
        if len(values) * (1 - p / 100) >= 10:
            return f"{numpy.percentile(values, p):.6g} s at p{p:g} (n={len(values)})"
    return f"n/a: fewer than 10 samples beyond p50 (n={len(values)})"


class Run:
    def __init__(self, args, workdir: Path) -> None:
        import gate

        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.gate = gate.Gate()
        self.records: list[dict] = []
        self.ops: list = []
        self.tracer = None

    def env(self, trace_path: Path | None = None) -> dict:
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE", None)
        if trace_path is not None:
            env["PERFBENCH_TRACE"] = str(trace_path)
        return env

    def setup(self) -> tuple[list[float], list[dict]]:
        walls, phases = [], []
        out, err = self.workdir / "prepare.out", self.workdir / "prepare.err"
        argv = [str(HERE / "prepare.py"), self.args.workload, str(self.args.seed), str(self.workdir)]
        for _ in range(SETUP_RUNS):
            wall, code, _ = spawn(argv, self.env(), out, err, self.deadline)
            if code != 0:
                raise RuntimeError(f"set-up exited {code}: {err.read_text()[-2000:]}")
            walls.append(wall)
            phases.append(json.loads(out.read_text().splitlines()[-1]))
        return walls, phases

    def run_cli(self, op, traced: bool, truths: dict) -> dict:
        out, err = self.workdir / "op.out", self.workdir / "op.err"
        trace_path = self.workdir / "op.trace.json" if traced else None
        if trace_path is not None and trace_path.exists():
            trace_path.unlink()
        argv = [str(HERE / "boot.py"), *op.argv]
        wall, code, rss_kb = spawn(argv, self.env(trace_path), out, err, self.deadline)
        stdout = out.read_bytes()
        problems, error = self.gate.check_cli(op, code, stdout, truths.get(op.key), self.args.seed)
        if problems:
            problems.append(f"stderr: {err.read_text()[-500:]}")
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        if traced and trace is None:
            problems.append("no trace written")
        return {"wall": wall, "rss_kb": rss_kb, "problems": problems, "error": error, "trace": trace}

    def run_inproc(self, op, phi, truth: dict, traced: bool) -> dict:
        import gate
        import meskit.classify

        if traced:
            self.tracer.reset()
        problems, error = [], None
        start = time.perf_counter()
        try:
            dec = meskit.classify.decompose(phi)
        except meskit.MESKitError as exc:
            wall = time.perf_counter() - start
            raised = type(exc).__name__
            if raised != op.expect:
                problems.append(f"raised {raised}: {exc}, expected {op.expect}")
        except Exception:
            wall = time.perf_counter() - start
            problems.append(f"crashed: {traceback.format_exc()}")
        else:
            wall = time.perf_counter() - start
            if op.refusal:
                problems.append(f"accepted, expected {op.expect}")
            else:
                result = {"sigma": dec.sigma.value, "U": dec.U, "V": dec.V,
                          "verification_residual": dec.verification_residual}
                problems, error = gate.check_decomposition(result, truth)
        trace = self.tracer.snapshot() if traced else None
        return {"wall": wall, "rss_kb": None, "problems": problems, "error": error, "trace": trace}

    def measure(self, ops: list, execute) -> int:
        """Whole cycles until --seconds have passed.

        Traced runs order cycles untraced, traced, traced, untraced (repeated),
        so that drift and warm-up weigh on both sides of the overhead alike.
        """
        start = time.perf_counter()
        cycles = 0
        while True:
            traced = bool(self.args.trace) and cycles % 4 in (1, 2)
            cycle_start = time.monotonic()
            for op in ops:
                record = execute(op, traced)
                record.update(op=op, traced=traced)
                self.records.append(record)
                for problem in record["problems"]:
                    print(f"FAIL {op.key}: {problem}", file=sys.stderr)
            cycles += 1
            done = time.perf_counter() - start >= self.args.seconds
            if self.args.trace and cycles % 4:
                done = False
            if done or time.monotonic() + (time.monotonic() - cycle_start) > self.deadline:
                return cycles


def end_to_end(run: Run, setup_walls: list[float], peak_rss_kb: float, report: list[str]) -> dict:
    records = [r for r in run.records if not r["traced"]]
    by_dims: dict[str, list[float]] = {}
    for r in records:
        if not r["op"].refusal:
            by_dims.setdefault(r["op"].dims, []).append(r["wall"])
    errors = [r["error"] for r in records if r["error"] is not None]
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "accuracy_digits": (-math.log10(max(max(errors), 1e-17)), "digits"),
    }
    # Wall-time figures of the operations are reported, not gated: see BENCHMARK.json.
    failed = sum(1 for r in run.records if r["problems"])
    report.append(f"fail_frac {failed / len(run.records):.6g} ({failed} of {len(run.records)} operations)")
    report.append(f"ops_per_s {len(records) / sum(r['wall'] for r in records):.6g} 1/s (n={len(records)})")
    for dims in sorted(by_dims):
        report.append(f"latency_p50_s.{dims} {statistics.median(by_dims[dims]):.6g} s (n={len(by_dims[dims])})")
        report.append(f"latency_tail_s.{dims} {tail(by_dims[dims])}")
    refusals = [r["wall"] for r in records if r["op"].refusal]
    if refusals:
        report.append(f"refuse_p50_s {statistics.median(refusals):.6g} s (n={len(refusals)})")
        report.append(f"refuse_tail_s {tail(refusals)}")
    else:
        report.append("refuse_p50_s, refuse_tail_s: n/a (this workload has no refusals)")
    rss_by_dims: dict[str, float] = {}
    for r in records:
        if r["rss_kb"] is not None:
            rss_by_dims[r["op"].dims] = max(rss_by_dims.get(r["op"].dims, 0), r["rss_kb"] / 1024.0)
    if rss_by_dims:
        report.append("peak_rss_mb by dims (per child, os.wait4): "
                      + ", ".join(f"{d} {v:.1f}" for d, v in sorted(rss_by_dims.items())))
    return metrics


def sum_stats(records: list[dict]) -> dict[str, list[float]]:
    """Span totals [calls, busy_s, self_s] per name over traced operations."""
    total: dict[str, list[float]] = {}
    for r in records:
        for name, values in r["trace"]["stats"].items():
            entry = total.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                entry[i] += values[i]
    return total


def per_layer(run: Run, phases: list[dict], report: list[str]) -> dict:
    traced = [r for r in run.records if r["traced"]]
    plain = [r for r in run.records if not r["traced"]]
    n = len(traced)
    stats = sum_stats(traced)
    counts: dict[str, float] = {}
    groups: dict[str, list[dict]] = {}  # accepted and refused operations per dims
    for r in traced:
        groups.setdefault(r["op"].dims + (" refused" if r["op"].refusal else ""), []).append(r)
        for name, value in r["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def busy(name):
        return stats.get(name, [0, 0.0, 0.0])

    if "cli.import" in stats:
        import_s = busy("cli.import")[1] / busy("cli.import")[0]
    else:
        import_s = statistics.median(p["import_s"] for p in phases)
    metrics = {
        "cli.import_s": import_s,
        "setup.span_warm_s": statistics.median(p.get("warm_s", 0.0) for p in phases),
    }
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = busy(name)[1] / n
        metrics[f"{name}.self_s"] = busy(name)[2] / n
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = busy(name)[0] / n
    drawn = counts.get("superop.span_elements_drawn", 0)
    metrics["superop.span_mes_basis.misses"] = counts.get("superop.span_mes_basis.misses", 0) / n
    metrics["superop.span_useful_ratio"] = counts.get("superop.span_basis_size", 0) / drawn if drawn else 0.0
    metrics["serialize.bytes_read"] = counts.get("serialize.bytes_read", 0) / n
    metrics["serialize.bytes_written"] = counts.get("serialize.bytes_written", 0) / n
    metrics["extension.matrix_mb_computed"] = counts.get("extension.matrix_bytes", 0) / 1e6 / n
    for name in REFUSAL_TYPES:
        metrics[f"classify.refusals.{name}"] = counts.get(f"classify.decompose.raised.{name}", 0) / n
    traced_wall = sum(r["wall"] for r in traced)
    # Both sides are whole cycles of the same operations, so means per operation compare.
    metrics["trace.overhead_frac"] = (traced_wall / n) / (sum(r["wall"] for r in plain) / len(plain)) - 1.0
    metrics["trace.coverage_frac"] = sum(r["trace"]["covered_s"] for r in traced) / traced_wall

    report.append("per traced operation: largest self times | busy times of the ROADMAP baseline layers")
    for group, rs in sorted(groups.items()):
        group_stats = sum_stats(rs)
        top = sorted(group_stats.items(), key=lambda kv: -kv[1][2])[:5]
        coverage = sum(r["trace"]["covered_s"] for r in rs) / sum(r["wall"] for r in rs)
        report.append(
            f"  {group} ({len(rs)} ops, wall {sum(r['wall'] for r in rs) / len(rs):.4g} s, coverage {coverage:.3f}): "
            + ", ".join(f"{name} {v[2] / len(rs):.4g} s" for name, v in top) + " | "
            + ", ".join(f"{name} {group_stats[name][1] / len(rs):.4g} s" for name in BASELINE_SPANS if name in group_stats))
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    return {name: (metrics[name], units[name]) for name, _, _ in per_layer_metrics()}


def run_workload(args, workdir: Path) -> int:
    import gate

    run = Run(args, workdir)
    report = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
              "machine " + json.dumps(machine())]
    setup_walls, phases = run.setup()
    report.append("setup_s samples " + " ".join(f"{w:.4f}" for w in setup_walls)
                  + " phases " + json.dumps(phases[-1]))
    if args.workload == "decompose-inproc":
        items = workloads.decompose_inputs(args.seed)
        workloads.warm_span_bases(items)
        inputs = {op.key: (phi, truth) for op, phi, truth in items}
        run.ops = [op for op, _, _ in items]
        if args.trace:
            from spans import Tracer

            run.tracer = Tracer()

        def execute(op, traced):
            if traced:
                run.tracer.install()
            elif run.tracer:
                run.tracer.uninstall()
            return run.run_inproc(op, *inputs[op.key], traced)
    else:
        run.ops = workloads.cycle(args.workload, args.seed, str(workdir))
        truths = {op.key: gate.load_truth(op.truth) for op in run.ops if op.truth and not op.refusal}

        def execute(op, traced):
            return run.run_cli(op, traced, truths)

    cycles = run.measure(run.ops, execute)
    if run.tracer:
        run.tracer.uninstall()
    report.append(f"measured {cycles} cycles of {len(run.ops)} operations")
    failed = sum(1 for r in run.records if r["problems"])
    if args.trace:
        metrics = per_layer(run, phases, report)
    else:
        if args.workload == "decompose-inproc":
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak = max(r["rss_kb"] for r in run.records)
        metrics = end_to_end(run, setup_walls, peak, report)
    for name, (value, unit) in metrics.items():
        report.append(f"{name} {value:.6g} {unit}")
    print("\n".join(report))
    result = {
        "correct": failed == 0,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "meskit" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/meskit; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(1, str(ROOT / "src"))
    import gate

    escaped = gate.self_test()
    if escaped:
        print("perfbench: gate self-test failed: " + "; ".join(escaped), file=sys.stderr)
        return 3
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run_workload(args, workdir)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
