"""khessian benchmark: one closed-loop caller per workload.

    python3 perfbench/run.py --workload mms-torsion --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times whole operations untraced and
reports the end-to-end metrics; with ``--trace 1`` it times operations
in pairs, one untraced and one with every layer wrapped by the span
tracer, and reports the per-layer metrics.  Human-readable lines go to
stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The process exits non-zero when
any operation fails its correctness gate.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy loads: threaded OpenBLAS
# makes GMRES iteration counts vary between runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4  # fresh interpreters timing set-up, besides this process


def timed_setup(workload, seed: int):
    """Import the package and build the workload's inputs; returns
    (seconds, package, inputs)."""
    start = perf_counter()
    import khessian

    inputs = workload.build(khessian, seed)
    return perf_counter() - start, khessian, inputs


def probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def closed_loop(op, budget: float):
    """Issue op back to back; stop when the next one would end past the
    budget.  At least one operation always runs."""
    results, durations = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(op())
        durations.append(perf_counter() - t0)
        if perf_counter() - start + durations[-1] > budget:
            return results, durations


def environment(args, kh) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:  # a checkout without .git records None, not the commit of a parent repo
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "khessian").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "khessian": kh.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "khessian" / "__init__.py").is_file():
        print(f"error: no khessian sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(repr(timed_setup(workload, args.seed)[0]))
        return 0

    setup_main, kh, inputs = timed_setup(workload, args.seed)
    setup_samples = [setup_main] + [probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
    env = environment(args, kh)
    print("# environment " + json.dumps(env))
    if args.workload == "audit-calculus":
        print("# seed: recorded but unused; the calculus audits take no random input")

    def op():
        return workload.run(kh, inputs)

    if args.trace:
        from metrics import PER_LAYER, layer_values
        from tracer import Tracer, span_table

        tracer = Tracer()
        untraced, untraced_t, traced, traced_t = [], [], [], []

        def untraced_op():
            t0 = perf_counter()
            untraced.append(op())
            untraced_t.append(perf_counter() - t0)

        def traced_op():
            tracer.install(kh)
            try:
                with tracer.root(len(traced)):
                    t0 = perf_counter()
                    traced.append(op())
                    traced_t.append(perf_counter() - t0)
            finally:
                tracer.uninstall()

        def pair():
            # one untraced and one traced operation, in alternating order,
            # so warm-up and drift in machine speed cancel out of the overhead
            first, second = (untraced_op, traced_op) if len(traced) % 2 == 0 else (
                traced_op, untraced_op)
            first()
            second()

        closed_loop(pair, args.seconds)
        results = untraced + traced
        overhead = median(traced_t) - median(untraced_t)
        values = layer_values(span_table(tracer.spans), len(traced), overhead,
                              median(untraced_t))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, env)
        print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        metrics = {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
        durations = untraced_t
    else:
        from metrics import END_TO_END

        results, durations = closed_loop(op, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"op_s": median(durations), "setup_s": median(setup_samples),
                  "peak_rss_mb": peak_mb}
        metrics = {name: metric(values[name], unit) for name, unit, _ in END_TO_END}

    attempted = len(results)
    failed = sum(not r.ok for r in results)
    n = len(durations)
    print(f"# op_s {median(durations):.4f} s (median of {n} untraced operations; "
          f"min {min(durations):.4f}, max {max(durations):.4f})")
    for part in results[0].parts:
        part_med = median(r.parts[part] for r in results[:n])
        print(f"# {part} {part_med:.4f} s (median, n={n})")
    print(f"# setup_s {median(setup_samples):.4f} s (median of {len(setup_samples)})")
    print(f"# failed_frac {failed / attempted:.4f} (ops={attempted})")
    for key, value in results[-1].info.items():
        print(f"# {key} {value}")
    for i, r in enumerate(results):
        if not r.ok:
            print(f"# operation {i} failed its gate: {r.info}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
