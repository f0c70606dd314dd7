"""One workload run in a fresh interpreter.

    python3 perfbench/op.py --workload NAME --seed N --size full|tiny
        --out DIR [--expected FILE] [--spans FILE]

Prints one JSON object on its last line of output: the timings, the peak
resident set size, the per-level answer, the failed checks and, with
``--spans``, the per-layer metrics of the traced run.
"""

import os

# BLAS reads its thread count when numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def environment():
    import platform

    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count()}


def blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded;
    None when that library does not export the query."""
    import ctypes
    import glob

    import numpy
    libdir = os.path.dirname(numpy.__file__) + ".libs"
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run(args):
    import ahho.cli as cli
    from ahho.benchmarks import get_benchmark

    from tracing import Tracer
    from workloads import WORKLOADS, check_csv, check_levels, level_row, \
        seeded_mesh

    w = WORKLOADS[args.workload]
    bench = get_benchmark(w.benchmark)
    mesh0 = bench.initial_mesh()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    # the program receives only the generated mesh
    mesh = seeded_mesh(mesh0, args.seed, bench.label_rule)
    bench.initial_mesh_factory = lambda rule: mesh
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install(bench)

    totals = {"solve": 0.0, "report": 0.0}
    records = []

    def timed(total, span, fn):
        if tracer is not None:
            fn = tracer.wrap(span, fn)

        def call(*a, **kw):
            t = time.perf_counter()
            result = fn(*a, **kw)
            totals[total] += time.perf_counter() - t
            if total == "solve":
                records.extend(result)
            return result
        return call

    out = Path(args.out)
    errors = []
    cli.register_benchmarks = lambda: {w.benchmark: lambda: bench}
    cli.run_ahho = timed("solve", "adaptivity.run_ahho", cli.run_ahho)
    cli.build_reports = timed("report", "cli.build_reports", cli.build_reports)
    argv = ["run", "--benchmark", w.benchmark, "--degree", str(w.k),
            "--variant", w.variant, "--theta", repr(w.theta),
            "--max-ndof", str(w.max_ndof[args.size]), "--out", str(out)]
    text = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(text):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    if code != 0:
        errors.append(f"ahho run exited with code {code}")
    printed = [ln for ln in text.getvalue().splitlines()
               if ln.startswith("level ")]
    if len(printed) != len(records):
        errors.append(f"ahho run printed {len(printed)} level lines "
                      f"for {len(records)} levels")

    levels = [level_row(r) for r in records]
    energy_err = abs(levels[-1]["energy"] - bench.reference_energy) \
        if levels else float("nan")
    errors += check_csv(out / "convergence.csv", levels)
    if args.expected:
        with open(args.expected, encoding="utf-8") as fh:
            expected = json.load(fh)[w.name][args.size]
        errors += check_levels(levels, energy_err, expected, args.seed)
    result = {
        "ok": not errors, "errors": errors, "ready": ready,
        "wall_s": wall, "solve_s": totals["solve"],
        "report_s": totals["report"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "energy_err": energy_err, "levels": levels,
        "env": environment(), "layers": None,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["work"] = tracer.work_done()
        tracer.dump(args.spans)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", required=True)
    ap.add_argument("--expected", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    try:
        result = run(args)
    except Exception:  # the run failed: report it, the caller counts it
        traceback.print_exc()
        result = {"ok": False, "errors": [traceback.format_exc(limit=1)]}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
