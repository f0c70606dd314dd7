"""Benchmark of the adaptive HHO loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a closed loop, one fresh interpreter per run (see
``op.py``), starting the next run only after the previous one has ended and
only while it is expected to finish within ``--seconds``.  Every run's
answer is checked.  The last line of output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of the traced
runs (``--trace 1``, where traced and untraced runs alternate so that the
tracing overhead is measured too).  Per-run records, the environment and
the traced spans are written under ``perfbench/out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# a benchmark run ends within this many seconds, even if a repetition hangs
RUN_LIMIT_S = 170.0

# metric -> unit; each is reported as the median over the first
# ``Workload.reps`` repetitions, so that every program is summarised over
# the same number of samples however many more it fits into the run
END_TO_END = {"wall_s": "s", "solve_s": "s", "report_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB", "energy_err": "1"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "solver.evals_per_iter":
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def tail(values):
    """The highest of the 90th, 99th and 99.9th percentiles with at least
    ten samples beyond it, or None when there are too few samples."""
    n = len(values)
    best = None
    for pct in (90.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            best = {"pct": pct, "value": cut[int(round(pct * 10)) - 1]}
    return best


def summary(values):
    return {"median": statistics.median(values), "n": len(values),
            "tail": tail(values)}


def run_op(args, index, traced, timeout):
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}-{index}"
    work = OUT / "work" / tag
    cmd = [sys.executable, str(HERE / "op.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--out", str(work),
           "--expected", str(args.expected)]
    if traced:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(OUT / "spans" / f"{tag}.json")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result:
            result = {"ok": False, "errors": [
                f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]}
    except subprocess.TimeoutExpired:
        result = {"ok": False, "errors": [f"timed out after {timeout:.0f}s"]}
    except json.JSONDecodeError as exc:
        result = {"ok": False, "errors": [f"unreadable result: {exc}"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["traced"] = traced
    result["duration_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    if "ready" in result:
        result["setup_s"] = result["ready"] - start
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-check size")
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json",
                    help="recorded answers to check the runs against")
    args = ap.parse_args()

    if not (ROOT / "src" / "ahho" / "__init__.py").is_file():
        sys.exit(f"error: library source not found under {ROOT / 'src'}")
    sys.path.insert(0, str(HERE))
    from tracing import LAYERS
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: "
                 + ", ".join(WORKLOADS))
    # traced and untraced repetitions share the run
    window = max(1, WORKLOADS[args.workload].reps // (1 + args.trace))

    ops = []
    begin = time.monotonic()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - begin))
        ops.append(run_op(args, len(ops), traced, timeout))
        elapsed = time.monotonic() - begin
        typical = statistics.median(o["duration_s"] for o in ops)
        if len(ops) >= 1 + args.trace and elapsed + typical > args.seconds:
            break

    failed = 0
    for o in ops:
        if not o["ok"]:
            failed += 1
            print(f"failed run: {o['errors']}", file=sys.stderr)
    # a run whose answer is wrong was still measured; repetitions beyond
    # the window are recorded for information only
    measured = [o for o in ops if "wall_s" in o]
    plain = [o for o in measured if not o["traced"]][:window]
    traced = [o for o in measured if o["traced"]][:window]
    if not plain or (args.trace and not traced):
        sys.exit("error: no run completed")

    stats = {m: summary([o[m] for o in plain]) for m in END_TO_END}
    if args.trace:
        names = [f"{n}_{kind}" for n in LAYERS for kind in ("s", "calls")]
        names += [n for n in traced[0]["layers"] if n not in names]
        for n in names:
            stats[n] = summary([o["layers"][n] for o in traced])
        stats["trace.overhead_s"] = summary(
            [statistics.median(o["wall_s"] for o in traced)
             - stats["wall_s"]["median"]])
        reported = {n: layer_unit(n) for n in names + ["trace.overhead_s"]}
    else:
        reported = END_TO_END
    metrics = {n: {"value": stats[n]["median"], "unit": unit}
               for n, unit in reported.items()}

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "size": args.size, "window": window,
                   "env": measured[0]["env"],
                   "stats": stats, "units": dict(END_TO_END, **reported),
                   "runs": ops}, fh, indent=1)
    for n, unit in reported.items():
        s = stats[n]
        line = f"{n:32s} {s['median']:.6g} {unit}  (median of {s['n']}"
        if s["tail"]:
            line += f"; p{s['tail']['pct']:g} {s['tail']['value']:.6g}"
        print(line + ")")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
