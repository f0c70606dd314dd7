"""Self-check of the benchmark at the tiny size.

    python3 perfbench/selfcheck.py

Confirms, for every workload, that every metric named in BENCHMARK.json
is printed with its unit, that a run checked against a deliberately wrong
expected energy is counted as failed, and that a non-zero seed changes the
mesh numbering but not the mesh.  Exits non-zero on the first violation.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, seeded_mesh  # noqa: E402


def bench_run(workload, seed, trace, expected=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload}: run.py exited {proc.returncode}\n"
                 f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check(cond, message):
    if not cond:
        sys.exit(f"FAIL {message}")
    print(f"ok   {message}")


def check_metrics(workload, trace, declared):
    text, result = bench_run(workload, 0, trace)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace={trace}: result keys")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{workload} trace={trace}: correct")
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"{workload} trace={trace}: every metric with its "
                       f"declared unit")
    printed = {ln.split()[0]: ln.split()[2] for ln in text}
    check(all(printed.get(n) == u for n, u in want.items()),
          f"{workload} trace={trace}: every metric printed with its unit")


def check_wrong_energy(workload):
    expected = json.loads((HERE / "expected.json").read_text())
    energies = expected[workload]["tiny"]["energy"]
    energies[-1] *= 1.0 + 1e-6
    wrong = HERE / "out" / "expected-wrong.json"
    wrong.parent.mkdir(exist_ok=True)
    wrong.write_text(json.dumps(expected))
    _, result = bench_run(workload, 0, 0, expected=wrong)
    check(not result["correct"]
          and result["failed"] == result["attempted"] >= 1,
          f"{workload}: a wrong expected energy fails the run")


def check_seed(workload):
    import numpy as np
    from ahho.benchmarks import get_benchmark

    bench = get_benchmark(WORKLOADS[workload].benchmark)
    mesh = bench.initial_mesh()
    check(seeded_mesh(mesh, 0, bench.label_rule) is mesh,
          f"{workload}: seed 0 is the library's initial mesh")
    a = seeded_mesh(mesh, 7, bench.label_rule)
    b = seeded_mesh(mesh, 7, bench.label_rule)
    check(np.array_equal(a.triangles, b.triangles)
          and np.array_equal(a.vertices, b.vertices),
          f"{workload}: the same seed gives the same mesh")
    check(not np.array_equal(a.triangles, mesh.triangles)
          or not np.array_equal(a.vertices, mesh.vertices),
          f"{workload}: a non-zero seed changes the numbering")

    def geometry(m):
        c = m.vertices[m.triangles]
        tris = sorted(tuple(sorted(map(tuple, t))) for t in c.tolist())
        ref = sorted(tuple(sorted(map(tuple, np.delete(t, e, axis=0))))
                     for t, e in zip(c.tolist(), m.ref_edge))
        return tris, ref, sorted(m.labels[m.boundary_sides()])
    check(geometry(a) == geometry(mesh),
          f"{workload}: same triangles, refinement edges and labels")
    _, result = bench_run(workload, 7, 0)
    check(result["correct"], f"{workload}: seed 7 runs correctly")


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in declared["workloads"])
          == sorted(WORKLOADS), "BENCHMARK.json names every workload")
    for workload in WORKLOADS:
        check_metrics(workload, 0, declared["end_to_end"])
        check_metrics(workload, 1, declared["per_layer"])
        check_wrong_energy(workload)
        check_seed(workload)
    print("self-check passed")


if __name__ == "__main__":
    main()
