"""Record the answers the benchmark checks against, in ``expected.json``.

    python3 perfbench/record.py

Runs every workload once per size with seed 0 and stores its per-level
ndof, triangle count and energy and its final |E - reference energy|.
Re-record only when a change is meant to alter the discrete answer, and
say so.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# A correct run on any seed stays within this factor of the seed-0 error:
# seeds only renumber the mesh, which moves the error by round-off.
ENERGY_ERR_FACTOR = 1.1


def main():
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    expected = {}
    for name, w in WORKLOADS.items():
        expected[name] = {}
        for size in w.max_ndof:
            with tempfile.TemporaryDirectory(dir=out) as tmp:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "op.py"), "--workload", name,
                     "--seed", "0", "--size", size, "--out", tmp],
                    capture_output=True, text=True, check=True)
            r = json.loads(proc.stdout.splitlines()[-1])
            if not r["ok"]:
                sys.exit(f"{name} {size}: {r['errors']}")
            expected[name][size] = {
                "ndof": [lv["ndof"] for lv in r["levels"]],
                "ntriangles": [lv["ntriangles"] for lv in r["levels"]],
                "energy": [lv["energy"] for lv in r["levels"]],
                "energy_err": r["energy_err"],
                "energy_err_bound": ENERGY_ERR_FACTOR * r["energy_err"],
            }
            print(name, size, len(r["levels"]), "levels", r["energy_err"])
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
