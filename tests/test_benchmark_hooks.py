"""The benchmark harness still finds every library entry point it wraps
or replaces: a renamed or removed one fails here, not in a benchmark
repetition."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["plap-k1-cli", "twowell-k0"])
def test_traced_tiny_run_resolves_every_hook(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "op.py"),
         "--workload", workload, "--size", "tiny", "--seed", "0",
         "--expected", str(ROOT / "perfbench" / "expected.json"),
         "--out", str(tmp_path / "out"), "--spans", str(tmp_path / "spans")],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["ok"], result["errors"]
    assert result["errors"] == []
    calls = {k: v for k, v in result["layers"].items()
             if k.endswith("_calls")}
    assert calls and all(v > 0 for v in calls.values()), calls
    # every Newton step still solves through the wrapped spsolve
    assert calls["solver.linsolve_calls"] >= calls["solver.hessian_calls"]
    # each diagnostic still runs through its ahho.cli name once per level
    assert (calls["diagnostics.error_norms_calls"]
            == calls["diagnostics.leb_calls"]
            == calls["adaptivity.estimate_calls"]), calls
