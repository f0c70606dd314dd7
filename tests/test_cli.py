import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ahho.cli import (CSV_COLUMNS, ConfigError, RunConfig, load_config, main,
                      run, serialize_config)


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return path


def test_minimal_config_defaults(tmp_path):
    path = write_config(tmp_path, benchmark="manufactured-affine", k=0)
    cfg = load_config(path)
    assert cfg.theta == 0.5
    assert cfg.eps == "auto"
    assert cfg.resolved_eps() == 0.01
    assert cfg.mode == "adaptive"
    assert cfg.variant == "rt"


def test_eps_range_rejected(tmp_path):
    path = write_config(tmp_path, benchmark="manufactured-affine", k=0,
                        eps=5.0)
    with pytest.raises(ConfigError, match="eps"):
        load_config(path)


def test_stabilized_eps_range(tmp_path):
    # p-Laplace p=4: stabilized limit is (k+1)/(p-1) = 1/3 for k=0
    path = write_config(tmp_path, benchmark="p-laplace-lshape", k=0,
                        variant="stabilized", eps=0.5)
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, benchmark="p-laplace-lshape", k=0,
                        variant="stabilized", eps=0.3)
    cfg = load_config(path)
    assert cfg.resolved_eps() == 0.3


def test_unknown_benchmark_named(tmp_path):
    path = write_config(tmp_path, benchmark="nonexistent")
    with pytest.raises(ConfigError, match="unknown benchmark"):
        load_config(path)


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, benchmark="manufactured-affine",
                        bogus=True)
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(path)


def test_invalid_values_named(tmp_path):
    for bad in ({"theta": 1.5}, {"mode": "magic"}, {"variant": "x"},
                {"k": -1}, {"grad_tol": 0.0}, {"energy_tol": -1.0},
                {"max_iter": 0}):
        path = write_config(tmp_path, benchmark="manufactured-affine", **bad)
        with pytest.raises(ConfigError):
            load_config(path)


@pytest.mark.parametrize("bad", [
    {"k": "1"}, {"k": 1.0}, {"k": True}, {"theta": "0.5"},
    {"max_ndof": 100.5}, {"max_levels": "3"}, {"max_iter": False},
    {"max_iter": 2.0}, {"grad_tol": "1e-10"}, {"eps": "0.5"},
    {"eps": True}, {"variant": 1}, {"out": 5}, {"timing": 1}])
def test_mistyped_values_named(tmp_path, bad):
    """A value of the wrong type is a ConfigError naming the field, not a
    TypeError from a comparison further on."""
    path = write_config(tmp_path, benchmark="manufactured-affine", **bad)
    with pytest.raises(ConfigError, match=next(iter(bad))):
        load_config(path)


def test_json_int_accepted_for_float_fields(tmp_path):
    path = write_config(tmp_path, benchmark="manufactured-affine", k=0,
                        eps=1, energy_tol=1, grad_tol=1)
    cfg = load_config(path)
    assert cfg.resolved_eps() == 1.0 and cfg.grad_tol == 1
    assert cfg.energy_tol == 1


@pytest.mark.parametrize("argv,field", [
    (["--eps", "abc"], "eps"), (["--config", "{cfg}"], "k"),
    (["--config", "{cfg_theta}"], "theta")])
def test_cli_main_mistyped_values_exit_2(tmp_path, capsys, argv, field):
    """Malformed command-line and config values exit 2 with ``error: ...``
    naming the field, before any output is written."""
    cfg = write_config(tmp_path, benchmark="two-well-rect", k="1")
    cfg_theta = tmp_path / "theta.json"
    cfg_theta.write_text(json.dumps({"benchmark": "two-well-rect",
                                     "theta": "0.5"}))
    argv = [a.format(cfg=cfg, cfg_theta=cfg_theta) for a in argv]
    if "--config" not in argv:
        argv = ["--benchmark", "two-well-rect"] + argv
    out = tmp_path / "x"
    assert main(["run", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


def test_config_roundtrip(tmp_path):
    path = write_config(tmp_path, benchmark="odp-lshape", k=1, theta=0.4,
                        eps=0.25, max_ndof=500, mode="uniform")
    cfg = load_config(path)
    out = tmp_path / "echo.json"
    serialize_config(cfg, out)
    cfg2 = load_config(out)
    assert cfg == cfg2


def test_run_manufactured_single_level(tmp_path):
    cfg = RunConfig(benchmark="manufactured-affine", k=0,
                    out=str(tmp_path / "out"))
    code = run(cfg)
    assert code == 0
    csv = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    header = csv[0].split(",")
    assert header == ["level", "ndof", "ntriangles", "energy", "estimator",
                      "stab", "err_energy", "err_grad_Lp",
                      "err_stress_Lpprime", "err_vol_L2", "leb", "rhs",
                      "seconds"]
    assert len(csv) == 2
    row = dict(zip(header, csv[1].split(",")))
    assert float(row["err_grad_Lp"]) < 1e-10
    assert float(row["err_energy"]) < 1e-10
    assert float(row["estimator"]) < 1e-10
    assert row["stab"] == ""      # RT variant: no stabilization column
    assert row["seconds"] == ""   # timing off by default
    assert (tmp_path / "out" / "level_000.mesh").exists()
    assert (tmp_path / "out" / "run.json").exists()


def test_rerun_byte_identical(tmp_path):
    def one(outdir):
        cfg = RunConfig(benchmark="p-laplace-lshape", k=0, mode="uniform",
                        max_ndof=300, out=str(outdir))
        assert run(cfg) == 0
        return hashlib.sha256(
            (outdir / "convergence.csv").read_bytes()).hexdigest()

    h1 = one(tmp_path / "a")
    h2 = one(tmp_path / "b")
    assert h1 == h2


def test_run_plaplace_energy_errors_decrease(tmp_path):
    cfg = RunConfig(benchmark="p-laplace-lshape", k=0, mode="uniform",
                    max_ndof=1200, out=str(tmp_path / "out"))
    assert run(cfg) == 0
    csv = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    header = csv[0].split(",")
    errs = [float(dict(zip(header, line.split(",")))["err_energy"])
            for line in csv[1:]]
    assert len(errs) >= 3
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # mesh files written per level
    for lvl in range(len(errs)):
        assert (tmp_path / "out" / f"level_{lvl:03d}.mesh").exists()


def test_cli_main_override_flags(tmp_path):
    code = main(["run", "--benchmark", "manufactured-affine", "--degree",
                 "1", "--out", str(tmp_path / "cli_out")])
    assert code == 0
    assert (tmp_path / "cli_out" / "convergence.csv").exists()


def test_cli_main_rejects_bad_eps(tmp_path, capsys):
    code = main(["run", "--benchmark", "manufactured-affine", "--eps",
                 "7.0", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"max_iter": 0}, {"grad_tol": float("nan")},
    {"energy_tol": float("inf")}],
    ids=lambda bad: next(iter(bad)))
def test_cli_main_rejects_bad_config_file(tmp_path, capsys, bad):
    """A solver setting out of range in a config file exits 2 with the
    rule named, before any level is solved; the NaN and Infinity that
    JSON files may hold are out of range for a tolerance."""
    path = write_config(tmp_path, benchmark="manufactured-affine",
                        out=str(tmp_path / "x"), **bad)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(bad)) in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8",
                                  "out-is-file"])
def test_cli_main_unusable_paths_exit_2(tmp_path, capsys, monkeypatch,
                                        case):
    """A config file that is missing, a directory or not UTF-8 text, and
    an output path that is a regular file, exit 2 with an ``error:``
    line naming the path, before any level is solved."""
    import ahho.cli as cli
    monkeypatch.setattr(cli, "run_ahho", lambda *a, **kw: pytest.fail(
        "a level was solved"))
    path = tmp_path / "config.json"
    argv = ["--config", str(path), "--out", str(tmp_path / "x")]
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b'{"benchmark": "manufactured-affine\xff"}')
    elif case == "out-is-file":
        path = tmp_path / "x"
        path.write_text("not a directory")
        argv = ["--benchmark", "manufactured-affine", "--out", str(path)]
    assert main(["run", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


# the settings of the removed L-BFGS optimizer and the Armijo constants,
# now fixed, with the values they used to default to
REMOVED_SOLVER_KEYS = {"step_tol": 1e-14, "method": "lbfgs",
                       "lbfgs_memory": 10, "armijo_c1": 1e-4,
                       "backtrack": 0.5}


@pytest.mark.parametrize("key", REMOVED_SOLVER_KEYS)
def test_cli_main_rejects_removed_solver_keys(tmp_path, capsys, key):
    """A config that still sets a removed solver key exits 2 instead of
    running without it."""
    path = write_config(tmp_path, benchmark="manufactured-affine",
                        out=str(tmp_path / "x"),
                        **{key: REMOVED_SOLVER_KEYS[key]})
    assert main(["run", "--config", str(path)]) == 2
    assert f"error: unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_readme_lists_every_config_field(tmp_path):
    """The README is the list of settings: it names every ``RunConfig``
    field, and its JSON example is a config that loads."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    missing = [name for name in RunConfig.__dataclass_fields__
               if f"`{name}`" not in readme and f'"{name}"' not in readme]
    assert not missing
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.json"
    path.write_text(example, encoding="utf-8")
    assert load_config(path).benchmark == json.loads(example)["benchmark"]


def test_adaptive_run_outputs_and_determinism(tmp_path):
    """Adaptive two-well run: stab/LEB columns present where defined, mesh
    files read back conforming, run.json reloadable, rerun identical."""
    def one(outdir):
        cfg = RunConfig(benchmark="two-well-rect", k=0, mode="adaptive",
                        max_ndof=800, max_levels=12, out=str(outdir))
        assert run(cfg) == 0
        return (outdir / "convergence.csv").read_bytes()

    blob = one(tmp_path / "a")
    assert blob == one(tmp_path / "b")
    csv = blob.decode().splitlines()
    header = csv[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in csv[1:]]
    assert len(rows) >= 3
    ndofs = [int(r["ndof"]) for r in rows]
    assert all(b > a for a, b in zip(ndofs, ndofs[1:]))
    for r in rows:
        assert r["rhs"] == ""            # no conjugate for the two-well
        assert float(r["leb"]) <= 0.1078147674 + 1e-8
    # mesh readback: conforming, matching triangle counts
    from ahho.mesh import read_mesh
    for i, r in enumerate(rows):
        mesh = read_mesh(tmp_path / "a" / f"level_{i:03d}.mesh")
        assert mesh.num_triangles == int(r["ntriangles"])
    cfg2 = load_config(tmp_path / "a" / "run.json")
    assert cfg2.benchmark == "two-well-rect"


def test_stabilized_run_writes_stab_column(tmp_path):
    cfg = RunConfig(benchmark="odp-lshape", k=0, mode="uniform",
                    variant="stabilized", max_ndof=300,
                    out=str(tmp_path / "st"))
    assert run(cfg) == 0
    csv = (tmp_path / "st" / "convergence.csv").read_text().splitlines()
    header = csv[0].split(",")
    vals = [float(dict(zip(header, line.split(",")))["stab"])
            for line in csv[1:]]
    assert len(vals) >= 2
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_solver_failure_nonzero_exit_partial_csv(tmp_path):
    cfg = RunConfig(benchmark="p-laplace-lshape", k=0, mode="uniform",
                    max_ndof=500, max_iter=2, out=str(tmp_path / "fail"))
    code = run(cfg)
    assert code == 1
    csv = (tmp_path / "fail" / "convergence.csv").read_text().splitlines()
    assert len(csv) == 2  # header + the single flagged level


# Imports ahho in a fresh interpreter and prints the BLAS thread variable
# and the thread count OpenBLAS reports (None where numpy's OpenBLAS does
# not export the query).
_THREADS_PROBE = """
import ctypes, glob, json, os
import ahho
import numpy
threads = None
libdir = os.path.dirname(numpy.__file__) + ".libs"
for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None and threads is None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            threads = fn()
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


@pytest.fixture(scope="module")
def threads_probe():
    """AHHO_THREADS=1 with no BLAS thread variable set."""
    import ahho
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["AHHO_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ahho.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_ahho_threads_sets_blas_env_on_import(threads_probe):
    assert threads_probe[0] == "1"


def test_ahho_threads_reaches_openblas(threads_probe):
    if threads_probe[1] is None:
        pytest.skip("numpy's OpenBLAS does not export a thread-count query")
    assert threads_probe[1] == 1


def test_discrete_stress_once_per_level(tmp_path, monkeypatch):
    """``ahho run`` computes sigma once per level: the value from
    ``run_ahho`` is the one the reports use."""
    from ahho.solver import DiscreteProblem
    calls = []
    stress = DiscreteProblem.discrete_stress

    def counted(self, u):
        calls.append(self)
        return stress(self, u)

    monkeypatch.setattr(DiscreteProblem, "discrete_stress", counted)
    out = tmp_path / "run"
    code = main(["run", "--benchmark", "p-laplace-lshape", "--degree", "0",
                 "--max-ndof", "150", "--out", str(out)])
    assert code == 0
    levels = len((out / "convergence.csv").read_text().splitlines()) - 1
    assert levels >= 3
    assert len(calls) == levels
    assert len(set(map(id, calls))) == levels


def test_companion_once_per_level(tmp_path, monkeypatch):
    """``ahho run`` computes J_l u_l once per level: the prolongation and
    the dual bound read the same companion."""
    from ahho.hho import HhoSpace
    calls = []
    companion = HhoSpace.companion

    def counted(self, v):
        calls.append(self)
        return companion(self, v)

    monkeypatch.setattr(HhoSpace, "companion", counted)
    out = tmp_path / "run"
    code = main(["run", "--benchmark", "p-laplace-lshape", "--degree", "0",
                 "--max-ndof", "150", "--out", str(out)])
    assert code == 0
    rows = (out / "convergence.csv").read_text().splitlines()[1:]
    rhs = [row.split(",")[CSV_COLUMNS.index("rhs")] for row in rows]
    assert len(rhs) >= 3 and all(rhs)
    assert len(calls) == len(rhs)
    assert len(set(map(id, calls))) == len(rhs)


@pytest.mark.parametrize("name, k, closure, per_level", [
    ("p-laplace-lshape", 1, "_polar_lshape", 2),
    ("two-well-rect", 0, "two_well_grad", 1)])
def test_report_exact_fields_once_per_point_set(monkeypatch, name, k,
                                                closure, per_level):
    """The reports evaluate the exact fields and W'(G u) once per point
    set and level: the error norms and the lower energy bound share the
    volume rule, and only the L-shape adds its graded corner rule."""
    import ahho.benchmarks as benchmarks
    from ahho.adaptivity import EstimatorParams, run_ahho
    from ahho.cli import build_reports
    calls = []
    fn = getattr(benchmarks, closure)
    monkeypatch.setattr(benchmarks, closure,
                        lambda p: calls.append(p.shape) or fn(p))
    bench = benchmarks.get_benchmark(name)
    records = run_ahho(bench, k, EstimatorParams(eps=(k + 1) / 100.0),
                       max_ndof=200)
    calls.clear()
    dw_calls = []
    dw = bench.density.dw
    monkeypatch.setattr(bench.density, "dw",
                        lambda A: dw_calls.append(A.shape) or dw(A))
    rows = build_reports(records, bench)
    assert len(rows) >= 3
    assert all(row["leb"] is not None and row["err_grad_Lp"] is not None
               for row in rows)
    assert len(calls) == per_level * len(rows)
    assert len(dw_calls) == per_level * len(rows)


@pytest.mark.parametrize("name, unread", [("p-laplace-lshape", 0),
                                          ("two-well-rect", 1)])
def test_companion_only_where_read(tmp_path, monkeypatch, name, unread):
    """Without a convex conjugate only the prolongation reads J_l u_l:
    the last level's companion is not computed."""
    from ahho.hho import HhoSpace
    calls = []
    companion = HhoSpace.companion

    def counted(self, v):
        calls.append(self)
        return companion(self, v)

    monkeypatch.setattr(HhoSpace, "companion", counted)
    out = tmp_path / "run"
    code = main(["run", "--benchmark", name, "--degree", "0",
                 "--max-ndof", "150", "--out", str(out)])
    assert code == 0
    levels = len((out / "convergence.csv").read_text().splitlines()) - 1
    assert levels >= 3
    assert len(calls) == levels - unread


@pytest.mark.parametrize("name, k", [("p-laplace-lshape", 1),
                                     ("two-well-rect", 0)])
def test_no_table_kept_past_its_level(name, k):
    """The loop releases each level's kept tables after its companion,
    and the reports once the row is made: no record's space holds a
    table afterwards."""
    from ahho.adaptivity import EstimatorParams, run_ahho
    from ahho.benchmarks import get_benchmark
    from ahho.cli import build_reports
    bench = get_benchmark(name)
    records = run_ahho(bench, k, EstimatorParams(
        eps=(k + 1) / 100.0, kind=bench.indicator_kind), max_ndof=600)
    assert len(records) >= 3
    assert not any(r.problem.space._tables for r in records)
    rows = build_reports(records, bench)
    assert all(row["leb"] is not None for row in rows)
    assert not any(r.problem.space._tables for r in records)
