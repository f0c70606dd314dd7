"""Run configuration, orchestration, and bit-stable outputs.

A run executes the adaptive (or uniform) loop for one benchmark and
writes ``convergence.csv``, per-level ``level_###.mesh`` files, and a
``run.json`` echo of the configuration.  :func:`build_reports` turns each
level's ``LevelRecord`` into its CSV row, a dict keyed by ``CSV_COLUMNS``;
the printed summary reads the records.  Reruns are byte-identical
(timing is off by default; the seconds column is then empty).
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .adaptivity import EstimatorParams, run_ahho
from .benchmarks import register_benchmarks
from .densities import UnsupportedConjugate
from .diagnostics import (aitken_extrapolate, dual_bound, error_norms,
                          ReportFields, fit_rate, lower_energy_bound)
from .hho import RT, STABILIZED
from .mesh import write_mesh
from .solver import SolverSettings

CSV_COLUMNS = ("level", "ndof", "ntriangles", "energy", "estimator", "stab",
               "err_energy", "err_grad_Lp", "err_stress_Lpprime",
               "err_vol_L2", "leb", "rhs", "seconds")


class ConfigError(Exception):
    """Invalid run configuration; the message names the violated rule."""


@dataclass
class RunConfig:
    benchmark: str
    k: int = 0
    variant: str = RT
    mode: str = "adaptive"
    theta: float = 0.5
    eps: object = "auto"            # float or "auto" = (k+1)/100
    max_ndof: int = 20000
    max_levels: int = 30
    grad_tol: float = 1e-10
    energy_tol: float = 1e-15
    max_iter: int = 50000
    out: str = "out"
    timing: bool = False

    def resolved_eps(self):
        if self.eps == "auto":
            return (self.k + 1) / 100.0
        return float(self.eps)

    def estimator_params(self, benchmark):
        return EstimatorParams(eps=self.resolved_eps(), theta=self.theta,
                               kind=benchmark.indicator_kind)

    def solver_settings(self):
        return SolverSettings(grad_tol=self.grad_tol,
                              energy_tol=self.energy_tol,
                              max_iter=self.max_iter)


def _check_types(cfg):
    """Every field must have its annotated type: an int field takes no
    bool, a float field also takes an int, and eps also takes "auto"."""
    for f in RunConfig.__dataclass_fields__.values():
        val = getattr(cfg, f.name)
        want = "float" if f.name == "eps" else f.type
        if want == "bool":
            ok = isinstance(val, bool)
        elif want == "str":
            ok = isinstance(val, str)
        else:
            number = numbers.Integral if want == "int" else numbers.Real
            ok = isinstance(val, number) and not isinstance(val, bool)
            if f.name == "eps":
                ok = ok or val == "auto"
        if not ok:
            what = "a number or 'auto'" if f.name == "eps" else f"a {want}"
            raise ConfigError(f"{f.name} must be {what}, got {val!r}")


def _parse_eps(text):
    """The --eps argument: "auto" or a float."""
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"eps must be a number or 'auto', got {text!r}") from None


def validate_config(cfg):
    _check_types(cfg)
    registry = register_benchmarks()
    if cfg.benchmark not in registry:
        raise ConfigError(f"unknown benchmark {cfg.benchmark!r}; known: "
                          + ", ".join(sorted(registry)))
    if cfg.k < 0:
        raise ConfigError("polynomial degree requires k >= 0")
    if cfg.variant not in (RT, STABILIZED):
        raise ConfigError(f"variant must be '{RT}' or '{STABILIZED}'")
    if cfg.mode not in ("adaptive", "uniform"):
        raise ConfigError("mode must be 'adaptive' or 'uniform'")
    if cfg.max_ndof < 1 or cfg.max_levels < 1:
        raise ConfigError("max_ndof and max_levels must be positive")
    bench = registry[cfg.benchmark]()
    try:
        cfg.estimator_params(bench).validate(cfg.k, bench.density.p,
                                             cfg.variant)
        cfg.solver_settings().validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return bench


def load_config(path):
    """Read a JSON config file, apply defaults, and validate."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: "
                          f"{getattr(exc, 'strerror', exc)}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "benchmark" not in raw:
        raise ConfigError("config requires a 'benchmark' key")
    cfg = RunConfig(**raw)
    validate_config(cfg)
    return cfg


def serialize_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def build_reports(records, bench):
    """The ``convergence.csv`` row of each driver record, a dict keyed by
    ``CSV_COLUMNS``: the record's values with the error norms and the
    certified bounds (None where they do not apply).  The error norms and
    the lower energy bound read one :class:`ReportFields` per level."""
    rows = []
    exact = bench.exact
    for rec in records:
        problem, sigma = rec.problem, rec.sigma
        u = rec.solution.u
        row = dict.fromkeys(CSV_COLUMNS)
        row.update(level=rec.level, ndof=rec.ndof, ntriangles=rec.ntriangles,
                   energy=rec.energy, estimator=rec.estimator, stab=rec.stab,
                   seconds=rec.seconds)
        if exact.u is not None or exact.grad_u is not None:
            fields = ReportFields(problem, u, exact)
            (row["err_grad_Lp"], row["err_stress_Lpprime"],
             row["err_vol_L2"]) = error_norms(
                problem, u, exact, singular_point=bench.singular_point,
                fields=fields)
            if exact.grad_u is not None:
                row["leb"], _ = lower_energy_bound(problem, u, sigma, exact,
                                                   energy=rec.energy,
                                                   fields=fields)
        if bench.reference_energy is not None:
            row["err_energy"] = abs(rec.energy - bench.reference_energy)
        try:
            row["rhs"] = dual_bound(problem, u, sigma, rec.companion,
                                    energy=rec.energy)
        except UnsupportedConjugate:
            pass
        rows.append(row)
        problem.space.release_tables()
    return rows


def write_csv(rows, path, timing=False):
    """``rows`` from :func:`build_reports`; the seconds column stays empty
    unless ``timing``."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = [str(row[c]) for c in CSV_COLUMNS[:3]]
        cells += [_fmt(row[c]) for c in CSV_COLUMNS[3:-1]]
        cells.append(_fmt(row["seconds"]) if timing else "")
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg):
    """Execute one configured run; returns the exit code."""
    bench = validate_config(cfg)
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out}: {exc.strerror}") from None
    serialize_config(cfg, out / "run.json")
    params = cfg.estimator_params(bench)
    records = run_ahho(bench, cfg.k, params, max_ndof=cfg.max_ndof,
                       max_levels=cfg.max_levels, mode=cfg.mode,
                       settings=cfg.solver_settings(), variant=cfg.variant)
    write_csv(build_reports(records, bench), out / "convergence.csv",
              timing=cfg.timing)
    for rec in records:
        write_mesh(rec.problem.space.mesh,
                   out / f"level_{rec.level:03d}.mesh")
    failed = any(not r.converged for r in records)
    for r in records:
        status = "ok" if r.converged else "SOLVER-FAILED"
        print(f"level {r.level:2d}  ndof {r.ndof:7d}  energy {r.energy:+.10f}"
              f"  estimator {r.estimator:.3e}  {status}")
    if len(records) >= 2:
        try:
            slope, _ = fit_rate([r.ndof for r in records],
                                [max(r.estimator, 1e-300) for r in records])
            print(f"estimator slope vs ndof: {slope:+.3f}")
        except ValueError:
            pass
    if bench.reference_energy is not None:
        print(f"reference energy: {bench.reference_energy!r}")
    if len(records) >= 3:
        limit, degenerate = aitken_extrapolate([r.energy for r in records])
        if not degenerate:
            print(f"extrapolated energy: {limit!r}")
    return 1 if failed else 0


def build_argparser():
    parser = argparse.ArgumentParser(
        prog="ahho",
        description="Adaptive hybrid high-order solver for convex "
                    "minimization problems")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a configured benchmark run")
    runp.add_argument("--config", type=str, default=None,
                      help="JSON configuration file")
    runp.add_argument("--benchmark", type=str, default=None)
    runp.add_argument("--degree", type=int, default=None, dest="k")
    runp.add_argument("--mode", type=str, default=None)
    runp.add_argument("--theta", type=float, default=None)
    runp.add_argument("--eps", type=str, default=None)
    runp.add_argument("--max-ndof", type=int, default=None)
    runp.add_argument("--variant", type=str, default=None)
    runp.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None):
    parser = build_argparser()
    args = parser.parse_args(argv)
    if args.command == "run":
        if not (args.config or args.benchmark):
            parser.error("either --config or --benchmark is required")
        try:
            cfg = (load_config(args.config) if args.config
                   else RunConfig(benchmark=args.benchmark))
            for key in ("benchmark", "k", "mode", "theta", "max_ndof",
                        "variant", "out"):
                val = getattr(args, key, None)
                if val is not None:
                    setattr(cfg, key, val)
            if args.eps is not None:
                cfg.eps = _parse_eps(args.eps)
            return run(cfg)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
