"""Run configuration, orchestration, and bit-stable outputs.

A run executes the adaptive (or uniform) loop for one benchmark and
writes ``convergence.csv``, per-level ``level_###.mesh`` files, and a
``run.json`` echo of the configuration.  Reruns are byte-identical
(timing is off by default; the seconds column is then empty).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from .adaptivity import EstimatorParams, run_ahho
from .benchmarks import register_benchmarks
from .densities import UnsupportedConjugate
from .diagnostics import (LevelReport, aitken_extrapolate, dual_bound,
                          error_norms, fit_rate, lower_energy_bound)
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
    step_tol: float = 1e-14
    energy_tol: float = 1e-15
    max_iter: int = 50000
    method: str = "auto"
    lbfgs_memory: int = 10
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
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
        return SolverSettings(grad_tol=self.grad_tol, step_tol=self.step_tol,
                              energy_tol=self.energy_tol,
                              max_iter=self.max_iter, method=self.method,
                              memory=self.lbfgs_memory,
                              armijo_c1=self.armijo_c1,
                              backtrack=self.backtrack)


def validate_config(cfg):
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
    bench = registry[cfg.benchmark]()
    try:
        cfg.estimator_params(bench).validate(cfg.k, bench.density.p,
                                             cfg.variant)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.max_ndof < 1 or cfg.max_levels < 1:
        raise ConfigError("max_ndof and max_levels must be positive")
    if min(cfg.grad_tol, cfg.step_tol, cfg.energy_tol) <= 0:
        raise ConfigError("solver tolerances must be positive")
    if cfg.method not in ("auto", "newton", "lbfgs"):
        raise ConfigError("method must be auto, newton, or lbfgs")
    if cfg.lbfgs_memory < 1:
        raise ConfigError("lbfgs_memory must be positive")
    if not (0 < cfg.armijo_c1 < 1) or not (0 < cfg.backtrack < 1):
        raise ConfigError("line-search parameters must lie in (0, 1)")
    return bench


def load_config(path):
    """Read a JSON config file, apply defaults, and validate."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
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
    """Enrich raw driver records with error norms and certified bounds."""
    reports = []
    for rec in records:
        problem, sigma = rec.problem, rec.sigma
        u = rec.solution.u
        err_grad = err_stress = err_vol = err_energy = None
        leb = leb_no = rhs = None
        exact = bench.exact
        if exact.u is not None or exact.grad_u is not None:
            err_grad, err_stress, err_vol = error_norms(
                problem, u, exact, singular_point=bench.singular_point)
        if bench.reference_energy is not None:
            err_energy = abs(rec.energy - bench.reference_energy)
        if exact.grad_u is not None:
            leb, leb_no = lower_energy_bound(problem, u, sigma, exact,
                                             energy=rec.energy)
        try:
            rhs = dual_bound(problem, u, sigma, rec.companion,
                             energy=rec.energy)
        except UnsupportedConjugate:
            rhs = None
        reports.append(LevelReport(
            level=rec.level, ndof=rec.ndof, ntriangles=rec.ntriangles,
            energy=rec.energy, estimator=rec.estimator, stab=rec.stab,
            err_energy=err_energy, err_grad=err_grad, err_stress=err_stress,
            err_vol=err_vol, leb=leb, leb_no_osc=leb_no, rhs=rhs,
            seconds=rec.seconds, converged=rec.converged))
    return reports


def write_csv(reports, path, timing=False):
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        row = [str(r.level), str(r.ndof), str(r.ntriangles), _fmt(r.energy),
               _fmt(r.estimator), _fmt(r.stab), _fmt(r.err_energy),
               _fmt(r.err_grad), _fmt(r.err_stress), _fmt(r.err_vol),
               _fmt(r.leb), _fmt(r.rhs),
               _fmt(r.seconds) if timing else ""]
        lines.append(",".join(row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg):
    """Execute one configured run; returns the exit code."""
    bench = validate_config(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize_config(cfg, out / "run.json")
    params = cfg.estimator_params(bench)
    records = run_ahho(bench, cfg.k, params, max_ndof=cfg.max_ndof,
                       max_levels=cfg.max_levels, mode=cfg.mode,
                       settings=cfg.solver_settings(), variant=cfg.variant)
    reports = build_reports(records, bench)
    write_csv(reports, out / "convergence.csv", timing=cfg.timing)
    for rec in records:
        write_mesh(rec.problem.space.mesh,
                   out / f"level_{rec.level:03d}.mesh")
    failed = any(not r.converged for r in reports)
    for r in reports:
        status = "ok" if r.converged else "SOLVER-FAILED"
        print(f"level {r.level:2d}  ndof {r.ndof:7d}  energy {r.energy:+.10f}"
              f"  estimator {r.estimator:.3e}  {status}")
    if len(reports) >= 2:
        try:
            slope, _ = fit_rate([r.ndof for r in reports],
                                [max(r.estimator, 1e-300) for r in reports])
            print(f"estimator slope vs ndof: {slope:+.3f}")
        except ValueError:
            pass
    if bench.reference_energy is not None:
        print(f"reference energy: {bench.reference_energy!r}")
    if len(reports) >= 3:
        limit, degenerate = aitken_extrapolate([r.energy for r in reports])
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
        if args.config:
            cfg = load_config(args.config)
        else:
            if not args.benchmark:
                parser.error("either --config or --benchmark is required")
            cfg = RunConfig(benchmark=args.benchmark)
        for key in ("benchmark", "k", "mode", "theta", "max_ndof",
                    "variant", "out"):
            val = getattr(args, key, None)
            if val is not None:
                setattr(cfg, key, val)
        if args.eps is not None:
            cfg.eps = args.eps if args.eps == "auto" else float(args.eps)
        try:
            validate_config(cfg)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return run(cfg)
    return 2


if __name__ == "__main__":
    sys.exit(main())
