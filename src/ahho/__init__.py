"""Adaptive hybrid high-order methods for convex minimization problems."""

import os

# BLAS reads its thread count when numpy is first imported, so the cap
# from AHHO_THREADS goes into the environment before any submodule
# imports numpy; thread variables that are already set win.
if os.environ.get("AHHO_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["AHHO_THREADS"])

from .adaptivity import EstimatorParams, estimate, mark_doerfler, prolong, \
    run_ahho
from .benchmarks import get_benchmark, register_benchmarks
from .hho import HhoSpace, HhoVector
from .mesh import Triangulation, build_triangulation, read_mesh, \
    refine_nvb, refine_uniform, shape_regularity, write_mesh
from .solver import DiscreteProblem, SolverSettings, minimize

__version__ = "0.1.0"

__all__ = [
    "EstimatorParams", "estimate", "mark_doerfler", "prolong", "run_ahho",
    "get_benchmark", "register_benchmarks",
    "HhoSpace", "HhoVector",
    "Triangulation", "build_triangulation", "read_mesh", "refine_nvb",
    "refine_uniform", "shape_regularity", "write_mesh",
    "DiscreteProblem", "SolverSettings", "minimize",
]
