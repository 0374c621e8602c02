"""Anderson-extrapolated coordinate descent solvers and benchmarks."""

from .anderson import (ExtrapolationWindow, extrapolation_coefficients,
                       offline_anderson, online_anderson)
from .data import (CscMatrix, Dataset, gen_correlated_gaussian, load_sample,
                   parse_libsvm, serialize_libsvm)
from .errors import ArgumentError, ParseError
from .fixedpoint import (LinearIteration, NumericalRange, Quadratic,
                         RateBound, cd_iteration, cdsym_iteration,
                         gd_iteration, numerical_range_boundary,
                         spectral_radius)
from .problems import (ElasticNet, GroupLasso, Lasso, LogRegL1, LogRegL2,
                       duality_gap, lambda_max, objective_value,
                       ridge_quadratic)
from .solvers import SOLVERS, SolverConfig, Trace, solve

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CscMatrix",
    "Dataset",
    "ElasticNet",
    "ExtrapolationWindow",
    "GroupLasso",
    "Lasso",
    "LinearIteration",
    "LogRegL1",
    "LogRegL2",
    "NumericalRange",
    "ParseError",
    "Quadratic",
    "RateBound",
    "SOLVERS",
    "SolverConfig",
    "Trace",
    "cd_iteration",
    "cdsym_iteration",
    "duality_gap",
    "extrapolation_coefficients",
    "gd_iteration",
    "gen_correlated_gaussian",
    "lambda_max",
    "load_sample",
    "numerical_range_boundary",
    "objective_value",
    "offline_anderson",
    "online_anderson",
    "parse_libsvm",
    "ridge_quadratic",
    "serialize_libsvm",
    "solve",
    "spectral_radius",
    "__version__",
]
