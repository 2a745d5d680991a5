"""Nonsmooth convex minimization with a non-monotone projected subgradient method.

The solver backtracks a step size against a relaxed decrease condition that
allows controlled increases driven by a vanishing tolerance sequence, then
projects onto the feasible set. Companion pieces: four classical prefixed-step
baselines, two test problem families with planted or independently computed
optima, and an audit layer that re-checks per-iteration inequalities and
convergence-rate bounds on recorded runs.
"""

from . import analysis, core, linesearch, problems, solver
from ._kernels import BACKEND
from .core import *
from .problems import *
from .linesearch import *
from .solver import *
from .analysis import *

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    *core.__all__,
    *problems.__all__,
    *linesearch.__all__,
    *solver.__all__,
    *analysis.__all__,
]
