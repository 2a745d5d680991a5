"""Non-monotone backtracking line search.

Given the current iterate, one subgradient s_k, the incoming trial size
alpha_k, and the slack gamma_k, find the smallest ell >= 1 whose candidate
size beta**(ell-1) * alpha_k satisfies both

    candidate <= c * gamma_k                             (size cap)
    f(P_C(x_k - beta*candidate*s_k))
        <= f(x_k) - rho*(beta*candidate)*||s_k||^2 + gamma_k   (decrease)

The applied step is beta*candidate and the accepted candidate becomes the
next iteration's trial size, so the next search restarts one rung above the
accepted step. Each rung's candidate is formed by rung() when the search
reaches it; analysis.audit_stepwise derives a recorded rung with the same
rung(), so the two agree bit for bit whatever vector power the CPU's numpy
dispatches. cfg.backtrack_cap only bounds ell and costs nothing until it is
reached. The decrease test, <= with no epsilon, is the only acceptance test:
a NaN or +inf trial value fails it, so that rung is rejected. The additive
gamma_k slack is what lets the objective increase between iterates.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .core import BacktrackFailureError, SolverConfig

__all__ = ["LineSearchOutcome", "nonmonotone_backtrack", "rung"]


class LineSearchOutcome(NamedTuple):
    """ell: accepted rung (>= 1); x_next: projected trial point;
    alpha_next = beta**(ell-1)*alpha_k, of which the applied step is
    beta*alpha_next; trials: number of objective evaluations spent."""

    ell: int
    x_next: np.ndarray
    alpha_next: float
    trials: int


def rung(alpha_k: float, beta: float, ell: int) -> float:
    """The candidate size of rung ell >= 1: beta**(ell-1) * alpha_k, with
    Python's float pow of an int ell."""
    return beta ** (ell - 1) * alpha_k


def nonmonotone_backtrack(
    value: Callable[[np.ndarray], float],
    projector: Callable[[np.ndarray], np.ndarray],
    x_k: np.ndarray,
    f_k: float,
    s_k: np.ndarray,
    snorm_sq: float,
    alpha_k: float,
    gamma_k: float,
    cfg: SolverConfig,
) -> LineSearchOutcome:
    """Smallest-ell search, forming candidate beta**(ell-1) * alpha_k at each
    rung it reaches, for ell = 1, ..., cfg.backtrack_cap; snorm_sq is
    ||s_k||^2 as the caller computed it. Raises ValueError unless snorm_sq is
    positive and finite, and BacktrackFailureError past rung cfg.backtrack_cap."""
    if not 0.0 < snorm_sq < math.inf:
        raise ValueError(f"zero subgradient or overflowed norm (snorm_sq={snorm_sq!r}): "
                         "caller must stop before searching")
    beta, rho = cfg.beta, cfg.rho
    size_cap = cfg.c * gamma_k
    trials = 0
    for ell in range(1, cfg.backtrack_cap + 1):
        candidate = rung(alpha_k, beta, ell)
        if candidate > size_cap:
            continue  # size cap fails; shrinking beta**ell will fix it, no oracle call
        step = beta * candidate
        x_trial = projector(x_k - s_k * step)
        f_trial = value(x_trial)
        trials += 1
        if f_trial <= f_k - rho * step * snorm_sq + gamma_k:
            return LineSearchOutcome._make((ell, x_trial, candidate, trials))
    raise BacktrackFailureError(
        f"no acceptable step within backtrack_cap={cfg.backtrack_cap} rungs "
        f"(alpha_k={alpha_k!r}, gamma_k={gamma_k!r})"
    )
