"""Non-monotone backtracking line search.

Given the current iterate, one subgradient s_k, the incoming trial size
alpha_k, and the slack gamma_k, find the smallest ell >= 1 whose candidate
size beta**(ell-1) * alpha_k satisfies both

    candidate <= c * gamma_k                             (size cap)
    f(P_C(x_k - beta*candidate*s_k))
        <= f(x_k) - rho*(beta*candidate)*||s_k||^2 + gamma_k   (decrease)

The applied step is beta*candidate and the accepted candidate becomes the
next iteration's trial size, so the next candidate ladder restarts one rung
above the accepted step. The decrease test uses <= with no epsilon; the
additive gamma_k slack is what lets the objective increase between iterates.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .core import BacktrackFailureError, OracleError, SolverConfig

__all__ = ["LineSearchOutcome", "nonmonotone_backtrack"]


class LineSearchOutcome(NamedTuple):
    """ell: accepted rung (>= 1); x_next: projected trial point; f_next: its
    value; alpha_next = beta**(ell-1)*alpha_k; step = beta*alpha_next, the
    size actually applied; trials: number of objective evaluations spent."""

    ell: int
    x_next: np.ndarray
    f_next: float
    alpha_next: float
    step: float
    trials: int


def nonmonotone_backtrack(
    value: Callable[[np.ndarray], float],
    projector: Callable[[np.ndarray], np.ndarray],
    x_k: np.ndarray,
    f_k: float,
    s_k: np.ndarray,
    alpha_k: float,
    gamma_k: float,
    cfg: SolverConfig,
) -> LineSearchOutcome:
    """Smallest-ell search; raises BacktrackFailureError past cfg.backtrack_cap
    and OracleError on a non-finite trial value."""
    snorm_sq = float(np.dot(s_k, s_k))
    if snorm_sq == 0.0:
        raise ValueError("zero subgradient: caller must stop before searching")
    if not math.isfinite(snorm_sq):
        raise OracleError("subgradient norm overflowed")
    c, beta, rho = cfg.c, cfg.beta, cfg.rho
    cap = cfg.backtrack_cap
    trials = 0
    for ell in range(1, cap + 1):
        candidate = beta ** (ell - 1) * alpha_k
        if candidate > c * gamma_k:
            continue  # size cap fails; shrinking beta**ell will fix it, no oracle call
        step = beta * candidate
        x_trial = projector(x_k - step * s_k)
        f_trial = value(x_trial)
        trials += 1
        if not math.isfinite(f_trial):
            raise OracleError(f"objective value {f_trial!r} at trial ell={ell}")
        if f_trial <= f_k - rho * step * snorm_sq + gamma_k:
            return LineSearchOutcome(
                ell=ell,
                x_next=x_trial,
                f_next=float(f_trial),
                alpha_next=candidate,
                step=step,
                trials=trials,
            )
    raise BacktrackFailureError(
        f"no acceptable step within {cap} backtracking trials "
        f"(alpha_k={alpha_k!r}, gamma_k={gamma_k!r})"
    )
