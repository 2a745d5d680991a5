"""Projected subgradient solvers.

solve_nonmonotone runs the backtracking method; solve_prefixed runs the
classical prefixed-step rules used as baselines. Both produce a RunReport
whose rows cover every visited iterate: rows with ell >= 1 are line-search
steps, and the final landed iterate is always recorded as a trailing row with
the ell = 0 sentinel (prefixed runs use the sentinel on every row). A budget
of max_iters therefore yields max_iters + 1 rows unless the run stops early.

Runs are deterministic: identical (problem, config, start) give identical
traces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    BacktrackFailureError,
    OracleError,
    RunReport,
    SolverConfig,
    TERMINATION_BACKTRACK_FAILURE,
    TERMINATION_MAX_ITERS,
    TERMINATION_NONFINITE_ORACLE,
    TERMINATION_ZERO_SUBGRADIENT,
    TheoryRegimeWarning,
    _RECORD_FIELDS,
    _report,
    as_point,
    gamma_values,
)
from .problems import ProblemSpec, _atomic_write

__all__ = [
    "ConstantStep",
    "ConstantLength",
    "NonsummableDiminishing",
    "SquareSummable",
    "StepRule",
    "solve_nonmonotone",
    "solve_prefixed",
    "write_trace_csv",
    "read_trace_csv",
]


# ----- prefixed step rules -----


@dataclass(frozen=True)
class ConstantStep:
    """alpha_k = a."""

    a: float = 0.1

    def size(self, k: int, snorm: float) -> float:
        return self.a


@dataclass(frozen=True)
class ConstantLength:
    """alpha_k = a / ||s_k||, so every raw step has length a."""

    a: float = 0.2

    def size(self, k: int, snorm: float) -> float:
        return self.a / snorm


@dataclass(frozen=True)
class NonsummableDiminishing:
    """alpha_k = a / sqrt(k)."""

    a: float = 0.1

    def size(self, k: int, snorm: float) -> float:
        return self.a / math.sqrt(k)


@dataclass(frozen=True)
class SquareSummable:
    """alpha_k = a / k."""

    a: float = 0.5

    def size(self, k: int, snorm: float) -> float:
        return self.a / k


StepRule = Union[ConstantStep, ConstantLength, NonsummableDiminishing, SquareSummable]


def _check_rule(rule: StepRule) -> None:
    if not isinstance(rule, (ConstantStep, ConstantLength, NonsummableDiminishing, SquareSummable)):
        raise TypeError(f"not a step rule: {rule!r}")
    if not (rule.a > 0.0 and math.isfinite(rule.a)):
        raise ValueError(f"step constant must be positive, got {rule.a}")


# ----- starting point -----


def _start_point(problem: ProblemSpec, x0) -> np.ndarray:
    if x0 is None:
        x0 = np.zeros(problem.n)
    x = problem.project(as_point(x0))
    return np.ascontiguousarray(x, dtype=np.float64)


# ----- non-monotone solver -----


def solve_nonmonotone(
    problem: ProblemSpec, cfg: SolverConfig, x0=None
) -> RunReport:
    """Run the backtracking method for cfg.max_iters steps.

    Stops early only on an exactly zero subgradient, an exhausted
    backtracking cap or a non-finite value or subgradient norm, in which case
    the partial trace is returned with the matching termination tag. Warns
    with TheoryRegimeWarning when rho <= 1/2.
    """
    from .linesearch import beta_ladder, nonmonotone_backtrack

    if cfg.rho <= 0.5:
        warnings.warn(f"rho = {cfg.rho} <= 1/2: complexity constants are non-positive, "
                      "rate audits will not apply", TheoryRegimeWarning, stacklevel=2)
    gammas = gamma_values(cfg.gamma, cfg.max_iters + 1).tolist()  # fails fast on short tables
    ladder = beta_ladder(cfg)
    max_iters = cfg.max_iters
    value, evaluate, project = problem.value, problem.eval, problem.project
    x = _start_point(problem, x0)
    f = value(x)
    alpha = cfg.alpha1
    rows = []  # one tuple per step, in IterationRecord field order
    tag = TERMINATION_NONFINITE_ORACLE  # unless a break below names another cause

    # every exit breaks out with the last iterate still unrecorded; past the
    # budget, its subgradient is evaluated so the trace is uniform and a zero
    # there is reported
    for k, gamma_k in enumerate(gammas, 1):
        if not math.isfinite(f):
            snorm = math.nan
            break
        _, s = evaluate(x)
        snorm_sq = float(s.dot(s))
        snorm = math.sqrt(snorm_sq) if math.isfinite(snorm_sq) else math.inf
        if snorm_sq == 0.0:
            tag = TERMINATION_ZERO_SUBGRADIENT
            break
        if k > max_iters:
            tag = TERMINATION_MAX_ITERS
            break
        if not math.isfinite(snorm_sq):
            break
        try:
            ell, x_next, f_next, alpha_next, step, _ = nonmonotone_backtrack(
                value, project, x, f, s, snorm_sq, alpha, gamma_k, cfg, ladder
            )
        except BacktrackFailureError:
            tag = TERMINATION_BACKTRACK_FAILURE
            break
        except OracleError:
            break
        rows.append((k, x, f, gamma_k, alpha, ell, step, snorm, alpha_next))
        x, f, alpha = x_next, f_next, alpha_next
    rows.append((k, x, f, gamma_k, alpha, 0, 0.0, snorm, alpha))
    return _report(dict(zip(_RECORD_FIELDS, zip(*rows))), tag)


# ----- prefixed-step solver -----


def solve_prefixed(
    problem: ProblemSpec, rule: StepRule, max_iters: int, x0=None
) -> RunReport:
    """x_{k+1} = P_C(x_k - alpha_k * s_k) with alpha_k from the rule.

    Every row uses the ell = 0 sentinel and stores the applied size in both
    alpha and step; gamma is recorded as NaN (no slack sequence exists here).
    A zero subgradient stops the run before any division by ||s_k||.
    """
    _check_rule(rule)
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    x = _start_point(problem, x0)
    nan = math.nan
    rows = []

    for k in range(1, max_iters + 2):
        f, s = problem.eval(x)
        snorm_sq = float(s.dot(s))
        snorm = math.sqrt(snorm_sq) if math.isfinite(snorm_sq) else math.inf
        if snorm_sq == 0.0:
            tag = TERMINATION_ZERO_SUBGRADIENT
            break
        if k > max_iters:
            tag = TERMINATION_MAX_ITERS
            break
        if not (math.isfinite(f) and math.isfinite(snorm_sq)):
            tag = TERMINATION_NONFINITE_ORACLE
            break
        size = rule.size(k, snorm)
        rows.append((k, x, f, nan, size, 0, size, snorm, nan))
        x = problem.project(x - s * size)
    rows.append((k, x, f, nan, nan, 0, 0.0, snorm, nan))
    return _report(dict(zip(_RECORD_FIELDS, zip(*rows))), tag)


# ----- trace serialization -----
#
# Columns are exactly the plotted series: k, f, fbest_gap (only when f_star is
# known), alpha, ell, gamma, snorm. fbest_gap is the running best value minus
# f_star. Iterates are not serialized. Floats are written with repr, which
# round-trips exactly.

_GAP_COLUMNS = ("k", "f", "fbest_gap", "alpha", "ell", "gamma", "snorm")
_COLUMNS = tuple(c for c in _GAP_COLUMNS if c != "fbest_gap")
_INT_COLUMNS = ("k", "ell")


def write_trace_csv(report: RunReport, path: str, f_star: float | None = None) -> None:
    """The trace's columns, with the best gap so far when f_star is given;
    each cell is the repr of its float, so reading it back is exact."""
    if f_star is None:
        cols = {name: getattr(report, name).tolist() for name in _COLUMNS}
    else:
        f_star = float(f_star)
        best, gaps = math.inf, []
        for v in report.f.tolist():
            best = min(best, v)
            gaps.append(best - f_star)
        cols = {name: gaps if name == "fbest_gap" else getattr(report, name).tolist()
                for name in _GAP_COLUMNS}
    cells = [map(str if name in _INT_COLUMNS else repr, col) for name, col in cols.items()]
    lines = [",".join(cols)]
    lines += map(",".join, zip(*cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_trace_csv(path: str) -> tuple[RunReport, np.ndarray | None]:
    """Rebuild a RunReport (no iterates, termination = "unknown") plus the
    fbest_gap column when present."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: trace has no rows")
    header = tuple(lines[0].split(","))
    if header not in (_GAP_COLUMNS, _COLUMNS):
        raise ValueError(f"{path}: unrecognized trace header {list(header)!r}")
    rows = [line.split(",") for line in lines[1:]]
    for lineno, cells in enumerate(rows, start=2):
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
    col = {name: list(map(int if name in _INT_COLUMNS else float, cells))
           for name, cells in zip(header, zip(*rows))}
    # step/alpha_next are not serialized; auditors re-derive them from
    # (alpha, ell) and beta, so corrupt columns stay detectable
    missing = [math.nan] * len(rows)
    try:
        report = _report({**col, "x": None, "step": missing, "alpha_next": missing}, "unknown")
    except OverflowError:  # an int cell outside int64
        raise ValueError(f"{path}: integer cell out of range for int64") from None
    gaps = col.get("fbest_gap")
    return report, (None if gaps is None else np.asarray(gaps))
