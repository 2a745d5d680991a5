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
from dataclasses import dataclass
from operator import itemgetter
from typing import Union

import numpy as np

from .core import (
    BacktrackFailureError,
    IterationRecord,
    OracleError,
    RunReport,
    SolverConfig,
    TERMINATION_BACKTRACK_FAILURE,
    TERMINATION_MAX_ITERS,
    TERMINATION_ZERO_SUBGRADIENT,
    as_point,
    build_report,
    gamma_values,
    validate_config,
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

    Stops early only on an exactly zero subgradient or on numerical breakdown
    (backtracking cap exhausted / non-finite oracle values), in which case the
    partial trace is returned with the matching termination tag.
    """
    from .linesearch import nonmonotone_backtrack

    cfg = validate_config(cfg)
    gammas = gamma_values(cfg.gamma, cfg.max_iters + 1).tolist()  # fails fast on short tables
    x = _start_point(problem, x0)
    f = problem.value(x)
    alpha = cfg.alpha1
    records: list[IterationRecord] = []

    for k in range(1, cfg.max_iters + 2):
        gamma_k = gammas[k - 1]
        if not math.isfinite(f):
            records.append(_terminal(k, x, f, gamma_k, alpha, snorm=math.nan))
            return build_report(records, TERMINATION_BACKTRACK_FAILURE)
        _, s = problem.eval(x)
        snorm_sq = float(np.dot(s, s))
        snorm = math.sqrt(snorm_sq) if math.isfinite(snorm_sq) else math.inf
        if snorm_sq == 0.0:
            records.append(_terminal(k, x, f, gamma_k, alpha, snorm=0.0))
            return build_report(records, TERMINATION_ZERO_SUBGRADIENT)
        # past the budget, the landed iterate's row: its subgradient is
        # evaluated so the trace is uniform and a zero there is reported
        last = k > cfg.max_iters
        if last or not math.isfinite(snorm_sq):
            records.append(_terminal(k, x, f, gamma_k, alpha, snorm=snorm))
            tag = TERMINATION_MAX_ITERS if last else TERMINATION_BACKTRACK_FAILURE
            return build_report(records, tag)
        try:
            out = nonmonotone_backtrack(
                problem.value, problem.project, x, f, s, alpha, gamma_k, cfg
            )
        except (BacktrackFailureError, OracleError):
            records.append(_terminal(k, x, f, gamma_k, alpha, snorm=snorm))
            return build_report(records, TERMINATION_BACKTRACK_FAILURE)
        records.append(
            IterationRecord(
                k=k,
                x=x,
                f=f,
                gamma=gamma_k,
                alpha=alpha,
                ell=out.ell,
                step=out.step,
                snorm=snorm,
                alpha_next=out.alpha_next,
            )
        )
        x, f, alpha = out.x_next, out.f_next, out.alpha_next
    raise AssertionError("unreachable")


def _terminal(k, x, f, gamma, alpha, snorm) -> IterationRecord:
    return IterationRecord(
        k=k,
        x=x,
        f=f,
        gamma=gamma,
        alpha=alpha,
        ell=0,
        step=0.0,
        snorm=snorm,
        alpha_next=alpha,
    )


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
    records: list[IterationRecord] = []

    for k in range(1, max_iters + 2):
        f, s = problem.eval(x)
        snorm_sq = float(np.dot(s, s))
        snorm = math.sqrt(snorm_sq) if math.isfinite(snorm_sq) else math.inf
        last = k == max_iters + 1
        if snorm_sq == 0.0 or last or not math.isfinite(f) or not math.isfinite(snorm_sq):
            records.append(
                IterationRecord(
                    k=k,
                    x=x,
                    f=f,
                    gamma=math.nan,
                    alpha=math.nan,
                    ell=0,
                    step=0.0,
                    snorm=snorm,
                    alpha_next=math.nan,
                )
            )
            if snorm_sq == 0.0:
                return build_report(records, TERMINATION_ZERO_SUBGRADIENT)
            if last:
                return build_report(records, TERMINATION_MAX_ITERS)
            return build_report(records, TERMINATION_BACKTRACK_FAILURE)
        size = rule.size(k, snorm)
        x_next = problem.project(x - size * s)
        records.append(
            IterationRecord(
                k=k,
                x=x,
                f=f,
                gamma=math.nan,
                alpha=size,
                ell=0,
                step=size,
                snorm=snorm,
                alpha_next=math.nan,
            )
        )
        x = x_next
    raise AssertionError("unreachable")


# ----- trace serialization -----
#
# Columns are exactly the plotted series: k, f, fbest_gap (only when f_star is
# known), alpha, ell, gamma, snorm. fbest_gap is the running best value minus
# f_star. Iterates are not serialized. Floats are written with repr, which
# round-trips exactly.

_GAP_COLUMNS = ("k", "f", "fbest_gap", "alpha", "ell", "gamma", "snorm")
_COLUMNS = tuple(c for c in _GAP_COLUMNS if c != "fbest_gap")
_INT_COLUMNS = ("k", "ell")


def _trace_rows(report: RunReport, f_star: float | None):
    """Yield the column names, then one tuple of values per record in that
    order. Every trace writer goes through here."""
    yield _GAP_COLUMNS if f_star is not None else _COLUMNS
    best = math.inf
    for r in report.records:
        best = min(best, r.f)
        gap = () if f_star is None else (best - f_star,)
        yield (r.k, r.f, *gap, r.alpha, r.ell, r.gamma, r.snorm)


def write_trace_csv(report: RunReport, path: str, f_star: float | None = None) -> None:
    rows = _trace_rows(report, f_star)
    columns = next(rows)
    ints = [c in _INT_COLUMNS for c in columns]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join([str(v) if i else repr(float(v)) for i, v in zip(ints, row)]))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_trace_csv(path: str) -> tuple[RunReport, np.ndarray | None]:
    """Rebuild a RunReport (x = None on every row, termination = "unknown")
    plus the fbest_gap column when present."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace")
    header = tuple(lines[0].split(","))
    if header not in (_GAP_COLUMNS, _COLUMNS):
        raise ValueError(f"{path}: unrecognized trace header {list(header)!r}")
    with_gap = header == _GAP_COLUMNS
    take = itemgetter(*map(header.index, _COLUMNS))
    gap_at = header.index("fbest_gap") if with_gap else None
    records = []
    gaps = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        k, f, alpha, ell, gamma, snorm = take(cells)
        if with_gap:
            gaps.append(float(cells[gap_at]))
        # step/alpha_next are not serialized; auditors re-derive them from
        # (alpha, ell) and beta, so corrupt columns stay detectable
        records.append(
            IterationRecord(
                k=int(k),
                x=None,
                f=float(f),
                gamma=float(gamma),
                alpha=float(alpha),
                ell=int(ell),
                step=math.nan,
                snorm=float(snorm),
                alpha_next=math.nan,
            )
        )
    report = build_report(records, "unknown")
    return report, (np.asarray(gaps) if with_gap else None)
