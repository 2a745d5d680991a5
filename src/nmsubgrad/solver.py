"""Projected subgradient solvers.

solve_nonmonotone runs the backtracking method; solve_prefixed runs the
classical prefixed-step rules used as baselines. Both produce a RunReport
whose rows cover every visited iterate: rows with ell >= 1 are line-search
steps, and the final landed iterate is always recorded as a trailing row with
the ell = 0 sentinel (prefixed runs use the sentinel on every row). A budget
of max_iters therefore yields max_iters + 1 rows unless the run stops early.

Both drivers evaluate each iterate x_k once, f(x_k) and s_k by `eval`, as
row k, and call `value` only at line-search trials. One rule, _stop_tag, ends
a run at row k: zero_subgradient if ||s_k|| = 0, else max_iters if k >
max_iters, else nonfinite_oracle if f(x_k) or ||s_k|| is not finite; else
the run steps on, and a search whose cap runs out ends it backtrack_failure.

Runs are deterministic: identical (problem, config, start) give identical
traces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    BacktrackFailureError,
    ConfigError,
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


class StepRule:
    """Base of the prefixed rules alpha_k = size(k, ||s_k||): each checks its
    constant a when it is made, as SolverConfig does."""

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ConfigError(f"step constant must be positive, got {self.a}")


@dataclass(frozen=True)
class ConstantStep(StepRule):
    """alpha_k = a."""

    a: float = 0.1

    def size(self, k: int, snorm: float) -> float:
        return self.a


@dataclass(frozen=True)
class ConstantLength(StepRule):
    """alpha_k = a / ||s_k||, so every raw step has length a."""

    a: float = 0.2

    def size(self, k: int, snorm: float) -> float:
        return self.a / snorm


@dataclass(frozen=True)
class NonsummableDiminishing(StepRule):
    """alpha_k = a / sqrt(k)."""

    a: float = 0.1

    def size(self, k: int, snorm: float) -> float:
        return self.a / math.sqrt(k)


@dataclass(frozen=True)
class SquareSummable(StepRule):
    """alpha_k = a / k."""

    a: float = 0.5

    def size(self, k: int, snorm: float) -> float:
        return self.a / k


_RULES = {  # each rule's `run --method` name
    "constant": ConstantStep,
    "fixedlength": ConstantLength,
    "nonsum": NonsummableDiminishing,
    "sqrsum": SquareSummable,
}

METHODS = ("nonmonotone", *_RULES)


# ----- starting point -----


def _start_point(problem: ProblemSpec, x0) -> np.ndarray:
    if x0 is None:
        x0 = np.zeros(problem.n)
    x = problem.project(as_point(x0))
    return np.ascontiguousarray(x, dtype=np.float64)


def _stop_tag(k: int, max_iters: int, f: float, snorm: float) -> str | None:
    """The module docstring's rule: the tag row k ends the run with, or None."""
    if snorm == 0.0:
        return TERMINATION_ZERO_SUBGRADIENT
    if k > max_iters:
        return TERMINATION_MAX_ITERS
    if not (math.isfinite(f) and math.isfinite(snorm)):
        return TERMINATION_NONFINITE_ORACLE
    return None


# ----- non-monotone solver -----


@np.errstate(over="ignore", invalid="ignore")  # a non-finite oracle ends the run
def solve_nonmonotone(
    problem: ProblemSpec, cfg: SolverConfig, x0=None
) -> RunReport:
    """Run the backtracking method for cfg.max_iters steps.

    Stops early by _stop_tag or a spent backtracking cap, with that tag and
    no numpy warning. A NaN or +inf trial is a rejected rung; a -inf one is
    accepted and ends the run on the next row. TheoryRegimeWarning if rho <= 1/2.
    """
    from .linesearch import nonmonotone_backtrack

    if cfg.rho <= 0.5:  # stacklevel 3 names the caller, past np.errstate's wrapper
        warnings.warn(f"rho = {cfg.rho} <= 1/2: complexity constants are non-positive, "
                      "rate audits will not apply", TheoryRegimeWarning, stacklevel=3)
    gammas = gamma_values(cfg.gamma, cfg.max_iters + 1).tolist()  # fails fast on short tables
    value, evaluate, project = problem.value, problem.eval, problem.project
    x = _start_point(problem, x0)
    alpha = cfg.alpha1
    rows = []  # one tuple per step, in _RECORD_FIELDS order

    # every exit breaks out with the last iterate, evaluated but unrecorded
    for k, gamma_k in enumerate(gammas, 1):
        f, s = evaluate(x)
        snorm_sq = float(s.dot(s))
        snorm = math.sqrt(snorm_sq) if math.isfinite(snorm_sq) else math.inf
        if tag := _stop_tag(k, cfg.max_iters, f, snorm):
            break
        try:
            ell, x_next, alpha_next, _ = nonmonotone_backtrack(
                value, project, x, f, s, snorm_sq, alpha, gamma_k, cfg
            )
        except BacktrackFailureError:
            tag = TERMINATION_BACKTRACK_FAILURE
            break
        rows.append((k, x, f, gamma_k, alpha, ell, snorm))
        x, alpha = x_next, alpha_next
    rows.append((k, x, f, gamma_k, alpha, 0, snorm))
    return _report(dict(zip(_RECORD_FIELDS, zip(*rows))), tag, "nonmonotone")


# ----- prefixed-step solver -----


@np.errstate(over="ignore", invalid="ignore")  # a non-finite oracle ends the run
def solve_prefixed(
    problem: ProblemSpec, rule: StepRule, max_iters: int, x0=None
) -> RunReport:
    """x_{k+1} = P_C(x_k - alpha_k * s_k) with alpha_k from the rule.

    Every row uses the ell = 0 sentinel and stores the applied size in
    alpha; gamma is recorded as NaN (no slack sequence exists here).
    _stop_tag ends the run before any division by ||s_k||, so a step that
    overflows ends it as nonfinite_oracle, without a numpy warning.
    """
    if not isinstance(rule, StepRule):
        raise TypeError(f"not a step rule: {rule!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    x = _start_point(problem, x0)
    nan = math.nan
    rows = []

    for k in range(1, max_iters + 2):
        f, s = problem.eval(x)
        snorm_sq = float(s.dot(s))
        snorm = math.sqrt(snorm_sq) if math.isfinite(snorm_sq) else math.inf
        if tag := _stop_tag(k, max_iters, f, snorm):
            break
        size = rule.size(k, snorm)
        rows.append((k, x, f, nan, size, 0, snorm))
        x = problem.project(x - s * size)
    rows.append((k, x, f, nan, nan, 0, snorm))
    method = next((m for m, cls in _RULES.items() if type(rule) is cls), type(rule).__name__)
    return _report(dict(zip(_RECORD_FIELDS, zip(*rows))), tag, method)


# ----- trace serialization -----
#
# Columns are exactly the plotted series: k, f, fbest_gap (only when f_star is
# known), alpha, ell, gamma, snorm. fbest_gap is the running best value minus
# f_star. Iterates are not serialized. Floats are written with repr, which
# round-trips exactly.

_GAP_COLUMNS = ("k", "f", "fbest_gap", "alpha", "ell", "gamma", "snorm")
_COLUMNS = tuple(c for c in _GAP_COLUMNS if c != "fbest_gap")
_INT_COLUMNS = ("k", "ell")
# what int() and float() read past but repr never writes: '_' between digits
# and the ASCII whitespace a stripped line can still hold
_UNWRITTEN = ("_", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _written(text: str) -> bool:
    """Whether text is ASCII and holds no character of _UNWRITTEN."""
    return text.isascii() and not any(ch in text for ch in _UNWRITTEN)


def _best_gaps(f: np.ndarray, f_star: float) -> list[float]:
    """The fbest_gap column: the running best of f minus f_star. A Python
    loop, not np.fmin.accumulate, whose signed zeros and leading NaN differ;
    the CSV writer and the stepwise audit both call it, so a written column
    is checked with the bits it was written with."""
    f_star = float(f_star)
    best, gaps = math.inf, []
    for v in f.tolist():
        best = min(best, v)
        gaps.append(best - f_star)
    return gaps


def _trace_text(report: RunReport, f_star: float | None = None) -> str:
    """The trace's CSV text, with the best gap so far when f_star is given;
    each cell is the repr of its float, so reading it back is exact."""
    names = _COLUMNS if f_star is None else _GAP_COLUMNS
    cols = {name: _best_gaps(report.f, f_star) if name == "fbest_gap"
            else getattr(report, name).tolist() for name in names}
    cells = [map(str if name in _INT_COLUMNS else repr, col) for name, col in cols.items()]
    lines = [",".join(cols)]
    lines += map(",".join, zip(*cells))
    return "\n".join(lines) + "\n"


def write_trace_csv(report: RunReport, path: str, f_star: float | None = None) -> None:
    """Write the trace's CSV text (see _trace_text) to path."""
    _atomic_write({path: _trace_text(report, f_star)})


def read_trace_csv(path: str) -> RunReport:
    """Rebuild a RunReport (termination "unknown", method None), with the
    fbest_gap column when present, and xs None: a trace does not serialize
    the iterates. It has every other column a solver report has. A fault
    names the file's line, blank lines counted, and a cell that does not
    parse its column too; a row cell that is not _written does not parse."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln) for no, ln in enumerate(map(str.strip, fh), start=1) if ln]
    if len(lines) < 2:
        raise ValueError(f"{path}: trace has no rows")
    header = tuple(lines[0][1].split(","))
    if header not in (_GAP_COLUMNS, _COLUMNS):
        raise ValueError(f"{path}: unrecognized trace header {list(header)!r}")
    body = [line for _, line in lines[1:]]  # the rows, so not the header's '_'
    rows = [line.split(",") for line in body]
    parse = [int if name in _INT_COLUMNS else float for name in header]
    try:  # the strict zips raise on a row of another width, _report on an int outside int64
        if not _written(",".join(body)):
            raise ValueError
        return _report({name: list(map(read, cells)) for name, read, cells
                        in zip(header, parse, zip(*rows, strict=True), strict=True)}, "unknown")
    except (ValueError, OverflowError):  # found only now, so a clean read costs nothing more
        for (lineno, _), cells in zip(lines[1:], rows):
            if len(cells) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, "
                                 f"got {len(cells)}") from None
            for name, read, cell in zip(header, parse, cells):
                try:
                    if not _written(cell):
                        raise ValueError
                    value = read(cell)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: column {name!r}: {cell!r} is not "
                                     f"{'an integer' if read is int else 'a number'}") from None
                if read is int and not -2**63 <= value < 2**63:
                    raise ValueError(f"{path}:{lineno}: column {name!r}: {cell!r} is out of "
                                     "range for int64") from None
