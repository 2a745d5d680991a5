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

A driver appends each row's scalars to typed array.array column buffers and
its iterate's bytes to one float64 buffer, so no per-row object outlives its
step and the buffers grow with the rows run, never with the budget; _report
copies them into exact-size columns at the run's one exit.

Runs are deterministic: identical (problem, config, start) give identical
traces.
"""

from __future__ import annotations

import math
import warnings
from array import array
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


def _columns(xs: array, n: int, f: array, **rest) -> dict:
    """_report's columns from a run's buffers: k the rows' positions, x the
    iterate bytes xs as one (rows, n) float64 block (an iterate of another
    itemsize fails the reshape), f and rest as they are."""
    return {"k": np.arange(1, len(f) + 1), "x": np.frombuffer(xs).reshape(len(f), n),
            "f": f, **rest}


# ----- non-monotone solver -----


@np.errstate(over="ignore", invalid="ignore")  # a non-finite oracle ends the run
def solve_nonmonotone(problem: ProblemSpec, cfg: SolverConfig, x0=None) -> RunReport:
    """Run the backtracking method for cfg.max_iters steps.

    Stops early by _stop_tag or a spent backtracking cap, with that tag and
    no numpy warning. A NaN or +inf trial is a rejected rung; a -inf one is
    accepted and ends the run on the next row. TheoryRegimeWarning if rho <= 1/2.
    """
    from .linesearch import nonmonotone_backtrack

    if cfg.rho <= 0.5:  # stacklevel 3 names the caller, past np.errstate's wrapper
        warnings.warn(f"rho = {cfg.rho} <= 1/2: complexity constants are non-positive, "
                      "rate audits will not apply", TheoryRegimeWarning, stacklevel=3)
    table = gamma_values(cfg.gamma, cfg.max_iters + 1)  # fails fast on short tables
    value, evaluate, project = problem.value, problem.eval, problem.project
    x = _start_point(problem, x0)
    alpha = cfg.alpha1
    # one buffer per column, x as its bytes: every iterate is C-contiguous
    # float64 (_start_point makes x_1 so, and a float64 subgradient step and
    # the set kernels keep it so), so its bytes are its row of the block
    xs, fs, alphas, ells, snorms = array("d"), array("d"), array("d"), array("q"), array("d")

    # every exit breaks out with the last row recorded but for its alpha and ell
    for k, gamma_k in enumerate(table.tolist(), 1):
        f, s = evaluate(x)
        snorm_sq = float(s.dot(s))
        snorm = math.sqrt(snorm_sq) if math.isfinite(snorm_sq) else math.inf
        xs.frombytes(x.tobytes())
        fs.append(f)
        snorms.append(snorm)
        if tag := _stop_tag(k, cfg.max_iters, f, snorm):
            break
        try:
            ell, x_next, alpha_next, _ = nonmonotone_backtrack(
                value, project, x, f, s, snorm_sq, alpha, gamma_k, cfg
            )
        except BacktrackFailureError:
            tag = TERMINATION_BACKTRACK_FAILURE
            break
        alphas.append(alpha)
        ells.append(ell)
        x, alpha = x_next, alpha_next
    alphas.append(alpha)
    ells.append(0)
    return _report(_columns(xs, problem.n, fs, gamma=table[:k], alpha=alphas, ell=ells,
                            snorm=snorms), tag, "nonmonotone")


# ----- prefixed-step solver -----


@np.errstate(over="ignore", invalid="ignore")  # a non-finite oracle ends the run
def solve_prefixed(problem: ProblemSpec, rule: StepRule, max_iters: int, x0=None) -> RunReport:
    """x_{k+1} = P_C(x_k - alpha_k * s_k) with alpha_k from the rule.

    Every row uses the ell = 0 sentinel and stores the applied size in
    alpha; gamma is recorded as NaN (no slack sequence exists here).
    _stop_tag ends the run before any division by ||s_k||, so a step that
    overflows ends it as nonfinite_oracle, without a numpy warning.
    """
    if not isinstance(rule, StepRule):
        raise TypeError(f"not a step rule: {rule!r}")
    if type(max_iters) is not int or max_iters < 1:  # a bool is no count, as in SolverConfig
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters}")
    x = _start_point(problem, x0)
    xs, fs, sizes, snorms = array("d"), array("d"), array("d"), array("d")  # as solve_nonmonotone's

    for k in range(1, max_iters + 2):
        f, s = problem.eval(x)
        snorm_sq = float(s.dot(s))
        snorm = math.sqrt(snorm_sq) if math.isfinite(snorm_sq) else math.inf
        xs.frombytes(x.tobytes())
        fs.append(f)
        snorms.append(snorm)
        if tag := _stop_tag(k, max_iters, f, snorm):
            break
        size = rule.size(k, snorm)
        sizes.append(size)
        x = problem.project(x - s * size)
    sizes.append(math.nan)  # the landed row applies no size
    method = next((m for m, cls in _RULES.items() if type(rule) is cls), type(rule).__name__)
    return _report(_columns(xs, problem.n, fs, gamma=np.full(k, math.nan), alpha=sizes,
                            ell=np.zeros(k, np.int64), snorm=snorms), tag, method)


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


def _cell_fault(path: str, header: tuple[str, ...], lines) -> str | None:
    """The fault of the first row of lines, (number, text) pairs, whose width
    is not header's, or of its first cell that is not _written, that int()
    (k, ell) or float() does not read, or whose int is outside int64."""
    for lineno, line in lines:
        cells = line.split(",")
        if len(cells) != len(header):
            return f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
        for name, cell in zip(header, cells):
            read = int if name in _INT_COLUMNS else float
            try:
                if not _written(cell):
                    raise ValueError
                value = read(cell)
            except ValueError:
                return (f"{path}:{lineno}: column {name!r}: {cell!r} is not "
                        f"{'an integer' if read is int else 'a number'}")
            if read is int and not -2**63 <= value < 2**63:
                return f"{path}:{lineno}: column {name!r}: {cell!r} is out of range for int64"


def read_trace_csv(path: str) -> RunReport:
    """Rebuild a RunReport (termination "unknown", method None), with the
    fbest_gap column when present, and xs None: a trace does not serialize
    the iterates. Its rows are one np.loadtxt parse behind the _written
    screen: it reads what int() and float() read (+3, .5, NaN, 1e400, 07),
    bar an int outside int64, and a trace it refuses raises _cell_fault's.
    numpy 1.23-1.26's int-via-float DeprecationWarning is such a refusal."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln) for no, ln in enumerate(map(str.strip, fh), start=1) if ln]
    if len(lines) < 2:
        raise ValueError(f"{path}: trace has no rows")
    header = tuple(lines[0][1].split(","))
    if header not in (_GAP_COLUMNS, _COLUMNS):
        raise ValueError(f"{path}: unrecognized trace header {list(header)!r}")
    body = [line for _, line in lines[1:]]  # the rows, so not the header's '_'
    dtype = [(name, np.int64 if name in _INT_COLUMNS else np.float64) for name in header]
    try:
        if not _written(",".join(body)):
            raise ValueError("a cell that repr never writes")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning) as exc:  # named only now, at no cost to a clean read
        raise ValueError(_cell_fault(path, header, lines[1:]) or f"{path}: {exc}") from None
    return _report({name: table[name] for name in header}, "unknown")
