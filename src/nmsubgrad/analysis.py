"""Theory-audit layer: verify on recorded runs the inequalities the method
guarantees by construction, and the complexity bounds they imply.

Every check compares floats with a relative slack of 1e-9, scaled by the
magnitudes of both sides (floored at 1), so legitimate roundoff never trips a
check while any real violation does. Checks whose prerequisites are missing
(no optimum, no Lipschitz constant, no iterates in a CSV-round-tripped trace,
prefixed-step traces with no line-search law) are reported as skipped, never
silently dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._kernels import row_sq_norms
from .core import RunReport, SolverConfig, SqrtInverse, StronglyConvexHarmonic, gamma_values
from .linesearch import rung
from .problems import ProblemSpec, diameter_sq
from .solver import _best_gaps

__all__ = [
    "REL_SLACK",
    "TheoryConstants",
    "constants",
    "CheckResult",
    "AuditReport",
    "audit_stepwise",
    "audit_rate_bounds",
    "merge_reports",
    "audit_report_to_json",
]

REL_SLACK = 1e-9
DBL_MAX = np.finfo(np.float64).max

PASSED = "passed"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass(frozen=True)
class TheoryConstants:
    """theta = min(1, 1/((1+rho)L^2)), 1 when L = 0 and 0 when (1+rho)L^2
    overflows: the constant in the step lower bound, which holds for every rho
    in (0, 1). audit_rate_bounds forms its Gamma from an effective theta."""

    theta: float


def constants(rho: float, beta: float, L: float, c: float = 1.0) -> TheoryConstants:
    """theta from rho and L; beta and c are unread, and checked by SolverConfig."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if not (L >= 0.0 and math.isfinite(L)):
        raise ValueError(f"L must be non-negative and finite, got {L}")
    s = (1.0 + rho) * L * L
    theta = 1.0 / s if s > 1.0 else 1.0  # the bits of min(1, 1/s) for L > 0
    return TheoryConstants(theta=theta)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # passed | failed | skipped
    worst_violation: float | None = None
    worst_index: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(ch.status != FAILED for ch in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for ch in self.checks:
            if ch.name == name:
                return ch
        raise KeyError(name)


def merge_reports(*reports: AuditReport) -> AuditReport:
    checks: list[CheckResult] = []
    for rep in reports:
        checks.extend(rep.checks)
    return AuditReport(checks=tuple(checks))


def audit_report_to_json(report: AuditReport) -> str:
    obj = {"passed": report.passed, "checks": [asdict(ch) for ch in report.checks]}
    return json.dumps(obj, sort_keys=True, indent=2)


def _normalized(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(lhs - rhs) / max(1, |lhs|, |rhs|), written over the scale built in place."""
    scale = np.abs(lhs)
    np.maximum(scale, np.abs(rhs), out=scale)
    np.maximum(scale, 1.0, out=scale)
    return np.divide(lhs - rhs, scale, out=scale)


def _worst(name: str, lhs: np.ndarray, rhs: np.ndarray, first: int = 1) -> CheckResult:
    """Check lhs_i <= rhs_i for all i; the worst violation decides, at row first + i."""
    viol = _normalized(lhs, rhs)
    # finite entries are at most 2(1+eps), so this is finite exactly when all are
    if not math.isfinite(viol.dot(viol)):
        idx = int((~np.isfinite(viol)).argmax())
        return CheckResult(name, FAILED, math.inf, first + idx, "non-finite comparison")
    idx = int(viol.argmax())
    worst = float(viol[idx])
    status = PASSED if worst <= REL_SLACK else FAILED
    return CheckResult(name, status, worst, first + idx)


def _under_bound(name: str, lhs: np.ndarray, bound: np.ndarray, first: int = 1) -> CheckResult:
    """_worst of lhs_k <= bound_k for a derived bound: one that overflowed to
    +inf holds, read as the largest double, which no double lhs exceeds; a NaN
    bound still fails as a non-finite comparison."""
    return _worst(name, lhs, np.minimum(bound, DBL_MAX), first)


def _skip(name: str, why: str) -> CheckResult:
    return CheckResult(name, SKIPPED, detail=why)


def _no_step_rows(report: RunReport) -> str | None:
    """Why both audits skip all their checks of report, or None if it has a
    line-search row: a one-row report and one of a prefixed method have none.
    An unknown method (a CSV trace that no summary names) is audited as run's
    default, "nonmonotone", as a missing config is the default config."""
    if len(report.k) < 2 or report.method not in (None, "nonmonotone"):
        return "no line-search rows (prefixed-step trace or single-iterate run)"
    return None


# ----- stepwise audit -----


def _layout_fault(report: RunReport, K: int) -> tuple[int, str] | None:
    """(row, why) of a row that breaks the trace layout, or None: row i has
    k = i, a step row has ell >= 1 and snorm > 0 (the driver stops on a zero
    subgradient), and the landed row K+1 has ell = 0. The row is its
    position, since a bent k cell cannot name it."""
    bad = report.k != np.arange(1, K + 2)
    if bad.any():
        return int(bad.argmax()) + 1, "row whose k is not its position"
    ell, snorm = report.ell[:K], report.snorm[:K]
    # a reduce first, so a trace that keeps the law builds no mask
    if np.minimum.reduce(ell) < 1:
        return int((ell < 1).argmax()) + 1, "step row with ell < 1"
    if not np.minimum.reduce(snorm) > 0:  # a NaN cell too
        return int((~(snorm > 0)).argmax()) + 1, "step row with snorm not > 0"
    if report.ell[K] != 0:
        return K + 1, "landed row with ell != 0"
    return None


@np.errstate(invalid="ignore", over="ignore")  # a non-finite row is a failed check
def audit_stepwise(
    report: RunReport,
    problem: ProblemSpec,
    cfg: SolverConfig,
    tc: TheoryConstants | None = None,
    x1: np.ndarray | None = None,
) -> AuditReport:
    """Per-iteration laws of the accepted steps.

    consistency        the layout: k_i = i, ell >= 1 and snorm > 0 on step
                       rows, ell = 0 on the landed row; then exact laws, each
                       a (recorded, expected) pair over rows from 1: the
                       next row's alpha is alpha_next = beta**(ell-1)*alpha,
                       row 1's alpha is cfg.alpha1, every row's gamma (the
                       landed row's too) is cfg.gamma's; row 1's f is f(x1)
                       when x1 is given; no f lies below a planted f* (a NaN
                       f is sufficient_decrease's); and the report's
                       fbest_gap column, when it has one, is the running
                       best of f minus f*, as the CSV writer computes it,
                       and fails at row 1 without f*, since the writer gives
                       it only when f* is known
    step_upper_bound   alpha_{k+1} <= c * gamma_k
    step_lower_bound   min(alpha_1, min(theta, beta*c)*gamma_k) <= alpha_{k+1}
                       (needs tc)
    sufficient_decrease f_{k+1} <= f_k - rho*beta*alpha_{k+1}*||s_k||^2 + gamma_k
    quasi_fejer        ||x_{k+1}-x*||^2 <= ||x_k-x*||^2 + (beta*c/rho)*gamma_k^2
                       (needs iterates, x*, and rho > 1/2)

    Why step_lower_bound holds. The ladder never raises the trial
    size, so ell = 1 gives alpha_{k+1} = alpha_k. For ell > 1, rung ell-1 was
    rejected and alpha_{k+1} is beta times its candidate:
    - a candidate the size cap skipped exceeds c*gamma_k, so
      alpha_{k+1} > beta*c*gamma_k;
    - a candidate the decrease test rejected was applied as the step
      t = alpha_{k+1}. With x_k in C, projection is nonexpansive and f is
      L-Lipschitz on C with ||s_k|| <= L, so
      f(P_C(x_k - t*s_k)) <= f_k + t*L^2, and every t <= gamma_k/((1+rho)L^2)
      passes the test. Hence alpha_{k+1} > gamma_k/((1+rho)L^2) >= theta*gamma_k.
    So alpha_{k+1} >= min(alpha_k, min(theta, beta*c)*gamma_k), and since
    every gamma kind is non-increasing, by induction
    alpha_{k+1} >= min(alpha_1, min(theta, beta*c)*gamma_k), which is the
    check. alpha_1 is row 1's alpha, so a CSV trace is checked as the run
    was. audit_rate_bounds turns it into the paper's form with an effective
    theta.

    step_upper_bound, sufficient_decrease and quasi_fejer read their right
    sides through _under_bound, as audit_rate_bounds reads its bounds: one
    that overflows to +inf holds, and a NaN fails; where only gamma_k^2
    overflows, quasi_fejer forms its term as ((beta*c/rho)*gamma_k)*gamma_k.
    It is skipped when a squared distance to x* overflows, as then neither
    side can be formed.

    Every report, in memory or from CSV, takes the derived ladder:
    alpha_next is linesearch.rung(alpha, beta, ell), the code the search
    formed it with, so it has the search's bits on any CPU, and a row with
    ell < 1 has none (NaN); the applied step is beta*alpha_next. Without x1
    the audit calls no oracle. A report of a prefixed method skips every
    check; see _no_step_rows.
    """
    K = len(report.k) - 1  # rows 1..K are steps, row K+1 is the landed iterate
    names = ["consistency", "step_upper_bound", "step_lower_bound",
             "sufficient_decrease", "quasi_fejer"]
    why = _no_step_rows(report)
    if why is not None:
        return AuditReport(checks=tuple(_skip(n, why) for n in names))

    beta, c, rho = cfg.beta, cfg.c, cfg.rho
    ell = report.ell[:K]
    alpha = report.alpha[:K]
    gamma = report.gamma[:K]
    snorm = report.snorm[:K]
    f = report.f

    # rung 1 is alpha itself; every other row takes the search's own rung(),
    # except a row off the ladder (ell < 1, a layout fault), which has none
    alpha_next = alpha.copy()
    hop = np.flatnonzero(ell != 1)
    alpha_next[hop] = [rung(a, beta, e) if e > 1 else math.nan
                       for a, e in zip(alpha[hop].tolist(), ell[hop].tolist())]

    checks: list[CheckResult] = []

    # consistency: the trace layout, then the exact laws
    fault = _layout_fault(report, K)
    if fault is not None:
        checks.append(CheckResult("consistency", FAILED, math.inf, *fault))
    else:
        # (recorded, expected) over rows from 1; rate_tail reads the landed row's gamma
        laws = [(report.alpha[1 : K + 1], alpha_next), (alpha[:1], cfg.alpha1),
                (report.gamma, gamma_values(cfg.gamma, K + 1))]
        f_star = problem.f_star
        if x1 is not None:
            laws.append((f[:1], problem.value(x1)))
        if problem.x_star is not None and f_star is not None:  # planted: f >= f* on C
            laws.append((np.fmin(f, f_star), f_star))
        if report.fbest_gap is not None:  # written only with f*, so without it no cell holds
            gaps = math.nan if f_star is None else np.array(_best_gaps(f, f_star))
            laws.append((report.fbest_gap, gaps))
        dev = np.zeros(K + 1)  # each row's largest relative deviation
        for recorded, expected in laws:
            if not (recorded == expected).all():  # exact first: a law that holds costs one ==
                span = dev[: len(recorded)]  # abs commutes with /scale
                np.maximum(span, np.abs(_normalized(recorded, expected)), out=span)
        checks.append(_worst("consistency", dev, np.zeros(K + 1)))

    checks.append(_under_bound("step_upper_bound", alpha_next, c * gamma))

    if tc is None:
        checks.append(_skip("step_lower_bound", "no Lipschitz constant supplied"))
    else:
        unrolled = np.minimum(alpha[0], min(tc.theta, beta * c) * gamma)
        checks.append(_worst("step_lower_bound", unrolled, alpha_next))

    decrease_rhs = f[:K] - rho * (beta * alpha_next) * (snorm * snorm) + gamma
    checks.append(_under_bound("sufficient_decrease", f[1 : K + 1], decrease_rhs))

    if report.xs is None:
        checks.append(_skip("quasi_fejer", "trace carries no iterates (CSV round-trip)"))
    elif problem.x_star is None:
        checks.append(_skip("quasi_fejer", "no known optimum"))
    elif rho <= 0.5:
        checks.append(_skip("quasi_fejer", "rho <= 1/2"))
    else:
        dist_sq = row_sq_norms(report.xs, problem.x_star)
        if dist_sq.max() == math.inf:  # a NaN row propagates through max and fails
            checks.append(_skip("quasi_fejer", "a squared distance to x* overflows"))
        else:
            term = (beta * c / rho) * (gamma * gamma)
            if term.max() == math.inf:  # gamma_k^2 overflowed, where the term may not
                over = term == math.inf
                term[over] = beta * c / rho * gamma[over] * gamma[over]
            rhs = dist_sq[:K] + term
            checks.append(_under_bound("quasi_fejer", dist_sq[1 : K + 1], rhs))

    return AuditReport(checks=tuple(checks))


# ----- rate-bound audit -----


@np.errstate(all="ignore")  # a non-finite row is a failed check
def audit_rate_bounds(
    report: RunReport,
    problem: ProblemSpec,
    cfg: SolverConfig,
    tc: TheoryConstants | None = None,
    x1: np.ndarray | None = None,
) -> AuditReport:
    """For every prefix N of the trace, the best gap so far must sit under
    each applicable bound; the reported worst_index is the tightest N.

    rate_general          (dist^2 + (beta*c/rho) * sum gamma_k^2) / (Gamma * sum gamma_{k+1})
    rate_sqrt_log         4/Gamma * (dist^2/zeta + zeta*beta*c/rho * (1 + ln N)) / sqrt(N)
                          (sqrt-inverse gamma_k = zeta/sqrt(k))
    rate_tail             (dist^2 + (beta*c/rho) * sum gamma_k^2) / (Gamma * N * gamma_{N+1})
    rate_compact          4*(D/zeta + zeta*beta*c/rho * ln 3) / (Gamma * sqrt(N+2)), N >= 2
                          (bounded set, sqrt-inverse gamma)
    rate_strongly_convex  8*beta*c / (rho*sigma*beta*theta*Gamma*(N+1))
                          (sigma > 0 with the matching harmonic gamma)

    theta is the effective min(theta, beta*c, alpha_1/gamma_1), alpha_1 being
    row 1's alpha, which is theta itself when alpha_1 >= theta*gamma_1 and
    theta <= beta*c; Gamma = theta*(2beta - beta/rho). All five are skipped
    when rho <= 1/2 leaves Gamma non-positive, and when alpha_1 > 0, which
    makes theta and Gamma positive, and Gamma underflows to 0 (theta itself
    may, as with beta*c = 1e-600, or an L whose (1+rho)L^2 overflows). The
    regime is cfg.rho's, since such an L leaves Gamma 0 at any rho. A
    bent alpha_1 <= 0 or NaN makes Gamma NaN, so every bound fails as a
    non-finite comparison. Each bound is read through _under_bound, as in
    audit_stepwise: one that overflows to +inf holds, and a NaN fails. Why
    the bounds hold, with the applied step t_k = beta*alpha_{k+1} and x* in C:
    1. projection is nonexpansive and <s_k, x_k - x*> >= f_k - f*, so
       ||x_{k+1}-x*||^2 <= ||x_k-x*||^2 - 2*t_k*(f_k - f*) + t_k^2*||s_k||^2;
    2. sufficient decrease gives t_k*||s_k||^2 <= (f_k - f_{k+1} + gamma_k)/rho;
    3. f_{k+1} >= f*, and t_k <= beta*c*gamma_k by step_upper_bound;
    4. so ||x_{k+1}-x*||^2 <= ||x_k-x*||^2 - (2 - 1/rho)*t_k*(f_k - f*)
       + (beta*c/rho)*gamma_k^2;
    5. alpha_1 >= (alpha_1/gamma_1)*gamma_k for a non-increasing gamma, so
       step_lower_bound gives t_k >= beta*theta*gamma_{k+1}; with f_k >= f*
       and rho > 1/2, summing step 4 over k <= N gives rate_general.
    rate_tail uses sum gamma_{k+1} >= N*gamma_{N+1}. Where sum gamma_k^2
    overflows, their numerator is formed again as ((beta*c/rho)*s)*(s*sum
    (gamma_k/s)^2) with s = gamma_1, so only a numerator that overflows itself
    is +inf, and a quotient can be inf/inf. With S = sum_{k<=N} gamma_{k+1},
    at most sum_{k<=N} gamma_k, Cauchy-Schwarz gives sum gamma_k^2 >= S^2/N,
    and N*gamma_{N+1} <= S, so both are at least (beta*c/rho)*S/(N*Gamma);
    once the numerator overflows, that floor, with S read as at most the
    largest double, stands in for a smaller or NaN quotient. For
    gamma_k = zeta/sqrt(k), sum_{k<=N} gamma_k^2 <= zeta^2*(1 + ln N) and
    sum_{k<=N} gamma_{k+1} >= 2*zeta*(sqrt(N+2) - sqrt(2)) >= zeta*sqrt(N)/4;
    put into rate_general, they give rate_sqrt_log. Its row N = 1 takes no
    kappa*ln N term (kappa = zeta*beta*c/rho), so an overflowed kappa gives
    +inf there, not inf*0, and that bound is at least (4/Gamma)*kappa >=
    2*kappa, as Gamma < 2. rate_compact sums step 4 over the window
    k = floor(N/2)+1..N, where ||x_M - x*||^2 <= D at its first iterate M;
    there sum 1/k <= ln(N/floor(N/2)) <= ln 3 and
    sum 1/sqrt(k+1) >= ceil(N/2)/sqrt(N+1) >= sqrt(N+2)/4 for N >= 2. None
    uses theta but through step 5. rate_strongly_convex's telescoping needs
    the schedule's big_theta to be step 5's theta, so it runs only when they
    match. A report of a prefixed method skips all five, as in audit_stepwise.
    """
    K = len(report.k) - 1
    names = ["rate_general", "rate_sqrt_log", "rate_tail", "rate_compact",
             "rate_strongly_convex"]
    f_star = problem.f_star
    if tc is None:
        why = "no theory constants supplied"
    elif cfg.rho <= 0.5:
        why = "rho <= 1/2 leaves Gamma = theta*(2beta - beta/rho) non-positive"
    elif f_star is None:
        why = "no known optimal value"
    else:
        why = None
    why = _no_step_rows(report) or why  # the first reason to skip
    if why is not None:
        return AuditReport(checks=tuple(_skip(n, why) for n in names))

    if x1 is None and report.xs is not None:
        x1 = report.xs[0]
    x_star = problem.x_star

    beta, c, rho = cfg.beta, cfg.c, cfg.rho
    alpha1 = report.alpha[0]
    theta = min(tc.theta, beta * c, alpha1 / report.gamma[0])
    # alpha_1 > 0 makes theta and Gamma (the expression constants() uses)
    # positive, so a Gamma of 0 is an underflow; a bent alpha_1 <= 0 or NaN
    # gives a NaN Gamma, which fails every bound
    Gamma = theta * (2.0 * beta - beta / rho) if alpha1 > 0.0 else math.nan
    if Gamma == 0.0:
        why = "effective Gamma = theta*(2beta - beta/rho) underflows to 0"
        return AuditReport(checks=tuple(_skip(n, why) for n in names))

    gap = np.minimum.accumulate(report.f[:K]) - f_star  # best gap over iterates 1..N
    Ns = np.arange(1, K + 1, dtype=np.int64)
    gamma = report.gamma
    sum_sq = np.add.accumulate(gamma[:K] * gamma[:K])
    sum_shift = np.add.accumulate(gamma[1 : K + 1])
    zeta = cfg.gamma.zeta if isinstance(cfg.gamma, SqrtInverse) else None

    checks: list[CheckResult] = []

    if x1 is None or x_star is None:
        checks.extend(_skip(n, "needs x1 and a known optimum")
                      for n in ("rate_general", "rate_sqrt_log", "rate_tail"))
    else:
        dist_sq = float(np.dot(x1 - x_star, x1 - x_star))
        numer = dist_sq + (beta / rho) * c * sum_sq
        if numer[-1] == math.inf:  # sum gamma_k^2 overflowed: scale it by s = gamma_1
            over, s = numer == math.inf, gamma[0]
            scaled = np.add.accumulate(np.square(gamma[:K] / s))[over]
            numer[over] = dist_sq + ((beta / rho) * c * s) * (s * scaled)
        general = numer / (Gamma * sum_shift)
        tail = numer / (Gamma * Ns * gamma[1 : K + 1])
        if numer[-1] == math.inf:  # the numerator overflows: floor both quotients
            floor = (beta / rho) * c * np.minimum(sum_shift, DBL_MAX) / (Gamma * Ns)
            general, tail = np.fmax(general, floor), np.fmax(tail, floor)
        checks.append(_under_bound("rate_general", gap, general))
        if zeta is None:
            checks.append(_skip("rate_sqrt_log", "gamma is not the sqrt-inverse kind"))
        else:
            kappa = zeta * beta / rho * c
            log_term = kappa * np.log(Ns)
            log_term[0] = 0.0  # ln 1 = 0, also where kappa overflowed (inf * 0 is NaN)
            bound = (4.0 / Gamma) * (dist_sq / zeta + kappa + log_term) / np.sqrt(Ns)
            checks.append(_under_bound("rate_sqrt_log", gap, bound))
        checks.append(_under_bound("rate_tail", gap, tail))

    D = diameter_sq(problem.cset)
    if D is None:
        checks.append(_skip("rate_compact", "constraint set is unbounded"))
    elif zeta is None:
        checks.append(_skip("rate_compact", "gamma is not the sqrt-inverse kind"))
    elif K < 2:
        checks.append(_skip("rate_compact", "needs at least two steps"))
    else:
        bound = 4.0 * (D / zeta + zeta * beta * c / rho * math.log(3.0)) / (
            Gamma * np.sqrt(Ns[1:] + 2.0))
        checks.append(_under_bound("rate_compact", gap[1:], bound, first=2))

    sigma = problem.sigma
    seq = cfg.gamma
    if sigma <= 0.0:
        checks.append(_skip("rate_strongly_convex", "objective is not strongly convex"))
    elif not isinstance(seq, StronglyConvexHarmonic):
        checks.append(_skip("rate_strongly_convex", "gamma is not the harmonic kind"))
    elif (
        abs(seq.sigma - sigma) > REL_SLACK * max(1.0, sigma)
        or abs(seq.beta - beta) > REL_SLACK
        or abs(seq.big_theta - theta) > REL_SLACK * max(1.0, theta)
    ):
        checks.append(_skip("rate_strongly_convex", "gamma parameters do not match the run"))
    else:
        bound = (8.0 * beta * c) / (rho * sigma * beta * theta * Gamma * (Ns + 1.0))
        checks.append(_under_bound("rate_strongly_convex", gap, bound))

    return AuditReport(checks=tuple(checks))
