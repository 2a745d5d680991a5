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

from .core import RunReport, SolverConfig, SqrtInverse, StronglyConvexHarmonic, gamma_values
from .problems import ProblemSpec, diameter_sq

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
_ROW_BLOCK = 1 << 12  # iterate entries per block: the squared distances' temporary stays small

PASSED = "passed"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass(frozen=True)
class TheoryConstants:
    """theta = min(1, 1/((1+rho)L^2)), 1 when L = 0, and gamma_big =
    theta*(2beta - beta/rho), the constants in every complexity bound.
    gamma_big > 0 exactly when rho > 1/2; below, the rate bounds say nothing
    and audit_rate_bounds skips them, while the step lower bound, which needs
    only theta, holds for every rho in (0, 1)."""

    theta: float
    gamma_big: float


def constants(rho: float, beta: float, L: float, c: float = 1.0) -> TheoryConstants:
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if not (L >= 0.0 and math.isfinite(L)):
        raise ValueError(f"L must be non-negative and finite, got {L}")
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"c must be positive and finite, got {c}")
    s = (1.0 + rho) * L * L
    theta = 1.0 / s if s > 1.0 else 1.0  # the bits of min(1, 1/s) for L > 0
    gamma_big = theta * (2.0 * beta - beta / rho)
    return TheoryConstants(theta=theta, gamma_big=gamma_big)


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


def _worst(name: str, lhs: np.ndarray, rhs: np.ndarray, ks: np.ndarray) -> CheckResult:
    """Check lhs_k <= rhs_k for all k; the worst normalized violation decides."""
    viol = _normalized(lhs, rhs)
    # finite entries are at most 2(1+eps), so this is finite exactly when all are
    if not math.isfinite(viol.dot(viol)):
        idx = int((~np.isfinite(viol)).argmax())
        return CheckResult(name, FAILED, math.inf, int(ks[idx]), "non-finite comparison")
    idx = int(viol.argmax())
    worst = float(viol[idx])
    status = PASSED if worst <= REL_SLACK else FAILED
    return CheckResult(name, status, worst, int(ks[idx]))


def _skip(name: str, why: str) -> CheckResult:
    return CheckResult(name, SKIPPED, detail=why)


def _no_step_rows(report: RunReport) -> str | None:
    """Why both audits skip all their checks of report, or None if it has a line-search row."""
    K = len(report.k) - 1
    # direct ufunc and method calls: numpy's Python wrappers are cold after a solve
    if K < 1 or np.maximum.reduce(report.ell[:K]) < 1:
        return "no line-search rows (prefixed-step trace or single-iterate run)"
    return None


# ----- stepwise audit -----


@np.errstate(invalid="ignore", over="ignore")  # a non-finite row is a failed check
def audit_stepwise(
    report: RunReport,
    problem: ProblemSpec,
    cfg: SolverConfig,
    tc: TheoryConstants | None = None,
) -> AuditReport:
    """Per-iteration laws of the accepted steps.

    consistency        alpha_next = beta**(ell-1)*alpha, step = beta*alpha_next,
                       next row's alpha continues the chain, ell >= 1 on step rows,
                       row 1's alpha is cfg.alpha1 and every row's gamma (the
                       landed row's too) is cfg.gamma's
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

    A CSV trace carries no alpha_next or step: a column that is NaN
    throughout takes the derived law, and a NaN cell in a recorded column
    fails consistency.
    """
    K = len(report.k) - 1  # rows 1..K are steps, row K+1 is the landed iterate
    names = ["consistency", "step_upper_bound", "step_lower_bound",
             "sufficient_decrease", "quasi_fejer"]
    why = _no_step_rows(report)
    if why is not None:
        return AuditReport(checks=tuple(_skip(n, why) for n in names))

    beta, c, rho = cfg.beta, cfg.c, cfg.rho
    ks = report.k[:K]
    ell = report.ell[:K]
    alpha = report.alpha[:K]
    gamma = report.gamma[:K]
    snorm = report.snorm[:K]
    f = report.f

    derived_next = alpha.copy()  # beta**0 * alpha is alpha exactly, so only
    hop = ell != 1               # the rows past rung 1 need the power
    derived_next[hop] = beta ** (ell[hop] - 1).astype(np.float64) * alpha[hop]
    eff_next, eff_step = report.alpha_next[:K], report.step[:K]
    if np.isnan(np.fmax.reduce(eff_next)):  # fmax skips NaN: only an absent column is NaN
        eff_next = derived_next
    if np.isnan(np.fmax.reduce(eff_step)):
        eff_step = beta * eff_next

    checks: list[CheckResult] = []

    # consistency: the ladder law plus the alpha chain between rows
    if np.minimum.reduce(ell) < 1:
        idx = int((ell < 1).argmax())
        checks.append(CheckResult("consistency", FAILED, math.inf, int(ks[idx]),
                                  "step row with ell < 1"))
    else:
        # the largest relative deviation of the three laws (abs commutes with /scale)
        dev = np.abs(_normalized(eff_next, derived_next))
        for a, b in ((report.alpha[1 : K + 1], eff_next), (eff_step, beta * eff_next)):
            np.maximum(dev, np.abs(_normalized(a, b)), out=dev)
        a1, a1_cfg = float(alpha[0]), cfg.alpha1  # Python floats: no one-entry arrays
        if a1 != a1_cfg:
            dev[0] = np.maximum(dev[0], abs(a1 - a1_cfg) / max(1.0, abs(a1), abs(a1_cfg)))
        expected = gamma_values(cfg.gamma, K + 1)
        if (report.gamma != expected).any():  # exact first: a matching column costs one pass
            # the landed row counts too: rate_tail reads its gamma
            dev = np.maximum(np.abs(_normalized(report.gamma, expected)), np.append(dev, 0.0))
        checks.append(_worst("consistency", dev, np.zeros(len(dev)), report.k[: len(dev)]))

    checks.append(_worst("step_upper_bound", eff_next, c * gamma, ks))

    if tc is None:
        checks.append(_skip("step_lower_bound", "no Lipschitz constant supplied"))
    else:
        unrolled = np.minimum(alpha[0], min(tc.theta, beta * c) * gamma)
        checks.append(_worst("step_lower_bound", unrolled, eff_next, ks))

    decrease_rhs = f[:K] - rho * eff_step * (snorm * snorm) + gamma
    checks.append(_worst("sufficient_decrease", f[1 : K + 1], decrease_rhs, ks))

    if report.xs is None:
        checks.append(_skip("quasi_fejer", "trace carries no iterates (CSV round-trip)"))
    elif problem.x_star is None:
        checks.append(_skip("quasi_fejer", "no known optimum"))
    elif rho <= 0.5:
        checks.append(_skip("quasi_fejer", "rho <= 1/2"))
    else:
        rows = max(1, _ROW_BLOCK // problem.n)
        dist_sq = np.empty(K + 1)
        for i in range(0, K + 1, rows):
            d = report.xs[i : i + rows] - problem.x_star
            np.add.reduce(np.multiply(d, d, out=d), axis=1, out=dist_sq[i : i + rows])
        rhs = dist_sq[:K] + (beta * c / rho) * (gamma * gamma)
        checks.append(_worst("quasi_fejer", dist_sq[1 : K + 1], rhs, ks))

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
    theta <= beta*c; Gamma = theta*(2beta - beta/rho), and all five are
    skipped when rho <= 1/2 leaves it non-positive. Why the bounds hold,
    with the applied step t_k = beta*alpha_{k+1} and x* in C:
    1. projection is nonexpansive and <s_k, x_k - x*> >= f_k - f*, so
       ||x_{k+1}-x*||^2 <= ||x_k-x*||^2 - 2*t_k*(f_k - f*) + t_k^2*||s_k||^2;
    2. sufficient decrease gives t_k*||s_k||^2 <= (f_k - f_{k+1} + gamma_k)/rho;
    3. f_{k+1} >= f*, and t_k <= beta*c*gamma_k by step_upper_bound;
    4. so ||x_{k+1}-x*||^2 <= ||x_k-x*||^2 - (2 - 1/rho)*t_k*(f_k - f*)
       + (beta*c/rho)*gamma_k^2;
    5. alpha_1 >= (alpha_1/gamma_1)*gamma_k for a non-increasing gamma, so
       step_lower_bound gives t_k >= beta*theta*gamma_{k+1}; with f_k >= f*
       and rho > 1/2, summing step 4 over k <= N gives rate_general.
    rate_tail uses sum gamma_{k+1} >= N*gamma_{N+1}. For gamma_k = zeta/sqrt(k),
    sum_{k<=N} gamma_k^2 = zeta^2 * sum 1/k <= zeta^2*(1 + ln N) and
    sum_{k<=N} gamma_{k+1} >= 2*zeta*(sqrt(N+2) - sqrt(2)) >= zeta*sqrt(N)/4;
    put into rate_general, they give rate_sqrt_log. rate_compact sums step 4
    over the window k = floor(N/2)+1..N, where ||x_M - x*||^2 <= D at its
    first iterate M; there sum 1/k <= ln(N/floor(N/2)) <= ln 3 and
    sum 1/sqrt(k+1) >= ceil(N/2)/sqrt(N+1) >= sqrt(N+2)/4 for N >= 2. None
    uses theta but through step 5. rate_strongly_convex's telescoping needs
    the schedule's big_theta to be step 5's theta, so it runs only when they
    match.
    """
    K = len(report.k) - 1
    names = ["rate_general", "rate_sqrt_log", "rate_tail", "rate_compact",
             "rate_strongly_convex"]
    f_star = problem.f_star
    if tc is None:
        why = "no theory constants supplied"
    elif tc.gamma_big <= 0.0:
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
    theta = min(tc.theta, beta * c, report.alpha[0] / report.gamma[0])
    Gamma = theta * (2.0 * beta - beta / rho)  # the expression constants() uses
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
        checks.append(_worst("rate_general", gap, numer / (Gamma * sum_shift), Ns))
        if zeta is None:
            checks.append(_skip("rate_sqrt_log", "gamma is not the sqrt-inverse kind"))
        else:
            bound = (4.0 / Gamma) * (
                dist_sq / zeta + zeta * beta / rho * c + zeta * beta / rho * c * np.log(Ns)
            ) / np.sqrt(Ns)
            checks.append(_worst("rate_sqrt_log", gap, bound, Ns))
        checks.append(
            _worst("rate_tail", gap, numer / (Gamma * Ns * gamma[1 : K + 1]), Ns)
        )

    D = diameter_sq(problem.cset)
    if D is None:
        checks.append(_skip("rate_compact", "constraint set is unbounded"))
    elif zeta is None:
        checks.append(_skip("rate_compact", "gamma is not the sqrt-inverse kind"))
    elif K < 2:
        checks.append(_skip("rate_compact", "needs at least two steps"))
    else:
        Ns2 = Ns[1:]
        bound = 4.0 * (D / zeta + zeta * beta * c / rho * math.log(3.0)) / (
            Gamma * np.sqrt(Ns2 + 2.0))
        checks.append(_worst("rate_compact", gap[1:], bound, Ns2))

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
        checks.append(_worst("rate_strongly_convex", gap, bound, Ns))

    return AuditReport(checks=tuple(checks))
