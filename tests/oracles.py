"""Reference implementations used to cross-check the package.

Everything here is written independently of the package internals: plain
Python loops and literal formula transcriptions, favoring obviousness over
speed. Tests compare package outputs against these.
"""

from __future__ import annotations

import math
from dataclasses import fields
from fractions import Fraction

import numpy as np

from nmsubgrad.analysis import REL_SLACK
from nmsubgrad.core import IterationRecord, _report


def max_affine_value_ref(A, b, x, sigma=0.0):
    best = -math.inf
    for row, off in zip(A, b):
        v = sum(a * xi for a, xi in zip(row, x)) + off
        if v > best:
            best = v
    if sigma > 0.0:
        best += 0.5 * sigma * sum(xi * xi for xi in x)
    return best


def max_affine_subgrad_ref(A, b, x, sigma=0.0):
    """Gradient of the first piece attaining the max (lowest index wins)."""
    best = -math.inf
    arg = 0
    for j, (row, off) in enumerate(zip(A, b)):
        v = sum(a * xi for a, xi in zip(row, x)) + off
        if v > best:
            best = v
            arg = j
    g = list(A[arg])
    if sigma > 0.0:
        g = [gi + sigma * xi for gi, xi in zip(g, x)]
    return g


def fermat_weber_value_ref(anchors, weights, x):
    total = 0.0
    for a, w in zip(anchors, weights):
        total += w * math.sqrt(sum((xi - ai) ** 2 for xi, ai in zip(x, a)))
    return total


def fermat_weber_subgrad_ref(anchors, weights, x):
    g = [0.0] * len(x)
    for a, w in zip(anchors, weights):
        d = math.sqrt(sum((xi - ai) ** 2 for xi, ai in zip(x, a)))
        if d > 0.0:
            for i in range(len(x)):
                g[i] += w * (x[i] - a[i]) / d
    return g


def fermat_weber_subgrad_in_order_ref(anchors, weights, x):
    """The Fermat-Weber subgradient with the kernel's arithmetic and every sum
    taken first to last from +0.0: each squared distance over the coordinates,
    each subgradient coordinate over the anchors (coincident ones dropped)."""
    g = [0.0] * len(x)
    for a, w in zip(anchors, weights):
        sq = 0.0
        for xi, ai in zip(x, a):
            sq += (xi - ai) * (xi - ai)
        d = math.sqrt(sq)
        if d > 0.0:
            for i in range(len(x)):
                g[i] += (x[i] - a[i]) * (w / d)
    return g


def project_ball_ref(center, radius, y):
    d = math.sqrt(sum((yi - ci) ** 2 for yi, ci in zip(y, center)))
    if d <= radius:
        return list(y)
    t = radius / d
    return [ci + t * (yi - ci) for yi, ci in zip(y, center)]


def project_box_ref(lo, hi, y):
    return [min(max(yi, l), h) for yi, l, h in zip(y, lo, hi)]


def project_orthant_ref(y):
    return [max(yi, 0.0) for yi in y]


def backtrack_ref(value, projector, x_k, f_k, s_k, alpha_k, gamma_k,
                  c, rho, beta, cap=500):
    """Literal scan for the smallest ell satisfying both acceptance tests.

    Condition one is written in its original beta^ell * alpha <= c*beta*gamma
    form on purpose, to cross-check the package's algebraically rearranged
    version. It is evaluated exactly on the float inputs, so rounding cannot
    turn an exact tie (say c == alpha and gamma == beta) into a rejection.
    """
    snorm_sq = sum(s * s for s in s_k)
    lhs = Fraction(alpha_k)
    rhs = Fraction(c) * Fraction(beta) * Fraction(gamma_k)
    for ell in range(1, cap + 1):
        step = beta**ell * alpha_k
        lhs *= Fraction(beta)
        if not lhs <= rhs:
            continue
        x_trial = projector([xi - step * si for xi, si in zip(x_k, s_k)])
        f_trial = value(x_trial)
        if f_trial <= f_k - rho * step * snorm_sq + gamma_k:
            return {
                "ell": ell,
                "x_next": x_trial,
                "f_next": f_trial,
                "alpha_next": beta ** (ell - 1) * alpha_k,
                "step": step,
            }
    raise AssertionError("reference backtrack exhausted its cap")


def grid_min_2d(value, center, half_width, points=201, refinements=3):
    """Dense 2-d grid search with shrinking windows around the best cell."""
    cx, cy = float(center[0]), float(center[1])
    h = float(half_width)
    best = (math.inf, cx, cy)
    for _ in range(refinements):
        xs = [cx - h + 2.0 * h * i / (points - 1) for i in range(points)]
        ys = [cy - h + 2.0 * h * i / (points - 1) for i in range(points)]
        for xv in xs:
            for yv in ys:
                f = value([xv, yv])
                if f < best[0]:
                    best = (f, xv, yv)
        _, cx, cy = best
        h = 4.0 * h / (points - 1)
    return best


def gamma_ref(kind, k, zeta=None, theta=None, sigma=None, beta=None, big_theta=None):
    if kind == "sqrt_inverse":
        return zeta / math.sqrt(k)
    if kind == "power_inverse":
        return zeta / k ** (1.0 - theta / 2.0)
    if kind == "strongly_convex_harmonic":
        return 2.0 / (sigma * beta * big_theta * k)
    raise ValueError(kind)


def sum_lemma_sides_ref(a, d, N):
    """Both lemma inequalities by direct summation; returns four floats."""
    lhs1 = (d + a * sum(1.0 / k for k in range(1, N + 1))) / sum(
        1.0 / math.sqrt(k + 1) for k in range(1, N + 1)
    )
    rhs1 = 4.0 * (d + a + a * math.log(N)) / math.sqrt(N)
    start = (N + 1) // 2  # ceil(N/2)
    lhs2 = (d + a * sum(1.0 / k for k in range(start, N + 1))) / sum(
        1.0 / math.sqrt(k + 1) for k in range(start, N + 1)
    )
    rhs2 = 4.0 * (d + a * math.log(3.0)) / math.sqrt(N + 2)
    return lhs1, rhs1, lhs2, rhs2


def check_sum_lemmas(a: float, d: float, N: int) -> tuple[bool, bool | None]:
    """Direct-summation check of the two harmonic-vs-sqrt sum bounds, a scalar
    cross-check of analysis.sum_lemma_sweep.

    First (N >= 1):  (d + a*sum_{k<=N} 1/k) / sum_{k<=N} 1/sqrt(k+1)
                       <= 4*(d + a + a*ln N) / sqrt(N)
    Second (N >= 2): same shape with both sums over k = ceil(N/2)..N and
                     right side 4*(d + a*ln 3) / sqrt(N+2); None when N < 2.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if a < 0.0 or d < 0.0:
        raise ValueError("a and d must be nonnegative")
    k = np.arange(1, N + 1, dtype=np.float64)
    lhs1 = (d + a * float((1.0 / k).sum())) / float((1.0 / np.sqrt(k + 1.0)).sum())
    rhs1 = 4.0 * (d + a + a * math.log(N)) / math.sqrt(N)
    ok1 = (lhs1 - rhs1) / max(1.0, abs(lhs1), abs(rhs1)) <= REL_SLACK
    if N < 2:
        return bool(ok1), None
    start = math.ceil(N / 2)
    kh = np.arange(start, N + 1, dtype=np.float64)
    lhs2 = (d + a * float((1.0 / kh).sum())) / float((1.0 / np.sqrt(kh + 1.0)).sum())
    rhs2 = 4.0 * (d + a * math.log(3.0)) / math.sqrt(N + 2.0)
    ok2 = (lhs2 - rhs2) / max(1.0, abs(lhs2), abs(rhs2)) <= REL_SLACK
    return bool(ok1), bool(ok2)


def build_report(records: list[IterationRecord], termination: str):
    """A RunReport from IterationRecord rows, through the package's column
    constructor; if any row has no iterate, the report has none."""
    columns = [[getattr(r, f.name) for r in records] for f in fields(IterationRecord)]
    if any(x is None for x in columns[1]):
        columns[1] = None
    return _report(columns, termination)
