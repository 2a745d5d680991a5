"""Reference implementations used to cross-check the package, and the
helpers that only the tests call.

The references are written independently of the package internals: plain
Python loops and literal formula transcriptions, favoring obviousness over
speed. Tests compare package outputs against these.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nmsubgrad.analysis import REL_SLACK
from nmsubgrad.core import (
    _config_from_items,
    _config_items,
    _json_value,
    _report,
    gamma_values,
)


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


# the kernels in their operator and np.dot forms (A @ x + b, np.dot, np.sqrt):
# the bits that the kernels' method-form calls must reproduce


def max_affine_eval_matmul_ref(A, b, sigma, x):
    vals = A @ x + b
    j = int(vals.argmax())
    v = float(vals[j])
    g = A[j].copy()
    if sigma > 0.0:
        v += 0.5 * sigma * float(np.dot(x, x))
        g = g + sigma * x
    return v, g


# the full-array forms of the passes over a max-affine A, each with A-sized
# temporaries: the bits that the package's block-streamed forms must reproduce


def lipschitz_full_ref(A):
    return float(np.sqrt((A**2).sum(axis=1)).max())


# the planted builder in its operator and wrapper forms (np.linalg.norm, @,
# .sum and .mean over axis 0, and max |a_ij| as two passes of its own): the
# bits that plant_optimum_max_affine and the planted checks must reproduce


def plant_optimum_max_affine_ref(seed, n, m, active_count=None, spread=1.0, sigma=0.0,
                                 active_scale=1.0):
    """(A, b, x_star, f_star) of the planted generator, from the same draws."""
    t = n + 1 if active_count is None else int(active_count)
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(n)
    x_star = spread * direction / float(np.linalg.norm(direction))
    f_star = float(rng.standard_normal())
    A = rng.standard_normal((m, n))
    A[: t - 1] *= active_scale
    A[t - 1] = -(t * sigma * x_star + A[: t - 1].sum(axis=0))
    quad = 0.5 * sigma * float(np.dot(x_star, x_star))
    b = np.empty(m)
    b[:t] = f_star - A[:t] @ x_star - quad
    slacks = spread * rng.uniform(0.1, 1.0, size=m - t)
    b[t:] = f_star - A[t:] @ x_star - quad - slacks
    return A, b, x_star, f_star


def planted_certificate_residual_ref(A, b, sigma, x_star):
    vals = A @ x_star + b
    top = vals.max()
    active = vals >= top - 1e-9 * max(1.0, abs(top))
    return float(np.linalg.norm(A[active].mean(axis=0) + sigma * x_star))


def planted_certificate_tol_ref(A, b, x_star, plant_tol):
    """The certificate's tolerance, plant_tol scaled by max(1, max |a_ij|)
    over the pieces active at x_star."""
    vals = A @ x_star + b
    top = vals.max()
    active = A[vals >= top - 1e-9 * max(1.0, abs(top))]
    return plant_tol * max(1.0, float(np.abs(active).max()))


def fermat_weber_value_dot_ref(anchors, weights, x):
    diff = np.subtract(x[:, None], anchors.T, order="C")
    return float(np.dot(weights, np.sqrt((diff**2).sum(axis=0))))


def project_ball_dot_ref(center, radius, y):
    diff = y - center
    dist = float(np.sqrt(np.dot(diff, diff)))
    if dist <= radius:
        return y.copy()
    return center + (radius / dist) * diff


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
    cross-check of sum_lemma_sweep.

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


def worst_ref(lhs, rhs) -> tuple[float, int]:
    """The audit's comparison of lhs_i <= rhs_i, element by element in
    Python floats: the largest (lhs_i - rhs_i) / max(1, |lhs_i|, |rhs_i|)
    and its first position, or (inf, i) for the first i whose normalized
    violation is not finite."""
    viol = [(a - b) / max(1.0, abs(a), abs(b)) for a, b in zip(map(float, lhs), map(float, rhs))]
    for i, v in enumerate(viol):
        if not math.isfinite(v):
            return math.inf, i
    i = max(range(len(viol)), key=viol.__getitem__)
    return viol[i], i


def build_report(termination: str, **columns):
    """A RunReport of the given columns, lists of Python values named as in
    core._RECORD_FIELDS, through the package's column constructor; a column
    not given is one the report lacks, as xs in a report read from CSV."""
    return _report(columns, termination)


# ----- slack-sequence diagnostics -----


@dataclass(frozen=True)
class GammaDiagnostics:
    """Finite-N surrogates for the summability conditions a slack sequence
    must satisfy for the min-gap to vanish.

    r3: sum(gamma_k^2, k<=N) / sum(gamma_{k+1}, k<=N)   -> 0 wanted
    r4: sum(gamma_k^2, k<=N) / (N * gamma_{N+1})        -> 0 wanted
    s5: sum(gamma_k^2, k<=N)                            bounded wanted
    s6: sum(gamma_k,   k<=N)                            divergent wanted
    """

    N: int
    r3: float
    r4: float
    s5: float
    s6: float


def sequence_diagnostics(seq, N: int) -> GammaDiagnostics:
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    g = gamma_values(seq, N + 1)  # needs gamma_{N+1}
    sq = g[:N] ** 2
    s5 = float(sq.sum())
    s6 = float(g[:N].sum())
    shifted = float(g[1 : N + 1].sum())
    r3 = s5 / shifted
    r4 = s5 / (N * float(g[N]))
    return GammaDiagnostics(N=N, r3=r3, r4=r4, s5=s5, s6=s6)


# ----- config text -----


def config_to_json(cfg) -> str:
    """The config's items as a JSON object, as a --config file holds them."""
    return json.dumps(_config_items(cfg), sort_keys=True, indent=2)


def config_from_json(text: str):
    """The config of JSON text, read as run reads a --config file."""
    return _config_from_items(_json_value(text, "config"))


# ----- summation lemmas over a grid -----


@dataclass(frozen=True)
class SumLemmaSweep:
    all_hold: bool
    worst_violation_full: float
    worst_violation_half: float
    worst_case_full: tuple[float, float, int]
    worst_case_half: tuple[float, float, int]


def sum_lemma_sweep(a_values, d_values, n_max: int) -> SumLemmaSweep:
    """Both harmonic-vs-sqrt sum bounds over every N in 2..n_max and each
    (a, d), from cumulative sums.

    First:  (d + a*sum_{k<=N} 1/k) / sum_{k<=N} 1/sqrt(k+1)
              <= 4*(d + a + a*ln N) / sqrt(N)
    Second: the same shape with both sums over k = ceil(N/2)..N and right
            side 4*(d + a*ln 3) / sqrt(N+2).
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    k = np.arange(1, n_max + 1, dtype=np.float64)
    H = np.cumsum(1.0 / k)
    S = np.cumsum(1.0 / np.sqrt(k + 1.0))
    Ns = np.arange(2, n_max + 1, dtype=np.int64)
    starts = (Ns + 1) // 2  # ceil(N/2)
    H_half = H[Ns - 1] - np.where(starts >= 2, H[starts - 2], 0.0)
    S_half = S[Ns - 1] - np.where(starts >= 2, S[starts - 2], 0.0)

    worst_full = -math.inf
    worst_half = -math.inf
    case_full = case_half = (math.nan, math.nan, 0)
    for a in a_values:
        for d in d_values:
            lhs = (d + a * H[Ns - 1]) / S[Ns - 1]
            rhs = 4.0 * (d + a + a * np.log(Ns)) / np.sqrt(Ns)
            viol = (lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            i = int(np.argmax(viol))
            if viol[i] > worst_full:
                worst_full, case_full = float(viol[i]), (float(a), float(d), int(Ns[i]))
            lhs2 = (d + a * H_half) / S_half
            rhs2 = 4.0 * (d + a * math.log(3.0)) / np.sqrt(Ns + 2.0)
            viol2 = (lhs2 - rhs2) / np.maximum(1.0, np.maximum(np.abs(lhs2), np.abs(rhs2)))
            j = int(np.argmax(viol2))
            if viol2[j] > worst_half:
                worst_half, case_half = float(viol2[j]), (float(a), float(d), int(Ns[j]))
    return SumLemmaSweep(
        all_hold=(worst_full <= REL_SLACK and worst_half <= REL_SLACK),
        worst_violation_full=worst_full,
        worst_violation_half=worst_half,
        worst_case_full=case_full,
        worst_case_half=case_half,
    )
