"""Hot numeric kernels: objective evaluations and projections.

Two interchangeable implementations live here. The numba path compiles the
kernels with @njit; the numpy path is vectorized. Selection happens once at
import time: set NMSUBGRAD_NO_NUMBA=1 (or "true"/"yes") to force the numpy
path, e.g. when numba is unavailable or for A/B timing. Both paths agree to
floating-point roundoff (summation order differs), never bit-for-bit.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "BACKEND",
    "max_affine_value",
    "max_affine_eval",
    "fermat_weber_value",
    "fermat_weber_eval",
    "project_ball",
    "project_box",
    "project_orthant",
    "NUMPY_IMPLS",
    "NUMBA_IMPLS",
]


def _numba_disabled_by_env() -> bool:
    flag = os.environ.get("NMSUBGRAD_NO_NUMBA", "").strip().lower()
    return flag not in ("", "0", "false", "no")


# ----- numpy implementations -----

def max_affine_value_np(A, b, sigma, x):
    vals = A @ x + b
    v = float(vals.max())
    if sigma > 0.0:
        v += 0.5 * sigma * float(np.dot(x, x))
    return v


def max_affine_eval_np(A, b, sigma, x):
    vals = A @ x + b
    j = int(vals.argmax())  # first maximizer = smallest index
    v = float(vals[j])
    g = A[j].copy()
    if sigma > 0.0:
        v += 0.5 * sigma * float(np.dot(x, x))
        g = g + sigma * x
    return v, g


def fermat_weber_value_np(anchors, weights, x):
    d = np.sqrt(((x - anchors) ** 2).sum(axis=1))
    return float(np.dot(weights, d))


def fermat_weber_eval_np(anchors, weights, x):
    diff = x - anchors
    d = np.sqrt((diff**2).sum(axis=1))
    v = float(np.dot(weights, d))
    # anchor-coincident terms contribute nothing to the subgradient
    nz = d > 0.0
    g = (diff[nz] * (weights[nz] / d[nz])[:, None]).sum(axis=0)
    return v, np.ascontiguousarray(g)


def project_ball_np(center, radius, y):
    diff = y - center
    dist = float(np.sqrt(np.dot(diff, diff)))
    if dist <= radius:
        return y.copy()
    return center + (radius / dist) * diff


def project_box_np(lo, hi, y):
    return np.minimum(np.maximum(y, lo), hi)


def project_orthant_np(y):
    return np.maximum(y, 0.0)


NUMPY_IMPLS = {
    "max_affine_value": max_affine_value_np,
    "max_affine_eval": max_affine_eval_np,
    "fermat_weber_value": fermat_weber_value_np,
    "fermat_weber_eval": fermat_weber_eval_np,
    "project_ball": project_ball_np,
    "project_box": project_box_np,
    "project_orthant": project_orthant_np,
}

NUMBA_IMPLS: dict[str, object] = {}

try:  # pragma: no cover - exercised via subprocess in the tests
    if _numba_disabled_by_env():
        raise ImportError("numba disabled by NMSUBGRAD_NO_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

if HAS_NUMBA:

    @njit(cache=True)
    def max_affine_value_nb(A, b, sigma, x):
        m, n = A.shape
        best = -np.inf
        for j in range(m):
            acc = b[j]
            for i in range(n):
                acc += A[j, i] * x[i]
            if acc > best:
                best = acc
        if sigma > 0.0:
            ss = 0.0
            for i in range(n):
                ss += x[i] * x[i]
            best += 0.5 * sigma * ss
        return best

    @njit(cache=True)
    def max_affine_eval_nb(A, b, sigma, x):
        m, n = A.shape
        best = -np.inf
        jstar = 0
        for j in range(m):
            acc = b[j]
            for i in range(n):
                acc += A[j, i] * x[i]
            if acc > best:  # strict: ties keep the smallest index
                best = acc
                jstar = j
        g = A[jstar].copy()
        if sigma > 0.0:
            ss = 0.0
            for i in range(n):
                ss += x[i] * x[i]
            best += 0.5 * sigma * ss
            for i in range(n):
                g[i] += sigma * x[i]
        return best, g

    @njit(cache=True)
    def fermat_weber_value_nb(anchors, weights, x):
        m, n = anchors.shape
        total = 0.0
        for i in range(m):
            ss = 0.0
            for j in range(n):
                diff = x[j] - anchors[i, j]
                ss += diff * diff
            total += weights[i] * np.sqrt(ss)
        return total

    @njit(cache=True)
    def fermat_weber_eval_nb(anchors, weights, x):
        m, n = anchors.shape
        total = 0.0
        g = np.zeros(n)
        for i in range(m):
            ss = 0.0
            for j in range(n):
                diff = x[j] - anchors[i, j]
                ss += diff * diff
            d = np.sqrt(ss)
            total += weights[i] * d
            if d > 0.0:
                w = weights[i] / d
                for j in range(n):
                    g[j] += w * (x[j] - anchors[i, j])
        return total, g

    @njit(cache=True)
    def project_ball_nb(center, radius, y):
        n = y.shape[0]
        ss = 0.0
        for i in range(n):
            diff = y[i] - center[i]
            ss += diff * diff
        dist = np.sqrt(ss)
        if dist <= radius:
            return y.copy()
        out = np.empty(n)
        scale = radius / dist
        for i in range(n):
            out[i] = center[i] + scale * (y[i] - center[i])
        return out

    @njit(cache=True)
    def project_box_nb(lo, hi, y):
        n = y.shape[0]
        out = np.empty(n)
        for i in range(n):
            v = y[i]
            if v < lo[i]:
                v = lo[i]
            elif v > hi[i]:
                v = hi[i]
            out[i] = v
        return out

    @njit(cache=True)
    def project_orthant_nb(y):
        n = y.shape[0]
        out = np.empty(n)
        for i in range(n):
            out[i] = y[i] if y[i] > 0.0 else 0.0
        return out

    NUMBA_IMPLS = {
        "max_affine_value": max_affine_value_nb,
        "max_affine_eval": max_affine_eval_nb,
        "fermat_weber_value": fermat_weber_value_nb,
        "fermat_weber_eval": fermat_weber_eval_nb,
        "project_ball": project_ball_nb,
        "project_box": project_box_nb,
        "project_orthant": project_orthant_nb,
    }

if HAS_NUMBA:
    BACKEND = "numba"
    _active = NUMBA_IMPLS
else:
    BACKEND = "numpy"
    _active = NUMPY_IMPLS

max_affine_value = _active["max_affine_value"]
max_affine_eval = _active["max_affine_eval"]
fermat_weber_value = _active["fermat_weber_value"]
fermat_weber_eval = _active["fermat_weber_eval"]
project_ball = _active["project_ball"]
project_box = _active["project_box"]
project_orthant = _active["project_orthant"]


def warmup() -> None:
    """Trigger kernel compilation on tiny inputs (no-op on the numpy path)."""
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([0.0, 0.0])
    x = np.array([0.5, -0.5])
    w = np.array([1.0, 1.0])
    max_affine_value(A, b, 0.0, x)
    max_affine_eval(A, b, 1.0, x)
    fermat_weber_value(A, w, x)
    fermat_weber_eval(A, w, x)
    project_ball(np.zeros(2), 1.0, x)
    project_box(-np.ones(2), np.ones(2), x)
    project_orthant(x)
