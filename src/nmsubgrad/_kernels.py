"""Hot numeric kernels: objective evaluations and projections.

Each kernel is one vectorized numpy function over plain arrays; the oracles in
`problems` call them with an instance's arrays. Each objective formula is
written once, in its `*_eval` kernel, which returns the value and a
subgradient; the `*_value` kernels take the value from it and are kept for the
value-only callers and the `kernels.value_us` probe. `BACKEND` names the
implementation so benchmark records can say what they timed.
"""

from __future__ import annotations

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
]

BACKEND = "numpy"


def max_affine_eval(A, b, sigma, x):
    vals = A @ x + b
    j = int(vals.argmax())  # first maximizer = smallest index
    v = float(vals[j])
    g = A[j].copy()
    if sigma > 0.0:
        v += 0.5 * sigma * float(np.dot(x, x))
        g = g + sigma * x
    return v, g


def fermat_weber_eval(anchors, weights, x):
    diff = x - anchors
    d = np.sqrt((diff**2).sum(axis=1))
    v = float(np.dot(weights, d))
    # anchor-coincident terms contribute nothing to the subgradient
    nz = d > 0.0
    g = (diff[nz] * (weights[nz] / d[nz])[:, None]).sum(axis=0)
    return v, np.ascontiguousarray(g)


def max_affine_value(A, b, sigma, x):
    return max_affine_eval(A, b, sigma, x)[0]


def fermat_weber_value(anchors, weights, x):
    return fermat_weber_eval(anchors, weights, x)[0]


def project_ball(center, radius, y):
    diff = y - center
    dist = float(np.sqrt(np.dot(diff, diff)))
    if dist <= radius:
        return y.copy()
    return center + (radius / dist) * diff


def project_box(lo, hi, y):
    return np.minimum(np.maximum(y, lo), hi)


def project_orthant(y):
    return np.maximum(y, 0.0)
