"""Hot numeric kernels: objective evaluations and projections.

Each kernel is one vectorized numpy function over plain arrays; the oracles in
`problems` call them with an instance's arrays. Each objective formula is
written once, in its `*_eval` kernel, which returns the value and a
subgradient. The `*_value` kernels take the value from it and stay only for
the benchmark's `kernels.value_us` probe: a problem's `value` oracle runs the
`*_eval` kernel, so no solve calls them. `BACKEND` names the implementation
so benchmark records can say what they timed.

The kernels run once per oracle call on arrays as small as n = 2, so each
numpy call takes the form with the least dispatch. A matrix-vector product is
`A.dot(x)` with the offset added in place, and a dot product is `v.dot(w)`:
the method form calls the same BLAS routine as `A @ x` and `np.dot` (dgemv,
ddot) without the matmul or array-function dispatch, so the bits are the
same. One entry is read out with `.item`, and a scalar square root is
`math.sqrt`, correctly rounded as `np.sqrt` is.

The Fermat-Weber kernel takes anchors as an (m, n) array and works on
`anchors.T`, one row per coordinate; `FermatWeberInstance` stores its anchors
column-major, so that view is contiguous. Its two sums run in index order
whatever the anchors' memory layout: a squared distance adds the coordinates
first to last, as a reduction across the rows does (for m = 1 numpy sums the
one contiguous column pairwise instead, from n = 8 on), and each subgradient
coordinate adds the anchors' terms first to last through `row_sums`, a scan
that never takes numpy's pairwise path along a contiguous row. `weiszfeld`
uses `fermat_weber_distances` and `row_sums` too, so its value is the
kernel's value bit for bit.
"""

from __future__ import annotations

import math

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
    """Value and one subgradient: the gradient of the smallest-index active
    piece, plus sigma*x when the quadratic term is present."""
    vals = A.dot(x)
    vals += b
    j = vals.argmax()  # first maximizer = smallest index
    v = vals.item(j)
    if sigma > 0.0:
        return v + 0.5 * sigma * float(x.dot(x)), A[j] + x * sigma
    return v, A[j].copy()


def fermat_weber_distances(anchors, weights, x):
    """(x - a_i) as an (n, m) array, the distances d_i and sum_i w_i d_i."""
    diff = np.subtract(x[:, None], anchors.T, order="C")
    d = np.sqrt((diff**2).sum(axis=0))
    return diff, d, float(weights.dot(d))


def fermat_weber_eval(anchors, weights, x):
    """Value and one subgradient; terms whose anchor coincides with x
    contribute zero (any unit-ball choice is valid there, zero is taken)."""
    diff, d, v = fermat_weber_distances(anchors, weights, x)
    nz = d > 0.0
    if nz.all():
        diff *= weights / d
        return v, row_sums(diff)
    # anchor-coincident terms contribute nothing to the subgradient
    return v, row_sums(diff[:, nz] * (weights[nz] / d[nz]))


def row_sums(r):
    """Sum of each row of the 2-D array r, added first to last from +0.0, as
    numpy reduces across rows; r is overwritten. Zero columns sum to zero."""
    if r.shape[1] == 0:
        return np.zeros(r.shape[0])
    # + 0.0 turns a -0.0 total into +0.0 and copies the strided last column
    return np.add.accumulate(r, axis=1, out=r)[:, -1] + 0.0


def max_affine_value(A, b, sigma, x):
    return max_affine_eval(A, b, sigma, x)[0]


def fermat_weber_value(anchors, weights, x):
    return fermat_weber_eval(anchors, weights, x)[0]


def project_ball(center, radius, y):
    diff = y - center
    dist = math.sqrt(diff.dot(diff))
    if dist <= radius:
        return y.copy()
    return center + (radius / dist) * diff


def project_box(lo, hi, y):
    return np.minimum(np.maximum(y, lo), hi)


def project_orthant(y):
    return np.maximum(y, 0.0)
