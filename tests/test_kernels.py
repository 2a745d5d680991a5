import math

import numpy as np
import pytest

from nmsubgrad import _kernels as K

from oracles import (
    fermat_weber_subgrad_in_order_ref,
    fermat_weber_subgrad_ref,
    fermat_weber_value_dot_ref,
    fermat_weber_value_ref,
    max_affine_eval_matmul_ref,
    max_affine_subgrad_ref,
    max_affine_value_ref,
    project_ball_dot_ref,
    project_ball_ref,
    project_box_ref,
    project_orthant_ref,
)


def test_backend_label_is_numpy():
    # benchmark records name the implementation they timed by this label
    assert K.BACKEND == "numpy"


# ----- agreement with the reference implementations -----


def _random_inputs(seed):
    rng = np.random.default_rng(seed)
    m, n = 7, 4
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    x = rng.standard_normal(n)
    w = rng.uniform(0.5, 2.0, m)
    return A, b, x, w


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_max_affine_matches_reference(seed, sigma):
    A, b, x, _ = _random_inputs(seed)
    want = max_affine_value_ref(A.tolist(), b.tolist(), x.tolist(), sigma)
    assert K.max_affine_value(A, b, sigma, x) == pytest.approx(want, rel=1e-12)
    v, g = K.max_affine_eval(A, b, sigma, x)
    assert v == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(
        g, max_affine_subgrad_ref(A.tolist(), b.tolist(), x.tolist(), sigma),
        rtol=1e-12,
    )


@pytest.mark.parametrize("seed", range(8))
def test_fermat_weber_matches_reference(seed):
    A, _, x, w = _random_inputs(seed)
    want = fermat_weber_value_ref(A.tolist(), w.tolist(), x.tolist())
    assert K.fermat_weber_value(A, w, x) == pytest.approx(want, rel=1e-12)
    v, g = K.fermat_weber_eval(A, w, x)
    assert v == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(
        g, fermat_weber_subgrad_ref(A.tolist(), w.tolist(), x.tolist()), rtol=1e-12
    )


def test_max_affine_tie_takes_lowest_index():
    # rows 0 and 2 both attain the max at x = 0; row 0's gradient must win
    A = np.array([[1.0, 1.0], [5.0, 0.0], [-1.0, 2.0]])
    b = np.array([3.0, -10.0, 3.0])
    x = np.zeros(2)
    _, g = K.max_affine_eval(A, b, 0.0, x)
    np.testing.assert_array_equal(g, A[0])


def test_max_affine_quadratic_term():
    A = np.array([[0.0, 0.0]])
    b = np.array([1.0])
    x = np.array([3.0, 4.0])
    assert K.max_affine_value(A, b, 2.0, x) == pytest.approx(1.0 + 25.0, rel=1e-15)
    _, g = K.max_affine_eval(A, b, 2.0, x)
    np.testing.assert_allclose(g, 2.0 * x, rtol=1e-15)


def test_fermat_weber_at_an_anchor():
    anchors = np.array([[0.0, 0.0], [3.0, 0.0]])
    w = np.array([2.0, 5.0])
    x = np.array([0.0, 0.0])  # sits on anchor 0
    assert K.fermat_weber_value(anchors, w, x) == pytest.approx(15.0, rel=1e-15)
    _, g = K.fermat_weber_eval(anchors, w, x)
    # the coincident term weighs zero; only anchor 1 pulls
    np.testing.assert_allclose(g, [-5.0, 0.0], rtol=1e-15)


def test_fermat_weber_at_a_nan_point_is_nan():
    # a NaN point has no zero subgradient: the driver must see it non-finite
    anchors = np.array([[0.0, 0.0], [3.0, 0.0]])
    x = np.array([0.0, np.nan])
    v, g = K.fermat_weber_eval(anchors, np.array([2.0, 5.0]), x)
    assert math.isnan(v) and np.isnan(g).all()


# ----- the hot-path call forms give the operator forms' bits -----


def _bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("sigma", [0.0, 0.7])
@pytest.mark.parametrize("n, m", [(1, 1), (2, 10), (10, 50), (17, 33), (200, 5000)])
def test_max_affine_eval_bits_match_matmul_form(n, m, sigma, order):
    rng = np.random.default_rng(100 * n + m)
    A = np.asarray(rng.standard_normal((m, n)), order=order)
    b = rng.standard_normal(m)
    for x in (rng.standard_normal(n), 10.0 * rng.standard_normal(n)):
        v, g = K.max_affine_eval(A, b, sigma, x)
        v_ref, g_ref = max_affine_eval_matmul_ref(A, b, sigma, x)
        assert _bits(v) == _bits(v_ref)
        assert g.tobytes() == g_ref.tobytes() and g.shape == (n,)
        assert not np.shares_memory(g, A)  # a fresh array, never a row of A


@pytest.mark.parametrize("n, m", [(2, 27), (3, 5000)])
def test_fermat_weber_value_bits_match_dot_form(n, m):
    rng = np.random.default_rng(n + m)
    anchors = np.asfortranarray(10.0 * rng.standard_normal((m, n)))
    w = rng.uniform(0.5, 2.0, m)
    x = rng.standard_normal(n)
    assert _bits(K.fermat_weber_eval(anchors, w, x)[0]) == _bits(
        fermat_weber_value_dot_ref(anchors, w, x))


@pytest.mark.parametrize("scale", [0.1, 10.0], ids=["inside", "outside"])
def test_project_ball_bits_match_dot_form(scale):
    rng = np.random.default_rng(7)
    c = rng.standard_normal(5)
    y = c + scale * rng.standard_normal(5) / np.sqrt(5)
    got, want = K.project_ball(c, 1.5, y), project_ball_dot_ref(c, 1.5, y)
    assert got.tobytes() == want.tobytes()
    assert (np.linalg.norm(y - c) <= 1.5) == (scale < 1.0)
    assert not np.shares_memory(got, y)


# ----- Fermat-Weber: the same bits whatever the anchors' layout -----

_FW_SHAPES = [(n, m) for n in (1, 2, 3, 7, 8, 10) for m in (1, 7, 8, 300)]


def _fermat_weber_points(n, m):
    """(anchors, weights, x) cases: x off every anchor, x on one anchor,
    every anchor on x, and x[0] = -0.0 against anchors whose first coordinate
    is +0.0, so every term of g[0] is -0.0."""
    rng = np.random.default_rng(1000 * n + m)
    anchors = 10.0 * rng.standard_normal((m, n))
    w = rng.uniform(0.5, 2.0, m)
    off = rng.standard_normal(n)
    on = anchors[m // 2].copy()
    signed = anchors.copy()
    signed[:, 0] = 0.0
    x_neg = off.copy()
    x_neg[0] = -0.0
    return [(anchors, w, off), (anchors, w, on), (np.tile(on, (m, 1)), w, on),
            (signed, w, x_neg)]


@pytest.mark.parametrize("n, m", _FW_SHAPES)
def test_fermat_weber_bits_do_not_depend_on_anchor_layout(n, m):
    for anchors, w, x in _fermat_weber_points(n, m):
        v_c, g_c = K.fermat_weber_eval(np.ascontiguousarray(anchors), w, x)
        v_f, g_f = K.fermat_weber_eval(np.asfortranarray(anchors), w, x)
        assert np.float64(v_c).tobytes() == np.float64(v_f).tobytes()
        assert g_c.tobytes() == g_f.tobytes()
        assert g_c.shape == (n,) and g_c.flags.c_contiguous
        # a zero coordinate is +0.0, as a sum from +0.0 gives
        assert not np.signbit(g_c[g_c == 0.0]).any()


# for m = 1 numpy sums the (n, 1) squares pairwise from n = 8 on
@pytest.mark.parametrize("n, m", [(n, m) for n, m in _FW_SHAPES if m > 1 or n < 8])
def test_fermat_weber_sums_run_in_index_order(n, m):
    for anchors, w, x in _fermat_weber_points(n, m):
        _, g = K.fermat_weber_eval(np.asfortranarray(anchors), w, x)
        want = fermat_weber_subgrad_in_order_ref(anchors.tolist(), w.tolist(), x.tolist())
        assert g.tobytes() == np.asarray(want).tobytes()


# the families where a distance is 0 and its terms are +-0.0: x on some
# anchors; the same with +-0.0 coordinates on both sides (-0.0 - +0.0 is
# -0.0), among anchors with +-0.0 coordinates of their own; anchors within
# 1e-170 of x, whose squared distance underflows to 0, among anchors at a
# subnormal squared distance; and m = 1
def _zero_distance_points(rng, n, m):
    anchors = 10.0 * rng.standard_normal((m, n))
    w = rng.uniform(0.5, 2.0, m)
    x = rng.standard_normal(n)
    on = rng.random(m) < 0.5  # the anchors at (or next to) x
    coincide = anchors.copy()
    coincide[on] = x
    def signed_zeros(a):
        return np.copysign(np.where(rng.random(a.shape) < 0.5, 0.0, a),
                           rng.standard_normal(a.shape))
    x_signed = signed_zeros(x)
    signed = signed_zeros(anchors)
    signed[on] = np.where(x_signed == 0.0, signed_zeros(np.zeros((on.sum(), n))), x_signed)
    tiny = x * 1e-160
    near = anchors.copy()
    near[on] = tiny + 1e-170 * rng.standard_normal((on.sum(), n))
    near[~on] = tiny + 1e-155 * rng.standard_normal(((~on).sum(), n))
    return [(coincide, w, x), (signed, w, x_signed), (near, w, tiny),
            (anchors[:1], w[:1], anchors[0].copy())]


@pytest.mark.parametrize("n, m", [(n, m) for n, m in _FW_SHAPES if m > 1 or n < 8])
def test_fermat_weber_zero_distances_keep_index_order_bits(n, m):
    rng = np.random.default_rng(7000 + 100 * n + m)
    for _ in range(20):
        for anchors, w, x in _zero_distance_points(rng, n, m):
            if anchors.shape[0] == 1 and n >= 8:
                continue  # numpy sums the (n, 1) squares pairwise
            want = np.asarray(fermat_weber_subgrad_in_order_ref(
                anchors.tolist(), w.tolist(), x.tolist()))
            for layout in (np.ascontiguousarray, np.asfortranarray):
                _, g = K.fermat_weber_eval(layout(anchors), w, x)
                assert g.tobytes() == want.tobytes()


# ----- row norms: the streamed blocks give the one-shot form's bits -----

_PER_BLOCK = K._ROW_BLOCK // 100  # rows of 100 entries in one block
_ROW_SHAPES = pytest.mark.parametrize("shape", [
    (5, 8),
    (3 * _PER_BLOCK - 7, 100),
    (2 * _PER_BLOCK + 1, 100),
    (3, K._ROW_BLOCK + 5),
], ids=["one_block", "short_last_block", "one_row_last_block", "rows_over_a_block"])


@_ROW_SHAPES
def test_row_sq_norms_bits_match_one_shot_form(shape):
    rng = np.random.default_rng(shape[0])
    M, c = rng.standard_normal(shape), rng.standard_normal(shape[1])
    want = np.add.reduce((M - c) ** 2, axis=1)
    assert K.row_sq_norms(M, c).tobytes() == want.tobytes()


@_ROW_SHAPES
def test_row_sq_norms_about_the_origin_match_squares(shape):
    M = np.random.default_rng(shape[0]).standard_normal(shape)
    M[0, 0] = -0.0
    want = np.add.reduce(np.square(M), axis=1)
    assert K.row_sq_norms(M).tobytes() == want.tobytes()


# ----- projections -----


@pytest.mark.parametrize("seed", range(10))
def test_project_ball_matches_reference(seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(5)
    y = rng.standard_normal(5) * 3.0
    r = float(rng.uniform(0.1, 2.0))
    np.testing.assert_allclose(
        K.project_ball(c, r, y), project_ball_ref(c.tolist(), r, y.tolist()),
        rtol=1e-12, atol=1e-15,
    )


def test_project_ball_far_point_lands_on_the_sphere():
    # ||y - c||^2 overflows: the direction comes from y - c scaled down
    c = np.array([1.0, -2.0, 0.5])
    y = np.array([1e200, -2e200, 5e199])
    got = K.project_ball(c, 10.0, y)
    assert np.linalg.norm(got - c) == pytest.approx(10.0, rel=1e-15)
    u = (y / 1e200) / np.linalg.norm(y / 1e200)  # c is lost next to y
    np.testing.assert_allclose((got - c) / 10.0, u, rtol=1e-15)
    # and when y - c itself overflows, which the subtraction warns of
    with np.errstate(over="ignore"):
        got = K.project_ball(np.array([-1e308, 0.0]), 1.0, np.array([1e308, 1.0]))
    np.testing.assert_allclose(got, [-1e308, 5e-309], rtol=1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_project_ball_non_finite_point_is_nan(bad):
    # no projection exists; NaN ends a run as nonfinite_oracle, and pytest
    # makes any numpy warning an error
    y = np.array([1e300, bad, 0.0])
    assert np.isnan(K.project_ball(np.zeros(3), 10.0, y)).all()


def test_project_ball_interior_point_unmoved():
    c = np.zeros(3)
    y = np.array([0.1, -0.2, 0.05])
    np.testing.assert_array_equal(K.project_ball(c, 1.0, y), y)


@pytest.mark.parametrize("seed", range(10))
def test_project_box_and_orthant_match_reference(seed):
    rng = np.random.default_rng(seed)
    lo = -rng.uniform(0.5, 1.5, 6)
    hi = rng.uniform(0.5, 1.5, 6)
    y = rng.standard_normal(6) * 2.0
    np.testing.assert_allclose(
        K.project_box(lo, hi, y),
        project_box_ref(lo.tolist(), hi.tolist(), y.tolist()), rtol=1e-15,
    )
    np.testing.assert_allclose(
        K.project_orthant(y), project_orthant_ref(y.tolist()), rtol=1e-15
    )
