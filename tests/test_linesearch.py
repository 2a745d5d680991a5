import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmsubgrad import (
    BacktrackFailureError,
    SolverConfig,
    make_problem,
    nonmonotone_backtrack,
    plant_optimum_max_affine,
)

from oracles import backtrack_ref


def _identity_projector(y):
    return y


def _linear_value(x):
    # f(x) = x on the real line; every point is its own subgradient 1
    return float(x[0])


CFG = SolverConfig(c=1.0, beta=0.9, rho=0.8, alpha1=0.1)


# ----- worked example: first rung accepted -----


def test_first_rung_accepted():
    out = nonmonotone_backtrack(
        _linear_value, _identity_projector,
        x_k=np.array([0.0]), f_k=0.0, s_k=np.array([1.0]), snorm_sq=1.0,
        alpha_k=0.05, gamma_k=0.1, cfg=CFG,
    )
    assert out.ell == 1
    assert out.alpha_next == 0.05  # beta**0 * alpha
    assert CFG.beta * out.alpha_next == pytest.approx(0.045, rel=1e-15)  # the applied step
    np.testing.assert_allclose(out.x_next, [-0.045], rtol=1e-15)
    assert out.trials == 1


# ----- worked example: the size cap forces seven rejections -----


def test_size_cap_forces_eighth_rung():
    out = nonmonotone_backtrack(
        _linear_value, _identity_projector,
        x_k=np.array([0.0]), f_k=0.0, s_k=np.array([1.0]), snorm_sq=1.0,
        alpha_k=0.2, gamma_k=0.1, cfg=CFG,
    )
    # smallest ell with 0.9**(ell-1) * 0.2 <= 0.1 is 8
    assert out.ell == 8
    assert out.alpha_next == pytest.approx(0.9**7 * 0.2, rel=1e-15)
    assert out.alpha_next == pytest.approx(0.0956593800, rel=1e-9)
    # rungs failing the size test are skipped without objective evaluations
    assert out.trials == 1


def test_outcome_internal_laws():
    out = nonmonotone_backtrack(
        _linear_value, _identity_projector,
        x_k=np.array([1.0]), f_k=1.0, s_k=np.array([1.0]), snorm_sq=1.0,
        alpha_k=0.37, gamma_k=0.05, cfg=CFG,
    )
    assert out.x_next.tolist() == [1.0 - CFG.beta * out.alpha_next]  # x_k - s_k * step
    assert out.alpha_next == pytest.approx(
        CFG.beta ** (out.ell - 1) * 0.37, rel=1e-15
    )
    assert out.alpha_next <= CFG.c * 0.05 + 1e-15


# ----- agreement with the literal two-condition scan -----


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    alpha=st.floats(1e-4, 5.0),
    gamma=st.floats(1e-4, 2.0),
    c=st.floats(0.2, 3.0),
    rho=st.floats(0.55, 0.95),
    beta=st.floats(0.5, 0.95),
)
# an exact size-cap tie: beta*alpha == c*gamma in floats and exactly
@example(seed=28, alpha=0.6127122621003389, gamma=0.83984375, c=0.6127122621003389,
         rho=0.8, beta=0.83984375)
def test_matches_reference_scan(seed, alpha, gamma, c, rho, beta):
    inst = plant_optimum_max_affine(seed, 3, 7, spread=1.0)
    prob = make_problem(inst)
    rng = np.random.default_rng(seed)
    x_k = rng.standard_normal(3)
    f_k, s_k = prob.eval(x_k)
    if float(np.dot(s_k, s_k)) == 0.0:
        return
    cfg = SolverConfig(c=c, beta=beta, rho=rho, alpha1=alpha)
    out = nonmonotone_backtrack(
        prob.value, prob.project, x_k, f_k, s_k, float(np.dot(s_k, s_k)), alpha, gamma, cfg
    )
    ref = backtrack_ref(
        prob.value, lambda p: prob.project(np.asarray(p)),
        x_k.tolist(), f_k, s_k.tolist(), alpha, gamma, c, rho, beta,
    )
    assert out.ell == ref["ell"]
    assert out.alpha_next == pytest.approx(ref["alpha_next"], rel=1e-12)
    assert cfg.beta * out.alpha_next == pytest.approx(ref["step"], rel=1e-12)
    np.testing.assert_allclose(out.x_next, ref["x_next"], rtol=1e-12, atol=1e-15)
    assert prob.value(out.x_next) == pytest.approx(ref["f_next"], rel=1e-12, abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    alpha=st.floats(1e-4, 5.0),
    gamma=st.floats(1e-4, 2.0),
)
def test_accepted_rung_is_minimal(seed, alpha, gamma):
    inst = plant_optimum_max_affine(seed, 2, 6, spread=1.0)
    prob = make_problem(inst)
    rng = np.random.default_rng(seed + 1)
    x_k = rng.standard_normal(2)
    f_k, s_k = prob.eval(x_k)
    snorm_sq = float(np.dot(s_k, s_k))
    if snorm_sq == 0.0:
        return
    out = nonmonotone_backtrack(
        prob.value, prob.project, x_k, f_k, s_k, snorm_sq, alpha, gamma, CFG
    )
    beta, c, rho = CFG.beta, CFG.c, CFG.rho
    # the accepted rung satisfies both conditions
    assert out.alpha_next <= c * gamma * (1 + 1e-12)
    assert prob.value(out.x_next) <= f_k - rho * (beta * out.alpha_next) * snorm_sq + gamma + 1e-12
    if out.ell >= 2:
        # the rung below fails at least one of them
        cand = beta ** (out.ell - 2) * alpha
        if cand <= c * gamma:
            x_prev = prob.project(x_k - beta * cand * s_k)
            f_prev = prob.value(x_prev)
            assert f_prev > f_k - rho * beta * cand * snorm_sq + gamma


# ----- failure modes -----


def test_zero_subgradient_is_callers_problem():
    with pytest.raises(ValueError, match="zero subgradient"):
        nonmonotone_backtrack(
            _linear_value, _identity_projector,
            x_k=np.array([0.0]), f_k=0.0, s_k=np.array([0.0]), snorm_sq=0.0,
            alpha_k=0.1, gamma_k=0.1, cfg=CFG,
        )


def test_overflowed_subgradient_norm_is_callers_problem():
    # the caller's ||s_k||^2 of s_k = [1e200] overflows to inf; the driver
    # stops on it before searching
    with pytest.raises(ValueError, match="overflowed norm"):
        nonmonotone_backtrack(
            _linear_value, _identity_projector,
            x_k=np.array([0.0]), f_k=0.0, s_k=np.array([1e200]), snorm_sq=math.inf,
            alpha_k=0.1, gamma_k=0.1, cfg=CFG,
        )


# NaN and +inf fail the decrease test like any other value: the search moves
# on to the next rung, and one that never sees a finite trial spends the cap
def test_non_finite_trial_values_are_rejected_rungs():
    bad = [math.nan, math.inf]

    def value(x):
        return bad.pop(0) if bad else _linear_value(x)

    out = nonmonotone_backtrack(
        value, _identity_projector,
        x_k=np.array([0.0]), f_k=0.0, s_k=np.array([1.0]), snorm_sq=1.0,
        alpha_k=0.05, gamma_k=0.1, cfg=CFG,
    )
    assert (out.ell, out.trials) == (3, 3)
    assert out.x_next[0] == -(CFG.beta * out.alpha_next)  # the third trial, f(x) = x

    calls = []

    def nan_value(x):
        calls.append(x)
        return math.nan

    cfg = SolverConfig(c=1.0, beta=0.9, rho=0.8, alpha1=0.1, backtrack_cap=25)
    with pytest.raises(BacktrackFailureError, match=r"backtrack_cap=25 rungs"):
        nonmonotone_backtrack(
            nan_value, _identity_projector,
            x_k=np.array([0.0]), f_k=0.0, s_k=np.array([1.0]), snorm_sq=1.0,
            alpha_k=0.05, gamma_k=0.1, cfg=cfg,
        )
    assert len(calls) == 25


def test_cap_exhaustion_raises():
    def stubborn(x):
        return 1e6  # never satisfies any decrease test

    cfg = SolverConfig(c=1.0, beta=0.9, rho=0.8, alpha1=0.1, backtrack_cap=25)
    with pytest.raises(BacktrackFailureError, match=r"backtrack_cap=25 rungs"):
        nonmonotone_backtrack(
            stubborn, _identity_projector,
            x_k=np.array([0.0]), f_k=0.0, s_k=np.array([1.0]), snorm_sq=1.0,
            alpha_k=0.05, gamma_k=0.1, cfg=cfg,
        )
