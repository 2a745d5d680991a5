import dataclasses
import math

import numpy as np
import pytest

from nmsubgrad import (
    Ball,
    ConstantStep,
    MaxAffineInstance,
    SolverConfig,
    SqrtInverse,
    StronglyConvexHarmonic,
    TheoryRegimeWarning,
    audit_rate_bounds,
    audit_report_to_json,
    audit_stepwise,
    constants,
    lipschitz_bound,
    make_problem,
    merge_reports,
    plant_optimum_max_affine,
    solve_nonmonotone,
    solve_prefixed,
)
from oracles import build_report, check_sum_lemmas, sum_lemma_sides_ref, sum_lemma_sweep

PARAMS = dict(c=1.0, beta=0.9, rho=0.8, alpha1=0.1)


# ----- theory constants -----


def test_constants_frozen_first():
    tc = constants(rho=0.8, beta=0.9, L=1.0)
    assert tc.theta == pytest.approx(1.0 / 1.8, rel=1e-15)
    assert tc.gamma_big == pytest.approx(0.375, rel=1e-15)


def test_constants_frozen_second():
    tc = constants(rho=0.6, beta=0.5, L=2.0)
    assert tc.theta == pytest.approx(0.15625, rel=1e-15)
    assert tc.gamma_big == pytest.approx(0.0260416666667, rel=1e-9)


def test_constants_theta_saturates_for_small_l():
    tc = constants(rho=0.8, beta=0.9, L=0.1)
    assert tc.theta == 1.0
    assert tc.gamma_big == pytest.approx(0.675, rel=1e-15)
    # theta never increases with L
    ls = [0.1, 0.5, 1.0, 2.0, 10.0]
    thetas = [constants(0.8, 0.9, L).theta for L in ls]
    assert all(b <= a for a, b in zip(thetas, thetas[1:]))


def test_constants_rejects_rho_half_and_below():
    for rho in (0.5, 0.3):
        with pytest.raises(ValueError):
            constants(rho=rho, beta=0.9, L=1.0)
    with pytest.raises(ValueError):
        constants(rho=0.8, beta=1.0, L=1.0)
    with pytest.raises(ValueError):
        constants(rho=0.8, beta=0.9, L=0.0)
    for c in (0.0, math.inf):
        with pytest.raises(ValueError, match="c must be positive"):
            constants(rho=0.8, beta=0.9, L=1.0, c=c)


def test_constants_hold_only_theta_and_gamma_big():
    tc = constants(rho=0.8, beta=0.9, L=1.0, c=2.0)
    assert [f.name for f in dataclasses.fields(tc)] == ["theta", "gamma_big"]


# ----- stepwise audit on real runs -----


def _planted_run(seed=0, zeta=0.5, iters=300, **plant_kw):
    inst = plant_optimum_max_affine(seed, 3, 9, spread=0.5, **plant_kw)
    prob = make_problem(inst)
    cfg = SolverConfig(gamma=SqrtInverse(zeta), max_iters=iters, **PARAMS)
    return prob, cfg, solve_nonmonotone(prob, cfg)


def test_stepwise_audit_passes_on_real_run():
    prob, cfg, rep = _planted_run()
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    audit = audit_stepwise(rep, prob, cfg, tc)
    assert audit.passed
    for name in ("consistency", "step_upper_bound", "step_lower_bound",
                 "sufficient_decrease", "quasi_fejer"):
        assert audit[name].status == "passed", name
        assert audit[name].worst_violation <= 1e-9


def test_stepwise_audit_skips_prefixed_trace():
    prob, _, _ = _planted_run()
    rep = solve_prefixed(prob, ConstantStep(0.1), 50)
    audit = audit_stepwise(rep, prob, SolverConfig(**PARAMS))
    assert audit.passed
    assert all(ch.status == "skipped" for ch in audit.checks)


def test_stepwise_audit_without_constants_skips_lower_bound():
    prob, cfg, rep = _planted_run(seed=1)
    audit = audit_stepwise(rep, prob, cfg, tc=None)
    assert audit["step_lower_bound"].status == "skipped"
    assert audit["sufficient_decrease"].status == "passed"


def test_audit_is_repeatable():
    prob, cfg, rep = _planted_run(seed=2)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    first = audit_stepwise(rep, prob, cfg, tc)
    second = audit_stepwise(rep, prob, cfg, tc)
    assert first == second


# the CLI's default case: alpha_1 = 0.1 < theta*gamma_1 (L < ~2.4 at zeta = 1)
def _outside_regime_run(iters=500):
    prob = make_problem(plant_optimum_max_affine(0, 2, 4))
    cfg = SolverConfig(max_iters=iters)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    assert cfg.alpha1 < tc.theta * 1.0
    return prob, cfg, tc, solve_nonmonotone(prob, cfg)


def test_default_run_passes_lower_bound_and_skips_rate_bounds():
    prob, cfg, tc, rep = _outside_regime_run()
    # the run breaks theta*gamma_{k+1} <= alpha_{k+1}, as the regime allows
    assert tc.theta * rep.gamma[1] > rep.alpha_next[0]
    audit = audit_stepwise(rep, prob, cfg, tc)
    assert audit.passed
    assert audit["step_lower_bound"].status == "passed"
    rates = audit_rate_bounds(rep, prob, cfg, tc)
    assert all(ch.status == "skipped" and "guaranteed only when" in ch.detail
               for ch in rates.checks)


def test_unrolled_lower_bound_catches_shrunk_steps():
    prob, cfg, tc, rep = _outside_regime_run(iters=200)
    records = [r._replace(alpha=r.alpha * 1e-6, alpha_next=r.alpha_next * 1e-6,
                          step=r.step * 1e-6) if r.k >= 100 else r
               for r in rep.records]
    audit = audit_stepwise(build_report(records, rep.termination), prob, cfg, tc)
    assert audit["step_lower_bound"].status == "failed"
    assert audit["step_lower_bound"].worst_index >= 100


# ----- fault injection -----
#
# A perturbed trace must be rejected. alpha is protected everywhere by the
# consistency chain; f and x are checked at the row where their inequality
# is tightest (rows with slack larger than the perturbation cannot be caught
# by a sound checker, so the tight row is the meaningful target).


def _replace_record(report, idx, **changes):
    records = list(report.records)
    records[idx] = records[idx]._replace(**changes)
    return build_report(records, report.termination)


@pytest.mark.parametrize("row", [0, 17, 150, 299, 300])
def test_alpha_perturbation_always_caught(row):
    prob, cfg, rep = _planted_run(seed=3)
    bad = _replace_record(rep, row, alpha=rep.records[row].alpha * (1 + 1e-3))
    audit = audit_stepwise(bad, prob, cfg)
    assert not audit.passed
    assert audit["consistency"].status == "failed"


def test_f_perturbation_caught_at_tight_row():
    # on a linear objective the non-monotone slack shrinks relative to |f|,
    # so by 3000 iterations a 1e-3 relative bump lands past the margin
    inst = MaxAffineInstance(A=np.array([[1.0]]), b=np.zeros(1))
    prob = make_problem(inst)
    cfg = SolverConfig(gamma=SqrtInverse(0.01), max_iters=3000, **PARAMS)
    rep = solve_nonmonotone(prob, cfg)
    K = len(rep.records) - 1
    f = np.array([r.f for r in rep.records])
    gam = np.array([r.gamma for r in rep.records])
    step = np.array([r.step for r in rep.records])
    sn = np.array([r.snorm for r in rep.records])
    slack = (f[:K] - cfg.rho * step[:K] * sn[:K] ** 2 + gam[:K]) - f[1 : K + 1]
    j = int(np.argmin(slack / np.maximum(1.0, np.abs(f[1 : K + 1]))))
    target = j + 1
    bad = _replace_record(
        rep, target, f=f[target] + 1e-3 * abs(f[target])
    )
    audit = audit_stepwise(bad, prob, cfg)
    assert audit["sufficient_decrease"].status == "failed"
    assert audit["sufficient_decrease"].worst_index == rep.records[j].k


def test_x_perturbation_caught_at_tight_row():
    # steep descent far from the optimum: the distance-decrease margin is
    # tiny next to ||x||, so a relative nudge outward breaks the inequality
    inst = MaxAffineInstance(
        A=np.array([[1.0], [-1.0]]), b=np.zeros(2),
        x_star=np.zeros(1), f_star=0.0,
    )
    prob = make_problem(inst)
    cfg = SolverConfig(c=1.0, beta=0.9, rho=0.8, alpha1=5e-4,
                       gamma=SqrtInverse(0.001), max_iters=200)
    rep = solve_nonmonotone(prob, cfg, x0=np.array([10.0]))
    K = len(rep.records) - 1
    X = np.vstack([r.x for r in rep.records])
    d2 = (X**2).sum(axis=1)
    gam = np.array([r.gamma for r in rep.records])
    slack = d2[:K] + (cfg.beta * cfg.c / cfg.rho) * gam[:K] ** 2 - d2[1 : K + 1]
    j = int(np.argmin(slack / np.maximum(1.0, d2[1 : K + 1])))
    target = j + 1
    bad = _replace_record(rep, target, x=X[target] * (1 + 1e-3))
    audit = audit_stepwise(bad, prob, cfg)
    assert audit["quasi_fejer"].status == "failed"


def test_nan_cell_fails_its_check_as_non_finite():
    prob, cfg, rep = _planted_run(seed=3)
    bad = _replace_record(rep, 40, f=math.nan)
    audit = audit_stepwise(bad, prob, cfg)
    ch = audit["sufficient_decrease"]
    assert (ch.status, ch.worst_violation, ch.worst_index) == ("failed", math.inf, 40)
    assert ch.detail == "non-finite comparison"


def test_step_row_with_ell_zero_fails_consistency():
    prob, cfg, rep = _planted_run(seed=3)
    bad = _replace_record(rep, 17, ell=0)
    ch = audit_stepwise(bad, prob, cfg)["consistency"]
    assert (ch.status, ch.worst_violation, ch.worst_index) == ("failed", math.inf, 18)
    assert ch.detail == "step row with ell < 1"


def test_quasi_fejer_skips_at_rho_half_and_below():
    prob, _, _ = _planted_run()
    cfg = SolverConfig(c=1.0, beta=0.9, rho=0.5, alpha1=0.1, max_iters=50)
    with pytest.warns(TheoryRegimeWarning):
        rep = solve_nonmonotone(prob, cfg)
    audit = audit_stepwise(rep, prob, cfg)
    assert audit.passed
    assert (audit["quasi_fejer"].status, audit["quasi_fejer"].detail) == ("skipped", "rho <= 1/2")


# ----- rate-bound audit -----


def test_rate_bounds_pass_on_real_run():
    prob, cfg, rep = _planted_run(seed=4)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    audit = audit_rate_bounds(rep, prob, cfg, tc)
    assert audit.passed
    for name in ("rate_general", "rate_sqrt_log", "rate_tail"):
        assert audit[name].status == "passed", name
    assert audit["rate_compact"].status == "skipped"  # unbounded set
    assert audit["rate_strongly_convex"].status == "skipped"  # sigma = 0


def test_rate_bounds_skip_without_x_star():
    prob, cfg, rep = _planted_run(seed=4)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    audit = audit_rate_bounds(rep, dataclasses.replace(prob, x_star=None), cfg, tc)
    for name in ("rate_general", "rate_sqrt_log", "rate_tail"):
        assert (audit[name].status, audit[name].detail) == (
            "skipped", "needs x1 and a known optimum"), name


def test_rate_compact_skips_a_single_step():
    inst = plant_optimum_max_affine(0, 5, 30, spread=0.5)
    prob = make_problem(inst, Ball(center=np.zeros(5), radius=2.0))
    cfg = SolverConfig(gamma=SqrtInverse(1.0), max_iters=1, **PARAMS)
    rep = solve_nonmonotone(prob, cfg)
    assert len(rep.k) == 2
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    ch = audit_rate_bounds(rep, prob, cfg, tc)["rate_compact"]
    assert (ch.status, ch.detail) == ("skipped", "needs at least two steps")


def test_rate_compact_on_ball():
    inst = plant_optimum_max_affine(0, 5, 30, spread=0.5)
    ball = Ball(center=np.zeros(5), radius=2.0)
    prob = make_problem(inst, ball)
    cfg = SolverConfig(gamma=SqrtInverse(1.0), max_iters=300, **PARAMS)
    rep = solve_nonmonotone(prob, cfg)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    audit = audit_rate_bounds(rep, prob, cfg, tc)
    assert audit["rate_compact"].status == "passed"
    # zeta != 1 disqualifies the specialized bound
    cfg2 = SolverConfig(gamma=SqrtInverse(0.5), max_iters=300, **PARAMS)
    rep2 = solve_nonmonotone(prob, cfg2)
    assert audit_rate_bounds(rep2, prob, cfg2, tc)["rate_compact"].status == "skipped"


def test_rate_strongly_convex_with_matching_schedule():
    inst = plant_optimum_max_affine(0, 5, 30, spread=0.5, sigma=1.0)
    ball = Ball(center=np.zeros(5), radius=2.0)
    prob = make_problem(inst, ball)
    tc = constants(0.8, 0.9, prob.L, 1.0)
    seq = StronglyConvexHarmonic(sigma=1.0, beta=0.9, big_theta=tc.theta)
    from nmsubgrad import gamma_value
    cfg = SolverConfig(c=1.0, beta=0.9, rho=0.8,
                       alpha1=gamma_value(seq, 1), gamma=seq, max_iters=300)
    rep = solve_nonmonotone(prob, cfg)
    audit = audit_rate_bounds(rep, prob, cfg, tc)
    assert audit["rate_strongly_convex"].status == "passed"
    # a mismatched schedule must not be certified against the bound
    wrong = StronglyConvexHarmonic(sigma=2.0, beta=0.9, big_theta=tc.theta)
    cfg2 = dataclasses.replace(cfg, gamma=wrong)
    rep2 = solve_nonmonotone(prob, cfg2)
    assert (
        audit_rate_bounds(rep2, prob, cfg2, tc)["rate_strongly_convex"].status
        == "skipped"
    )


def test_rate_bounds_skip_without_optimum():
    inst = MaxAffineInstance(A=np.array([[1.0], [-0.5]]), b=np.zeros(2))
    prob = make_problem(inst)
    cfg = SolverConfig(max_iters=50, **PARAMS)
    rep = solve_nonmonotone(prob, cfg)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    audit = audit_rate_bounds(rep, prob, cfg, tc)
    assert all(ch.status == "skipped" for ch in audit.checks)


# ----- report plumbing -----


def test_report_lookup_and_merge():
    prob, cfg, rep = _planted_run(seed=6, iters=50)
    a = audit_stepwise(rep, prob, cfg)
    b = audit_rate_bounds(rep, prob, cfg, constants(cfg.rho, cfg.beta, prob.L))
    merged = merge_reports(a, b)
    assert len(merged.checks) == len(a.checks) + len(b.checks)
    assert merged["consistency"] == a["consistency"]
    with pytest.raises(KeyError):
        merged["no_such_check"]
    text = audit_report_to_json(merged)
    assert '"passed"' in text and '"consistency"' in text


# ----- summation lemmas -----


def test_sum_lemmas_spot_cases():
    assert check_sum_lemmas(1.0, 0.0, 100) == (True, True)
    assert check_sum_lemmas(1.0, 10.0, 2) == (True, True)
    assert check_sum_lemmas(0.5, 0.5, 1) == (True, None)


def test_sum_lemmas_validation():
    with pytest.raises(ValueError):
        check_sum_lemmas(1.0, 0.0, 0)
    with pytest.raises(ValueError):
        check_sum_lemmas(-1.0, 0.0, 10)


def test_sum_lemma_sides_match_reference():
    from nmsubgrad.analysis import REL_SLACK

    for a, d, N in [(1.0, 0.0, 10), (0.1, 10.0, 57), (10.0, 0.1, 333)]:
        lhs1, rhs1, lhs2, rhs2 = sum_lemma_sides_ref(a, d, N)
        ok1, ok2 = check_sum_lemmas(a, d, N)
        assert ok1 == (lhs1 <= rhs1 * (1 + REL_SLACK) + REL_SLACK)
        assert ok2 == (lhs2 <= rhs2 * (1 + REL_SLACK) + REL_SLACK)
        assert ok1 and ok2


def test_sum_lemma_sweep_small():
    res = sum_lemma_sweep((0.1, 1.0, 10.0), (0.1, 1.0, 10.0), 500)
    assert res.all_hold
    assert res.worst_violation_full < 0.0
    assert res.worst_violation_half < 0.0
    a, d, N = res.worst_case_full
    assert 2 <= N <= 500


def test_sum_lemma_sweep_validation():
    with pytest.raises(ValueError):
        sum_lemma_sweep((1.0,), (1.0,), 1)
