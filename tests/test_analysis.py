import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmsubgrad import (
    Ball,
    ConstantStep,
    MaxAffineInstance,
    PowerInverse,
    SolverConfig,
    SqrtInverse,
    StronglyConvexHarmonic,
    TheoryRegimeWarning,
    audit_rate_bounds,
    audit_report_to_json,
    audit_stepwise,
    constants,
    gamma_values,
    lipschitz_bound,
    make_problem,
    merge_reports,
    plant_optimum_max_affine,
    read_trace_csv,
    solve_nonmonotone,
    solve_prefixed,
    write_trace_csv,
)
from nmsubgrad.analysis import REL_SLACK, CheckResult, _worst
from conftest import ITERS, _benchmark_configs
from oracles import (
    build_report,
    check_sum_lemmas,
    sum_lemma_sides_ref,
    sum_lemma_sweep,
    worst_ref,
)

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


def test_constants_reject_rho_outside_the_unit_interval():
    for rho in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="rho must lie in"):
            constants(rho=rho, beta=0.9, L=1.0)
    with pytest.raises(ValueError):
        constants(rho=0.8, beta=1.0, L=1.0)
    for L in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="L must be non-negative and finite"):
            constants(rho=0.8, beta=0.9, L=L)
    assert constants(rho=0.8, beta=0.9, L=0.0).theta == 1.0  # a constant objective
    for c in (0.0, math.inf):
        with pytest.raises(ValueError, match="c must be positive"):
            constants(rho=0.8, beta=0.9, L=1.0, c=c)


# below 1/2 theta is as for any rho, and Gamma = theta*(2beta - beta/rho) is
# zero at rho = 1/2 and negative below
def test_constants_below_rho_half_give_non_positive_gamma_big():
    tc = constants(0.4, 0.9, 2.0)
    assert tc.theta == pytest.approx(1.0 / 5.6, rel=1e-15)
    assert tc.gamma_big == pytest.approx(tc.theta * -0.45, rel=1e-15)
    assert tc.gamma_big < 0.0
    assert constants(0.5, 0.9, 2.0).gamma_big == 0.0


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


def test_default_run_passes_lower_bound_and_rate_bounds():
    prob, cfg, tc, rep = _outside_regime_run()
    # the run breaks theta*gamma_{k+1} <= alpha_{k+1}, as the regime allows
    assert tc.theta * rep.gamma[1] > rep.alpha_next[0]
    audit = audit_stepwise(rep, prob, cfg, tc)
    assert audit.passed
    assert audit["step_lower_bound"].status == "passed"
    # the rate bounds hold with the effective theta = alpha_1/gamma_1 in its place
    rates = audit_rate_bounds(rep, prob, cfg, tc)
    assert rates.passed
    assert [ch.name for ch in rates.checks if ch.status == "passed"] == [
        "rate_general", "rate_sqrt_log", "rate_tail"]


# seed 0's default run has theta = 0.279 and effective theta = alpha_1/gamma_1 = 0.1;
# every f of prefix 5 is set to f* plus mult times its effective rate_general bound
@pytest.mark.parametrize("mult, status", [(1.5, "failed"), (0.9, "passed")])
def test_rate_general_is_the_effective_theta_bound(mult, status):
    prob, cfg, tc, rep = _outside_regime_run()
    theta = rep.alpha[0] / rep.gamma[0]
    assert (round(tc.theta, 3), theta) == (0.279, 0.1)
    gamma_big = theta * (2.0 * cfg.beta - cfg.beta / cfg.rho)
    d = rep.xs[0] - prob.x_star
    numer = d @ d + cfg.beta * cfg.c / cfg.rho * np.sum(rep.gamma[:5] ** 2)
    f = rep.f.copy()
    f[:5] = prob.f_star + mult * numer / (gamma_big * np.sum(rep.gamma[1:6]))
    ch = audit_rate_bounds(dataclasses.replace(rep, f=f), prob, cfg, tc)["rate_general"]
    assert (ch.status, ch.worst_index) == (status, 5)


# alpha_1 = 0 gives an effective theta and Gamma of 0: no bound, so each rate
# check fails as non-finite instead of raising
def test_zero_first_alpha_fails_the_rate_checks():
    prob, cfg, tc, rep = _outside_regime_run(iters=50)
    rep.alpha[0] = 0.0
    rates = audit_rate_bounds(rep, prob, cfg, tc)
    for name in ("rate_general", "rate_sqrt_log", "rate_tail"):
        assert (rates[name].status, rates[name].detail) == ("failed", "non-finite comparison")


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


# only a column that is NaN throughout (a CSV trace) takes the derived law
@pytest.mark.parametrize("column", ["alpha_next", "step"])
def test_nan_cell_in_a_recorded_column_fails_consistency(column):
    prob = make_problem(plant_optimum_max_affine(0, 5, 30, spread=0.5))
    cfg = SolverConfig(max_iters=100)
    rep = solve_nonmonotone(prob, cfg)
    getattr(rep, column)[7] = math.nan
    ch = audit_stepwise(rep, prob, cfg)["consistency"]
    assert (ch.status, ch.worst_violation, ch.worst_index) == ("failed", math.inf, 8)
    assert ch.detail == "non-finite comparison"


# gamma is fixed by the config: a bent or NaN cell fails consistency at its
# row, the landed row (whose gamma rate_tail reads) included
@pytest.mark.parametrize("row, bend", [(7, 1.2), (7, math.nan), (100, 1.2)],
                         ids=["step-row", "nan", "landed-row"])
def test_gamma_cell_off_the_config_fails_consistency(row, bend):
    prob = make_problem(plant_optimum_max_affine(0, 5, 30, spread=0.5))
    cfg = SolverConfig(max_iters=100)
    rep = solve_nonmonotone(prob, cfg)
    assert len(rep.k) == 101 and audit_stepwise(rep, prob, cfg).passed
    rep.gamma[row] *= bend
    ch = audit_stepwise(rep, prob, cfg)["consistency"]
    assert (ch.status, ch.worst_index) == ("failed", row + 1)


# a CSV-like trace (no alpha_next or step) whose alpha column is zeroed keeps
# every ladder and chain law; only row 1's alpha against cfg.alpha1 fails
def test_first_alpha_off_the_config_fails_consistency():
    prob = make_problem(plant_optimum_max_affine(0, 5, 30, spread=0.5))
    cfg = SolverConfig(max_iters=100)
    nan = np.full(101, math.nan)
    rep = dataclasses.replace(solve_nonmonotone(prob, cfg), alpha=np.zeros(101),
                              alpha_next=nan, step=nan)
    ch = audit_stepwise(rep, prob, cfg)["consistency"]
    assert (ch.status, ch.worst_violation, ch.worst_index) == ("failed", 0.1, 1)


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


# rho <= 1/2: the step lower bound needs only theta, so it runs; every rate
# bound divides by a non-positive Gamma, so all five are skipped with that reason
def test_rho_below_half_checks_the_lower_bound_and_skips_the_rates():
    prob, _, _ = _planted_run()
    cfg = SolverConfig(c=1.0, beta=0.9, rho=0.4, alpha1=0.1, gamma=SqrtInverse(0.5),
                       max_iters=300)
    with pytest.warns(TheoryRegimeWarning):
        rep = solve_nonmonotone(prob, cfg)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    stepwise = audit_stepwise(rep, prob, cfg, tc)
    assert stepwise.passed and stepwise["step_lower_bound"].status == "passed"
    rates = audit_rate_bounds(rep, prob, cfg, tc)
    assert len(rates.checks) == 5
    assert {(ch.status, ch.detail) for ch in rates.checks} == {
        ("skipped", "rho <= 1/2 leaves Gamma = theta*(2beta - beta/rho) non-positive")}


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
    # the bound scales with zeta, so every sqrt-inverse gamma is checked
    cfg2 = SolverConfig(gamma=SqrtInverse(0.5), max_iters=300, **PARAMS)
    rep2 = solve_nonmonotone(prob, cfg2)
    assert audit_rate_bounds(rep2, prob, cfg2, tc)["rate_compact"].status == "passed"


# the sqrt-inverse bounds scale with zeta: at zeta = 1e-6 the bound written
# for zeta = 1 falls below this correct run's gap (margin 0.153 at N = 1e5)
def test_rate_sqrt_log_holds_for_a_small_zeta():
    inst = MaxAffineInstance(A=np.array([[0.7], [-0.7]]), b=np.zeros(2),
                             x_star=np.zeros(1), f_star=0.0)
    prob = make_problem(inst)
    cfg = SolverConfig(c=2.0, gamma=SqrtInverse(1e-6), max_iters=100000)
    rep = solve_nonmonotone(prob, cfg, x0=np.array([1.0]))
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    audit = merge_reports(audit_stepwise(rep, prob, cfg, tc),
                          audit_rate_bounds(rep, prob, cfg, tc))
    assert audit.passed
    assert audit["rate_sqrt_log"].status == "passed"


def test_rate_checks_skip_a_power_inverse_gamma_with_one_reason():
    prob = make_problem(plant_optimum_max_affine(0, 5, 30, spread=0.5),
                        Ball(center=np.zeros(5), radius=2.0))
    cfg = SolverConfig(gamma=PowerInverse(zeta=0.5, theta=0.5), max_iters=300, **PARAMS)
    audit = audit_rate_bounds(solve_nonmonotone(prob, cfg), prob, cfg,
                              constants(cfg.rho, cfg.beta, prob.L, cfg.c))
    for name in ("rate_sqrt_log", "rate_compact"):
        assert (audit[name].status, audit[name].detail) == (
            "skipped", "gamma is not the sqrt-inverse kind"), name
    assert audit["rate_general"].status == "passed"


def test_rate_strongly_convex_with_matching_schedule():
    inst = plant_optimum_max_affine(0, 5, 30, spread=0.5, sigma=1.0)
    ball = Ball(center=np.zeros(5), radius=2.0)
    prob = make_problem(inst, ball)
    tc = constants(0.8, 0.9, prob.L, 1.0)
    seq = StronglyConvexHarmonic(sigma=1.0, beta=0.9, big_theta=tc.theta)
    cfg = SolverConfig(c=1.0, beta=0.9, rho=0.8,
                       alpha1=float(gamma_values(seq, 1)[0]), gamma=seq, max_iters=300)
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
    # nor is a schedule of another kind, inside the lower bound's regime
    cfg3 = dataclasses.replace(cfg, gamma=SqrtInverse(1.0), alpha1=1.0)
    ch = audit_rate_bounds(solve_nonmonotone(prob, cfg3), prob, cfg3, tc)["rate_strongly_convex"]
    assert (ch.status, ch.detail) == ("skipped", "gamma is not the harmonic kind")


# alpha_1 = (theta/2)*gamma_1 puts the run outside alpha_1 >= theta*gamma_1: the
# bound is certified for a schedule built from the effective theta = theta/2 only
@pytest.mark.parametrize("scale, outcome", [
    (1.0, ("skipped", "gamma parameters do not match the run")), (0.5, ("passed", ""))])
def test_rate_strongly_convex_matches_the_effective_theta(scale, outcome):
    inst = plant_optimum_max_affine(0, 5, 30, spread=0.5, sigma=1.0)
    prob = make_problem(inst, Ball(center=np.zeros(5), radius=2.0))
    tc = constants(0.8, 0.9, prob.L, 1.0)
    seq = StronglyConvexHarmonic(sigma=1.0, beta=0.9, big_theta=scale * tc.theta)
    cfg = SolverConfig(c=1.0, beta=0.9, rho=0.8,
                       alpha1=tc.theta / 2 * float(gamma_values(seq, 1)[0]), gamma=seq,
                       max_iters=300)
    rep = solve_nonmonotone(prob, cfg)
    ch = audit_rate_bounds(rep, prob, cfg, tc)["rate_strongly_convex"]
    assert (ch.status, ch.detail) == outcome


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


# ----- the comparison every check makes -----


# at the first non-finite comparison, whichever side and sign, the check
# fails there; a larger finite violation earlier does not hide it
@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_worst_reports_the_first_non_finite_comparison(side, bad):
    lhs = np.array([0.0, 5.0, 1.0, 2.0, 3.0])
    rhs = np.zeros(5)
    (lhs if side == "lhs" else rhs)[[2, 4]] = bad
    with np.errstate(invalid="ignore"):
        ch = _worst("check", lhs, rhs, np.arange(10, 15))
    assert ch == CheckResult("check", "failed", math.inf, 12, "non-finite comparison")


def test_worst_reports_an_overflowing_difference_as_non_finite():
    lhs = np.array([0.0, 5.0, 1e308, -1e308])
    rhs = np.array([0.0, 0.0, -1e308, 1e308])
    with np.errstate(over="ignore"):
        ch = _worst("check", lhs, rhs, np.arange(1, 5))
    assert ch == CheckResult("check", "failed", math.inf, 3, "non-finite comparison")


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e-9, 1e308, -1e308])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=40))
@example([(1e308, -1e308)])
@example([(0.0, 0.0), (-0.0, 0.0), (1.0 + 1e-9, 1.0)])
def test_worst_matches_the_elementwise_reference(pairs):
    lhs = np.array([a for a, _ in pairs])
    rhs = np.array([b for _, b in pairs])
    worst, i = worst_ref(lhs, rhs)
    with np.errstate(all="ignore"):
        ch = _worst("check", lhs, rhs, np.arange(1, len(pairs) + 1))
    status = "passed" if worst <= REL_SLACK else "failed"
    assert (ch.status, repr(ch.worst_violation), ch.worst_index) == (status, repr(worst), i + 1)
    assert ch.detail == ("non-finite comparison" if worst == math.inf else "")


# the squared distances stream over row blocks of 2^12 entries: one block,
# several, and rows wider than a block give the plain expression's bits
@pytest.mark.parametrize("n, iters", [(3, 20), (10, 1000), (4100, 3)])
def test_quasi_fejer_has_the_bits_of_the_plain_distances(n, iters):
    A = np.zeros((2, n))
    A[:, 0] = [1.0, -1.0]  # f = |x_1|, minimized at 0
    inst = MaxAffineInstance(A=A, b=np.zeros(2), x_star=np.zeros(n), f_star=0.0)
    prob = make_problem(inst)
    cfg = SolverConfig(gamma=SqrtInverse(0.5), max_iters=iters, **PARAMS)
    rep = solve_nonmonotone(prob, cfg, x0=np.random.default_rng(n).standard_normal(n))
    K = len(rep.k) - 1
    dist_sq = ((rep.xs - inst.x_star[None, :]) ** 2).sum(axis=1)
    rhs = dist_sq[:K] + (cfg.beta * cfg.c / cfg.rho) * rep.gamma[:K] ** 2
    expected = _worst("quasi_fejer", dist_sq[1:], rhs, rep.k[:K])
    assert audit_stepwise(rep, prob, cfg)["quasi_fejer"] == expected


# ----- golden audit reports -----
#
# sha256 of audit_report_to_json(merge of both audits) per case, recorded
# before the audit's array passes were reworked; the fixture-n2/n5 cases
# (zeta 0.01 and 0.5) and strongly-convex-ball were re-pinned when the
# sqrt-inverse bounds were written in zeta. The JSON writes every float
# with its shortest round-trip repr, so any changed bit of a worst_violation,
# and any changed status, index or detail, changes the digest.

GOLDEN_AUDITS = {
    "fixture-n2-seed0":
        "e8c23c0a51032b69f8d3e52839935bafdfd882e50dd228dc94c6fc4907fb8c5c",
    "fixture-n2-seed1":
        "e05d33f7cafbc7a076c74e3c45036c4c4db783f581f31f59a4413bd7f5e0c6b2",
    "fixture-n5-seed0":
        "92b312fd25a24d43d18ba2f4452484cc20e841c30fedd2106b60d8a3b29c8f1b",
    "fixture-n5-seed1":
        "668f09f7021ed23e88a52678d17cadb7dedbb8853a1638240769a63138e0cacd",
    "fixture-n10-seed0":
        "36a1eb580061e87b215f1289076298008e541420f5f1b05e215f636e3ef2ba00",
    "fixture-n10-seed1":
        "24231376dddc784193f88ff5c41f6c2dad927d914c011e3285cb52b04afade67",
    "ball-n10":
        "a831f67eed538e9bfce40b9ac48a34fd5304a9a46617e8f243460a5829a48a66",
    "strongly-convex-ball":
        "688bf1e5448932c8eb22ed1fe2521d660cdbc763c2d2b904ae1e15b50a1abec4",
    "csv-round-trip-n10":
        "0e7baa42a1ba58a0d87015b1aa7a7bbb7037f9211ee7c81d06e8c34a545019b8",
    "nan-f":
        "d6258b15bfc82fa86f1b8018dd80749401ae4e99968fed473fdc1371ceb7ed6b",
    "inflated-alpha":
        "c72f8071eaf870486a4ee0d32975f7a705ed98f14f7183d38b53f78fdf4b52e4",
    "ell-zero":
        "90ce5dcd489606a72bff1c2f581034c6ead51611805766b18b82f6aa202c49ea",
    "inf-snorm":
        "6eb8f28724eea02f5e9908ed37891159e0199de2e6e6c840dde34f0b62d853eb",
}


def _tampered(report, column, row, value):
    col = getattr(report, column).copy()
    col[row] = value
    return dataclasses.replace(report, **{column: col})


def _audit_json(report, prob, cfg, x1=None):
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    return audit_report_to_json(merge_reports(
        audit_stepwise(report, prob, cfg, tc),
        audit_rate_bounds(report, prob, cfg, tc, x1=x1),
    ))


@pytest.fixture(scope="module")
def golden_audit_json(tmp_path_factory):
    out = {}
    runs = {}
    for n, m, zeta, spread, scale in _benchmark_configs():
        for seed in (0, 1):
            prob = make_problem(plant_optimum_max_affine(seed, n, m, spread=spread,
                                                         active_scale=scale))
            cfg = SolverConfig(c=1.0, beta=0.9, rho=0.8, alpha1=0.1, gamma=SqrtInverse(zeta),
                               max_iters=ITERS, seed=seed)
            rep = solve_nonmonotone(prob, cfg)
            runs[n, seed] = prob, cfg, rep
            out[f"fixture-n{n}-seed{seed}"] = _audit_json(rep, prob, cfg)

    prob = make_problem(plant_optimum_max_affine(0, 10, 40, spread=0.5),
                        Ball(center=np.zeros(10), radius=2.0))
    cfg = SolverConfig(gamma=SqrtInverse(1.0), max_iters=1000, **PARAMS)
    out["ball-n10"] = _audit_json(solve_nonmonotone(prob, cfg), prob, cfg)

    prob = make_problem(plant_optimum_max_affine(0, 5, 30, spread=0.5, sigma=1.0),
                        Ball(center=np.zeros(5), radius=2.0))
    seq = StronglyConvexHarmonic(sigma=1.0, beta=0.9, big_theta=constants(0.8, 0.9, prob.L).theta)
    cfg = SolverConfig(c=1.0, beta=0.9, rho=0.8, alpha1=float(gamma_values(seq, 1)[0]),
                       gamma=seq, max_iters=300)
    out["strongly-convex-ball"] = _audit_json(solve_nonmonotone(prob, cfg), prob, cfg)

    prob, cfg, rep = runs[10, 0]
    path = str(tmp_path_factory.mktemp("golden") / "trace.csv")
    write_trace_csv(rep, path, prob.f_star)
    out["csv-round-trip-n10"] = _audit_json(read_trace_csv(path)[0], prob, cfg,
                                            x1=np.zeros(prob.n))

    bad = {
        "nan-f": _tampered(rep, "f", 40, math.nan),
        "inflated-alpha": _tampered(rep, "alpha", 17, rep.alpha[17] * (1 + 1e-3)),
        "ell-zero": _tampered(rep, "ell", 17, 0),
        "inf-snorm": _tampered(rep, "snorm", 40, math.inf),
    }
    for name, report in bad.items():  # error::RuntimeWarning: the audits are silent
        out[name] = _audit_json(report, prob, cfg)
    return out


@pytest.mark.parametrize("case", sorted(GOLDEN_AUDITS))
def test_audit_report_is_pinned(golden_audit_json, case):
    digest = hashlib.sha256(golden_audit_json[case].encode()).hexdigest()
    assert digest == GOLDEN_AUDITS[case]


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
