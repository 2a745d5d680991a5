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
from nmsubgrad.solver import METHODS, _RULES, _best_gaps
from conftest import ITERS, _benchmark_configs
from oracles import (
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


def test_constants_frozen_second():
    tc = constants(rho=0.6, beta=0.5, L=2.0)
    assert tc.theta == pytest.approx(0.15625, rel=1e-15)


def test_constants_theta_saturates_for_small_l():
    tc = constants(rho=0.8, beta=0.9, L=0.1)
    assert tc.theta == 1.0
    # theta never increases with L
    ls = [0.1, 0.5, 1.0, 2.0, 10.0]
    thetas = [constants(0.8, 0.9, L).theta for L in ls]
    assert all(b <= a for a, b in zip(thetas, thetas[1:]))


def test_constants_reject_rho_outside_the_unit_interval():
    for rho in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="rho must lie in"):
            constants(rho=rho, beta=0.9, L=1.0)
    for L in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="L must be non-negative and finite"):
            constants(rho=0.8, beta=0.9, L=L)
    assert constants(rho=0.8, beta=0.9, L=0.0).theta == 1.0  # a constant objective


def test_constants_hold_only_theta():
    tc = constants(rho=0.8, beta=0.9, L=1.0, c=2.0)
    assert [f.name for f in dataclasses.fields(tc)] == ["theta"]
    # theta reads rho and L only: beta and c are a config's, which checked them
    assert constants(rho=0.8, beta=1.0, L=1.0, c=math.inf) == tc


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


# a report whose method is nonmonotone is never read as prefixed, unless it
# has no step row
def test_a_nonmonotone_method_is_never_read_as_prefixed():
    prob, _, _ = _planted_run()
    cfg = SolverConfig(**PARAMS)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    rep = dataclasses.replace(solve_prefixed(prob, ConstantStep(0.1), 50), method="nonmonotone")
    stepwise = audit_stepwise(rep, prob, cfg, tc)
    assert (stepwise["consistency"].status, stepwise["consistency"].worst_index,
            stepwise["consistency"].detail) == ("failed", 1, "step row with ell < 1")
    rate = audit_rate_bounds(rep, prob, cfg, tc)
    assert not any("line-search" in (ch.detail or "") for ch in rate.checks)
    assert not rate.passed
    # a constant objective stops at x_1 with a zero subgradient
    flat = make_problem(MaxAffineInstance(A=np.zeros((2, 3)), b=np.array([0.0, -1.0])))
    one_row = solve_nonmonotone(flat, cfg)
    assert (len(one_row.k), one_row.method) == (1, "nonmonotone")
    for audit in (audit_stepwise, audit_rate_bounds):
        assert all(ch.status == "skipped" for ch in audit(one_row, flat, cfg, tc).checks)


# each solver stamps its run --method name, and the audits skip exactly the
# prefixed ones
def test_every_method_names_its_report_and_only_prefixed_ones_are_skipped():
    prob, cfg, _ = _planted_run(iters=50)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    skipped = {}
    for method in METHODS:
        rule = None if method == "nonmonotone" else _RULES[method]()
        rep = solve_nonmonotone(prob, cfg) if rule is None else solve_prefixed(prob, rule, 50)
        assert rep.method == method
        audit = merge_reports(audit_stepwise(rep, prob, cfg, tc),
                              audit_rate_bounds(rep, prob, cfg, tc))
        assert audit.passed
        skipped[method] = all(ch.status == "skipped" for ch in audit.checks)
    assert skipped == {method: method != "nonmonotone" for method in METHODS}


# a rule outside run's table is named by its class, and is prefixed all the same
def test_a_rule_outside_the_table_is_named_by_its_class():
    prob, cfg, _ = _planted_run(iters=50)

    @dataclasses.dataclass(frozen=True)
    class HalfStep(ConstantStep):
        a: float = 0.05

    rep = solve_prefixed(prob, HalfStep(), 50)
    assert rep.method == "HalfStep"
    assert all(ch.status == "skipped" for ch in audit_stepwise(rep, prob, cfg).checks)


# a report of no known method is audited as the default method's, so both
# prefixed marks together no longer make it prefixed
def test_a_report_of_no_method_is_audited_as_nonmonotone():
    prob, cfg, _ = _planted_run(iters=50)
    prefixed = solve_prefixed(prob, ConstantStep(0.1), 50)
    rep = dataclasses.replace(prefixed, method=None)
    assert rep.method is None
    assert (rep.ell == 0).all() and np.isnan(rep.gamma).all()  # both prefixed marks
    ch = audit_stepwise(rep, prob, cfg)["consistency"]
    assert (ch.status, ch.worst_index, ch.detail) == ("failed", 1, "step row with ell < 1")


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
    assert tc.theta * rep.gamma[1] > rep.alpha[1]  # row 2's alpha is alpha_2
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


# a real run with a tiny beta has a positive effective theta ~ beta*c whose
# Gamma underflows to 0: no rate bound is finite, so all five are skipped with
# that reason instead of raising ZeroDivisionError
@pytest.mark.parametrize("beta", [1e-300, 1e-320])
def test_underflowed_gamma_skips_the_rate_checks(beta):
    prob = make_problem(plant_optimum_max_affine(1, 3, 6))
    cfg = SolverConfig(beta=beta, max_iters=20)
    rep = solve_nonmonotone(prob, cfg)
    rates = audit_rate_bounds(rep, prob, cfg, constants(cfg.rho, cfg.beta, prob.L, cfg.c))
    assert {(ch.status, ch.detail) for ch in rates.checks} == {
        ("skipped", "effective Gamma = theta*(2beta - beta/rho) underflows to 0")}


# an L whose (1+rho)L^2 overflows gives theta = 0 and so Gamma = 0 at
# rho = 0.8: the regime is rho's, so the rate checks name the skip's real
# cause, no f* on the first instance and an underflowed Gamma on the planted one
@pytest.mark.parametrize("A, b, planted, why", [
    ([[1.2e154, 0.0], [1.0, 0.5], [-1.0, 0.2], [0.3, 1.0], [0.1, -1.0]],
     [-1e160, 0.0, 0.0, 0.0, 0.0], False, "no known optimal value"),
    ([[1.2e154, 0.0], [-1.2e154, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0] * 4, True,
     "effective Gamma = theta*(2beta - beta/rho) underflows to 0"),
], ids=["no-f-star", "planted"])
def test_overflowed_theta_keeps_the_rho_regime(A, b, planted, why):
    optimum = dict(x_star=np.zeros(2), f_star=0.0) if planted else {}
    prob = make_problem(MaxAffineInstance(A=np.array(A), b=np.array(b), **optimum))
    cfg = SolverConfig(max_iters=30)
    rep = solve_nonmonotone(prob, cfg, x0=np.array([1e-160, 1.0]))
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    assert rep.termination == "max_iters" and tc.theta == 0.0
    assert audit_stepwise(rep, prob, cfg, tc).passed
    assert {(ch.status, ch.detail) for ch in audit_rate_bounds(rep, prob, cfg, tc).checks} == {
        ("skipped", why)}


# alpha_1 decides the rate constants: a bent alpha_1 <= 0 or NaN leaves no
# theta, so each rate bound is NaN and fails, where 4/Gamma could have raised
@pytest.mark.parametrize("alpha1", [-0.1, math.nan, -0.0])
def test_bent_first_alpha_fails_every_rate_check(alpha1):
    prob, cfg, tc, rep = _outside_regime_run(iters=50)
    rep.alpha[0] = alpha1
    rates = audit_rate_bounds(rep, prob, cfg, tc)
    for name in ("rate_general", "rate_sqrt_log", "rate_tail"):
        assert (rates[name].status, rates[name].worst_index, rates[name].detail) == (
            "failed", 1, "non-finite comparison")


def _audits_at(inst=None, **kw):
    """Both audits of a 30-step run of inst, the planted (3, 6) one by
    default, under kw."""
    prob = make_problem(inst or plant_optimum_max_affine(1, 3, 6))
    cfg = SolverConfig(max_iters=30, **kw)
    rep = solve_nonmonotone(prob, cfg)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    return merge_reports(audit_stepwise(rep, prob, cfg, tc), audit_rate_bounds(rep, prob, cfg, tc))


def _statuses(audit, *names):
    return [(audit[n].status, audit[n].detail) for n in names]


# a bound that overflows to +inf holds in both audits. zeta = 1e200:
# gamma_k^2 = 1e400/k overflows quasi_fejer's right side. c = zeta = 1e300:
# c*gamma_k overflows step_upper_bound's, and kappa = zeta*beta*c/rho
# rate_sqrt_log's, whose row N = 1, with ln N = 0, was inf*0. zeta = 1e308:
# sum gamma_k^2 and Gamma * sum gamma_{k+1} (with a small L, also
# Gamma*N*gamma_{N+1}) overflow, and the Cauchy-Schwarz floor decides their inf/inf
@pytest.mark.parametrize("kw, scale, names", [
    (dict(gamma=SqrtInverse(1e200)), 1.0, ["quasi_fejer"]),
    (dict(c=1e300, gamma=SqrtInverse(1e300)), 1.0, ["step_upper_bound", "rate_sqrt_log"]),
    (dict(gamma=SqrtInverse(1e308)), 1.0, ["rate_general", "rate_tail"]),
    (dict(alpha1=1e308, gamma=SqrtInverse(1e308)), 0.1, ["rate_general", "rate_tail"]),
], ids=["zeta-1e200", "c-zeta-1e300", "zeta-1e308", "alpha1-zeta-1e308-small-L"])
def test_an_overflowed_bound_holds(kw, scale, names):
    audit = _audits_at(inst=plant_optimum_max_affine(1, 3, 6, active_scale=scale), **kw)
    assert audit.passed
    assert _statuses(audit, *names) == [("passed", "")] * len(names)


# iterates near 1e299 overflow every squared distance to x*, where neither
# side of quasi_fejer can be formed, so it is skipped with that reason
def test_overflowed_squared_distances_skip_quasi_fejer():
    audit = _audits_at(alpha1=1e300, gamma=SqrtInverse(1e300))
    assert audit.passed
    assert _statuses(audit, "quasi_fejer") == [
        ("skipped", "a squared distance to x* overflows")]


# a bound that overflows only in an intermediate product is formed again in a
# scaled order. With c = 1e-100 and zeta = 1e200, gamma_1^2 and sum gamma_k^2
# overflow, though quasi_fejer's term (beta*c/rho)*gamma_1^2 is about 1e300
# and rate_general's bound at N = 1 about 10^301.4. A gap of 1e302 at row 1,
# or a squared distance of about 3e302 at row 18, lies between such a bound
# and the largest double, which the overflowed bound was read as
@pytest.mark.parametrize("column, names, row", [
    ("f", ["rate_general", "rate_tail"], 1), ("xs", ["quasi_fejer"], 17),
])
def test_a_bound_that_overflows_only_in_a_product_is_checked(column, names, row):
    prob = make_problem(plant_optimum_max_affine(1, 3, 6))
    cfg = SolverConfig(max_iters=30, c=1e-100, gamma=SqrtInverse(1e200))
    rep = solve_nonmonotone(prob, cfg)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)

    def audit(report):
        return merge_reports(audit_stepwise(report, prob, cfg, tc),
                             audit_rate_bounds(report, prob, cfg, tc))

    assert audit(rep).passed
    if column == "f":
        bad = _tampered(rep, "f", 0, prob.f_star + 1e302)
    else:
        bad = _tampered(rep, "xs", 17, prob.x_star + 1e151)
    checks = audit(bad)
    for name in names:
        ch = checks[name]
        assert (ch.status, ch.worst_index, ch.detail) == ("failed", row, "")
        assert 0.5 < ch.worst_violation < 1.0


# the audit derives each recorded rung with the search's own rung(), so the
# ladder law holds exactly, in memory and after a CSV round trip, where the
# alpha chain is checked against the derived rungs; numpy's vector power
# missed libm's pow by one bit on some rows on CPUs with an AVX-512 loop
@pytest.mark.parametrize("seed", range(6))
def test_derived_rungs_match_the_search_bit_for_bit(seed, tmp_path):
    prob = make_problem(plant_optimum_max_affine(seed, 5, 30, spread=0.05, active_scale=6))
    cfg = SolverConfig(c=1.0, beta=0.8, rho=0.8, alpha1=0.1, gamma=SqrtInverse(0.5),
                       max_iters=600)
    rep = solve_nonmonotone(prob, cfg)
    assert (rep.ell > 2).any()
    path = str(tmp_path / "t.csv")
    write_trace_csv(rep, path, prob.f_star)
    for report in (rep, read_trace_csv(path)):
        ch = audit_stepwise(report, prob, cfg)["consistency"]
        assert (ch.status, ch.worst_violation) == ("passed", 0.0)


def test_unrolled_lower_bound_catches_shrunk_steps():
    prob, cfg, tc, rep = _outside_regime_run(iters=200)
    alpha = rep.alpha.copy()
    alpha[99:] *= 1e-6  # rows 100 on
    audit = audit_stepwise(dataclasses.replace(rep, alpha=alpha), prob, cfg, tc)
    assert audit["step_lower_bound"].status == "failed"
    assert audit["step_lower_bound"].worst_index >= 100


# ----- fault injection -----
#
# A perturbed trace must be rejected. alpha is protected everywhere by the
# consistency chain; f and x are checked at the row where their inequality
# is tightest (rows with slack larger than the perturbation cannot be caught
# by a sound checker, so the tight row is the meaningful target).


@pytest.mark.parametrize("row", [0, 17, 150, 299, 300])
def test_alpha_perturbation_always_caught(row):
    prob, cfg, rep = _planted_run(seed=3)
    bad = _tampered(rep, "alpha", row, rep.alpha[row] * (1 + 1e-3))
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
    K = len(rep.k) - 1
    f, gam, sn = rep.f, rep.gamma, rep.snorm
    step = cfg.beta * rep.alpha[1:]  # beta * alpha_next
    slack = (f[:K] - cfg.rho * step * sn[:K] ** 2 + gam[:K]) - f[1 : K + 1]
    j = int(np.argmin(slack / np.maximum(1.0, np.abs(f[1 : K + 1]))))
    target = j + 1
    bad = _tampered(rep, "f", target, f[target] + 1e-3 * abs(f[target]))
    audit = audit_stepwise(bad, prob, cfg)
    assert audit["sufficient_decrease"].status == "failed"
    assert audit["sufficient_decrease"].worst_index == j + 1  # the step into the bent row


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
    K = len(rep.k) - 1
    X, gam = rep.xs, rep.gamma
    d2 = (X**2).sum(axis=1)
    slack = d2[:K] + (cfg.beta * cfg.c / cfg.rho) * gam[:K] ** 2 - d2[1 : K + 1]
    j = int(np.argmin(slack / np.maximum(1.0, d2[1 : K + 1])))
    target = j + 1
    bad = _tampered(rep, "xs", target, X[target] * (1 + 1e-3))
    audit = audit_stepwise(bad, prob, cfg)
    assert audit["quasi_fejer"].status == "failed"


def test_nan_cell_fails_its_check_as_non_finite():
    prob, cfg, rep = _planted_run(seed=3)
    bad = _tampered(rep, "f", 40, math.nan)
    audit = audit_stepwise(bad, prob, cfg)
    ch = audit["sufficient_decrease"]
    assert (ch.status, ch.worst_violation, ch.worst_index) == ("failed", math.inf, 40)
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


# a report whose alpha column is zeroed keeps every ladder and chain law;
# only row 1's alpha against cfg.alpha1 fails
def test_first_alpha_off_the_config_fails_consistency():
    prob = make_problem(plant_optimum_max_affine(0, 5, 30, spread=0.5))
    cfg = SolverConfig(max_iters=100)
    rep = dataclasses.replace(solve_nonmonotone(prob, cfg), alpha=np.zeros(101))
    ch = audit_stepwise(rep, prob, cfg)["consistency"]
    assert (ch.status, ch.worst_violation, ch.worst_index) == ("failed", 0.1, 1)


def _planted_200():
    prob = make_problem(plant_optimum_max_affine(3, 2, 4))
    cfg = SolverConfig(max_iters=200)
    rep = solve_nonmonotone(prob, cfg)
    assert len(rep.k) == 201 and audit_stepwise(rep, prob, cfg).passed
    return prob, cfg, rep


# the CSV of the same run audits to the same results, bit for bit; only
# quasi_fejer, which needs the iterates a trace does not carry, is skipped
def test_csv_round_trip_keeps_every_check_result(tmp_path):
    prob, cfg, rep = _planted_200()
    path = str(tmp_path / "t.csv")
    write_trace_csv(rep, path, prob.f_star)
    csv_rep = read_trace_csv(path)
    assert csv_rep.fbest_gap is not None
    tc, x1 = constants(cfg.rho, cfg.beta, prob.L, cfg.c), np.zeros(prob.n)

    def checks(report):
        return {ch.name: ch for ch in merge_reports(
            audit_stepwise(report, prob, cfg, tc, x1=x1),
            audit_rate_bounds(report, prob, cfg, tc, x1=x1)).checks}

    kept, read = checks(rep), checks(csv_rep)
    assert kept.pop("quasi_fejer").status == "passed"
    assert read.pop("quasi_fejer").status == "skipped"
    assert read == kept
    assert sum(ch.status == "passed" for ch in kept.values()) == 7


# a report stores what the run decided, as its CSV trace does, so a bent
# cell that both can carry audits alike in memory and read back from CSV;
# only quasi_fejer, which needs the iterates, differs
@pytest.mark.parametrize("column, bend", [
    ("ell", lambda v: 0), ("alpha", lambda v: v * (1 + 1e-3)), ("f", lambda v: math.nan),
    ("gamma", lambda v: v * 1.2), ("snorm", lambda v: math.inf), ("k", lambda v: v + 1),
], ids=["ell-zero", "alpha-up", "f-nan", "gamma-up", "snorm-inf", "k-up"])
def test_bent_report_audits_alike_in_memory_and_from_csv(tmp_path, column, bend):
    prob, cfg, rep = _planted_200()
    bad = _tampered(rep, column, 17, bend(getattr(rep, column)[17]))
    path = str(tmp_path / "t.csv")
    write_trace_csv(bad, path, prob.f_star)
    tc, x1 = constants(cfg.rho, cfg.beta, prob.L, cfg.c), np.zeros(prob.n)

    def results(report):
        return {ch.name: repr((ch.status, ch.worst_index, ch.worst_violation))
                for ch in merge_reports(audit_stepwise(report, prob, cfg, tc, x1=x1),
                                        audit_rate_bounds(report, prob, cfg, tc, x1=x1)).checks
                if ch.name != "quasi_fejer"}

    in_memory = results(bad)
    assert any("failed" in r for r in in_memory.values())  # each edit is caught
    assert results(read_trace_csv(path)) == in_memory


def test_step_row_with_ell_zero_fails_consistency():
    prob, cfg, rep = _planted_run(seed=3)
    bad = _tampered(rep, "ell", 17, 0)
    ch = audit_stepwise(bad, prob, cfg)["consistency"]
    assert (ch.status, ch.worst_violation, ch.worst_index) == ("failed", math.inf, 18)
    assert ch.detail == "step row with ell < 1"


# a planted f* is the minimum over C, and every iterate lies in C
def test_f_below_a_planted_optimum_fails_consistency():
    prob, cfg, rep = _planted_run(seed=3)
    assert audit_stepwise(rep, prob, cfg).passed
    bad = _tampered(rep, "f", 150, prob.f_star - 1e-3)
    ch = audit_stepwise(bad, prob, cfg)["consistency"]
    assert (ch.status, ch.worst_index) == ("failed", 151)


# a reference value (weiszfeld's, or a gap baseline) certifies no optimum,
# so rows below it are no fault of the trace
def test_f_below_a_reference_f_star_is_no_law():
    prob, cfg, rep = _planted_run(seed=3)
    ref = dataclasses.replace(prob, x_star=None, f_star=rep.f_best + 1.0)
    assert audit_stepwise(rep, ref, cfg)["consistency"].status == "passed"


# row 1's decrease bound has gamma_1 of slack, so only f(x1) pins row 1's f
def test_x1_pins_the_first_f():
    prob, cfg, rep = _planted_run(seed=3)
    x1 = np.zeros(prob.n)
    assert audit_stepwise(rep, prob, cfg, x1=x1)["consistency"].status == "passed"
    bad = _tampered(rep, "f", 0, rep.f[0] * 1.5)
    assert audit_stepwise(bad, prob, cfg).passed
    ch = audit_stepwise(bad, prob, cfg, x1=x1)["consistency"]
    assert (ch.status, ch.worst_index) == ("failed", 1)


# a CSV report carries the column the CSV writer wrote, which passes bit for
# bit; a bent cell fails at its row
def test_fbest_gap_column_is_the_running_best_gap(tmp_path):
    prob, cfg, rep = _planted_run(seed=3)
    assert rep.fbest_gap is None
    path = str(tmp_path / "t.csv")
    write_trace_csv(rep, path, prob.f_star)
    csv_rep = read_trace_csv(path)
    assert csv_rep.fbest_gap.tolist() == _best_gaps(rep.f, prob.f_star)
    assert audit_stepwise(csv_rep, prob, cfg).passed
    bad = _tampered(csv_rep, "fbest_gap", 40, csv_rep.fbest_gap[40] * 1.5)
    ch = audit_stepwise(bad, prob, cfg)["consistency"]
    assert (ch.status, ch.worst_index) == ("failed", 41)


class _CountingProblem:
    """A problem whose value and eval calls are counted in calls."""

    def __init__(self, problem):
        self._problem = problem
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self._problem, name)
        if name not in ("value", "eval"):
            return attr

        def counted(x):
            self.calls.append(name)
            return attr(x)

        return counted


# the benchmark's traced oracle counts and its tracer rest on this
def test_audits_call_no_oracle_without_x1():
    prob, cfg, rep = _planted_run(seed=3)
    counting = _CountingProblem(prob)
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    assert merge_reports(audit_stepwise(rep, counting, cfg, tc),
                         audit_rate_bounds(rep, counting, cfg, tc)).passed
    assert counting.calls == []
    audit_stepwise(rep, counting, cfg, tc, x1=np.zeros(prob.n))
    assert counting.calls == ["value"]


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


# at the first non-finite comparison that fails lhs <= rhs (a NaN side, +inf
# on the left, -inf on the right) the check fails there, and a larger finite
# violation earlier does not hide it; a -inf left side and a +inf right side
# hold, so row 11's finite violation decides
@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_worst_reports_the_first_non_finite_comparison(side, bad):
    lhs = np.array([0.0, 5.0, 1.0, 2.0, 3.0])
    rhs = np.zeros(5)
    (lhs if side == "lhs" else rhs)[[2, 4]] = bad
    with np.errstate(invalid="ignore"):
        ch = _worst("check", lhs, rhs, first=10)
    if (side, bad) in (("lhs", -math.inf), ("rhs", math.inf)):
        assert ch == CheckResult("check", "failed", 1.0, 11)
    else:
        assert ch == CheckResult("check", "failed", math.inf, 12, "non-finite comparison")


def test_worst_reports_an_overflowing_difference_as_non_finite():
    lhs = np.array([0.0, 5.0, 1e308, -1e308])
    rhs = np.array([0.0, 0.0, -1e308, 1e308])
    with np.errstate(over="ignore"):
        ch = _worst("check", lhs, rhs)
    assert ch == CheckResult("check", "failed", math.inf, 3, "non-finite comparison")


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e-9, 1e308, -1e308])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=40))
@example([(1e308, -1e308)])
@example([(0.0, 0.0), (-0.0, 0.0), (1.0 + 1e-9, 1.0)])
@example([(-math.inf, -math.inf), (-math.inf, 5.0), (5.0, math.inf), (math.inf, math.inf)])
def test_worst_matches_the_elementwise_reference(pairs):
    lhs = np.array([a for a, _ in pairs])
    rhs = np.array([b for _, b in pairs])
    worst, i = worst_ref(lhs, rhs)
    with np.errstate(all="ignore"):
        ch = _worst("check", lhs, rhs)
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
    expected = _worst("quasi_fejer", dist_sq[1:], rhs)
    assert audit_stepwise(rep, prob, cfg)["quasi_fejer"] == expected


# ----- golden audit reports -----
#
# sha256 of audit_report_to_json(merge of both audits) per case, recorded
# before the audit's array passes were reworked; the fixture-n2/n5 cases
# (zeta 0.01 and 0.5) and strongly-convex-ball were re-pinned when the
# sqrt-inverse bounds were written in zeta, and fixture-n10-seed1 when the
# audit took the line search's own rung(): numpy's vector power had given a
# 5.4e-20 deviation at its ell = 13 row on CPUs whose numpy dispatches an
# AVX-512 power loop, and none without one; ell-zero when a report stopped
# storing alpha_next and step: in memory, as from its CSV trace, the bent
# row's derived rung is NaN, so step_upper_bound, step_lower_bound and
# sufficient_decrease fail there as a non-finite comparison, where the
# recorded columns had passed all three. The JSON writes every float
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
        "0d5aa45237a0286b6aebcffc94a41d130c4b91bdbd398e5c268b8cb0d3274030",
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
        "7759a1b35b1c01191c0841f3d22beca1c83ad6ee336e0949040ffe17bbdfe001",
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
    out["csv-round-trip-n10"] = _audit_json(read_trace_csv(path), prob, cfg,
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
