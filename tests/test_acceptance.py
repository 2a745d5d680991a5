"""End-to-end acceptance tests.

Each test prints one PASS/FAIL line into the terminal summary (see
conftest.pytest_terminal_summary) and covers one numbered criterion. The
instance fixtures, seeds, and tolerances are frozen; loosening any of them
voids the recorded history.
"""

import math

import numpy as np
import pytest

import nmsubgrad as ns
import conftest
from conftest import ITERS, SEEDS

from oracles import grid_min_2d, sum_lemma_sweep

PARAMS = dict(c=1.0, beta=0.9, rho=0.8, alpha1=0.1)


def _record(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _tc(prob, cfg):
    return ns.constants(cfg.rho, cfg.beta, prob.L, cfg.c)


# ----- 1: per-iteration inequalities hold on every audited run -----


def test_criterion_01_stepwise_audit(audit_runs):
    runs, elapsed = audit_runs
    n_runs = 0
    worst = -math.inf
    failures = []
    for (n, m), entries in runs.items():
        for seed, prob, cfg, rep in entries:
            n_runs += 1
            audit = ns.audit_stepwise(rep, prob, cfg, _tc(prob, cfg))
            for ch in audit.checks:
                assert ch.status != "skipped", (n, m, seed, ch.name, ch.detail)
                if ch.worst_violation is not None:
                    worst = max(worst, ch.worst_violation)
                if ch.status == "failed":
                    failures.append((n, m, seed, ch.name, ch.worst_violation))
    ok = not failures and n_runs == 60 and elapsed < 30.0
    _record(
        1, ok,
        f"stepwise inequalities on {n_runs} runs x {ITERS} iters: "
        f"{len(failures)} violations, worst margin {worst:.2e}, "
        f"solve time {elapsed:.1f}s (cap 30s)",
    )


# ----- 2: complexity bounds hold on every prefix of the same runs -----


def test_criterion_02_rate_bounds(audit_runs):
    runs, _ = audit_runs
    n_checked = 0
    worst = -math.inf
    failures = []
    for (n, m), entries in runs.items():
        for seed, prob, cfg, rep in entries:
            audit = ns.audit_rate_bounds(rep, prob, cfg, _tc(prob, cfg))
            for name in ("rate_general", "rate_sqrt_log"):
                ch = audit[name]
                n_checked += 1
                assert ch.status != "skipped", (n, m, seed, name, ch.detail)
                worst = max(worst, ch.worst_violation)
                if ch.status == "failed":
                    failures.append((n, m, seed, name, ch.worst_violation))
    ok = not failures and n_checked == 120
    _record(
        2, ok,
        f"general + sqrt-log gap bounds at every prefix of 60 runs: "
        f"{len(failures)} violations, worst margin {worst:.2e}",
    )


# ----- 3: strongly convex rate with the matching harmonic slacks -----


def test_criterion_03_strongly_convex_rate():
    inst = ns.plant_optimum_max_affine(0, 5, 30, spread=0.5, sigma=1.0)
    ball = ns.Ball(center=np.zeros(5), radius=2.0)
    prob = ns.make_problem(inst, ball)
    tc = ns.constants(0.8, 0.9, prob.L, 1.0)
    seq = ns.StronglyConvexHarmonic(sigma=1.0, beta=0.9, big_theta=tc.theta)
    cfg = ns.SolverConfig(
        c=1.0, beta=0.9, rho=0.8, alpha1=float(ns.gamma_values(seq, 1)[0]),
        gamma=seq, max_iters=ITERS,
    )
    rep = ns.solve_nonmonotone(prob, cfg)
    ch = ns.audit_rate_bounds(rep, prob, cfg, tc)["rate_strongly_convex"]
    ok = ch.status == "passed"
    _record(
        3, ok,
        f"1/(N+1) gap bound, sigma=1 harmonic slacks, N<=3000: status "
        f"{ch.status}, worst margin {ch.worst_violation:.2e} at N={ch.worst_index}",
    )


# ----- 4: compact-set sqrt bound with unit sqrt-inverse slacks -----


def test_criterion_04_compact_rate():
    inst = ns.plant_optimum_max_affine(0, 5, 30, spread=0.5)
    ball = ns.Ball(center=np.zeros(5), radius=2.0)
    prob = ns.make_problem(inst, ball)
    cfg = ns.SolverConfig(gamma=ns.SqrtInverse(1.0), max_iters=ITERS, **PARAMS)
    rep = ns.solve_nonmonotone(prob, cfg)
    ch = ns.audit_rate_bounds(rep, prob, cfg, _tc(prob, cfg))["rate_compact"]
    ok = ch.status == "passed"
    _record(
        4, ok,
        f"diameter/sqrt(N+2) bound on a ball, 2<=N<=3000: status {ch.status}, "
        f"worst margin {ch.worst_violation:.2e} at N={ch.worst_index}",
    )


# ----- 5: planted optima are actually reached -----


def test_criterion_05_planted_gap():
    inst = ns.plant_optimum_max_affine(8, 2, 10, spread=0.02, active_scale=0.2)
    prob = ns.make_problem(inst)
    cfg = ns.SolverConfig(gamma=ns.SqrtInverse(0.01), max_iters=ITERS, **PARAMS)
    gap_small = ns.solve_nonmonotone(prob, cfg).f_best - prob.f_star

    inst = ns.plant_optimum_max_affine(0, 10, 50, spread=0.02, active_scale=10.0)
    prob = ns.make_problem(inst)
    cfg = ns.SolverConfig(gamma=ns.SqrtInverse(1.0), max_iters=ITERS, **PARAMS)
    gap_large = ns.solve_nonmonotone(prob, cfg).f_best - prob.f_star

    ok = gap_small <= 1e-5 and gap_large <= 1e-2
    _record(
        5, ok,
        f"planted-gap targets: (2,10) zeta=0.01 gap {gap_small:.2e} (tol 1e-5), "
        f"(10,50) zeta=1 gap {gap_large:.2e} (tol 1e-2)",
    )


# ----- 6: the adaptive method beats every prefixed baseline -----


BASELINES = (
    ns.ConstantStep(0.1),
    ns.ConstantLength(0.2),
    ns.NonsummableDiminishing(0.1),
    ns.SquareSummable(0.5),
)


def test_criterion_06_baseline_dominance(audit_runs):
    runs, _ = audit_runs
    counts = {}
    for (n, m), entries in runs.items():
        wins = 0
        for seed, prob, cfg, rep in entries:
            baseline_best = [
                ns.solve_prefixed(prob, rule, ITERS).f_best for rule in BASELINES
            ]
            if all(rep.f_best <= fb for fb in baseline_best):
                wins += 1
        counts[(n, m)] = wins
    need = math.ceil(0.7 * len(SEEDS))
    ok = all(w >= need for w in counts.values())
    detail = ", ".join(f"({n},{m}) {w}/{len(SEEDS)}" for (n, m), w in counts.items())
    _record(6, ok, f"best-value wins vs all 4 baselines (need >= {need}): {detail}")


# ----- 7: distance-sum runs agree with the fixed-point reference -----


def test_criterion_07_fermat_weber_agreement():
    hits = 0
    worst_gap = -math.inf
    for seed in range(10):
        fw = ns.gen_fermat_weber(seed, 2, 27)
        prob = ns.make_problem(fw)
        _, f_ref = ns.weiszfeld(fw)
        cfg = ns.SolverConfig(gamma=ns.SqrtInverse(2.0), max_iters=200, **PARAMS)
        gap = ns.solve_nonmonotone(prob, cfg).f_best - f_ref
        worst_gap = max(worst_gap, gap)
        if gap <= 1e-4:
            hits += 1

    # the reference itself is cross-checked against a dense grid
    grid_ok = 0
    for seed in (0, 4, 9):
        fw = ns.gen_fermat_weber(seed, 2, 27)
        xw, f_ref = ns.weiszfeld(fw)
        value = ns.make_problem(fw).value
        f_grid, _, _ = grid_min_2d(
            lambda p, _value=value: _value(np.asarray(p)),
            center=xw, half_width=2.0, points=101, refinements=3,
        )
        if abs(f_grid - f_ref) <= 1e-4 and f_grid >= f_ref - 1e-9:
            grid_ok += 1

    ok = hits >= 8 and grid_ok == 3
    _record(
        7, ok,
        f"200-iter runs within 1e-4 of the fixed-point value on {hits}/10 "
        f"instances (worst gap {worst_gap:.1e}); grid cross-check {grid_ok}/3",
    )


# ----- 8: oracle and projection contracts, exhaustively sampled -----


def _projection_violations(cset, n, rng, pairs=1000):
    bad = 0
    for _ in range(pairs):
        x = rng.standard_normal(n) * 5.0
        y = rng.standard_normal(n) * 5.0
        px, py = ns.project(cset, x), ns.project(cset, y)
        if np.linalg.norm(px - py) > np.linalg.norm(x - y) + 1e-12:
            bad += 1
        if np.linalg.norm(ns.project(cset, px) - px) > 1e-12:
            bad += 1
        if not ns.contains(cset, px, tol=1e-9):
            bad += 1
    return bad


def _subgradient_violations(prob, n, rng, pairs=1000, box=5.0):
    bad = 0
    for _ in range(pairs):
        x = rng.uniform(-box, box, n)
        y = rng.uniform(-box, box, n)
        fx, sx = prob.eval(x)
        fy = prob.value(y)
        lower = fx + float(sx @ (y - x))
        if fy < lower - 1e-9 * max(1.0, abs(fy), abs(lower)):
            bad += 1
    return bad


def test_criterion_08_contract_sampling():
    rng = np.random.default_rng(2024)
    bad_proj = 0
    bad_proj += _projection_violations(ns.Ball(center=np.ones(4), radius=1.5), 4, rng)
    bad_proj += _projection_violations(
        ns.Box(lo=-np.ones(4), hi=np.full(4, 2.0)), 4, rng
    )
    bad_proj += _projection_violations(ns.NonnegativeOrthant(), 4, rng)

    bad_sub = 0
    plain = ns.make_problem(ns.plant_optimum_max_affine(0, 5, 30, spread=0.5))
    quad = ns.make_problem(
        ns.plant_optimum_max_affine(1, 4, 12, spread=0.5, sigma=0.7)
    )
    fw = ns.make_problem(ns.gen_fermat_weber(2, 3, 11))
    bad_sub += _subgradient_violations(plain, 5, rng)
    bad_sub += _subgradient_violations(quad, 4, rng)
    bad_sub += _subgradient_violations(fw, 3, rng)

    # norm bound: 1e4 points per problem, inside the certifying set
    bad_lip = 0
    for prob, n in ((plain, 5), (fw, 3)):
        pts = rng.uniform(-5.0, 5.0, size=(10_000, n))
        for x in pts:
            _, s = prob.eval(x)
            if float(np.linalg.norm(s)) > prob.L + 1e-12:
                bad_lip += 1
    ball = ns.Ball(center=np.zeros(4), radius=2.0)
    quad_inst = ns.plant_optimum_max_affine(1, 4, 12, spread=0.5, sigma=0.7)
    quad_on_ball = ns.make_problem(quad_inst, ball)
    for _ in range(10_000):
        x = ns.project(ball, rng.uniform(-3.0, 3.0, 4))
        _, s = quad_on_ball.eval(x)
        if float(np.linalg.norm(s)) > quad_on_ball.L + 1e-12:
            bad_lip += 1

    ok = bad_proj == 0 and bad_sub == 0 and bad_lip == 0
    _record(
        8, ok,
        f"sampled contracts: projection violations {bad_proj}/9000, "
        f"subgradient-inequality violations {bad_sub}/3000, "
        f"norm-bound violations {bad_lip}/30000",
    )


# ----- 9: summation lemmas over the full parameter grid -----


def test_criterion_09_sum_lemma_sweep():
    res = sum_lemma_sweep((0.1, 1.0, 10.0), (0.1, 1.0, 10.0), 100_000)
    _record(
        9, res.all_hold,
        f"both lemmas, N in 2..1e5, a,d in {{0.1,1,10}}: worst margins "
        f"{res.worst_violation_full:.2e} (full) / {res.worst_violation_half:.2e} "
        f"(tail) at {res.worst_case_full} / {res.worst_case_half}",
    )


# ----- 10: the benchmark harness is bit-reproducible -----


def test_criterion_10_bench_reproducible(tmp_path):
    from nmsubgrad.cli import main

    plan = "plans/maxaffine_small.json"
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        assert main(["bench", plan, "--out-dir", d]) == 0
    import filecmp
    import os

    names = sorted(os.listdir(dirs[0]))
    same = names == sorted(os.listdir(dirs[1])) and all(
        filecmp.cmp(os.path.join(dirs[0], f), os.path.join(dirs[1], f), shallow=False)
        for f in names
    )
    _record(
        10, same,
        f"two benchmark passes over {len(names)} output files: "
        f"{'byte-identical' if same else 'DIFFER'}",
    )
