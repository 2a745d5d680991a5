import dataclasses
import hashlib
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmsubgrad._kernels as kernels
import nmsubgrad.linesearch as linesearch
from nmsubgrad import (
    Ball,
    Box,
    ConfigError,
    ConstantLength,
    ConstantStep,
    MaxAffineInstance,
    NonnegativeOrthant,
    NonsummableDiminishing,
    ProblemSpec,
    RunReport,
    SolverConfig,
    SqrtInverse,
    SquareSummable,
    StepRule,
    WholeSpace,
    audit_rate_bounds,
    audit_stepwise,
    constants,
    contains,
    gen_fermat_weber,
    gen_max_affine,
    make_problem,
    plant_optimum_max_affine,
    read_trace_csv,
    solve_nonmonotone,
    solve_prefixed,
    weiszfeld,
    write_trace_csv,
)
import nmsubgrad.core as core
from nmsubgrad.core import (
    IterationRecord,
    TERMINATION_BACKTRACK_FAILURE,
    TERMINATION_MAX_ITERS,
    TERMINATION_NONFINITE_ORACLE,
    TERMINATION_ZERO_SUBGRADIENT,
)
from nmsubgrad.solver import METHODS, _RULES, _stop_tag


def _abs_value_problem():
    # f(x) = |x| as the max of x and -x
    inst = MaxAffineInstance(
        A=np.array([[1.0], [-1.0]]), b=np.zeros(2),
        x_star=np.zeros(1), f_star=0.0,
    )
    return make_problem(inst)


# ----- prefixed rules: frozen step sizes -----


def test_rule_sizes_frozen():
    assert ConstantStep(0.1).size(9, 2.0) == 0.1
    assert ConstantLength(0.2).size(9, 4.0) == pytest.approx(0.05)
    assert NonsummableDiminishing(0.1).size(4, 2.0) == pytest.approx(0.05)
    assert SquareSummable(0.5).size(5, 2.0) == pytest.approx(0.1)


# a rule checks its constant when it is made, so no invalid rule exists
def test_rule_constant_validation():
    for cls in (ConstantStep, ConstantLength, NonsummableDiminishing, SquareSummable):
        assert isinstance(cls(), StepRule)
        for a in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="step constant must be positive"):
                cls(a)
    with pytest.raises(TypeError, match="not a step rule"):
        solve_prefixed(_abs_value_problem(), "constant", 5)


def test_prefixed_budget_validation():
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        solve_prefixed(_abs_value_problem(), ConstantStep(0.1), 0)


# ----- worked example: constant step oscillates around the kink -----


def test_constant_step_oscillation():
    prob = _abs_value_problem()
    report = solve_prefixed(prob, ConstantStep(0.1), 10, x0=np.array([0.25]))
    xs = report.xs[:, 0].tolist()
    assert xs[0] == 0.25
    assert xs[1] == pytest.approx(0.15, rel=1e-12)
    assert xs[2] == pytest.approx(0.05, rel=1e-12)
    assert xs[3] == pytest.approx(-0.05, rel=1e-12)
    assert xs[4] == pytest.approx(0.05, rel=1e-12)
    assert report.f_best == pytest.approx(0.05, rel=1e-12)
    assert report.it_best == 3
    assert report.termination == TERMINATION_MAX_ITERS


def test_prefixed_rows_use_sentinel_and_nan_gamma():
    prob = _abs_value_problem()
    report = solve_prefixed(prob, SquareSummable(0.5), 6, x0=np.array([1.0]))
    assert len(report.k) == 7
    assert (report.ell == 0).all()
    assert np.isnan(report.gamma).all()
    assert not hasattr(report, "alpha_next") and not hasattr(report, "step")  # no derived column
    # step rows store the applied size in alpha; k = 2 uses 0.5/2, and the
    # landed row applies none
    assert report.alpha[1] == pytest.approx(0.25)
    assert math.isnan(report.alpha[-1])


# every report ends with its landed row, so both solvers count rows - 1 steps
def test_both_solvers_count_their_steps():
    prob = make_problem(plant_optimum_max_affine(0, 5, 30, spread=0.5))
    assert solve_prefixed(prob, ConstantStep(), 100).n_steps == 100
    report = solve_nonmonotone(prob, SolverConfig(max_iters=100))
    assert report.n_steps == int(np.count_nonzero(report.ell >= 1)) == 100


# ----- non-monotone solver traces -----


def _planted(seed=0, n=3, m=9, **kw):
    return make_problem(plant_optimum_max_affine(seed, n, m, spread=0.5, **kw))


CFG = SolverConfig(c=1.0, beta=0.9, rho=0.8, alpha1=0.1,
                   gamma=SqrtInverse(0.5), max_iters=80)


def test_trace_shape_and_terminal_row():
    prob = _planted()
    report = solve_nonmonotone(prob, CFG)
    assert len(report.k) == CFG.max_iters + 1
    assert report.termination == TERMINATION_MAX_ITERS
    assert (report.ell[:-1] >= 1).all()
    # on R^n the applied step beta*alpha_next moves x by step*||s_k||
    moves = np.linalg.norm(np.diff(report.xs, axis=0), axis=1)
    np.testing.assert_allclose(moves, CFG.beta * report.alpha[1:] * report.snorm[:-1], rtol=1e-12)
    assert report.ell[-1] == 0
    # the landed row carries the last search's alpha_next as its alpha
    alpha, ell = report.alpha.tolist(), report.ell.tolist()
    assert alpha[-1] == linesearch.rung(alpha[-2], CFG.beta, ell[-2])
    assert report.k[-1] == CFG.max_iters + 1


def test_alpha_chain_and_monotonicity():
    prob = _planted(seed=4)
    report = solve_nonmonotone(prob, CFG)
    alphas = report.alpha.tolist()
    for alpha, ell, nxt in zip(alphas, report.ell.tolist(), alphas[1:]):
        # the search's alpha_next, bit for bit
        assert nxt == linesearch.rung(alpha, CFG.beta, ell)
    assert all(b <= a * (1 + 1e-15) for a, b in zip(alphas, alphas[1:]))


def test_f_best_is_running_minimum():
    prob = _planted(seed=5)
    report = solve_nonmonotone(prob, CFG)
    fs = report.f.tolist()
    assert report.f_best == min(fs)
    assert report.it_best == fs.index(min(fs)) + 1


def test_iterates_stay_feasible_on_ball():
    inst = plant_optimum_max_affine(6, 3, 9, spread=0.5)
    ball = Ball(center=np.zeros(3), radius=1.0)
    prob = make_problem(inst, ball)
    report = solve_nonmonotone(prob, CFG, x0=np.full(3, 9.0))
    for x in report.xs:
        assert np.linalg.norm(x) <= 1.0 + 1e-9
    # the infeasible start was projected before the first evaluation
    assert np.linalg.norm(report.xs[0]) == pytest.approx(1.0, rel=1e-12)


def test_default_start_is_projected_origin():
    inst = plant_optimum_max_affine(7, 2, 6, spread=0.5)
    ball = Ball(center=np.array([3.0, 0.0]), radius=1.0)
    # keep the plant feasible: move it near the ball center
    inst2 = MaxAffineInstance(A=inst.A, b=inst.b)
    prob = make_problem(inst2, ball)
    report = solve_nonmonotone(prob, SolverConfig(max_iters=3))
    np.testing.assert_allclose(report.xs[0], [2.0, 0.0], rtol=1e-12)


def test_zero_subgradient_terminates_immediately():
    inst = MaxAffineInstance(A=np.zeros((1, 2)), b=np.array([4.0]))
    prob = make_problem(inst)
    report = solve_nonmonotone(prob, CFG)
    assert report.termination == TERMINATION_ZERO_SUBGRADIENT
    assert len(report.k) == 1
    assert report.ell[0] == 0
    assert report.f_best == 4.0

    ref2 = solve_prefixed(prob, ConstantLength(0.2), 10)
    assert ref2.termination == TERMINATION_ZERO_SUBGRADIENT
    assert len(ref2.k) == 1


def test_runs_are_deterministic():
    prob = _planted(seed=8)
    a = solve_nonmonotone(prob, CFG)
    b = solve_nonmonotone(prob, CFG)
    assert a.f_best == b.f_best
    assert a.it_best == b.it_best
    assert a.f.tolist() == b.f.tolist()
    assert a.alpha.tolist() == b.alpha.tolist()
    assert a.ell.tolist() == b.ell.tolist()
    np.testing.assert_array_equal(a.xs, b.xs)


def test_backtrack_cap_only_bounds_ell():
    # a cap of 10**6 gives the default cap's columns, and the search builds
    # nothing its size: a 10**6-entry float list alone would take ~32 MB
    prob = _planted(seed=8)
    ref = solve_nonmonotone(prob, CFG)
    tracemalloc.start()
    try:
        big = solve_nonmonotone(prob, dataclasses.replace(CFG, backtrack_cap=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert big.termination == ref.termination
    for name in ("k", "f", "gamma", "alpha", "ell", "snorm", "xs"):
        np.testing.assert_array_equal(getattr(big, name), getattr(ref, name))


# ----- csv round trip -----


def test_trace_csv_roundtrip(tmp_path):
    prob = _planted(seed=9)
    report = solve_nonmonotone(prob, CFG)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(report, path, f_star=prob.f_star)
    loaded = read_trace_csv(path)
    assert len(loaded.k) == len(report.k)
    assert (loaded.termination, loaded.method) == ("unknown", None)
    assert loaded.f_best == report.f_best
    assert loaded.it_best == report.it_best
    for name in ("k", "f", "alpha", "ell", "gamma", "snorm"):  # repr round-trips exactly
        assert getattr(loaded, name).tolist() == getattr(report, name).tolist(), name
    assert loaded.xs is None
    gaps = loaded.fbest_gap
    assert gaps is not None
    assert gaps[-1] == pytest.approx(report.f_best - prob.f_star, rel=1e-15)
    assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))  # non-increasing


def test_report_and_its_csv_hold_the_same_columns(tmp_path):
    prob = _planted(seed=9)
    report = solve_nonmonotone(prob, CFG)
    names = ("k", "f", "gamma", "alpha", "ell", "snorm")
    # a report stores what the run decided; step and alpha_next are derived
    assert not hasattr(report, "step") and not hasattr(report, "alpha_next")
    assert len(report.k) == len(report.xs)
    for name in names:
        column = getattr(report, name)
        assert len(column) == len(report.k)
        assert column.dtype == (np.int64 if name in ("k", "ell") else np.float64)

    path = str(tmp_path / "trace.csv")
    write_trace_csv(report, path, f_star=prob.f_star)
    loaded = read_trace_csv(path)
    # the column a trace does not carry is None; every other column is the
    # solver report's
    assert loaded.xs is None
    for name in names:
        np.testing.assert_array_equal(getattr(loaded, name), getattr(report, name))
        assert getattr(loaded, name).dtype == getattr(report, name).dtype


def _cells(record):
    """A record's fields, comparable bit for bit: the bytes of x, the repr of
    every other field (so a type, a NaN and a -0.0 count)."""
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in record)


def _column_cells(report, i):
    cols = (report.xs if name == "x" else getattr(report, name, None)
            for name in IterationRecord._fields)
    return _cells([None if col is None else col[i] if col.ndim > 1 else col[i].item()
                   for col in cols])


def test_records_view_builds_only_the_rows_asked_for(tmp_path, monkeypatch):
    prob = _planted(seed=9)
    report = solve_nonmonotone(prob, dataclasses.replace(CFG, max_iters=40))
    path = str(tmp_path / "trace.csv")
    write_trace_csv(report, path, f_star=prob.f_star)
    # a loop gives the columns' rows, with None for a column the report
    # lacks (x in a CSV trace; step and alpha_next always)
    for rep in (report, read_trace_csv(path)):
        assert [_cells(r) for r in rep.records] == [
            _column_cells(rep, i) for i in range(len(rep.k))]
    assert report.records is not report.records  # a view, rebuilt on each access

    built = []

    def counting(*fields):
        built.append(fields[0])
        return IterationRecord(*fields)

    monkeypatch.setattr(core, "IterationRecord", counting)
    records = report.records
    assert len(records) == len(report.k) == 41 and built == []
    next(iter(records))
    assert built == [1]


def test_trace_csv_without_fstar_drops_gap_column(tmp_path):
    prob = _planted(seed=10)
    report = solve_nonmonotone(prob, CFG)
    path = str(tmp_path / "plain.csv")
    write_trace_csv(report, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "k,f,alpha,ell,gamma,snorm"
    loaded = read_trace_csv(path)
    assert loaded.fbest_gap is None
    assert loaded.f_best == report.f_best


def test_read_trace_csv_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("k,f,alpha\n1,2.0,0.1\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(str(p))
    p2 = tmp_path / "ragged.csv"
    p2.write_text("k,f,alpha,ell,gamma,snorm\n1,2.0,0.1\n")
    with pytest.raises(ValueError):
        read_trace_csv(str(p2))


# the first fault in the file names its own line, blank lines counted, and a bad
# cell its column
@pytest.mark.parametrize("body, where", [
    ("\n1,2.0,0.1,1,0.5,1.0\n\n2,2.0,0.1\n", ":5: expected 6 cells, got 3"),
    ("1.0,2.0,0.1,1,0.5,1.0\n", ":2: column 'k': '1.0' is not an integer"),
    ("1,2.0,0.1,1,0.5,1.0\n\n2,,0.1,1,0.5,1.0\n", ":4: column 'f': '' is not a number"),
    ("1,2.0,0.1,1,0.5,1.0\n2,2.0,0.1,x,0.5,1.0\n", ":3: column 'ell': 'x' is not an integer"),
    ("1,x,0.1,1,0.5,1.0\n2,2.0\n", ":2: column 'f': 'x' is not a number"),
], ids=["ragged", "int_column", "float_column", "last_row", "first_fault_first"])
def test_read_trace_csv_names_the_line_and_the_cell(tmp_path, body, where):
    p = tmp_path / "t.csv"
    p.write_text("k,f,alpha,ell,gamma,snorm\n" + body)
    with pytest.raises(ValueError) as exc:
        read_trace_csv(str(p))
    assert str(exc.value) == f"{p}{where}"


_TRACE_HEADERS = ["k,f,alpha,ell,gamma,snorm", "k,f,fbest_gap,alpha,ell,gamma,snorm"]
# cells a trace holds, and ones it should not: ints of any size, float reprs
# (NaN and infinities included) and short strings of number-like characters
_CELLS = (st.integers().map(str) | st.floats().map(repr)
          | st.text(alphabet="0123456789.-+eEinfa_ x", max_size=4))


@st.composite
def _trace_texts(draw):
    """Trace CSV text: a valid header over rows of 6 or 7 drawn cells, or any
    text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=40))
    lines = [draw(st.sampled_from(_TRACE_HEADERS))]
    for _ in range(draw(st.integers(0, 4))):
        cells = draw(st.lists(_CELLS, min_size=6, max_size=7))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_trace_texts())
@example("k,f,alpha,ell,gamma,snorm\n99999999999999999999999,1.0,nan,0,0.1,1.0\n")
def test_read_trace_csv_returns_or_raises_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            report = read_trace_csv(path)
        except ValueError:
            return
    assert isinstance(report, RunReport)


# ----- oracle calls per run -----


def _count_trials(monkeypatch):
    """Sum of line-search trials, seen through the module attribute the
    solver resolves at call time."""
    seen = {"searches": 0, "trials": 0}
    real = linesearch.nonmonotone_backtrack

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        seen["searches"] += 1
        seen["trials"] += out.trials
        return out

    monkeypatch.setattr(linesearch, "nonmonotone_backtrack", counted)
    return seen


@pytest.mark.parametrize("kind", ["maxaffine", "maxaffine_sigma", "fermatweber"])
def test_one_kernel_call_per_trial_point(kind, monkeypatch):
    kernel_name = "fermat_weber_eval" if kind == "fermatweber" else "max_affine_eval"
    calls = {"kernel": 0, "value": 0, "eval": 0}
    real_kernel = getattr(kernels, kernel_name)

    def counted_kernel(*args):
        calls["kernel"] += 1
        return real_kernel(*args)

    monkeypatch.setattr(kernels, kernel_name, counted_kernel)
    if kind != "fermatweber":
        sigma = 0.5 if kind == "maxaffine_sigma" else 0.0
        inst = plant_optimum_max_affine(3, 4, 12, spread=0.5, sigma=sigma)
        prob = make_problem(inst, Ball(center=np.zeros(4), radius=1.0))
    else:
        prob = make_problem(gen_fermat_weber(3, 3, 15), Box(lo=-np.ones(3), hi=np.ones(3)))

    def counting(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped

    counted = ProblemSpec(n=prob.n, value=counting("value", prob.value),
                          eval=counting("eval", prob.eval), cset=prob.cset,
                          sigma=prob.sigma, L=prob.L)
    seen = _count_trials(monkeypatch)
    report = solve_nonmonotone(counted, CFG)
    assert report.termination == TERMINATION_MAX_ITERS
    assert seen["searches"] == CFG.max_iters
    assert calls["value"] == seen["trials"]
    assert calls["eval"] == len(report.k)
    # every eval but the start point's took the subgradient parked by the
    # value call at its point
    assert calls["kernel"] == calls["value"] + 1
    # and the trace is the one a problem without counting wrappers gives
    plain = solve_nonmonotone(prob, CFG)
    assert plain.f.tolist() == report.f.tolist()
    assert plain.snorm.tolist() == report.snorm.tolist()


# ----- every termination path of the backtracking solver -----


class FailingOracles:
    """A real problem's oracles that break on command. Calls count from 1:
    value call number nan_value_at returns NaN, computed by the real oracle at
    a NaN point so it is parked like any trial value, and value call number
    neg_inf_value_at returns -inf. An eval at the point of either returns
    that f, as make_problem's parked oracles hand eval the f of the value
    call before it. Eval call number nan_eval_at returns a NaN value, eval
    call number inf_eval_at an infinite subgradient, and eval call number
    zero_eval_at a zero one."""

    def __init__(self, problem, nan_value_at=None, nan_eval_at=None, inf_eval_at=None,
                 zero_eval_at=None, neg_inf_value_at=None):
        self.problem = problem
        self.nan_value_at = nan_value_at
        self.neg_inf_value_at = neg_inf_value_at
        self.nan_eval_at = nan_eval_at
        self.inf_eval_at = inf_eval_at
        self.zero_eval_at = zero_eval_at
        self.values = 0
        self.evals = 0
        self.injected = None  # (point bytes, f) of the last value call, when injected

    def value(self, x):
        self.values += 1
        self.injected = None
        if self.values == self.nan_value_at:
            f = self.problem.value(np.full_like(x, np.nan))
        elif self.values == self.neg_inf_value_at:
            f = -math.inf
        else:
            return self.problem.value(x)
        self.injected = (x.tobytes(), f)
        return f

    def eval(self, x):
        self.evals += 1
        f, g = self.problem.eval(x)
        hit, self.injected = self.injected, None
        if hit is not None and hit[0] == x.tobytes():
            f = hit[1]
        if self.evals == self.nan_eval_at:
            f = math.nan
        if self.evals == self.inf_eval_at:
            g = np.full_like(g, np.inf)
        if self.evals == self.zero_eval_at:
            g = np.zeros_like(g)
        return f, g

    def spec(self):
        p = self.problem
        return ProblemSpec(n=p.n, value=self.value, eval=self.eval, cset=p.cset,
                           sigma=p.sigma, L=p.L)


def _assert_partial_trace_audits(report, prob, cfg):
    tc = constants(cfg.rho, cfg.beta, prob.L, cfg.c)
    audit = audit_stepwise(report, prob, cfg, tc)
    assert audit.passed, [(ch.name, ch.status, ch.detail) for ch in audit.checks]
    assert report.ell[-1] == 0
    assert (report.ell[:-1] >= 1).all()


# the start point is evaluated by eval alone, so its NaN f is recorded with
# the subgradient's norm
def test_nan_at_start_is_nonfinite_oracle():
    prob = _planted(seed=10)
    oracles = FailingOracles(prob, nan_eval_at=1)
    report = solve_nonmonotone(oracles.spec(), CFG)
    assert report.termination == TERMINATION_NONFINITE_ORACLE
    assert len(report.k) == 1
    assert math.isnan(report.f[0])
    g = _planted(seed=10).eval(report.xs[0])[1]
    assert report.snorm[0] == math.sqrt(g.dot(g)) > 0.0
    assert (oracles.values, oracles.evals) == (0, 1)
    _assert_partial_trace_audits(report, prob, CFG)


# a NaN trial fails the decrease test, so its rung is rejected and the run
# goes on to its budget
def test_nan_trial_mid_run_is_a_rejected_rung():
    prob = _planted(seed=11)
    oracles = FailingOracles(prob, nan_value_at=20)
    report = solve_nonmonotone(oracles.spec(), CFG)
    assert report.termination == TERMINATION_MAX_ITERS
    assert oracles.values > 20
    assert len(report.k) == CFG.max_iters + 1
    assert np.isfinite(report.f).all()
    _assert_partial_trace_audits(report, prob, CFG)
    # the NaN trial's parked value is never picked up at a real point
    v, g = prob.eval(report.xs[-1])
    v_fresh, g_fresh = _planted(seed=11).eval(report.xs[-1].copy())
    assert v == v_fresh == report.f[-1]
    np.testing.assert_array_equal(g, g_fresh)


def test_backtrack_cap_exhaustion_is_backtrack_failure():
    # with one rung the accepted size never shrinks, so the size cap
    # alpha1 <= c * zeta / sqrt(k) must fail by k = 26
    cfg = SolverConfig(c=1.0, beta=0.9, rho=0.8, alpha1=0.1,
                       gamma=SqrtInverse(0.5), max_iters=80, backtrack_cap=1)
    prob = _planted(seed=13)
    report = solve_nonmonotone(prob, cfg)
    assert report.termination == TERMINATION_BACKTRACK_FAILURE
    assert 2 <= len(report.k) <= 26
    assert (report.ell[:-1] == 1).all()
    _assert_partial_trace_audits(report, prob, cfg)


# a first trial x_1 - s_1 * 0.9e308 overflows, and its value is NaN (inf - inf
# arises inside A x); each rejected rung shrinks the step by beta, and the
# first that passes is rung 6768, past the default cap of 500, so the run ends
# at its first row with the real cause; numpy's warnings stay silent (pytest
# makes them errors)
_OVERFLOWING = make_problem(MaxAffineInstance(A=np.array([[5.0, 3.0], [-4.0, 1.0]]),
                                              b=np.zeros(2)))


def test_overflowing_trials_exhaust_the_cap_without_a_warning():
    report = solve_nonmonotone(_OVERFLOWING, SolverConfig(alpha1=1e308, c=1e308, max_iters=50))
    assert report.termination == TERMINATION_BACKTRACK_FAILURE
    assert len(report.k) == 1


def test_overflowing_trials_are_passed_over_under_a_large_cap():
    cfg = SolverConfig(alpha1=1e308, c=1e308, max_iters=50, backtrack_cap=10000)
    report = solve_nonmonotone(_OVERFLOWING, cfg)
    assert report.termination == TERMINATION_MAX_ITERS
    assert len(report.k) == 51
    assert report.ell[:4].tolist() == [6768, 1, 1, 2]
    assert report.f_best == -1.1605313662771428


# -inf passes the decrease test as written, so the trial is accepted; eval
# at that point gives -inf too, and the stopping rule ends the run on the
# next row, which records it with its subgradient's norm
def test_minus_inf_trial_is_accepted_and_ends_the_next_row():
    oracles = FailingOracles(_planted(seed=18), neg_inf_value_at=20)
    report = solve_nonmonotone(oracles.spec(), CFG)
    assert report.termination == TERMINATION_NONFINITE_ORACLE
    assert oracles.values == 20 and oracles.evals == len(report.k)
    assert report.ell[-2] >= 1 and report.ell[-1] == 0
    assert report.f[-1] == -math.inf and np.isfinite(report.f[:-1]).all()
    assert 0.0 < report.snorm[-1] < math.inf


# real overflows on a Fermat-Weber ball, not injected ones: a raw step of
# length 1e308 lands each iterate on the sphere, and a step of size 1.7e308
# sends x_2 to inf, whose projection is NaN, and so is the subgradient there
_FW_BALL = make_problem(gen_fermat_weber(1, 3, 20), Ball(center=np.zeros(3), radius=10.0))


def test_prefixed_far_steps_land_on_the_sphere():
    report = solve_prefixed(_FW_BALL, ConstantLength(1e308), 5)
    assert report.termination == TERMINATION_MAX_ITERS
    dist = np.linalg.norm(report.xs[1:], axis=1)
    np.testing.assert_allclose(dist, 10.0, rtol=1e-15)


def test_prefixed_overflow_on_a_ball_is_nonfinite_oracle():
    report = solve_prefixed(_FW_BALL, ConstantStep(1.7e308), 5)
    assert report.termination == TERMINATION_NONFINITE_ORACLE
    assert len(report.k) == 2 and math.isnan(report.f[-1]) and report.snorm[-1] == math.inf
    assert np.isnan(report.xs[-1]).all()


# ----- the iterate block -----


# on a ball, to the budget and stopped early by a zero subgradient at the
# fifth eval: xs is one (rows, n) float64 block whose rows are, bit for bit,
# the points the run evaluated, one eval per row
@pytest.mark.parametrize("method", ["nonmonotone", "prefixed"])
@pytest.mark.parametrize("zero_eval_at, termination", [
    (None, TERMINATION_MAX_ITERS),
    (5, TERMINATION_ZERO_SUBGRADIENT),
], ids=["max_iters", "zero_subgradient"])
def test_iterates_are_one_block_of_the_evaluated_points(method, zero_eval_at, termination):
    inst = plant_optimum_max_affine(3, 4, 12, spread=0.5)
    oracles = FailingOracles(make_problem(inst, Ball(center=np.zeros(4), radius=0.5)),
                             zero_eval_at=zero_eval_at)
    seen = []

    def recording(x):
        seen.append(x.copy())
        return oracles.eval(x)

    spec = dataclasses.replace(oracles.spec(), eval=recording)
    x0 = np.ones(4)  # outside the ball, so the first row is projected onto it
    if method == "nonmonotone":
        report = solve_nonmonotone(spec, CFG, x0)
    else:
        report = solve_prefixed(spec, ConstantStep(0.1), CFG.max_iters, x0)
    assert report.termination == termination
    xs = report.xs
    assert type(xs) is np.ndarray and xs.dtype == np.float64 and xs.flags.c_contiguous
    assert xs.shape == (len(report.k), 4) == (len(seen), 4)
    assert [row.tobytes() for row in xs] == [x.tobytes() for x in seen]
    assert np.linalg.norm(xs, axis=1).max() == pytest.approx(0.5, rel=1e-12)


# ----- one stopping rule for both drivers -----


# a fault injected at the eval of row 7 or of the landed row max_iters + 1
# ends both drivers alike; past the budget only a zero subgradient is its
# own cause. Each row is one eval, and each value call a line-search trial
@pytest.mark.parametrize("method", ["nonmonotone", "prefixed"])
@pytest.mark.parametrize("fault, row, termination", [
    (None, None, TERMINATION_MAX_ITERS),
    ("zero_eval_at", 7, TERMINATION_ZERO_SUBGRADIENT),
    ("zero_eval_at", CFG.max_iters + 1, TERMINATION_ZERO_SUBGRADIENT),
    ("nan_eval_at", 7, TERMINATION_NONFINITE_ORACLE),
    ("nan_eval_at", CFG.max_iters + 1, TERMINATION_MAX_ITERS),
    ("inf_eval_at", 7, TERMINATION_NONFINITE_ORACLE),
    ("inf_eval_at", CFG.max_iters + 1, TERMINATION_MAX_ITERS),
], ids=["max_iters", "zero_subgradient-mid", "zero_subgradient-landed", "nonfinite_f-mid",
        "nonfinite_f-landed", "infinite_snorm-mid", "infinite_snorm-landed"])
def test_termination_matrix(method, fault, row, termination, monkeypatch):
    prob = _planted(seed=12)
    oracles = FailingOracles(prob, **({} if fault is None else {fault: row}))
    seen = _count_trials(monkeypatch)
    if method == "nonmonotone":
        report = solve_nonmonotone(oracles.spec(), CFG)
    else:
        report = solve_prefixed(oracles.spec(), ConstantStep(0.1), CFG.max_iters)
    rows = CFG.max_iters + 1 if row is None else row
    assert report.termination == termination
    assert len(report.k) == oracles.evals == rows
    assert oracles.values == seen["trials"]
    f, snorm = report.f[-1], report.snorm[-1]
    assert (report.k[-1], report.ell[-1]) == (rows, 0)
    assert math.isnan(f) if fault == "nan_eval_at" else math.isfinite(f)
    if fault == "zero_eval_at":
        assert snorm == 0.0
    elif fault == "inf_eval_at":
        assert snorm == math.inf
    else:
        assert 0.0 < snorm < math.inf
    assert np.isfinite(report.f[:-1]).all() and (report.snorm[:-1] > 0.0).all()
    if method == "nonmonotone":
        assert seen["searches"] == rows - 1
    # a NaN that eval alone gives belies the value the search accepted there,
    # which the decrease audit rightly fails
    if method == "nonmonotone" and fault != "nan_eval_at":
        _assert_partial_trace_audits(report, prob, CFG)


# ----- property: every run the solver makes passes its own audit -----

def _property_problem(seed, family, n, extra, set_kind, sigma):
    """A small problem of the family on the set; a plant the set excludes is
    dropped, and box and ball sit around the plant (the origin otherwise)."""
    m = n + 1 + extra
    if family == "fermatweber":
        inst = gen_fermat_weber(seed, n, m)
    elif family == "planted":
        inst = plant_optimum_max_affine(seed, n, m, spread=0.5, sigma=sigma)
    else:
        inst = gen_max_affine(seed, n, m, sigma=sigma)
    center = np.zeros(n) if getattr(inst, "x_star", None) is None else inst.x_star
    cset = {"rn": WholeSpace(), "orthant": NonnegativeOrthant(),
            "box": Box(lo=center - 1.0, hi=center + 1.0),
            "ball": Ball(center=center, radius=1.0)}[set_kind]
    if family == "planted" and not contains(cset, inst.x_star):
        inst = MaxAffineInstance(A=inst.A, b=inst.b, sigma=sigma)
    return make_problem(inst, cset)


def _assert_tag_matches_trace(report, max_iters):
    """The run's tag is the stopping rule's of its landed row, or
    backtrack_failure, which only a line search gives, where the rule steps."""
    rows = len(report.k)
    assert report.ell[-1] == 0 and rows <= max_iters + 1
    tag = _stop_tag(rows, max_iters, report.f[-1], report.snorm[-1])
    if tag is None:
        assert report.method == "nonmonotone"
    assert report.termination == (TERMINATION_BACKTRACK_FAILURE if tag is None else tag)


@pytest.mark.filterwarnings("ignore::nmsubgrad.core.TheoryRegimeWarning")
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    family=st.sampled_from(["planted", "plain", "fermatweber"]),
    n=st.integers(1, 4),
    extra=st.integers(0, 6),
    set_kind=st.sampled_from(["rn", "orthant", "box", "ball"]),
    sigma=st.sampled_from([0.0, 0.5]),
    beta=st.floats(0.05, 0.99),
    rho=st.floats(0.01, 0.99),  # rho <= 1/2 too: the step lower bound holds for every rho
    c=st.floats(0.01, 100.0),
    alpha1=st.floats(1e-4, 1e3),
    zeta=st.floats(1e-3, 10.0),
    cap=st.integers(1, 60),
    iters=st.integers(1, 300),
)
# the minimal case outside the regime alpha_1 >= theta*gamma_1: the run is
# correct, and theta*gamma_2 <= alpha_2 fails on it
@example(seed=0, family="plain", n=1, extra=0, set_kind="rn", sigma=0.0, beta=0.5,
         rho=0.75, c=1.0, alpha1=0.5, zeta=1.0, cap=1, iters=1)
# a planted run on a ball outside that regime (theta = 0.221, alpha_1/gamma_1 = 0.1):
# four rate checks run with the effective theta
@example(seed=1, family="planted", n=2, extra=2, set_kind="ball", sigma=0.0, beta=0.9,
         rho=0.8, c=1.0, alpha1=0.1, zeta=1.0, cap=60, iters=20)
def test_every_run_passes_its_audit(seed, family, n, extra, set_kind, sigma, beta, rho,
                                    c, alpha1, zeta, cap, iters):
    prob = _property_problem(seed, family, n, extra, set_kind, sigma)
    cfg = SolverConfig(c=c, beta=beta, rho=rho, alpha1=alpha1, gamma=SqrtInverse(zeta),
                       max_iters=iters, backtrack_cap=cap)
    tc = None if prob.L is None else constants(rho, beta, prob.L, c)
    report = solve_nonmonotone(prob, cfg)
    _assert_tag_matches_trace(report, iters)
    for audit in (audit_stepwise(report, prob, cfg, tc),
                  audit_rate_bounds(report, prob, cfg, tc)):
        assert audit.passed, [(ch.name, ch.worst_index, ch.detail) for ch in audit.checks]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace_csv(report, path, f_star=prob.f_star)
        back = read_trace_csv(path)
    for name in ("k", "f", "alpha", "ell", "gamma", "snorm"):
        np.testing.assert_array_equal(getattr(back, name), getattr(report, name))
    audit = audit_stepwise(back, prob, cfg, tc)
    assert audit.passed, [(ch.name, ch.worst_index, ch.detail) for ch in audit.checks]

    for rule in (ConstantStep(), ConstantLength(), NonsummableDiminishing(), SquareSummable()):
        _assert_tag_matches_trace(solve_prefixed(prob, rule, iters), iters)


# both drivers, their oracles broken at a drawn call, at steps that may
# overflow and under caps that may run out: every run ends by the one rule
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    method=st.sampled_from(METHODS),
    fault=st.sampled_from([None, "zero_eval_at", "nan_eval_at", "inf_eval_at",
                           "nan_value_at", "neg_inf_value_at"]),
    at=st.integers(1, 30),
    alpha1=st.sampled_from([1e-3, 0.1, 10.0, 1e308]),
    c=st.sampled_from([0.01, 1.0, 1e308]),
    cap=st.integers(1, 40),
    iters=st.integers(1, 25),
)
def test_termination_is_the_rule_of_the_landed_row(seed, method, fault, at, alpha1, c, cap,
                                                   iters):
    oracles = FailingOracles(_planted(seed, n=2, m=4), **({} if fault is None else {fault: at}))
    if method == "nonmonotone":
        cfg = SolverConfig(c=c, alpha1=alpha1, max_iters=iters, backtrack_cap=cap)
        report = solve_nonmonotone(oracles.spec(), cfg)
    else:
        report = solve_prefixed(oracles.spec(), _RULES[method](alpha1), iters)
    _assert_tag_matches_trace(report, iters)


# ----- golden traces -----

# sha256 of the f, alpha, ell, gamma, snorm columns of the 60 fixture runs, in
# fixture order; ell hashed as int64 and the other columns as float64. A
# refactor of the solver, line search, oracles or kernels must keep it.
FIXTURE_TRACE_SHA256 = "4a3c431e280eca9852141bbf2726cddf7d82dfd823e2499b389bc82124c8f525"

# the same columns for Fermat-Weber runs: the 3 x 5000 box run of the
# kernel_heavy benchmark, then criterion 7's ten 2 x 27 runs, then the bytes of
# the weiszfeld point and value on the 3 x 5000 instance
FERMAT_WEBER_TRACE_SHA256 = "dcc2ebe7697de9a21192ed03fe96a643dd766fbff901e90f38282667cf2a3942"


def _hash_trace_columns(h, report):
    for name in ("f", "alpha", "ell", "gamma", "snorm"):
        dtype = np.int64 if name == "ell" else np.float64
        h.update(np.asarray(getattr(report, name), dtype=dtype).tobytes())


def test_fixture_traces_match_golden_digest(audit_runs):
    runs, _ = audit_runs
    h = hashlib.sha256()
    reports = [report for entries in runs.values() for _, _, _, report in entries]
    assert len(reports) == 60
    for report in reports:
        _hash_trace_columns(h, report)
    assert h.hexdigest() == FIXTURE_TRACE_SHA256


def test_fermat_weber_traces_match_golden_digest():
    params = dict(c=1.0, beta=0.9, rho=0.8, alpha1=0.1)
    large = gen_fermat_weber(0, 3, 5000)
    runs = [(large, Box(lo=np.full(3, -5.0), hi=np.full(3, 5.0)), 1.0, 1000)]
    runs += [(gen_fermat_weber(seed, 2, 27), None, 2.0, 200) for seed in range(10)]
    h = hashlib.sha256()
    for inst, cset, zeta, iters in runs:
        cfg = SolverConfig(gamma=SqrtInverse(zeta), max_iters=iters, **params)
        _hash_trace_columns(h, solve_nonmonotone(make_problem(inst, cset), cfg))
    x, f = weiszfeld(large)
    h.update(x.tobytes())
    h.update(np.float64(f).tobytes())
    assert h.hexdigest() == FERMAT_WEBER_TRACE_SHA256
