"""Extreme numeric flags end to end: gen -> run -> check through cli.main in
one process, with every warning but TheoryRegimeWarning an error.

Each run sets one or two of --beta, --alpha1, --c, --zeta and --rho, or one
prefixed method's --step-const, to a value from VALUES. A run either writes
its trace (exit 0), whose check must then pass, or refuses its flags in one
`error:` line (exit 2) and writes nothing. The same config is also solved in
memory, where the iterates let quasi_fejer run, and both audits must pass.
"""

import contextlib
import io
import itertools
import json
import warnings

import pytest

from nmsubgrad import TheoryRegimeWarning, make_problem
from nmsubgrad import cli
from nmsubgrad.analysis import audit_rate_bounds, audit_stepwise, constants, merge_reports

VALUES = ("1e-320", "1e-300", "1e300", "1e308")
FLAGS = ("--beta", "--alpha1", "--c", "--zeta", "--rho")
PREFIXED = [m for m in cli.METHODS if m != "nonmonotone"]
INPUTS = {
    "maxaffine-rn": ["maxaffine", "--n", "3", "--m", "6", "--planted", "--seed", "1"],
    "maxaffine-ball": ["maxaffine", "--n", "3", "--m", "6", "--planted", "--seed", "1",
                       "--set", "ball", "--radius", "5"],
    "fermatweber-box": ["fermatweber", "--seed", "1", "--set", "box"],
}


def _run_flags():
    """Every one-flag and two-flag setting of FLAGS, then each prefixed
    method's --step-const, over VALUES."""
    for flag, value in itertools.product(FLAGS, VALUES):
        yield [flag, value]
    for (f1, f2), (v1, v2) in itertools.product(itertools.combinations(FLAGS, 2),
                                                itertools.product(VALUES, VALUES)):
        yield [f1, v1, f2, v2]
    for method, value in itertools.product(PREFIXED, VALUES):
        yield ["--method", method, "--step-const", value]


def _main(*argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _audit_in_memory(inst_path, summary):
    """Both audits of the summary's run, solved again in memory."""
    problem = make_problem(*cli.load_instance(inst_path))
    cfg = cli._config_from_items(summary["config"])
    method = summary["method"]
    rule = cli._make_rule(method, summary.get("rule", {}).get("a"), "rule")
    report = cli._solve(problem, cfg, method, rule)
    tc = None if problem.L is None else constants(cfg.rho, cfg.beta, problem.L, c=cfg.c)
    x1 = cli._start_point(problem, None)
    return merge_reports(audit_stepwise(report, problem, cfg, tc, x1=x1),
                         audit_rate_bounds(report, problem, cfg, tc, x1=x1))


@pytest.mark.parametrize("name", INPUTS)
def test_check_passes_every_run_at_extreme_flags(tmp_path, name):
    inst = str(tmp_path / "inst.json")
    trace, summary_path = tmp_path / "t.csv", tmp_path / "t.summary.json"
    faults, ran = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", TheoryRegimeWarning)
        assert _main("gen", *INPUTS[name], "--out", inst)[0] == 0
        for flags in _run_flags():
            trace.unlink(missing_ok=True)
            summary_path.unlink(missing_ok=True)
            rc, _, err = _main("run", inst, "--iters", "30", *flags, "--out", str(trace))
            lines = err.splitlines()
            if rc == 2:
                if not (len(lines) == 1 and len(lines[0]) > len("error: ")
                        and lines[0].startswith("error: ")):
                    faults.append((flags, "run exit 2 without one error line", err))
                if trace.exists() or summary_path.exists():
                    faults.append((flags, "run exit 2 wrote a file", err))
                continue
            if rc != 0:
                faults.append((flags, f"run exit {rc}", err))
                continue
            ran += 1
            rc, out, err = _main("check", str(trace), inst)
            if rc != 0 or err:
                faults.append((flags, f"check exit {rc}", out.splitlines()[-1:], err))
            audit = _audit_in_memory(inst, json.loads(summary_path.read_text()))
            if not audit.passed:
                faults.append((flags, "in-memory audit failed",
                               [ch.name for ch in audit.checks if ch.status == "failed"]))
    assert faults == []
    assert ran > 0
