import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmsubgrad
from nmsubgrad import TheoryRegimeWarning
from nmsubgrad import cli
from nmsubgrad.cli import METHODS, main


def run_cli(*argv):
    return main(list(argv))


# ----- gen -----


def test_gen_planted_maxaffine(tmp_path):
    out = str(tmp_path / "inst.json")
    rc = run_cli("gen", "maxaffine", "--seed", "3", "--n", "2", "--m", "8",
                 "--planted", "--spread", "0.5", "--out", out)
    assert rc == 0
    obj = json.loads(Path(out).read_text())
    assert obj["type"] == "maxaffine"
    assert len(obj["A"]) == 8
    assert obj["x_star"] is not None


def test_gen_fermatweber_from_csv(tmp_path):
    csv = tmp_path / "anchors.csv"
    csv.write_text("lat,lon\n12.9,38.5\n3.1,60.0\n15.8,47.9\n")
    out = str(tmp_path / "fw.json")
    rc = run_cli("gen", "fermatweber", "--from-csv", str(csv), "--out", out)
    assert rc == 0
    obj = json.loads(Path(out).read_text())
    assert obj["type"] == "fermatweber"
    assert obj["anchors"][0] == [-12.0, -38.0]


def test_gen_from_csv_dimension_mismatch_is_usage_error(tmp_path):
    csv = tmp_path / "anchors.csv"
    csv.write_text("1.0,2.0\n3.0,4.0\n")
    rc = run_cli("gen", "fermatweber", "--from-csv", str(csv), "--n", "3",
                 "--out", str(tmp_path / "x.json"))
    assert rc == 2


_THREE_COLUMNS = "lat,lon,alt\n12.9,38.5,1.5\n3.1,60.0,-2.2\n15.8,47.9,0.4\n"


# with --from-csv the file sets the anchors, so --m, --seed and --scale are
# meaningless and --n may only repeat the file's width, even when it is 2
@pytest.mark.parametrize("flags", [("--n", "2"), ("--n", "3", "--m", "5", "--seed", "9",
                                                  "--scale", "2"),
                                   ("--m", "27"), ("--seed", "0"), ("--scale", "1")],
                         ids=["n_default_value", "all_four", "m", "seed", "scale"])
def test_gen_from_csv_rejects_generator_flags(tmp_path, capsys, flags):
    csv = tmp_path / "anchors.csv"
    csv.write_text(_THREE_COLUMNS)
    out = tmp_path / "fw.json"
    rc = run_cli("gen", "fermatweber", "--from-csv", str(csv), *flags, "--out", str(out))
    assert _assert_usage_error(rc, capsys).startswith("error: --")
    assert not out.exists()


# sha256 of the instance file, recorded before the flags' defaults moved
@pytest.mark.parametrize("flags, digest", [
    (("--from-csv", "CSV"),
     "c139a9146fa698178c273badd55495ee7efac23dcac3e873e61574a042100ef0"),
    (("--from-csv", "CSV", "--n", "3"),
     "c139a9146fa698178c273badd55495ee7efac23dcac3e873e61574a042100ef0"),
    ((),
     "70af898f0d74182ff15e3bdd5f6bcc18132308c7a1882702b74ed1c2dc441550"),
], ids=["from_csv", "from_csv_matching_n", "no_csv_defaults"])
def test_gen_fermatweber_output_is_pinned(tmp_path, flags, digest):
    csv = tmp_path / "anchors.csv"
    csv.write_text(_THREE_COLUMNS)
    out = tmp_path / "fw.json"
    argv = [str(csv) if a == "CSV" else a for a in flags]
    assert run_cli("gen", "fermatweber", *argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the instance file, recorded before the set flags' defaults moved
# into the set builder and the shared max-affine builder took over gen
@pytest.mark.parametrize("flags, digest", [
    (("--seed", "3", "--n", "3", "--m", "9", "--planted", "--spread", "0.5", "--active", "5",
      "--active-scale", "2", "--sigma", "0.3", "--set", "ball", "--radius", "2"),
     "c58a91422dbbf68a9fe5d225b63adf71e04caf7d1da4c4acc7058828b28d0c54"),
    (("--seed", "1", "--n", "2", "--m", "5", "--sigma", "0.5"),
     "4c30c763e37469f1a2d0c15829c25d74303f689f7d271825e61f5b2a737dc706"),
    (("--n", "2", "--m", "8", "--planted", "--set", "box"),
     "2fd8e17c3ad668320972e281fa2125b003d56f6c865ec05df75932ac30f2f200"),
], ids=["planted_ball", "unplanted", "planted_box_defaults"])
def test_gen_maxaffine_output_is_pinned(tmp_path, flags, digest):
    out = tmp_path / "inst.json"
    assert run_cli("gen", "maxaffine", *flags, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# a flag that describes no part of the instance asked for: a planting flag
# without --planted, or a set flag of another --set
@pytest.mark.parametrize("argv, named", [
    (("maxaffine", "--n", "2", "--m", "5", "--active", "3"), "--planted"),
    (("maxaffine", "--n", "2", "--m", "5", "--spread", "7", "--sigma", "0.5"), "--planted"),
    (("maxaffine", "--n", "2", "--m", "5", "--active-scale", "9"), "--planted"),
    (("maxaffine", "--n", "2", "--m", "5", "--radius", "3"), "--radius applies only to --set ball"),
    (("maxaffine", "--n", "2", "--m", "5", "--planted", "--set", "ball", "--box-lo", "-1"),
     "--box-lo applies only to --set box"),
    (("fermatweber", "--set", "box", "--radius", "3"), "--radius applies only to --set ball"),
    (("fermatweber", "--box-hi", "3"), "--box-hi applies only to --set box"),
], ids=["active", "spread_with_sigma", "active_scale", "radius_on_rn", "box_lo_on_ball",
        "radius_on_box", "box_hi_on_rn"])
def test_gen_flag_that_does_not_apply_is_exit_2(tmp_path, capsys, argv, named):
    out = tmp_path / "x.json"
    rc = run_cli("gen", *argv, "--out", str(out))
    assert named in _assert_usage_error(rc, capsys)
    assert not out.exists()


_NON_FINITE_CELLS = ["inf", "-inf", "nan", "1e400"]


def _non_finite_anchors(tmp_path, cell, rows=10):
    csv = tmp_path / "anchors.csv"
    csv.write_text("lat,lon\n" + "".join(f"{i},{i + 1}\n" for i in range(rows - 1))
                   + f"{cell},3\n")
    return csv, f"{csv}:{rows + 1}: non-finite value"


@pytest.mark.parametrize("cell", _NON_FINITE_CELLS)
def test_gen_non_finite_anchor_is_exit_2(tmp_path, capsys, cell):
    csv, named = _non_finite_anchors(tmp_path, cell)
    out = tmp_path / "fw.json"
    rc = run_cli("gen", "fermatweber", "--from-csv", str(csv), "--out", str(out))
    assert named in _assert_usage_error(rc, capsys)
    assert not out.exists()


@pytest.mark.parametrize("cell", _NON_FINITE_CELLS)
def test_bench_non_finite_anchor_is_exit_2(tmp_path, capsys, cell):
    csv, named = _non_finite_anchors(tmp_path, cell)
    path = _plan_with(tmp_path, "fermatweber", config={"anchors_csv": str(csv)})
    assert named in _assert_usage_error(run_cli("bench", path), capsys)
    assert not os.path.exists(tmp_path / "out")


def test_gen_infeasible_plant_is_reported(tmp_path):
    rc = run_cli("gen", "maxaffine", "--n", "2", "--m", "8", "--planted",
                 "--spread", "50.0", "--set", "ball", "--radius", "1.0",
                 "--out", str(tmp_path / "x.json"))
    assert rc == 2


def test_gen_planted_maxaffine_on_a_box(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run_cli("gen", "maxaffine", "--n", "2", "--m", "8", "--planted", "--set", "box",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["set"] == {"kind": "box", "lo": [-10.0, -10.0],
                                                  "hi": [10.0, 10.0]}
    far = tmp_path / "far.json"
    rc = run_cli("gen", "maxaffine", "--n", "2", "--m", "8", "--planted", "--spread", "5",
                 "--set", "box", "--box-lo", "-1", "--box-hi", "1", "--out", str(far))
    assert "outside the requested set" in _assert_usage_error(rc, capsys)
    assert not far.exists()


def test_gen_random_fermatweber(tmp_path):
    out = tmp_path / "fw.json"
    assert run_cli("gen", "fermatweber", "--seed", "1", "--n", "3", "--m", "5",
                   "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["type"] == "fermatweber"
    assert len(obj["anchors"]) == 5 and len(obj["anchors"][0]) == 3


# a zero-size dimension is no instance
@pytest.mark.parametrize("shape", [("--n", "0", "--m", "3"), ("--n", "2", "--m", "0")],
                         ids=["n_zero", "m_zero"])
def test_gen_zero_size_dimension_is_exit_2(tmp_path, capsys, shape):
    out = tmp_path / "x.json"
    rc = run_cli("gen", "maxaffine", *shape, "--out", str(out))
    assert "A must be a non-empty 2-D array" in _assert_usage_error(rc, capsys)
    assert not out.exists()


# ----- run -----


@pytest.fixture()
def planted_instance(tmp_path):
    out = str(tmp_path / "inst.json")
    assert run_cli("gen", "maxaffine", "--seed", "0", "--n", "2", "--m", "10",
                   "--planted", "--spread", "0.05", "--active-scale", "2.0",
                   "--out", out) == 0
    return out


def test_run_nonmonotone_writes_trace_and_summary(planted_instance, tmp_path):
    trace = str(tmp_path / "t.csv")
    rc = run_cli("run", planted_instance, "--method", "nonmonotone",
                 "--zeta", "0.5", "--iters", "150", "--out", trace)
    assert rc == 0
    with open(trace) as fh:
        header = fh.readline().strip()
        n_rows = sum(1 for _ in fh)
    assert header == "k,f,fbest_gap,alpha,ell,gamma,snorm"
    assert n_rows == 151
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    assert summary["method"] == "nonmonotone"
    assert summary["termination"] == "max_iters"
    assert summary["gap"] >= 0.0
    assert summary["n_rows"] == 151


def test_run_every_prefixed_method(planted_instance, tmp_path):
    for method in ("constant", "fixedlength", "nonsum", "sqrsum"):
        trace = str(tmp_path / f"{method}.csv")
        assert run_cli("run", planted_instance, "--method", method,
                       "--iters", "60", "--out", trace) == 0
        summary = json.loads((tmp_path / f"{method}.summary.json").read_text())
        assert summary["method"] == method


def test_run_config_file_with_flag_override(planted_instance, tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"c": 1.0, "beta": 0.9, "rho": 0.8, "alpha1": 0.1,
                   "gamma.kind": "sqrt_inverse", "gamma.zeta": 2.0,
                   "max_iters": 30, "backtrack_cap": 400, "seed": 0}, fh)
    trace = str(tmp_path / "t.csv")
    # --iters overrides the file's max_iters
    rc = run_cli("run", planted_instance, "--config", cfg_path,
                 "--iters", "55", "--out", trace)
    assert rc == 0
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    assert summary["n_rows"] == 56


# a solver flag that the method never reads is exit 2, not a value the
# summary records; the same fields from a --config file are accepted
_UNREAD_FLAGS = [("--step-const", "0.3", "nonmonotone")] + [
    (flag, value, method) for method in METHODS if method != "nonmonotone"
    for flag, value in (("--c", "5"), ("--beta", "0.5"), ("--rho", "0.3"), ("--alpha1", "0.2"),
                        ("--zeta", "9"), ("--backtrack-cap", "7"))]


@pytest.mark.parametrize("flag, value, method", _UNREAD_FLAGS)
def test_run_flag_the_method_does_not_read_is_exit_2(planted_instance, tmp_path, capsys,
                                                      flag, value, method):
    trace = tmp_path / "t.csv"
    rc = run_cli("run", planted_instance, "--method", method, flag, value, "--out", str(trace))
    assert _assert_usage_error(rc, capsys) == f"error: --method {method} does not read {flag}"
    assert list(tmp_path.iterdir()) == [Path(planted_instance)]


def test_run_has_no_seed_flag(planted_instance, tmp_path):
    # no solver reads a seed, so run does not take one
    trace = tmp_path / "t.csv"
    assert run_cli("run", planted_instance, "--seed", "7", "--out", str(trace)) == 2
    assert not trace.exists()


def test_run_missing_instance_is_exit_2(tmp_path):
    rc = run_cli("run", str(tmp_path / "nowhere.json"),
                 "--out", str(tmp_path / "t.csv"))
    assert rc == 2


# ----- check -----


def test_check_accepts_clean_trace(planted_instance, tmp_path, capsys):
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, "--zeta", "0.5", "--iters", "200",
                   "--out", trace) == 0
    rc = run_cli("check", trace, planted_instance, "--zeta", "0.5")
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit passed" in out
    for name in ("consistency", "sufficient_decrease", "rate_general"):
        assert name in out


def test_check_writes_report_json(planted_instance, tmp_path):
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, "--zeta", "0.5", "--iters", "100",
                   "--out", trace) == 0
    report = str(tmp_path / "audit.json")
    assert run_cli("check", trace, planted_instance, "--zeta", "0.5",
                   "--out", report) == 0
    obj = json.loads(Path(report).read_text())
    assert obj["passed"] is True
    assert any(ch["name"] == "consistency" for ch in obj["checks"])


def _tamper(trace, row, col, bend):
    lines = Path(trace).read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(bend(float(cells[col])))
    lines[row] = ",".join(cells)
    with open(trace, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_check_flags_corrupted_trace(planted_instance, tmp_path, capsys):
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, "--zeta", "0.5", "--iters", "100",
                   "--out", trace) == 0
    _tamper(trace, 40, 3, lambda a: a * 1.002)  # bend alpha off the ladder
    rc = run_cli("check", trace, planted_instance, "--zeta", "0.5")
    assert rc == 1
    assert "audit FAILED" in capsys.readouterr().out


# every flag at its default: the audit runs under the effective theta, so the
# rate bounds run too and 7 of the 10 checks pass; bending f or alpha in one
# row fails it
def test_check_passes_default_run_and_catches_tampering(tmp_path, capsys):
    inst, trace = str(tmp_path / "inst.json"), str(tmp_path / "t.csv")
    assert run_cli("gen", "maxaffine", "--n", "2", "--m", "4", "--planted", "--seed", "0",
                   "--out", inst) == 0
    assert run_cli("run", inst, "--iters", "500", "--out", trace) == 0
    capsys.readouterr()
    assert run_cli("check", trace, inst) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "audit passed (7 of 10 checks ran)"
    for name in ("step_lower_bound", "rate_general", "rate_sqrt_log", "rate_tail"):
        assert f"{name}: passed" in out, name
    clean = Path(trace).read_text()
    for col, bend in ((1, lambda f: f + 1.0), (3, lambda a: a * 1.002)):  # f, alpha
        _tamper(trace, 40, col, bend)
        assert run_cli("check", trace, inst) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "audit FAILED (7 of 10 checks ran)"
        with open(trace, "w") as fh:
            fh.write(clean)


# gamma and alpha_1 are fixed by the config, so check compares the trace's
# cells with it instead of trusting them
def test_check_catches_a_gamma_cell_bent_to_hide_a_bent_f(tmp_path, capsys):
    inst, trace = str(tmp_path / "inst.json"), str(tmp_path / "t.csv")
    assert run_cli("gen", "maxaffine", "--n", "2", "--m", "4", "--planted", "--seed", "3",
                   "--out", inst) == 0
    assert run_cli("run", inst, "--iters", "200", "--out", trace) == 0
    rep, _ = nmsubgrad.read_trace_csv(trace)
    f, alpha, gamma, snorm = (float(col[39]) for col in (rep.f, rep.alpha, rep.gamma, rep.snorm))
    step = 0.9 * float(rep.alpha[40])  # the default beta and rho
    margin = f - 0.8 * step * snorm * snorm + gamma - float(rep.f[40])
    _tamper(trace, 41, 1, lambda v: v + margin + 0.1 * gamma)  # f past its decrease bound
    capsys.readouterr()
    assert run_cli("check", trace, inst) == 1
    assert "sufficient_decrease: failed (worst at k=40)" in capsys.readouterr().out
    _tamper(trace, 40, 5, lambda g: g * 1.2)  # a gamma_40 that would cover it
    assert run_cli("check", trace, inst) == 1
    out = capsys.readouterr().out
    assert "consistency: failed (worst at k=40)" in out
    assert out.splitlines()[-1] == "audit FAILED (7 of 10 checks ran)"


def test_check_catches_a_zeroed_alpha_column(tmp_path, capsys):
    inst, trace = str(tmp_path / "inst.json"), str(tmp_path / "t.csv")
    assert run_cli("gen", "maxaffine", "--n", "3", "--m", "9", "--seed", "4", "--out", inst) == 0
    assert run_cli("run", inst, "--iters", "200", "--out", trace) == 0
    for row in range(1, 202):
        _tamper(trace, row, 2, lambda a: 0.0)  # k,f,alpha,...: no f_star, no gap column
    capsys.readouterr()
    assert run_cli("check", trace, inst) == 1
    out = capsys.readouterr().out
    assert "consistency: failed (worst at k=1)" in out
    assert out.splitlines()[-1] == "audit FAILED (4 of 10 checks ran)"


# a constant objective has L = 0: the run stops at x_1 and check audits the
# one-row trace (theta = 1) instead of rejecting the instance
@pytest.mark.parametrize("method", ["nonmonotone", "constant"])
def test_check_of_a_constant_objective_passes(tmp_path, capsys, method):
    inst, trace = tmp_path / "inst.json", str(tmp_path / "t.csv")
    inst.write_text(json.dumps({"type": "maxaffine", "A": [[0, 0], [0, 0]], "b": [0, -1]}))
    assert run_cli("run", str(inst), "--method", method, "--out", trace) == 0
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    assert (summary["termination"], summary["n_rows"]) == ("zero_subgradient", 1)
    capsys.readouterr()
    assert run_cli("check", trace, str(inst)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "audit passed (none of 10 checks ran)"


def test_check_prefixed_trace_skips_cleanly(planted_instance, tmp_path, capsys):
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, "--method", "sqrsum",
                   "--iters", "60", "--out", trace) == 0
    rc = run_cli("check", trace, planted_instance)
    out = capsys.readouterr().out
    assert rc == 0
    assert "skipped" in out
    assert out.splitlines()[-1] == "audit passed (none of 10 checks ran)"


def test_check_missing_trace_is_exit_2(planted_instance, tmp_path):
    assert run_cli("check", str(tmp_path / "no.csv"), planted_instance) == 2


@pytest.mark.parametrize("text", ["k,f,fbest_gap,alpha,ell,gamma,snorm\n", ""])
def test_check_trace_without_rows_is_exit_2(planted_instance, tmp_path, capsys, text):
    trace = tmp_path / "t.csv"
    trace.write_text(text)
    line = _assert_usage_error(run_cli("check", str(trace), planted_instance), capsys)
    assert line == f"error: {trace}: trace has no rows"


def test_check_out_of_range_int_cell_is_exit_2(planted_instance, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    assert run_cli("run", planted_instance, "--iters", "20", "--out", str(trace)) == 0
    lines = trace.read_text().splitlines()
    lines[1] = "99999999999999999999999" + lines[1][lines[1].index(","):]
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = run_cli("check", str(trace), planted_instance)
    assert "out of range" in _assert_usage_error(rc, capsys)


# check's stdout and report JSON (by its sha256) for one gen -> run round
# trip per kind of trace, pinned byte for byte
_NO_STEP_ROWS = "skipped [no line-search rows (prefixed-step trace or single-iterate run)]"
_CHECK_OUT = {
    "nonmonotone": """\
consistency: passed (worst at k=1)
step_upper_bound: passed (worst at k=182)
step_lower_bound: passed (worst at k=185)
sufficient_decrease: passed (worst at k=180)
quasi_fejer: skipped [trace carries no iterates (CSV round-trip)]
rate_general: passed (worst at k=7)
rate_sqrt_log: passed (worst at k=1)
rate_tail: passed (worst at k=7)
rate_compact: passed (worst at k=7)
rate_strongly_convex: skipped [objective is not strongly convex]
audit passed (8 of 10 checks ran)
""",
    "sqrsum": "".join(f"{name}: {_NO_STEP_ROWS}\n" for name in (
        "consistency", "step_upper_bound", "step_lower_bound", "sufficient_decrease",
        "quasi_fejer", "rate_general", "rate_sqrt_log", "rate_tail", "rate_compact",
        "rate_strongly_convex")) + "audit passed (none of 10 checks ran)\n",
}
_CHECK_JSON_SHA256 = {
    "nonmonotone": "fc1f2fc53dc33b0096fb63f266bcf9ebee5a7ff645464990b87715ed62983616",
    "sqrsum": "72fd99f4e15bcd4a1ce24d4370f0c54e184e0bcbdbc58af43d21c0314c5a2ac5",
}


@pytest.mark.parametrize("method", _CHECK_OUT)
def test_check_output_is_pinned(tmp_path, capsys, method):
    inst, trace, report = (str(tmp_path / name) for name in ("inst.json", "t.csv", "a.json"))
    assert run_cli("gen", "maxaffine", "--n", "2", "--m", "10", "--planted", "--spread", "0.05",
                   "--active-scale", "2.0", "--set", "ball", "--radius", "1", "--out", inst) == 0
    assert run_cli("run", inst, "--method", method, "--iters", "200", "--out", trace) == 0
    capsys.readouterr()
    assert run_cli("check", trace, inst, "--out", report) == 0
    assert capsys.readouterr().out == _CHECK_OUT[method]
    with open(report, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == _CHECK_JSON_SHA256[method]


def test_check_reads_a_power_inverse_trace_as_a_table(planted_instance, tmp_path, capsys):
    config, trace = tmp_path / "pi.cfg", str(tmp_path / "t.csv")
    config.write_text("gamma.kind = power_inverse\ngamma.zeta = 0.5\ngamma.theta = 0.5\n")
    assert run_cli("run", planted_instance, "--config", str(config), "--iters", "200",
                   "--out", trace) == 0
    capsys.readouterr()
    assert run_cli("check", trace, planted_instance) == 0
    assert "rate_sqrt_log: skipped [gamma is not the sqrt-inverse kind]" in capsys.readouterr().out
    # a bent gamma cell fails the bound; the summary still declares the kind
    _tamper(trace, 41, 5, lambda g: g * 1e6)
    assert run_cli("check", trace, planted_instance) == 1
    out = capsys.readouterr().out
    assert "step_lower_bound: failed (worst at k=41)" in out
    assert "rate_sqrt_log: skipped [gamma is not the sqrt-inverse kind]" in out
    assert out.splitlines()[-1] == "audit FAILED (6 of 10 checks ran)"


# a run away from every default, checked with no flags: the summary beside
# the trace gives check the run's config
_OFF_DEFAULT = ("--c", "0.5", "--beta", "0.5", "--rho", "0.7", "--alpha1", "0.3", "--zeta", "0.7")


@pytest.mark.parametrize("method", METHODS)
def test_check_reads_the_run_config_from_the_summary(planted_instance, tmp_path, capsys, method):
    trace, config = str(tmp_path / "t.csv"), tmp_path / "off.cfg"
    # a prefixed rule reads none of those flags, but a config file may set them
    config.write_text("c = 0.5\nbeta = 0.5\nrho = 0.7\nalpha1 = 0.3\n"
                      "gamma.kind = sqrt_inverse\ngamma.zeta = 0.7\n")
    off = _OFF_DEFAULT if method == "nonmonotone" else ("--config", str(config))
    assert run_cli("run", planted_instance, "--method", method, *off,
                   "--iters", "300", "--out", trace) == 0
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    assert summary["config"]["rho"] == 0.7 and summary["config"]["gamma.zeta"] == 0.7
    capsys.readouterr()
    assert run_cli("check", trace, planted_instance) == 0
    ran = "7" if method == "nonmonotone" else "none"  # a prefixed trace has no step rows
    assert capsys.readouterr().out.splitlines()[-1] == f"audit passed ({ran} of 10 checks ran)"


def test_check_bends_of_an_off_default_run_still_fail(planted_instance, tmp_path, capsys):
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, *_OFF_DEFAULT, "--iters", "300",
                   "--out", trace) == 0
    clean = Path(trace).read_text()
    for col, bend in ((1, lambda f: f + 1.0), (3, lambda a: a * 1.002)):  # f, alpha
        _tamper(trace, 40, col, bend)
        capsys.readouterr()
        assert run_cli("check", trace, planted_instance) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "audit FAILED (7 of 10 checks ran)"
        with open(trace, "w") as fh:
            fh.write(clean)


# the step_upper_bound of a --c 0.05 run is checked against c = 0.05, not 1
def test_check_of_a_small_c_run_tests_the_run_c(planted_instance, tmp_path):
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, "--c", "0.05", "--iters", "300",
                   "--out", trace) == 0
    flagless, flagged = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run_cli("check", trace, planted_instance, "--out", flagless) == 0
    assert run_cli("check", trace, planted_instance, "--c", "0.05", "--out", flagged) == 0
    assert Path(flagless).read_bytes() == Path(flagged).read_bytes()


# rho <= 1/2: the step lower bound needs only theta, so check tests it on the
# instance's L, and each rate check is skipped for the non-positive Gamma
_RATE_CHECKS = ("rate_general", "rate_sqrt_log", "rate_tail", "rate_compact",
                "rate_strongly_convex")


def test_check_of_a_small_rho_run_tests_the_step_lower_bound(tmp_path, capsys):
    inst, trace, report = (str(tmp_path / name) for name in ("inst.json", "t.csv", "a.json"))
    assert run_cli("gen", "maxaffine", "--n", "5", "--m", "30", "--planted", "--seed", "3",
                   "--out", inst) == 0
    with pytest.warns(TheoryRegimeWarning):
        assert run_cli("run", inst, "--rho", "0.4", "--iters", "50", "--out", trace) == 0
    capsys.readouterr()
    assert run_cli("check", trace, inst, "--out", report) == 0
    out = capsys.readouterr().out
    assert "step_lower_bound: passed" in out
    assert "no Lipschitz constant supplied" not in out
    for name in _RATE_CHECKS:
        assert (f"{name}: skipped [rho <= 1/2 leaves Gamma = theta*(2beta - beta/rho) "
                "non-positive]") in out
    assert out.splitlines()[-1] == "audit passed (4 of 10 checks ran)"
    lower = next(ch for ch in json.loads(Path(report).read_text())["checks"]
                 if ch["name"] == "step_lower_bound")
    assert lower["worst_violation"] < 0.0
    # an alpha cell scaled by 1e-6 falls below the bound at its row
    _tamper(trace, 20, 3, lambda a: a * 1e-6)
    assert run_cli("check", trace, inst) == 1
    out = capsys.readouterr().out
    assert "step_lower_bound: failed (worst at k=20)" in out
    assert out.splitlines()[-1] == "audit FAILED (4 of 10 checks ran)"


def test_check_without_a_summary_takes_the_flags_given(planted_instance, tmp_path, capsys):
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, "--beta", "0.5", "--rho", "0.7", "--iters", "300",
                   "--out", trace) == 0
    os.remove(tmp_path / "t.summary.json")
    capsys.readouterr()
    assert run_cli("check", trace, planted_instance) == 1  # the defaults beta = 0.9, rho = 0.8
    assert "consistency: failed" in capsys.readouterr().out
    assert run_cli("check", trace, planted_instance, "--beta", "0.5", "--rho", "0.7") == 0


@pytest.mark.parametrize("text, named", [
    ('{"config": {"rho": 0.7},}', "not valid JSON"),
    ("[]", "must be a JSON object, got list"),
    ('{"config": []}', "config must be a JSON object, got list"),
    ('{"config": {"rho": "x"}}', "config field 'rho'"),
], ids=["invalid_json", "non_object", "config_list", "config_field"])
def test_check_malformed_summary_is_exit_2(planted_instance, tmp_path, capsys, text, named):
    trace, summary = str(tmp_path / "t.csv"), tmp_path / "t.summary.json"
    assert run_cli("run", planted_instance, "--iters", "50", "--out", trace) == 0
    summary.write_text(text)
    capsys.readouterr()
    report = tmp_path / "audit.json"
    line = _assert_usage_error(run_cli("check", trace, planted_instance, "--out", str(report)),
                               capsys)
    assert repr(str(summary)) in line and named in line, line
    assert not report.exists()


# a failed check prints its detail, and the audit decides an inf cell
# without a numpy warning (pytest turns RuntimeWarning into an error)
def test_check_names_why_a_check_failed(planted_instance, tmp_path, capsys):
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, "--iters", "100", "--out", trace) == 0
    _tamper(trace, 42, 6, lambda s: math.inf)  # snorm
    capsys.readouterr()
    assert run_cli("check", trace, planted_instance) == 1
    captured = capsys.readouterr()
    assert "sufficient_decrease: failed (worst at k=42) [non-finite comparison]\n" in captured.out
    assert captured.err == ""


# exit 1 means a failed audit, so an invalid solver flag is a usage error
@pytest.mark.parametrize("flags, named", [
    (["--rho", "0"], "rho"),
    (["--rho", "nan"], "rho"),
    (["--rho", "1.5"], "rho"),
    (["--rho", "0.3", "--beta", "2"], "beta"),
], ids=["rho_zero", "rho_nan", "rho_above_one", "beta_two"])
def test_check_invalid_solver_flag_is_exit_2(planted_instance, tmp_path, capsys, flags, named):
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, "--zeta", "0.5", "--iters", "50",
                   "--out", trace) == 0
    capsys.readouterr()
    report = tmp_path / "audit.json"
    rc = run_cli("check", trace, planted_instance, *flags, "--out", str(report))
    assert named in _assert_usage_error(rc, capsys)
    assert not report.exists()


# ----- bench -----


def _small_plan(tmp_path, problem="maxaffine"):
    shape = {"spread": 0.05, "active_scale": 2.0} if problem == "maxaffine" else {}
    plan = {
        "problem": problem,
        "methods": ["nonmonotone", "sqrsum"],
        "solver": {"c": 1.0, "beta": 0.9, "rho": 0.8, "alpha1": 0.1},
        "step_constants": {"sqrsum": 0.5},
        "configs": [
            {"n": 2, "m": 10, "zeta": 0.5, "iters": 80, "seeds": [0, 1], **shape},
        ],
        "out_dir": str(tmp_path / "out"),
    }
    path = str(tmp_path / "plan.json")
    with open(path, "w") as fh:
        json.dump(plan, fh)
    return path


def test_bench_writes_expected_csv(tmp_path, capsys):
    plan = _small_plan(tmp_path)
    assert run_cli("bench", plan) == 0
    csv_path = tmp_path / "out" / "bench_maxaffine_n2_m10.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "method,seed,gap,it_best,status"
    # 2 methods x (2 seeds + 1 median row)
    assert len(lines) == 1 + 2 * 3
    assert sum(1 for ln in lines if ",median," in ln) == 2


def test_bench_reruns_byte_identical(tmp_path):
    plan = _small_plan(tmp_path)
    assert run_cli("bench", plan) == 0
    csv_path = tmp_path / "out" / "bench_maxaffine_n2_m10.csv"
    first = csv_path.read_bytes()
    assert run_cli("bench", plan) == 0
    assert csv_path.read_bytes() == first


def _plan_with(tmp_path, problem="maxaffine", config=(), **fields):
    """_small_plan's file with fields set in the plan and config's items in
    its one config entry."""
    path = _small_plan(tmp_path, problem)
    with open(path) as fh:
        plan = json.load(fh)
    plan["configs"][0].update(config)
    plan.update(fields)
    with open(path, "w") as fh:
        json.dump(plan, fh)
    return path


# the seeds share one problem: the file is read, its reference value solved
# and each method run once for both seeds
def test_bench_anchor_file_gives_every_seed_the_same_rows(tmp_path, monkeypatch):
    csv = tmp_path / "anchors.csv"
    csv.write_text("lat,lon\n" + "".join(f"{3 * i % 7},{i * i % 5}\n" for i in range(10)))
    calls = Counter()
    for name in ("read_anchor_csv", "weiszfeld", "_solve"):
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    assert run_cli("bench", _plan_with(tmp_path, "fermatweber",
                                       config={"anchors_csv": str(csv)})) == 0
    assert calls == {"read_anchor_csv": 1, "weiszfeld": 1, "_solve": 2}
    lines = (tmp_path / "out" / "bench_fermatweber_n2_m10.csv").read_text().splitlines()
    for method in ("nonmonotone", "sqrsum"):
        rows = [line.split(",")[2:] for line in lines
                if line.startswith(method + ",") and ",median," not in line]
        assert len(rows) == 2 and rows[0] == rows[1], method


@pytest.mark.parametrize("fields, named", [
    ({"problem": "nosuch"}, "unknown problem kind 'nosuch'"),
    ({"methods": ["nonmonotone", "bogus"]}, "unknown method 'bogus'"),
    ({"out_dir": None}, "no output directory"),
    ({"configs": []}, "plan has no configs"),
    ({"config": {"seeds": []}}, "'configs'[0] has an empty seed list"),
], ids=["problem", "method", "no_out_dir", "no_configs", "no_seeds"])
def test_bench_plan_without_work_is_exit_2(tmp_path, capsys, monkeypatch, fields, named):
    path = _plan_with(tmp_path, **fields)
    monkeypatch.chdir(tmp_path)  # where anything written without out_dir would land
    before = sorted(os.listdir(tmp_path))
    assert named in _assert_usage_error(run_cli("bench", path), capsys)
    assert sorted(os.listdir(tmp_path)) == before


def test_bench_missing_plan_is_exit_2(tmp_path):
    assert run_cli("bench", str(tmp_path / "none.json")) == 2


# ----- argument plumbing -----


def test_unknown_subcommand_is_exit_2():
    assert run_cli("frobnicate") == 2


def test_no_arguments_is_exit_2():
    assert run_cli() == 2


def test_module_runs_as_a_script(tmp_path):
    src = os.path.dirname(os.path.dirname(nmsubgrad.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "inst.json"
    for argv, code in ((["--n", "2"], 0), (["--n", "0"], 2)):
        proc = subprocess.run(
            [sys.executable, "-m", "nmsubgrad.cli", "gen", "maxaffine", *argv, "--m", "4",
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
    assert json.loads(out.read_text())["type"] == "maxaffine"


# ----- malformed input files: one error line, exit 2 -----


def _assert_usage_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def test_run_instance_without_matrix_is_exit_2(planted_instance, tmp_path, capsys):
    with open(planted_instance) as fh:
        obj = json.load(fh)
    del obj["A"]
    path = tmp_path / "no_a.json"
    path.write_text(json.dumps(obj))
    rc = run_cli("run", str(path), "--out", str(tmp_path / "t.csv"))
    assert "'A'" in _assert_usage_error(rc, capsys)


def test_run_instance_that_is_a_list_is_exit_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    rc = run_cli("run", str(path), "--out", str(tmp_path / "t.csv"))
    _assert_usage_error(rc, capsys)


def test_bench_plan_that_is_a_list_is_exit_2(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text("[]")
    rc = run_cli("bench", str(path), "--out-dir", str(tmp_path / "out"))
    _assert_usage_error(rc, capsys)


# JSON nested deeper than the parser can recurse, in the file each command reads
@pytest.mark.parametrize("command, named", [
    ("run", "instance"),
    ("run --config", "config"),
    ("bench", "plan"),
], ids=["run_instance", "run_config", "bench_plan"])
def test_deeply_nested_json_is_exit_2(planted_instance, tmp_path, capsys, command, named):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    before = sorted(os.listdir(tmp_path))
    out = str(tmp_path / "out")
    argv = {
        "run": ["run", str(deep), "--out", out],
        "run --config": ["run", planted_instance, "--config", str(deep), "--out", out],
        "bench": ["bench", str(deep), "--out-dir", out],
    }[command]
    line = _assert_usage_error(run_cli(*argv), capsys)
    assert named in line and "nested too deeply" in line
    assert sorted(os.listdir(tmp_path)) == before


# a JSON syntax error (a trailing comma) in the file each command reads: the
# one error line names the file and keeps the parser's position
@pytest.mark.parametrize("command, text", [
    ("run", '{"type": "maxaffine",}'),
    ("run --config", '{"rho": 0.7,}'),
    ("bench", '{"configs": [],}'),
], ids=["run_instance", "run_config", "bench_plan"])
def test_json_syntax_error_names_the_file(planted_instance, tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    before = sorted(os.listdir(tmp_path))
    out = str(tmp_path / "out")
    argv = {
        "run": ["run", str(bad), "--out", out],
        "run --config": ["run", planted_instance, "--config", str(bad), "--out", out],
        "bench": ["bench", str(bad), "--out-dir", out],
    }[command]
    line = _assert_usage_error(run_cli(*argv), capsys)
    assert repr(str(bad)) in line and "not valid JSON" in line
    assert f"line 1 column {len(text)}" in line, line
    assert sorted(os.listdir(tmp_path)) == before


# a budget too large to allocate is bad input like any other: one error line,
# exit 2 and nothing written (nonmonotone only: a prefixed run allocates
# nothing up front, so it grows its rows until memory runs out)
_HUGE_ITERS = 10**15


def test_run_budget_too_large_to_allocate_is_exit_2(planted_instance, tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = run_cli("run", planted_instance, "--iters", str(_HUGE_ITERS), "--out", str(out))
    assert "allocate" in _assert_usage_error(rc, capsys)
    assert not out.exists() and not (tmp_path / "t.summary.json").exists()


def test_bench_budget_too_large_to_allocate_is_exit_2(tmp_path, capsys):
    path = _small_plan(tmp_path)
    with open(path) as fh:
        plan = json.load(fh)
    plan["methods"] = ["nonmonotone"]
    plan["configs"][0]["iters"] = _HUGE_ITERS
    with open(path, "w") as fh:
        json.dump(plan, fh)
    assert "allocate" in _assert_usage_error(run_cli("bench", path), capsys)
    assert not os.path.exists(tmp_path / "out")


# the cases whose plan is the Fermat-Weber one (n = 2, m = 10): a max-affine
# shape key, an anchors file that does not exist, anchors files of 3 columns
# and of 3 rows, and a config giving a well-shaped anchors file an
# anchor_scale, whose files the test writes; every other case uses the
# max-affine plan
_SCALED_ANCHORS = [{"n": 2, "m": 10, "iters": 80, "seeds": [0], "anchor_scale": 2.0,
                    "anchors_csv": "ten_rows.csv"}]
_FERMATWEBER_CASES = (("spread", 0.5), ("anchors_csv", "no_such_anchors.csv"),
                      ("anchors_csv", "three_columns.csv"), ("anchors_csv", "three_rows.csv"),
                      ("configs", _SCALED_ANCHORS))
_ANCHOR_FILES = {"three_columns.csv": (10, 3), "three_rows.csv": (3, 2), "ten_rows.csv": (10, 2)}
_CONFIG_FIELDS = ("seeds", "sigm", "spread", "anchor_scale", "anchors_csv", "n", "active")


# the fields in _CONFIG_FIELDS go into the first config, every other field
# into the plan; the error names the field and, for an object, each of its keys
@pytest.mark.parametrize("field, value", [
    ("solver", [1]),
    ("step_constants", [1]),
    ("configs", [[1, 2]]),
    ("seeds", 3),
    ("methods", "nonmonotone"),
    ("solver", {"max_iters": 5}),
    ("step_constants", {"sqrsumm": 9.0}),
    ("method", "nonmonotone"),
    ("sigm", 0.5),
    ("step_constants", {"sqrsum": -1}),
    ("solver", {"rh0": 0.3}),
    ("spread", "x"),
    ("anchor_scale", 3.0),
    ("spread", 0.5),
    ("anchors_csv", "no_such_anchors.csv"),
    ("n", 2.9),
    ("n", True),
    ("seeds", [True]),
    ("active", 100),
    ("step_constants", {"sqrsum": "0.5"}),
    ("anchors_csv", "three_columns.csv"),
    ("anchors_csv", "three_rows.csv"),
    ("configs", _SCALED_ANCHORS),
])
def test_bench_malformed_plan_is_exit_2(tmp_path, capsys, monkeypatch, field, value):
    fermatweber = (field, value) in _FERMATWEBER_CASES
    path = _small_plan(tmp_path, "fermatweber" if fermatweber else "maxaffine")
    monkeypatch.chdir(tmp_path)  # where a relative anchors file is looked up
    for name, (rows, cols) in _ANCHOR_FILES.items():
        (tmp_path / name).write_text("".join(
            ",".join(str(i + j) for j in range(cols)) + "\n" for i in range(rows)))
    with open(path) as fh:
        plan = json.load(fh)
    if field in _CONFIG_FIELDS:
        plan["configs"][0][field] = value
    else:
        plan[field] = value
    with open(path, "w") as fh:
        json.dump(plan, fh)
    rc = run_cli("bench", path)
    line = _assert_usage_error(rc, capsys)
    assert repr(field) in line
    if isinstance(value, dict):
        assert all(repr(key) in line for key in value), line
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("text, named", [
    ("[0.5, 0.9]", "list"),
    ('{"gamma.kind": "power_inverse"}', "'gamma.zeta'"),
    ('{"rho": 0.7, "max_iter": 5}', "'max_iter'"),
    ("rho = 0.7\nrh0 = 0.3\n", "'rh0'"),
    ('{"max_iters": 2.5}', "'max_iters'"),
    ('{"max_iters": true}', "'max_iters'"),
], ids=["list", "missing_field", "unknown_json_field", "unknown_keyvalue_field",
        "max_iters_float", "max_iters_bool"])
def test_run_malformed_config_is_exit_2(planted_instance, tmp_path, capsys, text, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    rc = run_cli("run", planted_instance, "--config", str(cfg_path),
                 "--out", str(tmp_path / "t.csv"))
    assert named in _assert_usage_error(rc, capsys)
    assert not os.path.exists(tmp_path / "t.csv")


def test_run_config_json_syntax_error_is_reported_as_json(planted_instance, tmp_path, capsys):
    # a trailing comma: the JSON error and its position, not a key=value error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"rho": 0.7,\n "c": 1.0,}\n')
    rc = run_cli("run", planted_instance, "--config", str(cfg_path),
                 "--out", str(tmp_path / "t.csv"))
    line = _assert_usage_error(rc, capsys)
    assert "line 2 column 11" in line and "key = value" not in line, line
    assert not os.path.exists(tmp_path / "t.csv")


def test_run_config_keyvalue_text_is_read(planted_instance, tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("\n# solver settings\nmax_iters = 7\nrho = 0.7\n")
    trace = tmp_path / "t.csv"
    assert run_cli("run", planted_instance, "--config", str(cfg_path),
                   "--out", str(trace)) == 0
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    assert summary["n_rows"] == 8


@pytest.mark.parametrize("cset, named", [
    ([], "set"),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": [1]}, "radius"),
    ({"kind": "box", "lo": {}, "hi": [1.0, 1.0]}, "'lo'"),
    ({"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
     "Ball field 'center' has length 3, but the instance has n = 2"),
    ({"kind": "box", "lo": [-1.0], "hi": [1.0]},
     "Box field 'lo' has length 1, but the instance has n = 2"),
], ids=["set_not_object", "ball_radius_list", "box_lo_object", "ball_wrong_dimension",
        "box_wrong_dimension"])
def test_run_malformed_set_is_exit_2(planted_instance, tmp_path, capsys, cset, named):
    with open(planted_instance) as fh:
        obj = json.load(fh)
    obj["set"] = cset
    path = tmp_path / "bad_set.json"
    path.write_text(json.dumps(obj))
    rc = run_cli("run", str(path), "--out", str(tmp_path / "t.csv"))
    assert named in _assert_usage_error(rc, capsys)
    assert not os.path.exists(tmp_path / "t.csv")


# each case updates the planted max-affine instance's fields; a case that
# changes the type keeps only the instance's set, since the reader rejects
# the max-affine fields as unknown to a Fermat-Weber instance
@pytest.mark.parametrize("fields, named", [
    ({"A": {}}, "'A'"),
    ({"A": [[10**400, 0.0]] * 10}, "'A'"),
    ({"type": "fermatweber", "anchors": "x", "weights": [1.0, 1.0]}, "'anchors'"),
    ({"sigma": "0.5"}, "'sigma'"),
    ({"type": "fermatweber", "anchors": [[]], "weights": [1.0]}, "anchors must be a non-empty"),
    ({"A": [["1.5", True]], "b": ["0"], "x_star": None, "f_star": None}, "'A'"),
    ({"sigam": 0.5}, "'sigam'"),
], ids=["matrix_object", "matrix_huge_int", "anchors_string", "sigma_string",
        "anchors_zero_width", "matrix_string_and_bool", "unknown_field"])
def test_run_malformed_instance_field_is_exit_2(planted_instance, tmp_path, capsys,
                                                fields, named):
    with open(planted_instance) as fh:
        obj = json.load(fh)
    if "type" in fields:
        obj = {"set": obj["set"]}
    obj.update(fields)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    rc = run_cli("run", str(path), "--out", str(tmp_path / "t.csv"))
    assert named in _assert_usage_error(rc, capsys)
    assert not os.path.exists(tmp_path / "t.csv")


# ----- bench plan fuzzing -----

# JSON-shaped values whose numbers stay small, so that a plan the reader
# accepts solves in moments and allocates little
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(-10.0, 10.0)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf")]) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
_PLAN_VALUES = (_SMALL_JSON | st.lists(st.integers(-1, 4), max_size=3)
                | st.sampled_from(["maxaffine", "fermatweber", "nonmonotone", "sqrsum"]))
_BASE_PLANS = [
    {"problem": "maxaffine", "methods": ["nonmonotone", "sqrsum"],
     "solver": {"rho": 0.8}, "step_constants": {"constant": 0.2},
     "configs": [{"n": 2, "m": 4, "iters": 3, "seeds": [0], "zeta": 0.5, "spread": 0.1}]},
    {"problem": "fermatweber", "methods": ["nonmonotone", "constant"],
     "configs": [{"n": 2, "m": 3, "iters": 3, "seeds": [0, 1], "anchor_scale": 2.0}]},
]
_PLAN_KEYS = ["problem", "methods", "solver", "step_constants", "configs", "method",
              "solver.rho", "solver.max_iters", "step_constants.sqrsum",
              "step_constants.sqrsumm"]
_ENTRY_KEYS = ["n", "m", "iters", "seeds", "zeta", "spread", "sigma", "active_scale", "active",
               "anchor_scale", "anchors_csv", "sigm"]
_DROP = object()


@st.composite
def _mutated_plans(draw):
    """A small valid plan with up to three plan keys and three keys of its
    first config entry replaced or dropped."""
    plan = json.loads(json.dumps(draw(st.sampled_from(_BASE_PLANS))))
    for keys, target in ((_PLAN_KEYS, plan), (_ENTRY_KEYS, plan["configs"][0])):
        changes = draw(st.dictionaries(st.sampled_from(keys), _PLAN_VALUES | st.just(_DROP),
                                       max_size=3))
        for key, value in changes.items():
            obj = target
            if "." in key:
                part, key = key.split(".")
                obj = obj.get(part)
                if not isinstance(obj, dict):
                    continue
            if value is _DROP:
                obj.pop(key, None)
            else:
                obj[key] = value
    return plan


@pytest.mark.filterwarnings("ignore::nmsubgrad.core.TheoryRegimeWarning")
@settings(max_examples=150, deadline=None)
@given(_mutated_plans() | _SMALL_JSON)
@example({"problem": "maxaffine",
          "configs": [{"n": 2.9, "m": 4, "iters": 3, "seeds": [0]}]})
@example({"problem": "maxaffine",
          "configs": [{"n": True, "m": 4, "iters": 3, "seeds": [True]}]})
@example({"problem": "maxaffine",
          "configs": [{"n": 2, "m": 4, "iters": 3, "seeds": [0], "active": 100}]})
@example({"problem": "fermatweber",
          "configs": [{"n": -1, "m": 3, "iters": 3, "seeds": [0]}]})
@example({"problem": "maxaffine",
          "configs": [{"n": 2, "m": 4, "iters": 3, "seeds": [-1]}]})
@example({"problem": ["maxaffine"], "configs": []})
def test_bench_plan_is_run_or_one_error_line(plan):
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = os.path.join(tmp, "plan.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(plan, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run_cli("bench", path, "--out-dir", out_dir)
        if rc == 0:
            return
        lines = err.getvalue().strip().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        assert not os.path.exists(out_dir)


# ----- rho <= 1/2: one warning per command -----


def test_small_rho_warns_once_per_command(planted_instance, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"rho": 0.4}')
    plan = _small_plan(tmp_path)
    with open(plan) as fh:
        obj = json.load(fh)
    obj["solver"]["rho"] = 0.4
    with open(plan, "w") as fh:
        json.dump(obj, fh)
    commands = (
        ["run", planted_instance, "--config", str(cfg_path), "--iters", "20",
         "--out", str(tmp_path / "t.csv")],
        ["bench", plan],
    )
    for argv in commands:
        # the default action prints a warning once per place that raises it
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("default")
            assert run_cli(*argv) == 0
        assert [w.category for w in seen] == [TheoryRegimeWarning], argv[0]
