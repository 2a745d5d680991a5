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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmsubgrad
from nmsubgrad import TheoryRegimeWarning
from nmsubgrad import cli
from nmsubgrad.cli import METHODS, main


def run_cli(*argv):
    return main(list(argv))


_SRC = os.path.dirname(os.path.dirname(nmsubgrad.__file__))


def _src_env():
    """The environment with the imported package's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


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


# a plant 1e300 from the origin, or anchors scaled by 1e308, overflow the
# builder's arithmetic; the instance's finite check then prints the one error
# line, and numpy's warnings stay silent (pytest makes them errors)
def test_gen_overflowing_plant_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = run_cli("gen", "maxaffine", "--n", "2", "--m", "4", "--planted",
                 "--spread", "1e300", "--out", str(out))
    assert "A and b must be finite" in _assert_usage_error(rc, capsys)
    assert not out.exists()
    rc = run_cli("gen", "fermatweber", "--scale", "1e308", "--out", str(out))
    assert "anchors must be finite" in _assert_usage_error(rc, capsys)
    assert not out.exists()


# f* is certified once, where the instance is made: a plant whose large
# active gradients round f(x*) away from f* fails in gen, and a file whose f*
# was bent fails where check loads it
def test_inconsistent_planted_f_star_is_exit_2(planted_instance, tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = run_cli("gen", "maxaffine", "--n", "2", "--m", "4", "--planted", "--seed", "0",
                 "--active-scale", "1e6", "--out", str(out))
    assert "planted value mismatch" in _assert_usage_error(rc, capsys)
    assert not out.exists()
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, "--iters", "20", "--out", trace) == 0
    capsys.readouterr()
    obj = json.loads(Path(planted_instance).read_text())
    obj["f_star"] += 1.0
    bent = tmp_path / "bent.json"
    bent.write_text(json.dumps(obj))
    rc = run_cli("check", trace, str(bent))
    assert "planted value mismatch" in _assert_usage_error(rc, capsys)


def test_bench_overflowing_plant_is_one_error_line(tmp_path, capsys):
    path = _plan_with(tmp_path, config={"spread": 1e308})
    assert "A and b must be finite" in _assert_usage_error(run_cli("bench", path), capsys)
    assert not os.path.exists(tmp_path / "out")
    path = _plan_with(tmp_path, "fermatweber", config={"anchor_scale": 1e308})
    assert "anchors must be finite" in _assert_usage_error(run_cli("bench", path), capsys)
    assert not os.path.exists(tmp_path / "out")


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
    assert summary["version"] == nmsubgrad.__version__ and "rule" not in summary


# the summary names the rule at the constant that ran: the method's default,
# or --step-const
def test_run_every_prefixed_method(planted_instance, tmp_path):
    defaults = {"constant": 0.1, "fixedlength": 0.2, "nonsum": 0.1, "sqrsum": 0.5}
    for method, const in [(m, c) for m in defaults for c in (None, 0.3)]:
        flags = () if const is None else ("--step-const", str(const))
        trace = str(tmp_path / f"{method}.csv")
        assert run_cli("run", planted_instance, "--method", method, *flags,
                       "--iters", "60", "--out", trace) == 0
        summary = json.loads((tmp_path / f"{method}.summary.json").read_text())
        assert summary["method"] == method
        a = defaults[method] if const is None else const
        assert summary["rule"] == {"kind": method, "a": a}
        assert summary["version"] == nmsubgrad.__version__


def test_run_config_file_with_flag_override(planted_instance, tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"c": 1.0, "beta": 0.9, "rho": 0.8, "alpha1": 0.1,
                   "gamma.kind": "sqrt_inverse", "gamma.zeta": 2.0,
                   "max_iters": 30, "backtrack_cap": 400, "seed": 0}, fh)
    trace = str(tmp_path / "t.csv")
    assert run_cli("run", planted_instance, "--config", cfg_path, "--out", trace) == 0
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    assert summary["n_rows"] == 31
    # --iters overrides the file's max_iters
    rc = run_cli("run", planted_instance, "--config", cfg_path,
                 "--iters", "55", "--out", trace)
    assert rc == 0
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    assert summary["n_rows"] == 56


# a slack sequence starts finite: a harmonic gamma_1 = 2/(sigma*beta*big_theta)
# that overflows is refused at input; run with gamma_1 = +inf, this config's
# row 1 would fail check's step_lower_bound, whose premise needs a finite gamma
def test_run_harmonic_config_whose_gamma_1_overflows_is_exit_2(tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    assert run_cli("gen", "maxaffine", "--n", "2", "--m", "4", "--planted", "--seed", "3",
                   "--out", inst) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gamma.kind": "strongly_convex_harmonic", "gamma.sigma": 1e-320, '
                   '"gamma.beta": 0.9, "gamma.big_theta": 0.5, "alpha1": 1e308, '
                   '"max_iters": 30}')
    capsys.readouterr()
    rc = run_cli("run", inst, "--config", str(cfg), "--out", str(tmp_path / "t.csv"))
    assert _assert_usage_error(rc, capsys) == (
        "error: gamma_1 = 2/(sigma*beta*big_theta) must be positive and finite, "
        "got sigma*beta*big_theta = 4.5e-321")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "inst.json"]


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


# a write that fails names the file asked for, not its temp file, and leaves
# no temp file behind: a directory in the way fails the rename, a missing
# directory the open
def test_run_failed_write_names_out_and_leaves_no_temp_file(planted_instance, tmp_path,
                                                            capsys):
    adir = tmp_path / "adir"
    adir.mkdir()
    for out, why in ((adir, "[Errno 21] Is a directory"),
                     (tmp_path / "nowhere" / "t.csv", "[Errno 2] No such file or directory")):
        capsys.readouterr()
        assert run_cli("run", planted_instance, "--iters", "5", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {why}: {str(out)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "inst.json"]
    assert list(adir.iterdir()) == []


# run writes the trace and its summary both or neither: a directory in the
# place of either fails the write, which names it and leaves no new file and
# no temp file
@pytest.mark.parametrize("blocked", ["t.csv", "t.summary.json"])
def test_run_writes_both_files_or_neither(planted_instance, tmp_path, capsys, blocked):
    (tmp_path / blocked).mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    rc = run_cli("run", planted_instance, "--iters", "5", "--out", str(tmp_path / "t.csv"))
    line = _assert_usage_error(rc, capsys)
    assert line == f"error: [Errno 21] Is a directory: {str(tmp_path / blocked)!r}"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert list((tmp_path / blocked).iterdir()) == []


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
    rep = nmsubgrad.read_trace_csv(trace)
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


@pytest.fixture(scope="module")
def tamper_trace(tmp_path_factory):
    """(instance, trace) of a default 200-iteration run of gen maxaffine --n 2
    --m 4 --planted --seed 3: 200 step rows and the landed row 201."""
    d = tmp_path_factory.mktemp("tamper")
    inst, trace = str(d / "inst.json"), str(d / "t.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("gen", "maxaffine", "--n", "2", "--m", "4", "--planted", "--seed", "3",
                       "--out", inst) == 0
        assert run_cli("run", inst, "--iters", "200", "--out", trace) == 0
    return inst, trace


def _check_bent_copy(tamper_trace, tmp_path, rows, bends):
    """check's exit code on a copy of the trace, beside a copy of its summary,
    whose column col holds bend(cell) in each of rows, for each col, bend in
    bends."""
    inst, trace = tamper_trace
    lines = Path(trace).read_text().splitlines()
    header = lines[0].split(",")
    for row in rows:
        cells = lines[row].split(",")
        for col, bend in bends.items():
            i = header.index(col)
            cells[i] = bend(cells[i])
        lines[row] = ",".join(cells)
    (tmp_path / "b.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "b.summary.json").write_text(Path(trace).with_suffix(".summary.json").read_text())
    return run_cli("check", str(tmp_path / "b.csv"), inst)


# single-cell edits that keep every inequality but break the trace layout;
# the failure names the row's position, whatever its k cell says
@pytest.mark.parametrize("row, col, cell, why", [
    (50, "k", "7", "row whose k is not its position"),
    (201, "ell", "3", "landed row with ell != 0"),
    (120, "snorm", "0.0", "step row with snorm not > 0"),
    (120, "snorm", "nan", "step row with snorm not > 0"),
    (120, "ell", "-100000", "step row with ell < 1"),
], ids=["k", "landed_ell", "step_snorm_zero", "step_snorm_nan", "step_ell_far_below_1"])
def test_check_catches_a_break_of_the_trace_layout(tamper_trace, tmp_path, capsys, row, col,
                                                   cell, why):
    capsys.readouterr()
    assert _check_bent_copy(tamper_trace, tmp_path, [row], {col: lambda _: cell}) == 1
    out = capsys.readouterr().out
    assert f"consistency: failed (worst at k={row}) [{why}]" in out
    assert out.splitlines()[-1] == "audit FAILED (7 of 10 checks ran)"


# every column of tamper_trace bent up and down at the first, a middle and
# the landed row: an int by 1, a float by half its size (0.5 at 0), so a
# lowered positive cell stays in (0, true value]. check catches every edit
# but these, which no law over the CSV's columns reaches yet
_TAMPER_ROWS = {"first": 1, "middle": 100, "landed": 201}
_TAMPER_EDITS = [f"{col}-{row}-{way}" for col in ("k", "f", "fbest_gap", "alpha", "ell", "gamma",
                                                  "snorm")
                 for row in _TAMPER_ROWS for way in ("up", "down")]
_UNCAUGHT = {
    # a step row's snorm lowered within (0, true value] eases the decrease
    # bound, and row 1's slack covers a raised one
    "snorm-first-up", "snorm-first-down", "snorm-middle-down",
    # nothing reads the landed row's snorm
    "snorm-landed-up", "snorm-landed-down",
}
# these lower f below the run's best, so the copy's summary states an f_best
# and an it_best that the bent trace does not show: exit 2, before any audit
_SUMMARY_REFUSED = {"f-middle-down", "f-landed-down"}


@pytest.mark.parametrize("edit", _TAMPER_EDITS)
def test_check_tamper_matrix(tamper_trace, tmp_path, edit):
    col, row, way = edit.split("-")
    sign = 1 if way == "up" else -1

    def bend(cell):
        if col in ("k", "ell"):
            return str(int(cell) + sign)
        return repr(float(cell) + sign * (abs(float(cell)) / 2 or 0.5))

    rc = _check_bent_copy(tamper_trace, tmp_path, [_TAMPER_ROWS[row]], {col: bend})
    assert rc == (0 if edit in _UNCAUGHT else 2 if edit in _SUMMARY_REFUSED else 1)


# run writes fbest_gap only when f* is known, so a gap column beside a
# Fermat-Weber instance, which has no f*, fails whatever its cells hold
def test_check_catches_a_gap_column_without_f_star(tmp_path, capsys):
    inst, trace = str(tmp_path / "fw.json"), str(tmp_path / "fw.csv")
    assert run_cli("gen", "fermatweber", "--seed", "1", "--out", inst) == 0
    assert run_cli("run", inst, "--iters", "50", "--out", trace) == 0
    capsys.readouterr()
    assert run_cli("check", trace, inst) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "audit passed (4 of 10 checks ran)"
    lines = Path(trace).read_text().splitlines()
    assert lines[0] == "k,f,alpha,ell,gamma,snorm"
    rows = [ln.split(",") for ln in lines[1:]]
    bent = ["k,f,fbest_gap,alpha,ell,gamma,snorm", *(",".join([*r[:2], "-7.5", *r[2:]])
                                                     for r in rows)]
    Path(trace).write_text("\n".join(bent) + "\n")
    assert run_cli("check", trace, inst) == 1
    out = capsys.readouterr().out
    assert "consistency: failed (worst at k=1)" in out
    assert out.splitlines()[-1] == "audit FAILED (4 of 10 checks ran)"


_NO_STEP_ROWS = "skipped [no line-search rows (prefixed-step trace or single-iterate run)]"


# whole columns of tamper_trace rewritten: a prefixed trace carries both ell
# = 0 on every row and gamma NaN on every row, so one of them alone fails;
# both together fail too, since the summary beside the copy says nonmonotone
@pytest.mark.parametrize("cols, rc, first_line", [
    ({"ell": "0"}, 1, "consistency: failed (worst at k=1) [step row with ell < 1]"),
    ({"gamma": "nan"}, 1, "consistency: failed (worst at k=1) [non-finite comparison]"),
    ({"ell": "0", "gamma": "nan"}, 1, "consistency: failed (worst at k=1) [step row with ell < 1]"),
], ids=["ell-zeroed", "gamma-nan", "both-summary-nonmonotone"])
def test_check_whole_column_edits(tamper_trace, tmp_path, capsys, cols, rc, first_line):
    bends = {col: lambda _, cell=cell: cell for col, cell in cols.items()}
    capsys.readouterr()
    assert _check_bent_copy(tamper_trace, tmp_path, range(1, 202), bends) == rc
    assert capsys.readouterr().out.splitlines()[0] == first_line


# the same two-column edit reads as prefixed only under a summary that names
# a prefixed method: without a summary, or without its "method" (or with it
# null), the trace is audited as run's default method, as a missing config
# is the default config, and fails that method's layout
@pytest.mark.parametrize("summary", ["absent", "no-method", "null-method", "constant"])
def test_two_column_edit_reads_as_prefixed_only_under_a_prefixed_method(
        tamper_trace, tmp_path, capsys, summary):
    bends = {"ell": lambda _: "0", "gamma": lambda _: "nan"}
    assert _check_bent_copy(tamper_trace, tmp_path, range(1, 202), bends) == 1
    spath = tmp_path / "b.summary.json"
    obj = json.loads(spath.read_text())
    assert obj["method"] == "nonmonotone"
    if summary == "absent":
        spath.unlink()
    elif summary == "no-method":
        del obj["method"]
        spath.write_text(json.dumps(obj))
    elif summary == "null-method":  # null means absent, as in every other field
        spath.write_text(json.dumps(dict(obj, method=None)))
    else:
        spath.write_text(json.dumps(dict(obj, method=summary)))
    capsys.readouterr()
    prefixed = summary == "constant"
    assert run_cli("check", str(tmp_path / "b.csv"), tamper_trace[0]) == (0 if prefixed else 1)
    out = capsys.readouterr().out.splitlines()
    if prefixed:
        assert out[0] == f"consistency: {_NO_STEP_ROWS}"
        assert out[-1] == "audit passed (none of 10 checks ran)"
    else:
        assert out[0] == "consistency: failed (worst at k=1) [step row with ell < 1]"
        assert out[-1] == "audit FAILED (7 of 10 checks ran)"


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


# on a Fermat-Weber ball, raw steps of length 1e308 land on the sphere, not
# at the center, and a step of size 1.7e308 sends x_2 to inf, whose
# projection and subgradient are NaN, so the run ends nonfinite_oracle, not
# zero_subgradient; neither run prints a numpy warning
@pytest.mark.parametrize("method, const, termination, n_rows", [
    ("fixedlength", "1e308", "max_iters", 6),
    ("constant", "1.7e308", "nonfinite_oracle", 2),
])
def test_prefixed_far_steps_on_a_ball(tmp_path, capsys, method, const, termination, n_rows):
    inst, trace = str(tmp_path / "fw.json"), tmp_path / "t.csv"
    assert run_cli("gen", "fermatweber", "--seed", "1", "--set", "ball", "--out", inst) == 0
    assert run_cli("run", inst, "--method", method, "--step-const", const,
                   "--iters", "5", "--out", str(trace)) == 0
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    assert (summary["termination"], summary["n_rows"]) == (termination, n_rows)
    f = [line.split(",")[1] for line in trace.read_text().splitlines()[1:]]
    assert f[0] not in f[1:]  # x_1 is the center
    assert capsys.readouterr().err == ""


# the rate bounds divide by Gamma = theta*(2beta - beta/rho), which underflows
# to 0 when beta is tiny: check of run's own output skips them with that
# reason, and a summary bent to beta = 1e-320 fails the audit, neither with a
# traceback
@pytest.mark.parametrize("summary_beta, rc, last", [
    (None, 0, "audit passed (4 of 10 checks ran)"),
    (1e-320, 1, "audit FAILED (4 of 10 checks ran)"),
])
def test_check_of_a_run_whose_gamma_underflows(tmp_path, capsys, summary_beta, rc, last):
    inst, trace = str(tmp_path / "inst.json"), str(tmp_path / "t.csv")
    assert run_cli("gen", "maxaffine", "--n", "3", "--m", "6", "--planted", "--seed", "1",
                   "--out", inst) == 0
    beta = ["--beta", "1e-300"] if summary_beta is None else []
    assert run_cli("run", inst, "--iters", "20", *beta, "--out", trace) == 0
    if summary_beta is not None:
        summary = tmp_path / "t.summary.json"
        obj = json.loads(summary.read_text())
        obj["config"]["beta"] = summary_beta
        summary.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("check", trace, inst) == rc
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == last
    assert "rate_general: skipped [effective Gamma = theta*(2beta - beta/rho) underflows to 0]" in out


# a rate bound that overflows to +inf holds while the effective theta is
# positive: a subnormal Gamma (beta = 1e-155) overflows the three x1 bounds,
# and a huge box or ball overflows rate_compact's diameter, which for a ball
# of radius 1e160 or 1e200 raised OverflowError from float pow
@pytest.mark.parametrize("gen_flags, run_flags, last", [
    ([], ["--iters", "20", "--beta", "1e-155"], "audit passed (7 of 10 checks ran)"),
    (["--set", "box", "--box-lo=-1e160", "--box-hi=1e160"], ["--iters", "50"],
     "audit passed (8 of 10 checks ran)"),
    (["--set", "box", "--box-lo=-1e308", "--box-hi=1e308"], ["--iters", "50"],
     "audit passed (8 of 10 checks ran)"),
    (["--set", "ball", "--radius", "1e308"], ["--iters", "50"], "audit passed (8 of 10 checks ran)"),
    (["--set", "ball", "--radius", "1e160"], ["--iters", "50"], "audit passed (8 of 10 checks ran)"),
    (["--set", "ball", "--radius", "1e200"], ["--iters", "50"], "audit passed (8 of 10 checks ran)"),
], ids=["beta-1e-155", "box-1e160", "box-1e308", "ball-1e308", "ball-1e160", "ball-1e200"])
def test_check_of_a_run_whose_rate_bound_overflows(tmp_path, capsys, gen_flags, run_flags, last):
    inst, trace = str(tmp_path / "inst.json"), str(tmp_path / "t.csv")
    assert run_cli("gen", "maxaffine", "--n", "3", "--m", "6", "--planted", "--seed", "1",
                   *gen_flags, "--out", inst) == 0
    assert run_cli("run", inst, *run_flags, "--out", trace) == 0
    capsys.readouterr()
    assert run_cli("check", trace, inst) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == last
    assert err == ""


# check passes run's own output at extreme constants: Gamma = 0 from a theta
# near beta*c = 1e-600 (4/Gamma raised ZeroDivisionError) or alpha_1/gamma_1 =
# 1e-600 skips the rate checks; c*gamma_k = 1e600 holds as step_upper_bound's
# bound; an overflowed kappa at N = 1 and the inf/inf rows of rate_general hold
@pytest.mark.parametrize("family, run_flags, last", [
    ("maxaffine", ["--beta", "1e-300", "--c", "1e-300"], "audit passed (4 of 10 checks ran)"),
    ("maxaffine", ["--alpha1", "1e-300", "--zeta", "1e300"], "audit passed (4 of 10 checks ran)"),
    ("fermatweber", ["--c", "1e300", "--zeta", "1e300"], "audit passed (4 of 10 checks ran)"),
    ("maxaffine", ["--c", "1e300", "--zeta", "1e300"], "audit passed (7 of 10 checks ran)"),
    ("maxaffine", ["--zeta", "1e308"], "audit passed (7 of 10 checks ran)"),
], ids=["beta-c-1e-300", "alpha1-1e-300-zeta-1e300", "fw-box-c-zeta-1e300", "c-zeta-1e300",
        "zeta-1e308"])
def test_check_of_a_run_at_extreme_constants(tmp_path, capsys, family, run_flags, last):
    inst, trace = str(tmp_path / "inst.json"), str(tmp_path / "t.csv")
    gen = (["--n", "3", "--m", "6", "--planted"] if family == "maxaffine"
           else ["--set", "box"])
    assert run_cli("gen", family, *gen, "--seed", "1", "--out", inst) == 0
    assert run_cli("run", inst, "--iters", "30", *run_flags, "--out", trace) == 0
    capsys.readouterr()
    assert run_cli("check", trace, inst) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == last
    assert err == ""


# the certificate's tolerance scales with the pieces it averages: an entry of
# -1e308 in a piece inactive at x* once let a residual of 0.381 through
def test_run_refuses_a_broken_certificate_beside_a_huge_inactive_entry(tmp_path, capsys):
    inst, trace = tmp_path / "inst.json", tmp_path / "t.csv"
    assert run_cli("gen", "maxaffine", "--n", "3", "--m", "6", "--planted", "--seed", "1",
                   "--out", str(inst)) == 0
    obj = json.loads(inst.read_text())
    obj["A"][0][0] = -1e308
    inst.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("run", str(inst), "--iters", "20", "--out", str(trace)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: planted certificate fails: ")
    assert not trace.exists() and not (tmp_path / "t.summary.json").exists()


# a squared row norm of 1e308**2 overflows, so the instance has no Lipschitz
# bound: run prints no numpy warning, and check accepts the file run accepted
def test_run_and_check_of_an_instance_whose_lipschitz_bound_overflows(tmp_path, capsys):
    inst, trace = tmp_path / "inst.json", str(tmp_path / "t.csv")
    assert run_cli("gen", "maxaffine", "--n", "3", "--m", "6", "--seed", "1",
                   "--out", str(inst)) == 0
    obj = json.loads(inst.read_text())
    obj["A"][0][0] = -1e308
    inst.write_text(json.dumps(obj))
    assert run_cli("run", str(inst), "--out", trace) == 0
    assert run_cli("check", trace, str(inst)) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "audit passed (3 of 10 checks ran)"
    assert err == ""


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


# a bad cell names its file, line and column
@pytest.mark.parametrize("row, col, cell, named", [
    (1, 0, "1.0", ":2: column 'k': '1.0' is not an integer"),
    (3, 1, "", ":4: column 'f': '' is not a number"),
], ids=["k_float", "f_empty"])
def test_check_unparsable_cell_is_exit_2(planted_instance, tmp_path, capsys, row, col, cell,
                                         named):
    trace = tmp_path / "t.csv"
    assert run_cli("run", planted_instance, "--iters", "20", "--out", str(trace)) == 0
    lines = trace.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = cell
    lines[row] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    line = _assert_usage_error(run_cli("check", str(trace), planted_instance), capsys)
    assert line == f"error: {trace}{named}"


# a trace cut short or grown no longer has the row count its summary records
@pytest.mark.parametrize("edit", [lambda lines: lines[:2], lambda lines: lines + lines[-1:]],
                         ids=["first_row", "grown"])
def test_check_trace_of_another_length_than_its_summary_is_exit_2(
        planted_instance, tmp_path, capsys, edit):
    trace = tmp_path / "t.csv"
    assert run_cli("run", planted_instance, "--iters", "50", "--out", str(trace)) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 52  # the header and 51 rows
    lines = edit(lines)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    line = _assert_usage_error(run_cli("check", str(trace), planted_instance), capsys)
    assert f"field 'n_rows' is 51, not the trace's {len(lines) - 1} rows" in line


# each result the summary states is held to its trace and instance before
# any audit runs: one edit of tamper_trace's summary at a time is exit 2,
# naming the field and the trace line that shows the fact, writing no report
@pytest.mark.parametrize("field, claim, named", [
    ("f_best", -5.0, "t.csv:192: summary file {s!r}: field 'f_best' is -5.0, not the trace's "
                     "0.42976749092960254"),
    ("it_best", 3, "t.csv:192: summary file {s!r}: field 'it_best' is 3, not the trace's 191"),
    ("termination", "zero_subgradient", "t.csv:202: summary file {s!r}: field 'termination' "
                                        "is 'zero_subgradient', not the trace's 'max_iters'"),
    ("gap", 1e9, "t.csv:192: summary file {s!r}: field 'gap' is 1000000000.0, not the trace's "
                 "0.011668644203823686"),
    ("f_star", 123.0, "summary file {s!r}: field 'f_star' is 123.0, not the instance's "
                      "0.41809884672577885"),
], ids=["f_best", "it_best", "termination", "gap", "f_star"])
def test_check_refuses_a_summary_result_its_trace_does_not_show(tamper_trace, tmp_path, capsys,
                                                                field, claim, named):
    inst, trace = tamper_trace
    summary = json.loads(Path(trace).with_suffix(".summary.json").read_text())
    assert summary[field] != claim
    (tmp_path / "t.csv").write_text(Path(trace).read_text())
    spath = tmp_path / "t.summary.json"
    spath.write_text(json.dumps(dict(summary, **{field: claim})))
    report = tmp_path / "audit.json"
    capsys.readouterr()
    rc = run_cli("check", str(tmp_path / "t.csv"), inst, "--out", str(report))
    line = _assert_usage_error(rc, capsys)
    where = str(tmp_path) + os.sep if named.startswith("t.csv") else ""
    assert line == f"error: {where}{named.format(s=str(spath))}"
    assert capsys.readouterr().out == "" and not report.exists()


# a field that is absent or null is not compared, and a claim must have the
# fact's type: neither a bool nor a float is an int
@pytest.mark.parametrize("edit, named", [
    ({"f_best": None, "it_best": None, "termination": None, "gap": None, "f_star": None}, None),
    ({"it_best": True}, "field 'it_best' is True"),
    ({"it_best": 191.0}, "field 'it_best' is 191.0"),
    ({"n_rows": 201.0}, "field 'n_rows' is 201.0"),
], ids=["all_null", "bool_it_best", "float_it_best", "float_n_rows"])
def test_check_compares_summary_results_by_type(tamper_trace, tmp_path, capsys, edit, named):
    inst, trace = tamper_trace
    summary = json.loads(Path(trace).with_suffix(".summary.json").read_text())
    (tmp_path / "t.csv").write_text(Path(trace).read_text())
    (tmp_path / "t.summary.json").write_text(json.dumps(dict(summary, **edit)))
    capsys.readouterr()
    rc = run_cli("check", str(tmp_path / "t.csv"), inst)
    if named is None:
        assert rc == 0
    else:
        assert named in _assert_usage_error(rc, capsys)


# an instance without f_star refuses a summary that states one, or a gap
@pytest.mark.parametrize("field", ["f_star", "gap"])
def test_check_refuses_an_f_star_the_instance_lacks(tmp_path, capsys, field):
    inst, trace = str(tmp_path / "fw.json"), str(tmp_path / "fw.csv")
    assert run_cli("gen", "fermatweber", "--seed", "1", "--out", inst) == 0
    assert run_cli("run", inst, "--iters", "20", "--out", trace) == 0
    spath = tmp_path / "fw.summary.json"
    summary = json.loads(spath.read_text())
    assert field not in summary
    spath.write_text(json.dumps(dict(summary, **{field: 0.5})))
    capsys.readouterr()
    line = _assert_usage_error(run_cli("check", trace, inst), capsys)
    whose = "instance" if field == "f_star" else "trace"
    assert line.endswith(f"field '{field}' is 0.5, not the {whose}'s None")


# a trace whose best row is NaN, at row 1, beside a summary that states
# another f_best and then beside one that states NaN, which equals it
def test_check_reads_a_nan_f_best_as_equal(tmp_path, capsys):
    inst, trace = tmp_path / "inst.json", tmp_path / "t.csv"
    inst.write_text(json.dumps({"type": "maxaffine", "A": [[1e200, 1e200]], "b": [0.0]}))
    assert run_cli("run", str(inst), "--out", str(trace)) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 2  # ||s_1|| overflows, so x_1 is the landed row
    cells = lines[1].split(",")
    cells[1] = "nan"
    trace.write_text("\n".join([lines[0], ",".join(cells)]) + "\n")
    spath = tmp_path / "t.summary.json"
    summary = json.loads(spath.read_text())
    capsys.readouterr()
    assert run_cli("check", str(trace), str(inst)) == 2
    assert "field 'f_best' is 0.0, not the trace's nan" in capsys.readouterr().err
    spath.write_text(json.dumps(dict(summary, f_best=float("nan"))))
    assert run_cli("check", str(trace), str(inst)) == 0


# run's own output passes check on every termination path of both drivers,
# the termination that check derives from the landed row included
_TERMINATION_PATHS = {
    "nonmonotone-max_iters": ("planted", ["--iters", "50"], "max_iters", 51),
    "nonmonotone-zero_subgradient": ("kink", [], "zero_subgradient", 13),
    "nonmonotone-backtrack_failure": ("overflow", ["--alpha1", "1e308", "--c", "1e308",
                                                   "--iters", "50"], "backtrack_failure", 1),
    "nonmonotone-nonfinite_oracle": ("steep", [], "nonfinite_oracle", 1),
    "constant-max_iters": ("planted", ["--iters", "50"], "max_iters", 51),
    "constant-zero_subgradient": ("kink", [], "zero_subgradient", 12),
    "constant-nonfinite_oracle": ("ball", ["--step-const", "1.7e308", "--iters", "5"],
                                  "nonfinite_oracle", 2),
}
# f = max(0, x + 1), max(5x + 3y, -4x + y), and one piece whose ||s||^2 overflows
_PATH_INSTANCES = {
    "kink": {"type": "maxaffine", "A": [[0.0], [1.0]], "b": [0.0, 1.0]},
    "overflow": {"type": "maxaffine", "A": [[5.0, 3.0], [-4.0, 1.0]], "b": [0.0, 0.0]},
    "steep": {"type": "maxaffine", "A": [[1e200, 1e200]], "b": [0.0]},
}


@pytest.mark.parametrize("path", _TERMINATION_PATHS)
def test_check_passes_run_output_on_every_termination_path(tmp_path, capsys, path):
    family, flags, termination, n_rows = _TERMINATION_PATHS[path]
    inst, trace = tmp_path / "inst.json", str(tmp_path / "t.csv")
    if family == "planted":
        assert run_cli("gen", "maxaffine", "--n", "2", "--m", "4", "--planted", "--seed", "3",
                       "--out", str(inst)) == 0
    elif family == "ball":
        assert run_cli("gen", "fermatweber", "--seed", "1", "--set", "ball",
                       "--out", str(inst)) == 0
    else:
        inst.write_text(json.dumps(_PATH_INSTANCES[family]))
    method = path.split("-")[0]
    assert run_cli("run", str(inst), "--method", method, *flags, "--out", trace) == 0
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    assert (summary["termination"], summary["n_rows"]) == (termination, n_rows)
    capsys.readouterr()
    assert run_cli("check", trace, str(inst)) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("audit passed") and err == ""


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
    config, trace = tmp_path / "pi.json", str(tmp_path / "t.csv")
    config.write_text(json.dumps({"gamma.kind": "power_inverse", "gamma.zeta": 0.5,
                                  "gamma.theta": 0.5}))
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
    trace, config = str(tmp_path / "t.csv"), tmp_path / "off.json"
    # a prefixed rule reads none of those flags, but a config file may set them
    config.write_text(json.dumps({"c": 0.5, "beta": 0.5, "rho": 0.7, "alpha1": 0.3,
                                  "gamma.kind": "sqrt_inverse", "gamma.zeta": 0.7}))
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
    ('{"config": 0}', "config must be a JSON object, got int"),
    ('{"config": false}', "config must be a JSON object, got bool"),
    ('{"config": ""}', "config must be a JSON object, got str"),
    ('{"config": {"rho": "x"}}', "config field 'rho'"),
    ('{"method": "bogus"}', "field 'method' must be one of nonmonotone, constant"),
    ('{"method": 5}', "field 'method' must be one of"),
    ('{"method": ["nonmonotone"]}', "field 'method' must be one of"),
    ('{"n_rows": 51.0}', "field 'n_rows' is 51.0, not the trace's 51 rows"),
    ('{"n_rows": "51"}', "field 'n_rows' is '51', not the trace's 51 rows"),
], ids=["invalid_json", "non_object", "config_list", "config_zero", "config_false",
        "config_empty_string", "config_field",
        "method_unknown", "method_number", "method_list", "n_rows_float", "n_rows_string"])
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


# "config": null means absent, as null does in every summary field: the
# audit runs under the defaults, which a run under other flags fails
@pytest.mark.parametrize("flags, code", [([], 0), (["--beta", "0.5"], 1)],
                         ids=["default_run", "beta_run"])
def test_check_reads_a_null_summary_config_as_the_defaults(planted_instance, tmp_path, capsys,
                                                           flags, code):
    trace, summary = str(tmp_path / "t.csv"), tmp_path / "t.summary.json"
    assert run_cli("run", planted_instance, *flags, "--iters", "50", "--out", trace) == 0
    summary.write_text(json.dumps({**json.loads(summary.read_text()), "config": None}))
    capsys.readouterr()
    assert run_cli("check", trace, planted_instance) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert ("consistency: failed" in captured.out) == bool(code)


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


# bench writes every table or none: a directory in the place of the second
# fails the write before the first lands
def test_bench_writes_every_table_or_none(tmp_path, capsys):
    plan = _small_plan(tmp_path)
    obj = json.loads(Path(plan).read_text())
    obj["configs"].append(dict(obj["configs"][0], m=12))
    Path(plan).write_text(json.dumps(obj))
    blocked = tmp_path / "out" / "bench_maxaffine_n2_m12.csv"
    blocked.mkdir(parents=True)
    line = _assert_usage_error(run_cli("bench", plan), capsys)
    assert line == f"error: [Errno 21] Is a directory: {str(blocked)!r}"
    assert [p.name for p in (tmp_path / "out").iterdir()] == [blocked.name]


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


# bench forms its median rows without np.median, which imports numpy.ma; they
# keep np.median's bits: the middle value or the two middle values' mean, each
# sum started at 0.0 (a -0.0 median reads 0.0), and nan when any value is NaN
_MEDIAN_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(col=st.lists(_MEDIAN_FLOATS, min_size=1, max_size=9)
       | st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=9))
@example(col=[-0.0])
@example(col=[-0.0, -0.0])
@example(col=[math.inf, -math.inf])
@example(col=[1.7976931348623157e308, 1.7976931348623157e308])
@example(col=[3, 8])
def test_bench_median_is_numpy_median(col):
    with np.errstate(all="ignore"):  # inf - inf and an overflowing sum warn in numpy
        want = float(np.median(np.array(col)))
    got = cli._median(col)
    assert type(got) is float
    assert (math.isnan(want) and math.isnan(got)) or got.hex() == want.hex()


def test_bench_imports_no_numpy_ma(tmp_path):
    plan = Path(_SRC).parent / "plans" / "fermatweber.json"
    code = ("import sys; from nmsubgrad import cli; "
            "rc = cli.main(['bench', sys.argv[1], '--out-dir', sys.argv[2]]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(plan), str(tmp_path)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


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


def _count_calls(monkeypatch, names) -> Counter:
    """The calls of each of cli's functions names, counted as they are made."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    return calls


# the seeds solve the same problem, each its own: the file is read and its
# reference value solved once per seed, and each method run once per seed
def test_bench_anchor_file_gives_every_seed_the_same_rows(tmp_path, monkeypatch):
    csv = tmp_path / "anchors.csv"
    csv.write_text("lat,lon\n" + "".join(f"{3 * i % 7},{i * i % 5}\n" for i in range(10)))
    calls = _count_calls(monkeypatch, ("read_anchor_csv", "weiszfeld", "_solve"))
    assert run_cli("bench", _plan_with(tmp_path, "fermatweber",
                                       config={"anchors_csv": str(csv)})) == 0
    assert calls == {"read_anchor_csv": 2, "weiszfeld": 2, "_solve": 4}
    lines = (tmp_path / "out" / "bench_fermatweber_n2_m10.csv").read_text().splitlines()
    for method in ("nonmonotone", "sqrsum"):
        rows = [line.split(",")[2:] for line in lines
                if line.startswith(method + ",") and ",median," not in line]
        assert len(rows) == 2 and rows[0] == rows[1], method


# without an anchors file each seed is its own problem, a repeated seed too:
# one weiszfeld run (Fermat-Weber) and one solve per method for each seed
@pytest.mark.parametrize("problem, seeds, calls", [
    ("fermatweber", [0, 1, 2], {"weiszfeld": 3, "_solve": 6}),
    ("maxaffine", [0, 0], {"_solve": 4}),
], ids=["fermatweber_three_seeds", "maxaffine_repeated_seed"])
def test_bench_entry_without_an_anchor_file_builds_each_seed(tmp_path, monkeypatch, problem,
                                                             seeds, calls):
    counted = _count_calls(monkeypatch, ("weiszfeld", "_solve"))
    assert run_cli("bench", _plan_with(tmp_path, problem, config={"seeds": seeds})) == 0
    assert counted == calls
    lines = (tmp_path / "out" / f"bench_{problem}_n2_m10.csv").read_text().splitlines()
    for method in ("nonmonotone", "sqrsum"):
        rows = [line.split(",")[1:] for line in lines
                if line.startswith(method + ",") and ",median," not in line]
        assert [int(row[0]) for row in rows] == seeds
        if seeds == [0, 0]:
            assert rows[0] == rows[1], method


@pytest.mark.parametrize("fields, named", [
    ({"problem": "nosuch"}, "unknown problem kind 'nosuch'"),
    ({"methods": ["nonmonotone", "bogus"]}, "unknown method 'bogus'"),
    ({"out_dir": None}, "no output directory"),
    ({"configs": []}, "plan has no configs"),
    ({"methods": []}, "plan has no methods"),
    ({"methods": ["sqrsum", "nonmonotone", "sqrsum"]}, "plan names method 'sqrsum' twice"),
    ({"config": {"seeds": []}}, "'configs'[0] has an empty seed list"),
], ids=["problem", "method", "no_out_dir", "no_configs", "no_methods", "twice", "no_seeds"])
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
    out = tmp_path / "inst.json"
    for argv, code in ((["--n", "2"], 0), (["--n", "0"], 2)):
        proc = subprocess.run(
            [sys.executable, "-m", "nmsubgrad.cli", "gen", "maxaffine", *argv, "--m", "4",
             "--out", str(out)], env=_src_env(), capture_output=True, text=True, timeout=120)
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


# .tolist() of a slack table too large for the address space raises a bare
# MemoryError(), whose text is empty; the error line names it instead.
# Patched in, so nothing large is allocated.
def _out_of_memory(*args, **kwargs):
    raise MemoryError()


def test_run_bare_memory_error_is_named(planted_instance, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_nonmonotone", _out_of_memory)
    out = tmp_path / "t.csv"
    line = _assert_usage_error(run_cli("run", planted_instance, "--out", str(out)), capsys)
    assert line == "error: out of memory (MemoryError)"
    assert not out.exists() and not (tmp_path / "t.summary.json").exists()


def test_bench_bare_memory_error_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "make_problem", _out_of_memory)
    line = _assert_usage_error(run_cli("bench", _small_plan(tmp_path)), capsys)
    assert line.startswith("error: 'configs'[0] = {")
    assert line.endswith("}: out of memory (MemoryError)")
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
    ("rho = 0.7\nrh0 = 0.3\n", "not valid JSON"),
    ('{"max_iters": 2.5}', "'max_iters'"),
    ('{"max_iters": true}', "'max_iters'"),
], ids=["list", "missing_field", "unknown_json_field", "keyvalue_text",
        "max_iters_float", "max_iters_bool"])
def test_run_malformed_config_is_exit_2(planted_instance, tmp_path, capsys, text, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    rc = run_cli("run", planted_instance, "--config", str(cfg_path),
                 "--out", str(tmp_path / "t.csv"))
    assert named in _assert_usage_error(rc, capsys)
    assert not os.path.exists(tmp_path / "t.csv")


def test_run_config_json_syntax_error_is_reported_as_json(planted_instance, tmp_path, capsys):
    # a trailing comma: the JSON error and its position
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"rho": 0.7,\n "c": 1.0,}\n')
    rc = run_cli("run", planted_instance, "--config", str(cfg_path),
                 "--out", str(tmp_path / "t.csv"))
    line = _assert_usage_error(rc, capsys)
    assert "not valid JSON" in line and "line 2 column 11" in line, line
    assert not os.path.exists(tmp_path / "t.csv")


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
