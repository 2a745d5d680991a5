"""Hostile nodes of the other input files end to end, through cli.main in one
process (Hypothesis: MacIver et al., "Hypothesis: a new approach to
property-based testing", JOSS 2019).

The valid files come from gen, run and plans/: a planted max-affine instance
on a ball, a Fermat-Weber instance on a box, the summaries of a nonmonotone
and a constant-step run, and both plans, cut to two seeds and 30 iterations
so that a bench takes milliseconds. Each example bends one node of one file:
it replaces a node (an object's key or a list's item, at any depth) with a
value from VALUES, or adds one: an absent key that some file of its kind may
hold (`sigma`, `active`, a set's fields, a summary's `rule`, ...) or an
unknown key, or one more list item. Then it runs the commands that read the
file: `run` and `check` of the bent instance, and `check` of a clean trace
against it; `check` of a clean trace beside the bent summary; `bench` of the
bent plan. Each command must exit 0, 1 or 2; exit 2 prints exactly one
`error:` line and writes no file; exit 1 comes only with `audit FAILED`; no
warning escapes but TheoryRegimeWarning; and a `check` of `run`'s own output
on the bent instance passes.
"""

import contextlib
import copy
import dataclasses
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmsubgrad import (
    Ball,
    Box,
    FermatWeberInstance,
    MaxAffineInstance,
    SolverConfig,
    StronglyConvexHarmonic,
    TheoryRegimeWarning,
)
from nmsubgrad import cli
from nmsubgrad.core import _config_items

ROOT = Path(__file__).resolve().parent.parent
ITERS = "20"
# JSON text of each value, so NaN and Infinity are written as json writes them
VALUES = ("null", "true", "false", "0", "-1", str(2**70), str(-2**70), "1e308", "-1e308",
          "1e-320", "NaN", "Infinity", '"x"', '""', "[]", "{}", "[[]]", "-0.0", "0.5",
          "[1.0]", "[1.0, 2.0]")


def _names(*classes):
    return {f.name for cls in classes for f in dataclasses.fields(cls)}


# the keys some file of each kind may hold, and one that none may
_CONFIG_KEYS = set(_config_items(SolverConfig(gamma=StronglyConvexHarmonic(1.0, 0.9, 0.5))))
KEYS = {
    "instance": _names(MaxAffineInstance, FermatWeberInstance, Box, Ball) | {"type", "set",
                                                                             "kind"},
    "summary": {"config", "method", "f_best", "it_best", "termination", "n_rows", "version",
                "rule", "f_star", "gap", "kind", "a", "gamma.zeta", "gamma.theta",
                "gamma.values"} | _CONFIG_KEYS,
    "plan": (_names(cli._Plan, cli._MaxAffineEntry, cli._FermatWeberEntry, SolverConfig)
             | {f.name for f in cli._STEP_CONSTANTS}) - {"gamma"},
}
for keys in KEYS.values():
    keys.add("unknown")


def _main(*argv):
    """(exit code, stdout, stderr, warnings other than TheoryRegimeWarning) of
    cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main(list(argv))
    escaped = [str(w.message) for w in caught if not issubclass(w.category, TheoryRegimeWarning)]
    return rc, out.getvalue(), err.getvalue(), escaped


@contextlib.contextmanager
def _in_dir(path):
    """cwd set to path, so a bent relative path lands there."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _files(root):
    return {str(p.relative_to(root)) for p in Path(root).rglob("*")}


def _clean_files(d):
    """Write the clean files into d: both instances, and the nonmonotone and
    constant traces of the max-affine one with their summaries. Return d and
    each document to bend by name, as (kind, JSON object)."""
    docs = {}
    gens = {"maxaffine-ball": ["maxaffine", "--n", "2", "--m", "4", "--planted", "--seed", "3",
                               "--set", "ball", "--radius", "5"],
            "fermatweber-box": ["fermatweber", "--seed", "1", "--n", "2", "--m", "5",
                                "--set", "box"]}
    for name, argv in gens.items():
        inst = d / f"{name}.json"
        assert _main("gen", *argv, "--out", str(inst))[0] == 0
        docs[f"instance-{name}"] = ("instance", json.loads(inst.read_text()))
    inst = str(d / "maxaffine-ball.json")
    for method in ("nonmonotone", "constant"):
        trace = d / f"{method}.csv"
        assert _main("run", inst, "--method", method, "--iters", ITERS, "--out", str(trace))[0] == 0
        docs[f"summary-{method}"] = ("summary", json.loads(
            trace.with_suffix(".summary.json").read_text()))
    for plan in ("maxaffine_small", "fermatweber"):
        obj = json.loads((ROOT / "plans" / f"{plan}.json").read_text())
        for conf in obj["configs"]:
            conf.update(iters=30, seeds=conf["seeds"][:2])
        obj["out_dir"] = "out"
        docs[f"plan-{plan}"] = ("plan", obj)
    return d, docs


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    return _clean_files(tmp_path_factory.mktemp("clean"))


def _edits(kind, doc):
    """Every one-node bend of doc: ("replace", path), ("add", path, key) of a
    key absent from the object at path, and ("append", path) of a list."""
    edits = []

    def walk(node, path):
        if isinstance(node, dict):
            edits.extend(("add", path, key) for key in sorted(KEYS[kind] - node.keys()))
            items = node.items()
        elif isinstance(node, list):
            edits.append(("append", path))
            items = enumerate(node)
        else:
            return
        for key, child in items:
            edits.append(("replace", path + (key,)))
            walk(child, path + (key,))

    walk(doc, ())
    return edits


def _bent(doc, edit, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in edit[1][:-1] if edit[0] == "replace" else edit[1]:
        node = node[key]
    if edit[0] == "replace":
        node[edit[1][-1]] = value
    elif edit[0] == "add":
        node[edit[2]] = value
    else:
        node.append(value)
    return doc


def _faults(what, rc, out, err, escaped, before, after):
    """What breaks the rules for one command's outcome."""
    faults = []
    if escaped:
        faults.append((what, "warnings", escaped))
    if rc == 2:
        lines = err.splitlines()
        if not (len(lines) == 1 and len(lines[0]) > len("error: ")
                and lines[0].startswith("error: ")):
            faults.append((what, "exit 2 without one error line", err))
        if after != before:
            faults.append((what, "exit 2 wrote", sorted(after - before)))
    elif rc == 1:
        if not out.splitlines()[-1:] or not out.splitlines()[-1].startswith("audit FAILED"):
            faults.append((what, "exit 1 without audit FAILED", out, err))
    elif rc != 0:
        faults.append((what, f"exit {rc}", err))
    return faults


def _commands(kind, clean_dir):
    """The commands that read a bent file of kind, "bent.json" or, for a
    summary, "t.summary.json" beside the clean trace "t.csv"."""
    if kind == "instance":
        return [["run", "bent.json", "--iters", ITERS, "--out", "r.csv"],
                ["check", str(clean_dir / "nonmonotone.csv"), "bent.json", "--out", "rep.json"]]
    if kind == "summary":
        return [["check", "t.csv", str(clean_dir / "maxaffine-ball.json"), "--out", "rep.json"]]
    return [["bench", "bent.json"]]


def _case(clean_dir, docs, name, edit, value):
    """The faults of the commands that read document name bent by edit to value."""
    kind, doc = docs[name]
    faults = []
    with tempfile.TemporaryDirectory(dir=clean_dir) as case, _in_dir(case):
        if kind == "summary":
            method = name.split("-", 1)[1]
            Path("t.csv").write_text((clean_dir / f"{method}.csv").read_text())
            Path("t.summary.json").write_text(json.dumps(_bent(doc, edit, value)))
        else:
            Path("bent.json").write_text(json.dumps(_bent(doc, edit, value)))
        for argv in _commands(kind, clean_dir):
            before = _files(case)
            rc, out, err, escaped = _main(*argv)
            faults += _faults(argv[0], rc, out, err, escaped, before, _files(case))
            if argv[0] == "run" and rc == 0:  # run's own output must pass its check
                rc, out, err, escaped = _main("check", "r.csv", "bent.json")
                if rc != 0 or err or escaped:
                    faults.append(("check of run's output", rc, out.splitlines()[-1:], err,
                                   escaped))
    return faults


@pytest.mark.parametrize("name", ["instance-maxaffine-ball", "instance-fermatweber-box",
                                  "summary-nonmonotone", "summary-constant",
                                  "plan-maxaffine_small", "plan-fermatweber"])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_hostile_file_node_exits_cleanly(clean, name, data):
    clean_dir, docs = clean
    kind, doc = docs[name]
    edit = data.draw(st.sampled_from(_edits(kind, doc)), label="edit")
    value = json.loads(data.draw(st.sampled_from(VALUES), label="value"))
    assert _case(clean_dir, docs, name, edit, value) == []
