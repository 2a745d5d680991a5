"""Hostile `run --config` nodes end to end: run -> check through cli.main in
one process, with every warning but TheoryRegimeWarning an error.

Each case takes a valid JSON config of one gamma kind and sets one key to
one value from VALUES: every key the config holds, the gamma.* keys of the
other kinds, which it lacks, and one unknown key. A run either writes its
trace (exit 0), whose check must then pass with nothing on stderr, or
refuses its config in one `error:` line (exit 2) and writes nothing.
"""

import contextlib
import io
import json
import math
import warnings

import pytest

from nmsubgrad import (
    ExplicitTable,
    PowerInverse,
    SolverConfig,
    SqrtInverse,
    StronglyConvexHarmonic,
    TheoryRegimeWarning,
)
from nmsubgrad import cli
from nmsubgrad.core import _config_items

ITERS = 30
# JSON text of each value, so NaN and Infinity are written as json writes them
VALUES = ("null", "true", "false", "0", "-1", str(2**70), str(-2**70), "1e308", "-1e308",
          "1e-320", "NaN", "Infinity", '"x"', '""', "[]", "{}", "[[]]", "-0.0", "0.5",
          "[1.0]", "[1.0, 2.0]")
GAMMAS = {
    "sqrt_inverse": SqrtInverse(0.5),
    "power_inverse": PowerInverse(2.0, 0.75),
    "strongly_convex_harmonic": StronglyConvexHarmonic(1.0, 0.9, 0.5),
    "table": ExplicitTable(tuple(1.0 / math.sqrt(k) for k in range(1, ITERS + 2))),
}
CONFIGS = {kind: _config_items(SolverConfig(gamma=gamma, max_iters=ITERS))
           for kind, gamma in GAMMAS.items()}
# every key of every kind's config, and one unknown key
KEYS = sorted({key for items in CONFIGS.values() for key in items} | {"max_iter"})
INPUTS = {
    "maxaffine": ["--n", "2", "--m", "4", "--planted", "--seed", "3"],
    "maxaffine-sigma-ball": ["--n", "2", "--m", "4", "--planted", "--seed", "3",
                             "--sigma", "1", "--set", "ball", "--radius", "5"],
}


def _main(*argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind", GAMMAS)
@pytest.mark.parametrize("name", INPUTS)
def test_check_passes_every_run_of_a_hostile_config_node(tmp_path, name, kind):
    inst, config = str(tmp_path / "inst.json"), tmp_path / "cfg.json"
    trace, summary = tmp_path / "t.csv", tmp_path / "t.summary.json"
    faults, ran = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", TheoryRegimeWarning)
        assert _main("gen", "maxaffine", *INPUTS[name], "--out", inst)[0] == 0
        for key in KEYS:
            for value in VALUES:
                items = {**CONFIGS[kind], key: json.loads(value)}
                config.write_text(json.dumps(items))
                trace.unlink(missing_ok=True)
                summary.unlink(missing_ok=True)
                rc, _, err = _main("run", inst, "--config", str(config), "--out", str(trace))
                lines = err.splitlines()
                if rc == 2:
                    if not (len(lines) == 1 and len(lines[0]) > len("error: ")
                            and lines[0].startswith("error: ")):
                        faults.append((key, value, "run exit 2 without one error line", err))
                    if trace.exists() or summary.exists():
                        faults.append((key, value, "run exit 2 wrote a file", err))
                    continue
                if rc != 0:
                    faults.append((key, value, f"run exit {rc}", err))
                    continue
                ran += 1
                rc, out, err = _main("check", str(trace), inst)
                if rc != 0 or err:
                    faults.append((key, value, f"check exit {rc}", out.splitlines()[-1:], err))
    assert faults == []
    assert ran > 0
