"""Hostile trace cells end to end: check through cli.main in one process.

Each case bends one column of a valid 200-step planted trace at its first
step row, a middle row and its landed row to one hostile cell text, beside
the run's own summary. check must then exit 0, 1 or 2; exit 2 prints
exactly one `error:` line, which names the trace line of the bent cell;
exit 1 comes only with `audit FAILED`; and no warning escapes. A cell that
int() and float() read but the writer never writes (an '_', a non-ASCII
digit, whitespace) must exit 2.
"""

import contextlib
import io
import warnings
from pathlib import Path

import pytest

from nmsubgrad import cli

ROWS = (1, 100, 201)  # the first step row, a middle one and the landed row
CELLS = ("", "x", "nan", "inf", "-inf", "1e400", "-0.0", "1_0", "٣", " 7 ", "1.5",
         "9223372036854775808")
# int() and float() read these, but the writer's repr never writes them
UNWRITTEN = ("1_0", "٣", " 7 ")
COLUMNS = ("k", "f", "fbest_gap", "alpha", "ell", "gamma", "snorm")


def _main(*argv):
    """(exit code, stdout, stderr, warnings raised) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def trace_lines(tmp_path_factory):
    """(instance, summary text, trace lines) of a default 200-iteration run
    of gen maxaffine --n 2 --m 4 --planted --seed 3."""
    d = tmp_path_factory.mktemp("hostile")
    inst, trace = str(d / "inst.json"), d / "t.csv"
    assert _main("gen", "maxaffine", "--n", "2", "--m", "4", "--planted", "--seed", "3",
                 "--out", inst)[0] == 0
    assert _main("run", inst, "--iters", "200", "--out", str(trace))[0] == 0
    lines = trace.read_text().splitlines()
    assert lines[0].split(",") == list(COLUMNS) and len(lines) == 202
    return inst, trace.with_suffix(".summary.json").read_text(), lines


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("column", COLUMNS)
def test_check_of_a_hostile_cell_exits_cleanly(trace_lines, tmp_path, column, row):
    inst, summary, lines = trace_lines
    i = COLUMNS.index(column)
    path = tmp_path / "b.csv"
    (tmp_path / "b.summary.json").write_text(summary)
    faults = []
    for cell in CELLS:
        cells = lines[row].split(",")
        cells[i] = cell
        path.write_text("\n".join([*lines[:row], ",".join(cells), *lines[row + 1:]]) + "\n")
        rc, out, err, caught = _main("check", str(path), inst)
        errors = err.splitlines()
        if caught:
            faults.append((cell, "warnings", caught))
        if cell in UNWRITTEN and rc != 2:
            faults.append((cell, f"exit {rc}, not 2, for a cell the writer never writes"))
        if rc == 2:
            if not (len(errors) == 1 and errors[0].startswith(f"error: {path}:{row + 1}: ")):
                faults.append((cell, "exit 2 without one error line naming the line", err))
        elif rc == 1:
            if not out.splitlines()[-1].startswith("audit FAILED") or err:
                faults.append((cell, "exit 1 without audit FAILED", out, err))
        elif rc != 0 or err:
            faults.append((cell, f"exit {rc}", err))
    assert faults == []
