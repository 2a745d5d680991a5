"""Statement coverage of src/nmsubgrad under the tier-1 tests, with the
standard library only.

    python tests/statement_coverage.py [pytest arguments]

runs `python -m pytest -q -p no:cacheprovider --hypothesis-seed=0 [pytest
arguments]` from the repository root with a line tracer (sys.settrace)
installed in that process and in every Python subprocess it starts, through a
temporary `sitecustomize` module put first on PYTHONPATH. Then it prints each statement
of src/nmsubgrad that never ran, as `path:line: source`, and exits 1 when
there is one (or when pytest fails) and 0 otherwise. The fixed seed makes
the property tests draw the same examples on every run, so the same code
gives the same report; pass `--hypothesis-seed=1` (the last one given wins)
to check that no statement rests on one seed's draws.

A statement is reached when any line of its header runs: every line of a
simple statement, and for a compound statement the lines from its first
decorator or keyword to the line before its body, so a multi-line `elif (`
whose condition runs on its second line counts. Docstrings and `nonlocal` or
`global` declarations are not statements. pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nmsubgrad"

# installed as sitecustomize in every traced process; {package} and {out} are
# filled in as Python string literals
_SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_PACKAGE = {package}
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PACKAGE):
        return _line
    return None


def _dump():
    sys.settrace(None)
    path = os.path.join({out}, f"{{os.getpid()}}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{{name}}\\t{{line}}\\n" for name, line in _hits)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
'''


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring expressions in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first))
    return found


def _header(node: ast.stmt) -> range:
    """The lines whose running means node ran."""
    if not hasattr(node, "body"):  # a simple statement
        return range(node.lineno, node.end_lineno + 1)
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(start, max(node.lineno, node.body[0].lineno - 1) + 1)


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, header lines) of every statement in source."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    return sorted(
        (node.lineno, _header(node)) for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in skip
        and not isinstance(node, (ast.Nonlocal, ast.Global))
    )


def unreached(hits: set[tuple[str, int]]) -> list[str]:
    """`path:line: source` of every statement of the package not in hits."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = {line for name, line in hits if Path(name).resolve() == path}
        for first, header in statements(source):
            if ran.isdisjoint(header):
                out.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "hits")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
            package=repr(str(PACKAGE)), out=repr(str(out))), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(site), str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        code = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *argv],
            cwd=ROOT, env=env)
        hits = set()
        for dump in out.iterdir():
            for row in dump.read_text(encoding="utf-8").splitlines():
                name, _, line = row.rpartition("\t")
                hits.add((name, int(line)))
    missed = unreached(hits)
    for line in missed:
        print(line)
    print(f"{len(missed)} unreached statement(s) in {PACKAGE.relative_to(ROOT)}")
    if code != 0:
        print(f"pytest exited with {code}")
    return 1 if missed or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
