"""Spans around the calls into each layer, recorded from the benchmark's side.

While installed, the tracer replaces the package's public entry points with
timing wrappers: both solvers (in `nmsubgrad` and in `nmsubgrad.cli`), both
audits, and `nmsubgrad.linesearch.nonmonotone_backtrack`. The solver wrapper
hands the solver a stand-in for the problem whose `value`, `eval` and
`project` are wrapped too. Each span keeps its name, start, end, parent span
and run id in memory; `save` writes them out.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

import nmsubgrad as nm
import nmsubgrad.linesearch as linesearch
from nmsubgrad import cli

NAMES = ("solve_nonmonotone", "solve_prefixed", "linesearch", "value", "eval", "project",
         "audit_stepwise", "audit_rate_bounds")
# every traced pass must see these; solve_prefixed runs only inside `bench`
REQUIRED = tuple(n for n in NAMES if n != "solve_prefixed")
ORACLES = ("value", "eval", "project")


class TracedProblem:
    """Stands in for a problem inside one solve, timing its oracle calls."""

    def __init__(self, problem, tracer: "Tracer"):
        self._problem = problem
        self.n = problem.n
        self.value = tracer.span("value", problem.value)
        self.eval = tracer.span("eval", problem.eval)
        self.project = tracer.span("project", problem.project)

    def __getattr__(self, name):
        return getattr(self._problem, name)


class Tracer:
    """Spans of one traced pass, plus the line-search outcomes (sum of ell,
    trials) and audited rows that the spans alone do not carry."""

    def __init__(self):
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.current = -1
        self.runs: list[list] = []  # [solver name, rows of its report]
        self.ell_sum = 0
        self.trials_sum = 0
        self.audit_rows = dict.fromkeys(("audit_stepwise", "audit_rate_bounds"), 0)

    def span(self, name: str, fn, after=None):
        code = NAMES.index(name)

        def traced(*args, **kwargs):
            idx = len(self.name)
            parent = self.current
            self.name.append(code)
            self.parent.append(parent)
            self.run.append(len(self.runs) - 1)
            self.start.append(0)
            self.end.append(0)
            self.current = idx
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self.start[idx] = t0
                self.current = parent
            if after is not None:
                after(args, result)
            return result

        return traced

    def _solver(self, name: str, fn):
        timed = self.span(name, fn)

        def solve(problem, *args, **kwargs):
            self.runs.append([name, 0])
            report = timed(TracedProblem(problem, self), *args, **kwargs)
            self.runs[-1][1] = len(report.records)
            return report

        return solve

    def _count_outcome(self, args, out) -> None:
        self.ell_sum += out.ell
        self.trials_sum += out.trials

    def _audit(self, name: str, fn):
        def count(args, result):
            self.audit_rows[name] += len(args[0].records)

        return self.span(name, fn, after=count)

    @contextlib.contextmanager
    def installed(self):
        solve_nm = self._solver("solve_nonmonotone", nm.solve_nonmonotone)
        solve_pf = self._solver("solve_prefixed", nm.solve_prefixed)
        stepwise = self._audit("audit_stepwise", nm.audit_stepwise)
        rate = self._audit("audit_rate_bounds", nm.audit_rate_bounds)
        backtrack = self.span("linesearch", linesearch.nonmonotone_backtrack,
                              after=self._count_outcome)
        patches = [
            (nm, "solve_nonmonotone", solve_nm), (cli, "solve_nonmonotone", solve_nm),
            (nm, "solve_prefixed", solve_pf), (cli, "solve_prefixed", solve_pf),
            (nm, "audit_stepwise", stepwise), (cli, "audit_stepwise", stepwise),
            (nm, "audit_rate_bounds", rate), (cli, "audit_rate_bounds", rate),
            (linesearch, "nonmonotone_backtrack", backtrack),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        try:
            yield self
        finally:
            for obj, attr, old in saved:
                setattr(obj, attr, old)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def check(self, runs: int, steps: int) -> list[str]:
        """Every wrapper saw calls, the traced solves are the pass's solves,
        and per run: eval calls = rows (steps + 1) and, for the adaptive
        method, line searches = steps."""
        a = self.arrays()
        counts = np.bincount(a["name"], minlength=len(NAMES))
        errors = [f"the {n} wrapper saw no calls" for n in REQUIRED if counts[NAMES.index(n)] == 0]
        rows = np.array([r for _, r in self.runs], dtype=np.int64)
        if len(self.runs) != runs:
            errors.append(f"traced {len(self.runs)} solves, the pass made {runs}")
        elif int((rows - 1).sum()) != steps:
            errors.append(f"traced solves took {int((rows - 1).sum())} steps, the pass {steps}")
        evals = self._per_run(a, "eval")
        searches = self._per_run(a, "linesearch")
        for i, (solver, n_rows) in enumerate(self.runs):
            if evals[i] != n_rows:
                errors.append(f"run {i}: {evals[i]} eval calls for {n_rows} rows")
            if solver == "solve_nonmonotone" and searches[i] != n_rows - 1:
                errors.append(f"run {i}: {searches[i]} line searches for {n_rows - 1} steps")
        return errors[:10]

    def _per_run(self, a: dict, name: str) -> np.ndarray:
        runs = a["run"][a["name"] == NAMES.index(name)]
        return np.bincount(runs[runs >= 0], minlength=len(self.runs))

    def metrics(self) -> dict:
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        mask = {n: a["name"] == i for i, n in enumerate(NAMES)}
        count = {n: int(m.sum()) for n, m in mask.items()}
        nm_steps = sum(r - 1 for s, r in self.runs if s == "solve_nonmonotone")
        oracle_ns = sum(dur[mask[n]].sum() for n in ORACLES)
        solve_ns = dur[mask["solve_nonmonotone"] | mask["solve_prefixed"]].sum()
        m = {}
        for n in ORACLES:
            m[f"problems.{n}_calls"] = count[n]
        for n in ORACLES:
            m[f"problems.{n}_us"] = dur[mask[n]].mean() / 1e3
        m["problems.oracle_share"] = oracle_ns / solve_ns
        m["linesearch.calls"] = count["linesearch"]
        m["linesearch.self_us"] = self_ns[mask["linesearch"]].mean() / 1e3
        m["linesearch.trials_per_step"] = self.trials_sum / count["linesearch"]
        m["linesearch.accept_ratio"] = count["linesearch"] / self.trials_sum
        m["linesearch.cap_skipped_rungs"] = self.ell_sum - self.trials_sum
        m["solver.driver_self_us"] = self_ns[mask["solve_nonmonotone"]].sum() / nm_steps / 1e3
        m["analysis.stepwise_us_per_row"] = (
            dur[mask["audit_stepwise"]].sum() / 1e3 / self.audit_rows["audit_stepwise"])
        m["analysis.rate_us_per_row"] = (
            dur[mask["audit_rate_bounds"]].sum() / 1e3 / self.audit_rows["audit_rate_bounds"])
        return m
