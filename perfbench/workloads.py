"""The three benchmark workloads.

Each workload builds its inputs from the workload seed (`setup`) and runs one
pass over them (`run_pass`), returning what the pass did, how long its parts
took and which of its outputs failed a check. A pass never raises for a
failed check: failures are counted, so `failed` can be reported against
`attempted`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import nmsubgrad as nm
from nmsubgrad import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SOLVER = dict(c=1.0, beta=0.9, rho=0.8, alpha1=0.1)
TRACE_COLUMNS = ("f", "alpha", "ell", "gamma", "snorm")
REF_TOL = 1e-9  # relative agreement of a Fermat-Weber run with the weiszfeld value


@dataclasses.dataclass
class Pass:
    """One pass of a workload. Times are seconds. samples["solve_s"] and
    samples["audit_s"] hold one time per solve and per audit. digest covers
    the f, alpha, ell, gamma, snorm columns of every trace, outputs every
    deterministic output of the pass."""

    wall_s: float = 0.0
    steps: int = 0
    runs: int = 0
    rows: int = 0
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    digest: str = ""
    outputs: str = ""
    samples: dict = dataclasses.field(default_factory=dict)

    def sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)


def digest_update(h, columns) -> None:
    """Feed one trace's (f, alpha, ell, gamma, snorm) columns to a hash."""
    for name, col in zip(TRACE_COLUMNS, columns):
        h.update(np.asarray(col, dtype=np.int64 if name == "ell" else np.float64).tobytes())


def report_columns(report):
    rec = report.records
    return [[getattr(r, name) for r in rec] for name in TRACE_COLUMNS]


def csv_columns(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [[(int if name == "ell" else float)(row[name]) for row in rows]
            for name in TRACE_COLUMNS]


# ----- in-process workloads: solve_nonmonotone plus both audits per case -----


@dataclasses.dataclass(frozen=True)
class Case:
    """One solve. f_ref is an independent reference value for f_best."""

    inst: object
    problem: nm.ProblemSpec
    cfg: nm.SolverConfig
    tc: nm.TheoryConstants
    f_ref: float | None = None


def make_case(inst, cset, zeta: float, iters: int, seed: int = 0, f_ref=None) -> Case:
    problem = nm.make_problem(inst, cset)
    if f_ref is not None:
        problem = dataclasses.replace(problem, f_star=f_ref)
    cfg = nm.SolverConfig(gamma=nm.SqrtInverse(zeta), max_iters=iters, seed=seed, **SOLVER)
    tc = nm.constants(cfg.rho, cfg.beta, problem.L, cfg.c)
    return Case(inst=inst, problem=problem, cfg=cfg, tc=tc, f_ref=f_ref)


class SolveWorkload:
    """Solves every case with solve_nonmonotone, then audits it with
    audit_stepwise and audit_rate_bounds. Reports of a pass are kept until the
    pass ends, as the acceptance fixture keeps its runs."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed  # every input is drawn from it; nothing is written

    def setup(self) -> list[Case]:
        raise NotImplementedError

    def probe_cases(self, cases: list[Case]) -> list[Case]:
        """One case per distinct shape, for the per-layer probes."""
        seen, out = set(), []
        for case in cases:
            key = (type(case.inst).__name__, case.problem.n, case.inst.m)
            if key not in seen:
                seen.add(key)
                out.append(case)
        return out

    def warm_up(self, cases: list[Case]) -> Pass:
        """One solve per shape, so lazy set-up (first numpy calls, BLAS
        threads) is done before timing."""
        return self.run_pass(self.probe_cases(cases))

    def fermat_weber(self, cases: list[Case]) -> nm.FermatWeberInstance:
        for case in cases:
            if isinstance(case.inst, nm.FermatWeberInstance):
                return case.inst
        # the acceptance suite's distance-sum shape, for workloads without one
        return nm.gen_fermat_weber(self.seed, 2, 27)

    def run_pass(self, cases: list[Case], in_process: bool = True) -> Pass:
        """in_process is accepted for a uniform call: these solves always run
        in this process."""
        p = Pass()
        reports = []
        t_pass = time.perf_counter()
        for case in cases:
            t0 = time.perf_counter()
            report = nm.solve_nonmonotone(case.problem, case.cfg)
            t1 = time.perf_counter()
            audit = nm.merge_reports(
                nm.audit_stepwise(report, case.problem, case.cfg, case.tc),
                nm.audit_rate_bounds(report, case.problem, case.cfg, case.tc),
            )
            t2 = time.perf_counter()
            p.sample("solve_s", t1 - t0)
            p.sample("audit_s", t2 - t1)
            p.steps += report.n_steps
            p.rows += len(report.records)
            p.runs += 1
            p.attempted += 1
            reports.append(report)
            why = _case_failure(case, report, audit)
            if why:
                p.failures.append(f"{case.problem.n}x{case.inst.m} seed {case.cfg.seed}: {why}")
        p.wall_s = time.perf_counter() - t_pass
        h = hashlib.sha256()
        for report in reports:
            digest_update(h, report_columns(report))
        p.digest = p.outputs = h.hexdigest()
        return p


def _case_failure(case: Case, report, audit) -> str:
    failed = [ch.name for ch in audit.checks if ch.status == "failed"]
    if failed:
        return "audit failed: " + ", ".join(failed)
    if report.termination != "max_iters":
        return f"terminated by {report.termination}"
    if case.f_ref is not None:
        if abs(report.f_best - case.f_ref) > REF_TOL * max(1.0, abs(case.f_ref)):
            return f"f_best {report.f_best!r} disagrees with weiszfeld {case.f_ref!r}"
    return ""


class Fixture(SolveWorkload):
    """The acceptance fixture: planted max-affine problems, 20 seeds per
    shape, 3000 iterations, unconstrained. Seed 0 is the acceptance suite's
    own set of instances."""

    # (n, m, zeta, spread, active_scale), as frozen in the acceptance suite
    SHAPES = ((2, 10, 0.01, 0.02, 2.0), (5, 30, 0.5, 0.05, 6.0), (10, 50, 1.0, 0.05, 10.0))
    PER_SHAPE = 20
    ITERS = 3000

    def setup(self) -> list[Case]:
        out = []
        for n, m, zeta, spread, scale in self.SHAPES:
            for i in range(self.PER_SHAPE):
                s = self.PER_SHAPE * self.seed + i
                inst = nm.plant_optimum_max_affine(s, n, m, spread=spread, active_scale=scale)
                out.append(make_case(inst, None, zeta, self.ITERS, seed=s))
        return out


class KernelHeavy(SolveWorkload):
    """Large oracles on compact sets: a planted max-affine problem on a ball
    and a Fermat-Weber problem on a box, checked against weiszfeld."""

    MA = dict(n=200, m=5000, spread=1.0, radius=2.0, iters=1000)
    FW = dict(n=3, m=5000, scale=10.0, half_width=5.0, iters=1000)

    def setup(self) -> list[Case]:
        ma, fw = self.MA, self.FW
        inst = nm.plant_optimum_max_affine(self.seed, ma["n"], ma["m"], spread=ma["spread"])
        ball = nm.Ball(center=np.zeros(ma["n"]), radius=ma["radius"])
        anchors = nm.gen_fermat_weber(self.seed, fw["n"], fw["m"], scale=fw["scale"])
        box = nm.Box(lo=np.full(fw["n"], -fw["half_width"]), hi=np.full(fw["n"], fw["half_width"]))
        x_ref, f_ref = nm.weiszfeld(anchors)
        if not nm.contains(box, x_ref):
            raise ValueError("the weiszfeld point lies outside the box; it is no reference there")
        return [
            make_case(inst, ball, 1.0, ma["iters"], seed=self.seed),
            make_case(anchors, box, 1.0, fw["iters"], seed=self.seed, f_ref=f_ref),
        ]


# ----- cli: gen -> run -> check round trips and bench, one process each -----


@dataclasses.dataclass(frozen=True)
class CliInputs:
    dir: Path
    plans: tuple  # (plan path, solver steps it runs, solver runs it makes)


class Cli:
    """Round trips of `nmsubgrad gen -> run -> check` on planted max-affine
    instances, then `nmsubgrad bench` on seed-shifted copies of both plans in
    plans/. Each subcommand is a fresh process; with in_process=True they are
    called through nmsubgrad.cli.main instead, so a tracer can see into them."""

    ROUND_TRIPS = 3
    GEN = dict(n=10, m=50, spread=0.05, active_scale=10.0)
    ZETA = 1.0
    ITERS = 10000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / "cli"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def setup(self) -> CliInputs:
        self.dir.mkdir(parents=True, exist_ok=True)
        plans = []
        for src in sorted((ROOT / "plans").glob("*.json")):
            plan = json.loads(src.read_text(encoding="utf-8"))
            for conf in plan["configs"]:
                conf["seeds"] = [100 * self.seed + s for s in conf["seeds"]]
            path = self.dir / src.name
            path.write_text(json.dumps(plan, indent=2) + "\n", encoding="utf-8")
            n_methods = len(plan.get("methods", cli.METHODS))
            steps = n_methods * sum(c["iters"] * len(c["seeds"]) for c in plan["configs"])
            runs = n_methods * sum(len(c["seeds"]) for c in plan["configs"])
            plans.append((path, steps, runs))
        if not plans:
            raise FileNotFoundError(f"no bench plans under {ROOT / 'plans'}")
        # compiles the package's bytecode, so no timed process pays for it
        subprocess.run([sys.executable, "-c", "import nmsubgrad.cli"], env=self.env,
                       check=True, timeout=120)
        return CliInputs(dir=self.dir, plans=tuple(plans))

    def warm_up(self, inputs: CliInputs) -> Pass:
        return Pass()  # setup's import already compiled and cached the package

    def probe_cases(self, inputs: CliInputs) -> list[Case]:
        inst = nm.plant_optimum_max_affine(self._gen_seed(0), self.GEN["n"], self.GEN["m"],
                                           spread=self.GEN["spread"],
                                           active_scale=self.GEN["active_scale"])
        return [make_case(inst, None, self.ZETA, self.ITERS)]

    def fermat_weber(self, inputs: CliInputs) -> nm.FermatWeberInstance:
        for path, _, _ in inputs.plans:
            plan = json.loads(path.read_text(encoding="utf-8"))
            if plan.get("problem") == "fermatweber":
                conf = plan["configs"][0]
                return nm.gen_fermat_weber(conf["seeds"][0], conf["n"], conf["m"],
                                           scale=float(conf.get("anchor_scale", 10.0)))
        return nm.gen_fermat_weber(self.seed, 2, 27)

    def _gen_seed(self, j: int) -> int:
        return 1000 * self.seed + j

    def run_pass(self, inputs: CliInputs, in_process: bool = False) -> Pass:
        p = Pass()
        d = inputs.dir
        call = self._call_in_process if in_process else self._call_subprocess
        t_pass = time.perf_counter()
        for j in range(self.ROUND_TRIPS):
            inst, trace = str(d / f"inst{j}.json"), str(d / f"trace{j}.csv")
            t0 = time.perf_counter()
            gen = ["gen", "maxaffine", "--seed", str(self._gen_seed(j)), "--planted", "--out", inst]
            for key, value in self.GEN.items():
                gen += ["--" + key.replace("_", "-"), str(value)]
            call(p, "gen", gen)
            call(p, "run", ["run", inst, "--zeta", str(self.ZETA), "--iters", str(self.ITERS),
                            "--out", trace])
            call(p, "check", ["check", trace, inst, "--zeta", str(self.ZETA)],
                 expect="audit passed")
            p.sample("roundtrip_s", time.perf_counter() - t0)
        t0 = time.perf_counter()
        for path, _, _ in inputs.plans:
            call(p, "bench", ["bench", str(path), "--out-dir", str(d / f"out-{path.stem}")])
        p.sample("bench_total_s", time.perf_counter() - t0)
        p.wall_s = time.perf_counter() - t_pass

        p.steps = self.ROUND_TRIPS * self.ITERS + sum(steps for _, steps, _ in inputs.plans)
        p.runs = self.ROUND_TRIPS + sum(runs for _, _, runs in inputs.plans)
        p.rows = self.ROUND_TRIPS * (self.ITERS + 1)
        self._check_outputs(p, inputs)
        return p

    def _check_outputs(self, p: Pass, inputs: CliInputs) -> None:
        d = inputs.dir
        h = hashlib.sha256()
        for j in range(self.ROUND_TRIPS):
            try:
                summary = json.loads((d / f"trace{j}.summary.json").read_text(encoding="utf-8"))
                columns = csv_columns(d / f"trace{j}.csv")
            except (OSError, ValueError, KeyError) as exc:
                p.failures.append(f"round trip {j}: unreadable output: {exc}")
                continue
            if summary.get("termination") != "max_iters" or len(columns[0]) != self.ITERS + 1:
                p.failures.append(f"round trip {j}: run ended by {summary.get('termination')}")
            digest_update(h, columns)
        p.digest = h.hexdigest()
        out = hashlib.sha256(p.digest.encode())
        for path, _, _ in inputs.plans:
            for table in sorted((d / f"out-{path.stem}").glob("*.csv")):
                data = table.read_bytes()
                out.update(table.name.encode() + data)
                for row in csv.DictReader(io.StringIO(data.decode("utf-8"))):
                    if row["status"] not in ("max_iters", "aggregate"):
                        p.failures.append(f"{table.name}: {row['method']} seed {row['seed']} "
                                          f"ended with {row['status']}")
        p.outputs = out.hexdigest()

    def _record(self, p: Pass, kind: str, seconds: float, code: int, out: str, err: str,
                expect: str | None) -> None:
        p.sample(kind + "_s", seconds)
        if kind in ("run", "bench"):
            p.sample("solve_s", seconds)
        elif kind == "check":
            p.sample("audit_s", seconds)
        p.attempted += 1
        if code != 0 or (expect is not None and expect not in out):
            tail = (err or out).strip().splitlines()[-1:] or [""]
            p.failures.append(f"{kind} exited {code}: {tail[0]}")

    def _call_subprocess(self, p: Pass, kind: str, argv: list, expect: str | None = None) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "nmsubgrad.cli", *argv], env=self.env,
                              capture_output=True, text=True, timeout=150)
        self._record(p, kind, time.perf_counter() - t0, proc.returncode, proc.stdout,
                     proc.stderr, expect)

    def _call_in_process(self, p: Pass, kind: str, argv: list, expect: str | None = None) -> None:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        self._record(p, kind, time.perf_counter() - t0, code, out.getvalue(), err.getvalue(),
                     expect)


WORKLOADS = {"fixture": Fixture, "kernel_heavy": KernelHeavy, "cli": Cli}
