"""Per-call costs of single layers, measured directly at a workload's shapes.

These complement the traced pass: the tracer gives call counts and self
times inside real runs; the probes time one layer's public function alone.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import nmsubgrad as nm
from nmsubgrad import _kernels

REPEATS = 5
MIN_REPEAT_S = 0.02


def per_call_us(fn, *args) -> float:
    """Median over REPEATS of the mean time per call, in microseconds; each
    repeat makes enough calls to last at least MIN_REPEAT_S."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        if time.perf_counter() - t0 >= MIN_REPEAT_S:
            break
        loops *= 2
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        times.append((time.perf_counter() - t0) / loops)
    return statistics.median(times) * 1e6


def _kernel_calls(inst, cset, x):
    """(value, eval, project) kernel calls with their arguments, and the
    bytes one value call reads. An unconstrained problem projects by the
    identity, so the ball kernel stands in for it at the same dimension."""
    if isinstance(inst, nm.MaxAffineInstance):
        args = (inst.A, inst.b, inst.sigma, x)
        value, evaluate = _kernels.max_affine_value, _kernels.max_affine_eval
        nbytes = inst.A.nbytes + inst.b.nbytes + x.nbytes
    else:
        args = (inst.anchors, inst.weights, x)
        value, evaluate = _kernels.fermat_weber_value, _kernels.fermat_weber_eval
        nbytes = inst.anchors.nbytes + inst.weights.nbytes + x.nbytes
    if isinstance(cset, nm.Box):
        project = (_kernels.project_box, (cset.lo, cset.hi, x))
    elif isinstance(cset, nm.Ball):
        project = (_kernels.project_ball, (cset.center, cset.radius, x))
    else:
        project = (_kernels.project_ball, (np.zeros_like(x), 1.0, x))
    return (value, args), (evaluate, args), project, nbytes


def layer_probes(cases, fermat_weber, workdir: Path) -> dict:
    """kernels.*, core.*, solver.* per-row costs and problems.weiszfeld_ms,
    averaged over the given cases (one per shape)."""
    rng = np.random.default_rng(0)
    kern = {"value": [], "eval": [], "project": [], "bytes": []}
    record_us, trace_mb, rows = [], [], 0
    prefixed_s = write_s = read_s = 0.0
    trace_bytes = []
    for i, case in enumerate(cases):
        n = case.problem.n
        x = rng.standard_normal(n)
        value, evaluate, project, nbytes = _kernel_calls(case.inst, case.problem.cset, x)
        kern["value"].append(per_call_us(value[0], *value[1]))
        kern["eval"].append(per_call_us(evaluate[0], *evaluate[1]))
        kern["project"].append(per_call_us(project[0], *project[1]))
        kern["bytes"].append(nbytes)
        record_us.append(per_call_us(
            nm.IterationRecord, 1, x, 0.5, 0.1, 0.1, 1, 0.09, 1.0, 0.1))

        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        report = nm.solve_nonmonotone(case.problem, case.cfg)
        trace_mb.append((tracemalloc.get_traced_memory()[0] - before) / 2**20)
        tracemalloc.stop()

        t0 = time.perf_counter()
        pref = nm.solve_prefixed(case.problem, nm.ConstantStep(), case.cfg.max_iters)
        prefixed_s += time.perf_counter() - t0

        path = workdir / f"probe{i}.csv"
        t0 = time.perf_counter()
        nm.write_trace_csv(report, str(path), f_star=case.problem.f_star)
        t1 = time.perf_counter()
        nm.read_trace_csv(str(path))
        t2 = time.perf_counter()
        write_s += t1 - t0
        read_s += t2 - t1
        rows += len(report.records)
        trace_bytes.append(path.stat().st_size)
        del report, pref

    weiszfeld_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        nm.weiszfeld(fermat_weber)
        weiszfeld_s.append(time.perf_counter() - t0)

    mean = statistics.fmean
    return {
        "kernels.value_us": mean(kern["value"]),
        "kernels.eval_us": mean(kern["eval"]),
        "kernels.project_us": mean(kern["project"]),
        "kernels.bytes_per_call": mean(kern["bytes"]),
        "problems.weiszfeld_ms": statistics.median(weiszfeld_s) * 1e3,
        "solver.prefixed_us_per_row": prefixed_s / rows * 1e6,
        "solver.write_csv_us_per_row": write_s / rows * 1e6,
        "solver.read_csv_us_per_row": read_s / rows * 1e6,
        "solver.trace_bytes": mean(trace_bytes),
        "core.record_us": mean(record_us),
        "core.trace_mb_per_run": mean(trace_mb),
    }


def cli_layer(cli_pass, env: dict) -> dict:
    """cli.* from one cli pass (subprocess timings) plus the package's import
    time, taken inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import nmsubgrad.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        imports.append(float(out.stdout.strip()))
    med = statistics.median
    return {
        "cli.import_s": med(imports),
        "cli.gen_s": med(cli_pass.samples["gen_s"]),
        "cli.run_s": med(cli_pass.samples["run_s"]),
        "cli.check_s": med(cli_pass.samples["check_s"]),
        "cli.bench_s": med(cli_pass.samples["bench_total_s"]),
    }
