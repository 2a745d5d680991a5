"""nmsubgrad benchmark: one workload per process, end-to-end metrics or a
traced run for per-layer metrics.

    python3 perfbench/run.py --workload fixture --seed 0 --seconds 20 --trace 0

--trace 0 sets up the workload several times, runs one untimed warm-up pass
and then timed passes for --seconds (at least two), and prints the
end-to-end metrics. --trace 1 runs an untraced and a traced pass and prints
the per-layer metrics. Every pass is checked; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"} and the exit code
is 1 when any check failed. A record of the run, with its environment, is
written to .perfbench_out/ in the checkout; compare.py compares records.
"""

import os
import sys

# cap BLAS threads at the CPU count before numpy loads; subprocesses inherit it
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_MAX = 20  # set-ups at the start and before each timed pass
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_steps_per_s": "1/s",
    "audit_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed for the cli workload only; every workload reports END_TO_END
CLI_ONLY = {"roundtrip_s": "s", "bench_s": "s"}
PER_LAYER = {
    "kernels.value_us": "us", "kernels.eval_us": "us", "kernels.project_us": "us",
    "kernels.bytes_per_call": "bytes",
    "problems.value_calls": "count", "problems.eval_calls": "count",
    "problems.project_calls": "count", "problems.value_us": "us", "problems.eval_us": "us",
    "problems.project_us": "us", "problems.oracle_share": "ratio",
    "problems.weiszfeld_ms": "ms",
    "linesearch.calls": "count", "linesearch.self_us": "us",
    "linesearch.trials_per_step": "count", "linesearch.accept_ratio": "ratio",
    "linesearch.cap_skipped_rungs": "count",
    "solver.driver_self_us": "us", "solver.prefixed_us_per_row": "us",
    "solver.write_csv_us_per_row": "us", "solver.read_csv_us_per_row": "us",
    "solver.trace_bytes": "bytes",
    "core.record_us": "us", "core.trace_mb_per_run": "MB",
    "analysis.stepwise_us_per_row": "us", "analysis.rate_us_per_row": "us",
    "cli.import_s": "s", "cli.gen_s": "s", "cli.run_s": "s", "cli.check_s": "s",
    "cli.bench_s": "s",
    "trace.overhead_s": "s",
}


def load_package():
    """Import nmsubgrad from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import nmsubgrad
    except ImportError as exc:
        sys.exit(f"error: cannot import nmsubgrad from {SRC}: {exc}")
    if not Path(nmsubgrad.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: nmsubgrad was imported from {nmsubgrad.__file__}, not {SRC}")
    return nmsubgrad


def environment(nm) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "backend": nm.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": NPROC,
        "cpu": cpu,
    }


def summarize(values) -> dict:
    return {"value": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values), "of": "median"}


# wall_s and the rates are means over the whole timed window, not medians of
# passes: a shared machine's speed can drift between levels for seconds at a
# time, and a median then jumps between the levels while a mean moves with
# the share of time spent at each.


def rate(counts: list, passes, key: str) -> dict:
    """Throughput over the whole timed window: total count over total time,
    with the per-pass rates as min and max."""
    per_pass = [c / sum(p.samples[key]) for c, p in zip(counts, passes)]
    total_s = sum(sum(p.samples[key]) for p in passes)
    return {"value": sum(counts) / total_s, "n": len(passes),
            "min": min(per_pass), "max": max(per_pass), "of": "total"}


def agree(passes, failures: list) -> None:
    if len({p.outputs for p in passes}) != 1:
        failures.append("passes of the same inputs wrote different outputs")


def timed_run(args, workdir: Path):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, workdir)
    setup_s = []

    def set_up(at_least: int, budget_s: float):
        # set-ups are spread over the run, so their median sees the same
        # machine as the passes do
        spent, inputs = 0.0, None
        for i in range(SETUP_MAX):
            if i >= at_least and spent >= budget_s:
                break
            t0 = time.perf_counter()
            new = wl.setup()
            setup_s.append(time.perf_counter() - t0)
            spent += setup_s[-1]
            inputs = new  # the previous inputs are freed outside the timed region
        return inputs

    inputs = set_up(5, 0.5)
    warm = wl.warm_up(inputs)
    passes = []
    deadline = time.perf_counter() + args.seconds
    # stop when another pass would end further past the deadline than short of it
    while len(passes) < MIN_PASSES or time.perf_counter() + passes[-1].wall_s / 2 < deadline:
        inputs = set_up(1, 0.1)
        passes.append(wl.run_pass(inputs))
    failures = [f for p in [warm] + passes for f in p.failures]
    agree(passes, failures)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    stats = {
        "setup_s": summarize(setup_s),
        "wall_s": dict(summarize([p.wall_s for p in passes]),
                       value=statistics.fmean(p.wall_s for p in passes), of="mean"),
        "solve_steps_per_s": rate([p.steps for p in passes], passes, "solve_s"),
        "audit_rows_per_s": rate([p.rows for p in passes], passes, "audit_s"),
        "peak_rss_mb": summarize([rss_kb / 1024]),
    }
    units = dict(END_TO_END)
    if args.workload == "cli":
        stats["roundtrip_s"] = summarize([s for p in passes for s in p.samples["roundtrip_s"]])
        stats["bench_s"] = summarize([s for p in passes for s in p.samples["bench_total_s"]])
        units.update(CLI_ONLY)
    return [warm] + passes, failures, stats, units, list(END_TO_END), passes[0].digest


def traced_run(args, workdir: Path):
    from probes import cli_layer, layer_probes
    from tracer import Tracer
    from workloads import WORKLOADS, Cli

    wl = WORKLOADS[args.workload](args.seed, workdir)
    inputs = wl.setup()
    warm = wl.warm_up(inputs)
    base = wl.run_pass(inputs, in_process=True)
    tracer = Tracer()
    with tracer.installed():
        traced = wl.run_pass(inputs, in_process=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    own = [base, traced]

    # cli.* come from one pass of the cli workload, run as subprocesses
    cli_wl = wl if isinstance(wl, Cli) else Cli(args.seed, workdir)
    cli_pass = cli_wl.run_pass(inputs if cli_wl is wl else cli_wl.setup())
    every = [warm] + own + [cli_pass]
    if cli_wl is wl:
        own.append(cli_pass)
    failures = [f for p in every for f in p.failures]
    agree(own, failures)

    trace_errors = tracer.check(traced.runs, traced.steps)
    if traced.digest != base.digest:
        trace_errors.append("the traced pass's trace digest differs from the untraced pass's")
    failures += [f"traced run: {e}" for e in trace_errors]

    values = {}
    if not trace_errors:
        values.update(tracer.metrics())
    values["trace.overhead_s"] = traced.wall_s - base.wall_s
    values.update(layer_probes(wl.probe_cases(inputs), wl.fermat_weber(inputs), workdir))
    values.update(cli_layer(cli_pass, cli_wl.env))
    stats = {name: summarize([v]) for name, v in values.items()}
    return every, failures, stats, dict(PER_LAYER), list(PER_LAYER), base.digest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("fixture", "kernel_heavy", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    nm = load_package()
    env = environment(nm)
    print("env: " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        run = traced_run if args.trace else timed_run
        passes, failures, stats, units, reported, digest = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, len(failures))
    correct = not failures and all(n in stats for n in reported)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted:.4g})")
    print("trace digest (f, alpha, ell, gamma, snorm): " + digest)
    for failure in failures[:20]:
        print("FAILED: " + failure)
    for name, st in stats.items():
        spread = (f"({st['of']}, n={st['n']}; min {st['min']:.6g}, max {st['max']:.6g})"
                  if st["n"] > 1 else "(1 sample)")
        print(f"  {name:<30} {st['value']:>14.6g} {units[name]:<6} {spread}")

    metrics = {n: {"value": stats[n]["value"], "unit": units[n]} for n in reported if n in stats}
    record = {
        "env": env, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "digest": digest, "attempted": attempted,
        "failed": failed, "failures": failures,
        "metrics": {n: dict(st, unit=units[n]) for n, st in stats.items()},
        "samples": [p.samples for p in passes],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
