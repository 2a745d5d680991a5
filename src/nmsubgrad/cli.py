"""Command-line harness.

Subcommands: gen (write an instance file), run (solve one instance, write a
trace and a summary), bench (run a plan of configs x methods x seeds, write
per-config tables), check (audit a trace against its instance, under the
config that the summary beside the trace records).

Exit codes: 0 on success, 1 when at least one audit check failed, and 2 on a
usage or input error, an input too large to allocate included. All outputs
are deterministic for fixed inputs and written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    SKIPPED,
    audit_rate_bounds,
    audit_report_to_json,
    audit_stepwise,
    constants,
    merge_reports,
)
from .core import (
    ConfigError,
    SolverConfig,
    SqrtInverse,
    TERMINATION_BACKTRACK_FAILURE,
    _NUMBER_FIELDS,
    _config_from_items,
    _config_items,
    _json_value,
    _read_fields,
    _to_obj,
)
from .problems import (
    Ball,
    Box,
    WholeSpace,
    _atomic_write,
    gen_fermat_weber,
    gen_max_affine,
    load_instance,
    make_problem,
    plant_optimum_max_affine,
    read_anchor_csv,
    save_instance,
    weiszfeld,
    FermatWeberInstance,
)
from .solver import (
    METHODS,
    _RULES,
    _start_point,
    _stop_tag,
    _trace_text,
    read_trace_csv,
    solve_nonmonotone,
    solve_prefixed,
)

# run's and check's float flags, besides --zeta: each overrides the config field of its name
_RUN_FLAGS = ("c", "beta", "rho", "alpha1")
_CHECK_FLAGS = ("c", "beta", "rho")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nmsubgrad", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.set_defaults(handler=cmd_gen)
    gsub = g.add_subparsers(dest="family", required=True)

    ga = gsub.add_parser("maxaffine", help="max-of-affine instance")
    ga.add_argument("--seed", type=int, default=0)
    ga.add_argument("--n", type=int, required=True)
    ga.add_argument("--m", type=int, required=True)
    ga.add_argument("--planted", action="store_true",
                    help="plant a certified optimum (x_star, f_star)")
    ga.add_argument("--active", type=int, default=None,
                    help="planted active piece count (default n+1)")
    ga.add_argument("--spread", type=float, default=None,
                    help="planted distance of x_star from the origin")
    ga.add_argument("--active-scale", type=float, default=None,
                    help="multiplier on the planted active gradients")
    ga.add_argument("--sigma", type=float, default=None,
                    help="strong-convexity modulus of the added quadratic")
    _add_set_flags(ga)
    ga.add_argument("--out", required=True)

    gf = gsub.add_parser("fermatweber", help="weighted-distance-sum instance")
    gf.add_argument("--seed", type=int, default=None, help="default 0")
    gf.add_argument("--n", type=int, default=None, help="default 2, or the csv width")
    gf.add_argument("--m", type=int, default=None, help="default 27")
    gf.add_argument("--scale", type=float, default=None, dest="anchor_scale")
    gf.add_argument("--from-csv", default=None, dest="anchors_csv",
                    help="read anchors from lat,lon rows (integer parts, sign-flipped)")
    _add_set_flags(gf)
    gf.add_argument("--out", required=True)

    r = sub.add_parser("run", help="solve one instance, write trace + summary")
    r.set_defaults(handler=cmd_run)
    r.add_argument("instance")
    r.add_argument("--method", choices=METHODS, default="nonmonotone")
    r.add_argument("--zeta", type=float, default=None, help="gamma_k = zeta/sqrt(k)")
    for name in _RUN_FLAGS:
        r.add_argument("--" + name, type=float)
    r.add_argument("--backtrack-cap", type=int, default=None,
                   help="bound on the rung ell of one line search (default 500)")
    r.add_argument("--iters", type=int, default=None, dest="max_iters", metavar="ITERS")
    r.add_argument("--step-const", type=float, default=None,
                   help="constant of the prefixed rule (method-specific default)")
    r.add_argument("--config", default=None,
                   help="JSON config file, keyed as a summary's config; explicit flags override it")
    r.add_argument("--out", required=True, help="trace path; summary lands beside it")

    b = sub.add_parser("bench", help="run a benchmark plan")
    b.set_defaults(handler=cmd_bench)
    b.add_argument("plan")
    b.add_argument("--out-dir", default=None, help="overrides the plan's out_dir")

    k = sub.add_parser("check", help="audit a trace against its instance, under the config "
                                     "its summary records; explicit flags override it")
    k.set_defaults(handler=cmd_check)
    k.add_argument("trace")
    k.add_argument("instance")
    for name in _CHECK_FLAGS:
        k.add_argument("--" + name, type=float)
    k.add_argument("--zeta", type=float, default=None, help="gamma_k = zeta/sqrt(k)")
    k.add_argument("--out", default=None, help="write the audit report JSON here")
    return p


def _add_set_flags(sp) -> None:
    sp.add_argument("--set", choices=("rn", "box", "ball"), default="rn")
    sp.add_argument("--radius", type=float, help="ball radius (default 10)")
    sp.add_argument("--box-lo", type=float, help="box lower bound (scalar, default -10)")
    sp.add_argument("--box-hi", type=float, help="box upper bound (scalar, default 10)")


def _build_set(args, n: int):
    """args.set in dimension n; a set flag of another set is a ConfigError."""
    for name, kind in (("radius", "ball"), ("box_lo", "box"), ("box_hi", "box")):
        if getattr(args, name) is not None and args.set != kind:
            raise ConfigError(f"--{name.replace('_', '-')} applies only to --set {kind}")
    if args.set == "rn":
        return WholeSpace()
    if args.set == "ball":
        return Ball(center=np.zeros(n), radius=10.0 if args.radius is None else args.radius)
    return Box(lo=np.full(n, -10.0 if args.box_lo is None else args.box_lo),
               hi=np.full(n, 10.0 if args.box_hi is None else args.box_hi))


def _given(args, names) -> dict:
    """The attributes among names that args sets (not None); the others are
    left out, so the function they are passed to applies its own defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


# ----- gen -----


def _max_affine(params, seed: int, planted: bool):
    """A max-affine instance of params' (gen's flags' or a bench entry's) n, m and
    sigma: planted with its active, spread and active_scale, or given none of them."""
    if planted:
        return plant_optimum_max_affine(seed, params.n, params.m, active_count=params.active,
                                        **_given(params, ("spread", "sigma", "active_scale")))
    if _given(params, ("active", "spread", "active_scale")):
        raise ConfigError("--active, --spread and --active-scale apply only to --planted")
    return gen_max_affine(seed, params.n, params.m, **_given(params, ("sigma",)))


def _fermat_weber(params, seed: int | None):
    """A Fermat-Weber instance with unit weights: at the anchors of
    params.anchors_csv, which takes no anchor_scale, or at the seed's random
    anchors of params' n and m at its anchor_scale."""
    if params.anchors_csv is None:
        scale = {} if params.anchor_scale is None else {"scale": params.anchor_scale}
        return gen_fermat_weber(seed, params.n, params.m, **scale)
    if params.anchor_scale is not None:
        raise ConfigError("anchor_scale does not apply to an anchors file")
    anchors = read_anchor_csv(params.anchors_csv)
    return FermatWeberInstance(anchors=anchors, weights=np.ones(anchors.shape[0]))


def cmd_gen(args) -> int:
    if args.family == "maxaffine":
        inst = _max_affine(args, args.seed, args.planted)
    elif args.anchors_csv is None:
        vars(args).update({"seed": 0, "n": 2, "m": 27, **_given(args, ("seed", "n", "m"))})
        inst = _fermat_weber(args, args.seed)
    # the file sets the anchors, so --n may only repeat its width
    elif _given(args, ("m", "seed", "anchor_scale")):
        raise ConfigError("--m, --seed and --scale do not apply to --from-csv")
    else:
        inst = _fermat_weber(args, None)
        if args.n not in (None, inst.n):
            raise ConfigError(f"--n {args.n} conflicts with csv width {inst.n}")
    cset = _build_set(args, inst.n)
    make_problem(inst, cset)  # what run will ask of the file: a planted optimum in the set
    save_instance(args.out, inst, cset)
    print(args.out)
    return 0


# ----- run -----


def _run_config(args) -> SolverConfig:
    base = SolverConfig()
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = _config_from_items(_json_value(fh.read(), f"config file {args.config!r}"))
    return _override(base, args, (*_RUN_FLAGS, "max_iters", "backtrack_cap"))


def _override(base: SolverConfig, args, names) -> SolverConfig:
    """base with args' values among names, and its zeta as the slack sequence,
    in place of its fields where args gives them (flags or a bench entry)."""
    given = _given(args, names)
    if args.zeta is not None:
        given["gamma"] = SqrtInverse(zeta=args.zeta)
    return dataclasses.replace(base, **given)


def _make_rule(method: str, const: float | None, what: str):
    """method's step rule, at its own default constant unless one is given
    (None for the backtracking method); a bad constant is a ConfigError naming what."""
    if method == "nonmonotone":
        return None
    try:
        return _RULES[method]() if const is None else _RULES[method](a=const)
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _solve(problem, cfg: SolverConfig, method: str, rule):
    """One run of method, through the solvers bound in this module when it is
    called (so a patched attribute is the one that runs)."""
    if method == "nonmonotone":
        return solve_nonmonotone(problem, cfg)
    return solve_prefixed(problem, rule, cfg.max_iters)


def cmd_run(args) -> int:
    # a prefixed rule reads no solver flag but --iters, and the backtracking
    # method no --step-const; a --config file's fields stay accepted
    unread = _given(args, ("step_const",) if args.method == "nonmonotone"
                    else (*_RUN_FLAGS, "zeta", "backtrack_cap"))
    if unread:
        flags = ", ".join("--" + name.replace("_", "-") for name in unread)
        raise ConfigError(f"--method {args.method} does not read {flags}")
    inst, cset = load_instance(args.instance)
    problem = make_problem(inst, cset)
    cfg = _run_config(args)
    rule = _make_rule(args.method, args.step_const, "--step-const")
    report = _solve(problem, cfg, args.method, rule)
    f_star = problem.f_star
    summary = {
        "config": _config_items(cfg),
        "method": args.method,
        "f_best": report.f_best,
        "it_best": report.it_best,
        "termination": report.termination,
        "n_rows": len(report.k),
        "version": __version__,
    }
    if rule is not None:
        summary["rule"] = _to_obj("kind", _RULES, rule)
    if f_star is not None:
        summary["f_star"] = f_star
        summary["gap"] = report.f_best - f_star
    spath = _summary_path(args.out)
    _atomic_write({args.out: _trace_text(report, f_star),  # both files or neither
                   spath: json.dumps(summary, sort_keys=True, indent=2) + "\n"})
    print(args.out)
    print(spath)
    return 0


def _summary_path(out: str) -> str:
    root, _ = os.path.splitext(out)
    return root + ".summary.json"


# ----- bench -----


def cmd_bench(args) -> int:
    with open(args.plan, "r", encoding="utf-8") as fh:
        obj = _json_value(fh.read(), f"plan file {args.plan!r}")
    plan = _Plan(**_read_fields("plan", obj, dataclasses.fields(_Plan)))
    entry_cls = _ENTRIES.get(plan.problem)
    if entry_cls is None:
        raise ConfigError(f"unknown problem kind {plan.problem!r}")
    for i, m in enumerate(plan.methods):
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
        if m in plan.methods[:i]:
            raise ConfigError(f"plan names method {m!r} twice")
    base = _bench_solver(plan.solver)
    consts = _read_fields("plan field 'step_constants'", plan.step_constants, _STEP_CONSTANTS)
    rules = {m: _make_rule(m, consts.get(m), f"plan field 'step_constants', {m!r}")
             for m in METHODS}
    out_dir = args.out_dir or plan.out_dir
    if not out_dir:
        raise ConfigError("no output directory: pass --out-dir or set out_dir in the plan")
    for name in ("configs", "methods"):
        if not getattr(plan, name):
            raise ConfigError(f"plan has no {name}")
    benches = [_bench_config(f"'configs'[{i}]", entry_cls, conf, base)
               for i, conf in enumerate(plan.configs)]
    # every table is built before anything is written, so a run that fails
    # leaves no output
    tables = [_bench_one_config(plan.problem, *bench, plan.methods, rules, out_dir)
              for bench in benches]
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write({path: "\n".join(lines) + "\n" for path, lines in tables})
    for path, _ in tables:
        print(path)
    return 0


@dataclasses.dataclass(frozen=True)
class _Plan:
    """A bench plan file."""

    configs: list
    problem: str = "maxaffine"
    methods: list = METHODS
    solver: dict = dataclasses.field(default_factory=dict)
    step_constants: dict = dataclasses.field(default_factory=dict)
    out_dir: str | None = None


@dataclasses.dataclass(frozen=True)
class _Entry:
    """The keys of every bench config entry; None means the default. A family
    says how it builds the problem of one seed, with f_star its gap reference."""

    n: int
    m: int
    iters: int
    seeds: list[int]
    zeta: float | None = None


@dataclasses.dataclass(frozen=True)
class _MaxAffineEntry(_Entry):
    spread: float | None = None
    sigma: float | None = None
    active_scale: float | None = None
    active: int | None = None

    def problem(self, seed: int):
        return make_problem(_max_affine(self, seed, planted=True))


@dataclasses.dataclass(frozen=True)
class _FermatWeberEntry(_Entry):
    anchor_scale: float | None = None
    anchors_csv: str | None = None

    def problem(self, seed: int):
        """f_star from weiszfeld; an anchors file must hold m rows of n columns."""
        inst = _fermat_weber(self, seed)
        if (inst.m, inst.n) != (self.m, self.n):
            raise ValueError(f"anchors_csv {self.anchors_csv!r} holds {inst.m} rows of "
                             f"{inst.n} columns, not m = {self.m} rows of n = {self.n}")
        _, f_star = weiszfeld(inst)
        return dataclasses.replace(make_problem(inst), f_star=f_star)


_ENTRIES = {"maxaffine": _MaxAffineEntry, "fermatweber": _FermatWeberEntry}

# the plan's "step_constants": an optional constant for each prefixed method
_STEP_CONSTANTS = dataclasses.fields(dataclasses.make_dataclass(
    "StepConstants", [(method, "float | None", dataclasses.field(default=None))
                      for method in _RULES]))


def _bench_solver(solver: dict) -> SolverConfig:
    """The plan's "solver" object: the config's number fields but max_iters
    and seed, which each config sets, as it sets the slack sequence."""
    flds = [f for f in _NUMBER_FIELDS if f.name not in ("max_iters", "seed")]
    return SolverConfig(**_read_fields("plan field 'solver'", solver, flds))


def _bench_config(what: str, entry_cls, conf, base: SolverConfig):
    """(entry, solver config, [(seed, problem)]) of one config entry, or a ConfigError."""
    entry = entry_cls(**_read_fields(what, conf, dataclasses.fields(entry_cls)))
    if not entry.seeds:
        raise ConfigError(f"{what} has an empty seed list")
    cfg = _override(dataclasses.replace(base, max_iters=entry.iters), entry, ())
    try:
        runs = [(seed, entry.problem(seed)) for seed in entry.seeds]
    except (ValueError, OSError, MemoryError) as exc:  # the entry names the culprit
        raise ConfigError(f"{what} = {conf!r}: {_describe(exc)}") from None
    return entry, cfg, runs


def _median(col) -> float:
    """np.median(col)'s float without its numpy.ma import: nan when a value is
    NaN, else the middle value or the middle two's sum over 2, each sum
    started at 0.0 as numpy's mean starts it (a -0.0 median reads 0.0)."""
    vals = sorted(map(float, col))
    if any(v != v for v in vals):
        return float("nan")
    mid = len(vals) // 2
    return 0.0 + vals[mid] if len(vals) % 2 else (0.0 + vals[mid - 1] + vals[mid]) / 2


def _bench_one_config(kind, entry, cfg, runs, methods, rules, out_dir):
    """(path, lines) of one config's table: a row per method and seed, whose
    status is the run's termination, and a median row per method."""
    fw = kind == "fermatweber"
    x_cols = [f"x{i+1}" for i in range(entry.n)] if fw else []
    header = ["method", "seed"] + x_cols + ["gap", "it_best", "status"]
    lines = [",".join(header)]
    for method in methods:
        results = []  # (gap, it_best) of each seed
        for seed, problem in runs:
            report = _solve(problem, cfg, method, rules[method])
            gap = report.f_best - problem.f_star
            cells = [repr(float(v)) for v in report.xs[report.it_best - 1]] if fw else []
            cells += [repr(float(gap)), str(report.it_best), report.termination]
            results.append((gap, report.it_best))
            lines.append(",".join([method, str(seed), *cells]))
        medians = [repr(_median(col)) for col in zip(*results)]
        lines.append(",".join([method, "median", *["nan"] * len(x_cols), *medians, "aggregate"]))
    name = f"bench_{kind}_n{entry.n}_m{entry.m}.csv"
    return os.path.join(out_dir, name), lines


# ----- check -----


def _audit_config(args, report, problem) -> tuple[SolverConfig, str | None]:
    """The config the summary beside the trace records, or the defaults when
    there is none, with the check's flags in place of its fields; and the
    method it names, None or one of METHODS. Each result the summary states
    must be the trace's or the instance's, of its type (a bool is no int),
    NaN equal to NaN; termination needs the summary's max_iters."""
    base, summary = SolverConfig(), {}
    spath = _summary_path(args.trace)
    what = f"summary file {spath!r}"
    if os.path.exists(spath):
        with open(spath, "r", encoding="utf-8") as fh:
            summary = _json_value(fh.read(), what)
        if not isinstance(summary, dict):
            raise ConfigError(f"{what} must be a JSON object, got {type(summary).__name__}")
        try:  # null means absent, as in every field
            if summary.get("config") is not None:
                base = _config_from_items(summary["config"])
        except ConfigError as exc:
            raise ConfigError(f"{what}: {exc}") from None
    method = summary.get("method")
    if method is not None and method not in METHODS:
        raise ConfigError(f"{what}: field 'method' must be one of {', '.join(METHODS)}, "
                          f"got {method!r}")
    rows, best, f_star = len(report.k), report.it_best, problem.f_star
    facts = {"n_rows": (rows, None), "f_best": (report.f_best, best), "it_best": (best, best),
             "f_star": (f_star, None),  # each with the trace row that shows it, if one does
             "gap": (None if f_star is None else report.f_best - f_star, best)}
    if summary.get("config") is not None:  # so its max_iters is the run's
        tag = _stop_tag(rows, base.max_iters, report.f[-1], report.snorm[-1])
        facts["termination"] = (tag or TERMINATION_BACKTRACK_FAILURE, rows)  # None: a cap ran out
    for name, (fact, row) in facts.items():
        claim = summary.get(name)
        same = type(claim) is type(fact) and (claim == fact or claim != claim and fact != fact)
        if claim is not None and not same:
            where = ""
            if row is not None:  # the row's line, blank lines counted as read_trace_csv does
                with open(args.trace, "r", encoding="utf-8") as fh:
                    where = f"{args.trace}:{[n for n, t in enumerate(fh, 1) if t.strip()][row]}: "
            whose = "the instance's" if name == "f_star" else "the trace's"
            raise ConfigError(f"{where}{what}: field {name!r} is {claim!r}, not {whose} "
                              f"{fact!r}" + " rows" * (name == "n_rows"))
    return _override(base, args, _CHECK_FLAGS), method


def cmd_check(args) -> int:
    report = read_trace_csv(args.trace)
    inst, cset = load_instance(args.instance)
    problem = make_problem(inst, cset)
    cfg, method = _audit_config(args, report, problem)
    report = dataclasses.replace(report, method=method)
    tc = None if problem.L is None else constants(cfg.rho, cfg.beta, problem.L, c=cfg.c)
    x1 = _start_point(problem, None)  # run's start, which a trace does not carry
    merged = merge_reports(
        audit_stepwise(report, problem, cfg, tc, x1=x1),
        audit_rate_bounds(report, problem, cfg, tc, x1=x1),
    )
    for ch in merged.checks:
        loc = f" (worst at k={ch.worst_index})" if ch.worst_index is not None else ""
        why = f" [{ch.detail}]" if ch.detail else ""
        print(f"{ch.name}: {ch.status}{loc}{why}")
    if args.out:
        _atomic_write({args.out: audit_report_to_json(merged) + "\n"})
    ran = sum(ch.status != SKIPPED for ch in merged.checks)
    verdict = "passed" if merged.passed else "FAILED"
    print(f"audit {verdict} ({ran or 'none'} of {len(merged.checks)} checks ran)")
    return 0 if merged.passed else 1


# ----- entry point -----


def _describe(exc: Exception) -> str:
    """exc's message; a MemoryError raised bare, as `.tolist()` raises it, is
    named instead of printing an empty line."""
    if str(exc) or not isinstance(exc, MemoryError):
        return str(exc)
    return f"out of memory ({type(exc).__name__})"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError is a ValueError
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
