"""Command-line harness.

Subcommands: gen (write an instance file), run (solve one instance, write a
trace and a summary), bench (run a plan of configs x methods x seeds, write
per-config tables), check (audit a trace against its instance).

Exit codes: 0 success, 1 at least one audit check failed, 2 usage or input
errors. All outputs are deterministic for fixed inputs and written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys

import numpy as np

from .analysis import (
    audit_rate_bounds,
    audit_report_to_json,
    audit_stepwise,
    constants,
    merge_reports,
)
from .core import (
    SCALAR_FIELDS,
    ConfigError,
    SolverConfig,
    SqrtInverse,
    ExplicitTable,
    _check_config,
    _config_from_items,
    config_from_json,
    config_from_keyvalues,
)
from .problems import (
    Ball,
    Box,
    WholeSpace,
    _atomic_write,
    contains,
    gen_fermat_weber,
    gen_max_affine,
    lipschitz_bound,
    load_instance,
    make_problem,
    plant_optimum_max_affine,
    project,
    read_anchor_csv,
    save_instance,
    weiszfeld,
    FermatWeberInstance,
)
from .solver import (
    ConstantLength,
    ConstantStep,
    NonsummableDiminishing,
    SquareSummable,
    _check_rule,
    _trace_columns,
    read_trace_csv,
    solve_nonmonotone,
    solve_prefixed,
    write_trace_csv,
)

METHODS = ("nonmonotone", "constant", "fixedlength", "nonsum", "sqrsum")

_RULES = {
    "constant": ConstantStep,
    "fixedlength": ConstantLength,
    "nonsum": NonsummableDiminishing,
    "sqrsum": SquareSummable,
}


class UsageError(Exception):
    pass


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
    gf.add_argument("--seed", type=int, default=0)
    gf.add_argument("--n", type=int, default=2)
    gf.add_argument("--m", type=int, default=27)
    gf.add_argument("--scale", type=float, default=None)
    gf.add_argument("--from-csv", default=None,
                    help="read anchors from lat,lon rows (integer parts, sign-flipped)")
    _add_set_flags(gf)
    gf.add_argument("--out", required=True)

    r = sub.add_parser("run", help="solve one instance, write trace + summary")
    r.set_defaults(handler=cmd_run)
    r.add_argument("instance")
    r.add_argument("--method", choices=METHODS, default="nonmonotone")
    r.add_argument("--zeta", type=float, default=None, help="gamma_k = zeta/sqrt(k)")
    r.add_argument("--c", type=float, default=None)
    r.add_argument("--beta", type=float, default=None)
    r.add_argument("--rho", type=float, default=None)
    r.add_argument("--alpha1", type=float, default=None)
    r.add_argument("--backtrack-cap", type=int, default=None)
    r.add_argument("--iters", type=int, default=None, dest="max_iters", metavar="ITERS")
    r.add_argument("--seed", type=int, default=None, help="recorded in the config")
    r.add_argument("--step-const", type=float, default=None,
                   help="constant of the prefixed rule (method-specific default)")
    r.add_argument("--config", default=None,
                   help="JSON or key=value config file; explicit flags override it")
    r.add_argument("--out", required=True, help="trace path; summary lands beside it")
    r.add_argument("--format", choices=("csv", "json"), default="csv")

    b = sub.add_parser("bench", help="run a benchmark plan")
    b.set_defaults(handler=cmd_bench)
    b.add_argument("plan")
    b.add_argument("--out-dir", default=None, help="overrides the plan's out_dir")

    k = sub.add_parser("check", help="audit a trace against its instance")
    k.set_defaults(handler=cmd_check)
    k.add_argument("trace")
    k.add_argument("instance")
    k.add_argument("--c", type=float, default=None)
    k.add_argument("--beta", type=float, default=None)
    k.add_argument("--rho", type=float, default=None)
    k.add_argument("--zeta", type=float, default=None,
                   help="declare gamma_k = zeta/sqrt(k); inferred from the trace otherwise")
    k.add_argument("--out", default=None, help="write the audit report JSON here")
    return p


def _add_set_flags(sp) -> None:
    sp.add_argument("--set", choices=("rn", "box", "ball"), default="rn")
    sp.add_argument("--radius", type=float, default=10.0, help="ball radius")
    sp.add_argument("--box-lo", type=float, default=-10.0, help="box lower bound (scalar)")
    sp.add_argument("--box-hi", type=float, default=10.0, help="box upper bound (scalar)")


def _build_set(args, n: int):
    if args.set == "rn":
        return WholeSpace()
    if args.set == "ball":
        return Ball(center=np.zeros(n), radius=args.radius)
    return Box(lo=np.full(n, args.box_lo), hi=np.full(n, args.box_hi))


def _given(args, names) -> dict:
    """The flags among names given on the command line; the others are left
    out, so the function they are passed to applies its own defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


# ----- gen -----


def cmd_gen(args) -> int:
    if args.family == "maxaffine":
        if args.planted:
            inst = plant_optimum_max_affine(
                args.seed, args.n, args.m, active_count=args.active,
                **_given(args, ("spread", "sigma", "active_scale")),
            )
        else:
            inst = gen_max_affine(args.seed, args.n, args.m, **_given(args, ("sigma",)))
        cset = _build_set(args, args.n)
        if inst.x_star is not None and not contains(cset, inst.x_star):
            raise UsageError(
                "planted optimum lies outside the requested set; "
                "enlarge the set or drop --planted"
            )
        save_instance(args.out, inst, cset)
    else:
        if args.from_csv is not None:
            anchors = read_anchor_csv(args.from_csv)
            if args.n != anchors.shape[1] and args.n != 2:
                raise UsageError(
                    f"--n {args.n} conflicts with csv width {anchors.shape[1]}"
                )
            inst = FermatWeberInstance(anchors=anchors, weights=np.ones(anchors.shape[0]))
        else:
            inst = gen_fermat_weber(args.seed, args.n, args.m, **_given(args, ("scale",)))
        cset = _build_set(args, inst.n)
        save_instance(args.out, inst, cset)
    print(args.out)
    return 0


# ----- run -----


def _run_config(args) -> SolverConfig:
    base = SolverConfig()
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            base = config_from_json(text)
        except json.JSONDecodeError:
            base = config_from_keyvalues(text)
    given = _given(args, SCALAR_FIELDS)
    if args.zeta is not None:
        given["gamma"] = SqrtInverse(zeta=args.zeta)
    return _check_config(dataclasses.replace(base, **given))


def _make_rule(method: str, const: float | None):
    """The method's step rule, with the rule's own default constant unless
    one is given; a constant that is not positive is a ValueError."""
    cls = _RULES[method]
    rule = cls() if const is None else cls(a=float(const))
    _check_rule(rule)
    return rule


def cmd_run(args) -> int:
    inst, cset = load_instance(args.instance)
    problem = make_problem(inst, cset)
    cfg = _run_config(args)
    if args.method == "nonmonotone":
        report = solve_nonmonotone(problem, cfg)
    else:
        report = solve_prefixed(problem, _make_rule(args.method, args.step_const), cfg.max_iters)
    f_star = problem.f_star
    if args.format == "csv":
        write_trace_csv(report, args.out, f_star=f_star)
    else:
        _write_trace_json(report, args.out, f_star=f_star)
    summary = {
        "method": args.method,
        "f_best": report.f_best,
        "it_best": report.it_best,
        "termination": report.termination,
        "n_rows": len(report.k),
    }
    if f_star is not None:
        summary["f_star"] = f_star
        summary["gap"] = report.f_best - f_star
    spath = _summary_path(args.out)
    _atomic_write(spath, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(args.out)
    print(spath)
    return 0


def _summary_path(out: str) -> str:
    root, _ = os.path.splitext(out)
    return root + ".summary.json"


def _write_trace_json(report, path: str, f_star=None) -> None:
    cols = _trace_columns(report, f_star)
    objs = [dict(zip(cols, row)) for row in zip(*cols.values())]
    _atomic_write(path, json.dumps(objs, sort_keys=True, indent=2) + "\n")


# ----- bench -----


def cmd_bench(args) -> int:
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    if not isinstance(plan, dict):
        raise UsageError(f"{args.plan}: plan must be a JSON object, got {type(plan).__name__}")
    _reject_unknown("plan", plan, _PLAN_KEYS)
    problem_kind = plan.get("problem", "maxaffine")
    if problem_kind not in ("maxaffine", "fermatweber"):
        raise UsageError(f"unknown problem kind {problem_kind!r}")
    methods = _plan_part(plan, "methods", list, list(METHODS))
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    base = _bench_solver(_plan_part(plan, "solver", dict, {}))
    rules = _bench_rules(_plan_part(plan, "step_constants", dict, {}))
    out_dir = args.out_dir or plan.get("out_dir")
    if not out_dir:
        raise UsageError("no output directory: pass --out-dir or set out_dir in the plan")
    if not isinstance(out_dir, str):
        raise UsageError(f"out_dir must be a string, got {type(out_dir).__name__}")
    configs = _plan_part(plan, "configs", list, [])
    if not configs:
        raise UsageError("plan has no configs")
    fields = [_bench_config_fields(problem_kind, conf, base) for conf in configs]
    os.makedirs(out_dir, exist_ok=True)
    written = [_bench_one_config(problem_kind, f, methods, rules, out_dir) for f in fields]
    for path in written:
        print(path)
    return 0


_PLAN_KEYS = ("problem", "methods", "solver", "step_constants", "configs", "out_dir")

# the shape keys of a config entry for each problem kind: plan key ->
# (generator keyword, parse type)
_SHAPE = {
    "maxaffine": {"spread": ("spread", float), "sigma": ("sigma", float),
                  "active_scale": ("active_scale", float), "active": ("active_count", int)},
    "fermatweber": {"anchor_scale": ("scale", float)},
}
# the keys of a config entry for each problem kind: the common ones, the
# kind's shape, and the Fermat-Weber anchors
_COMMON_KEYS = ("n", "m", "zeta", "iters", "seeds")
_CONFIG_KEYS = {
    "maxaffine": (*_COMMON_KEYS, *_SHAPE["maxaffine"]),
    "fermatweber": (*_COMMON_KEYS, *_SHAPE["fermatweber"], "anchors_csv"),
}


def _reject_unknown(where: str, obj: dict, known) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise UsageError(f"{where} has unknown field(s) {', '.join(map(repr, unknown))}")


def _plan_part(plan: dict, key: str, kind: type, default):
    value = plan.get(key, default)
    if not isinstance(value, kind):
        want = "an object" if kind is dict else "a list"
        raise UsageError(f"plan field {key!r} must be {want}, got {type(value).__name__}")
    return value


def _bench_solver(solver: dict) -> SolverConfig:
    """The plan's "solver" object, read like a --config file; iterations,
    seeds and the slack sequence come from each config."""
    own = sorted(key for key in solver if key in ("max_iters", "seed") or key.startswith("gamma."))
    if own:
        raise UsageError(
            f"plan field 'solver' sets {', '.join(map(repr, own))}, which each config sets"
        )
    try:
        return _config_from_items(solver)
    except ConfigError as exc:
        raise UsageError(f"plan field 'solver': {exc}") from None


def _bench_rules(steps: dict) -> dict:
    """Every prefixed method's step rule, with the plan's constant where given."""
    _reject_unknown("plan field 'step_constants'", steps, _RULES)
    rules = {}
    for method in _RULES:
        try:
            rules[method] = _make_rule(method, steps.get(method))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"plan field 'step_constants', {method!r}: {exc}") from None
    return rules


def _bench_config_fields(kind: str, conf, base: SolverConfig):
    """(n, m, solver config, seeds, generator shape keywords, anchors or None)
    of one config entry; a malformed entry is a UsageError."""
    if not isinstance(conf, dict):
        raise UsageError(f"each entry of 'configs' must be an object, got {type(conf).__name__}")
    _reject_unknown("config", conf, _CONFIG_KEYS[kind])
    try:
        n = int(conf["n"])
        m = int(conf["m"])
        gamma = SqrtInverse(zeta=float(conf["zeta"])) if "zeta" in conf else SqrtInverse()
        iters = int(conf["iters"])
        seeds = conf["seeds"]
        if not isinstance(seeds, list):
            raise UsageError(f"config field 'seeds' must be a list, got {type(seeds).__name__}")
        seeds = [int(s) for s in seeds]
    except KeyError as exc:
        raise UsageError(f"config is missing field {exc}") from None
    except TypeError as exc:
        raise UsageError(f"config field has the wrong type: {exc}") from None
    if not seeds:
        raise UsageError("config has an empty seed list")
    shape = {}
    for key, (keyword, cast) in _SHAPE[kind].items():
        if key in conf:
            try:
                shape[keyword] = cast(conf[key])
            except (TypeError, ValueError) as exc:
                raise UsageError(f"config field {key!r}: {exc}") from None
    anchors = None
    if "anchors_csv" in conf:
        try:
            # fspath keeps a number from being opened as a file descriptor
            anchors = read_anchor_csv(os.fspath(conf["anchors_csv"]))
        except (TypeError, ValueError, OSError) as exc:
            raise UsageError(f"config field 'anchors_csv': {exc}") from None
    cfg = _check_config(dataclasses.replace(base, gamma=gamma, max_iters=iters))
    return n, m, cfg, seeds, shape, anchors


def _bench_one_config(kind, fields, methods, rules, out_dir) -> str:
    n, m, cfg, seeds, shape, anchors = fields
    fw = kind == "fermatweber"
    x_cols = [f"x{i+1}" for i in range(n)] if fw else []
    header = ["method", "seed"] + x_cols + ["gap", "it_best", "status"]
    lines = [",".join(header)]
    for method in methods:
        gaps, bests = [], []
        for seed in seeds:
            try:
                problem, f_star = _bench_problem(kind, seed, n, m, shape, anchors)
                if method == "nonmonotone":
                    report = solve_nonmonotone(problem, cfg)
                else:
                    report = solve_prefixed(problem, rules[method], cfg.max_iters)
                gap = report.f_best - f_star
                cells = [method, str(seed)]
                if fw:
                    xb = report.xs[report.it_best - 1]
                    cells += [repr(float(v)) for v in xb]
                cells += [repr(float(gap)), str(report.it_best), report.termination]
                gaps.append(gap)
                bests.append(report.it_best)
            except Exception as exc:  # a failed run becomes a row, bench continues
                cells = [method, str(seed)] + ["nan"] * len(x_cols)
                cells += ["nan", "0", f"error:{type(exc).__name__}"]
            lines.append(",".join(cells))
        if gaps:
            cells = [method, "median"] + ["nan"] * len(x_cols)
            cells += [
                repr(float(statistics.median(gaps))),
                repr(float(statistics.median(bests))),
                "aggregate",
            ]
            lines.append(",".join(cells))
    name = f"bench_{kind}_n{n}_m{m}.csv"
    path = os.path.join(out_dir, name)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def _bench_problem(kind, seed, n, m, shape, anchors):
    if kind == "maxaffine":
        inst = plant_optimum_max_affine(seed, n, m, **shape)
        return make_problem(inst), inst.f_star
    if anchors is not None:
        inst = FermatWeberInstance(anchors=anchors, weights=np.ones(anchors.shape[0]))
    else:
        inst = gen_fermat_weber(seed, n, m, **shape)
    _, f_star = weiszfeld(inst)
    problem = dataclasses.replace(make_problem(inst), f_star=f_star)
    return problem, f_star


# ----- check -----


def _infer_gamma(gammas: np.ndarray, zeta_flag: float | None):
    if zeta_flag is not None:
        return SqrtInverse(zeta=zeta_flag)
    finite = gammas[np.isfinite(gammas)]
    if finite.size == 0:
        return SqrtInverse()
    k = np.arange(1, len(gammas) + 1, dtype=np.float64)
    z = gammas * np.sqrt(k)
    if np.all(np.isfinite(z)) and np.ptp(z) <= 1e-9 * max(1.0, abs(float(z[0]))):
        return SqrtInverse(zeta=float(gammas[0]))
    try:
        return ExplicitTable(values=tuple(float(g) for g in gammas))
    except ConfigError:
        return SqrtInverse()  # corrupt gammas; the audits will flag them


def cmd_check(args) -> int:
    report, _ = read_trace_csv(args.trace)
    inst, cset = load_instance(args.instance)
    problem = make_problem(inst, cset)
    gamma_seq = _infer_gamma(report.gamma, args.zeta)
    cfg = _check_config(SolverConfig(
        **_given(args, ("c", "beta", "rho")),
        gamma=gamma_seq, max_iters=max(1, len(report.k) - 1),
    ))
    tc = None
    if problem.L is not None and 0.5 < cfg.rho < 1.0:
        tc = constants(cfg.rho, cfg.beta, problem.L, c=cfg.c)
    x1 = project(cset, np.zeros(problem.n))  # the default start convention
    merged = merge_reports(
        audit_stepwise(report, problem, cfg, tc),
        audit_rate_bounds(report, problem, cfg, tc, x1=x1),
    )
    for ch in merged.checks:
        loc = f" (worst at k={ch.worst_index})" if ch.worst_index is not None else ""
        why = f" [{ch.detail}]" if ch.status == "skipped" and ch.detail else ""
        print(f"{ch.name}: {ch.status}{loc}{why}")
    if args.out:
        _atomic_write(args.out, audit_report_to_json(merged) + "\n")
    if merged.passed:
        print("audit passed")
        return 0
    print("audit FAILED")
    return 1


# ----- entry point -----


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (UsageError, ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
