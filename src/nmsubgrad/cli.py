"""Command-line harness.

Subcommands: gen (write an instance file), run (solve one instance, write a
trace and a summary), bench (run a plan of configs x methods x seeds, write
per-config tables), check (audit a trace against its instance, under the
config that the summary beside the trace records).

Exit codes: 0 success, 1 at least one audit check failed, 2 usage or input
errors, an input too large to allocate among them. All outputs are deterministic for fixed inputs and written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

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
    _NUMBER_FIELDS,
    _config_from_items,
    _config_items,
    _json_value,
    _read_fields,
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
    _start_point,
    read_trace_csv,
    solve_nonmonotone,
    solve_prefixed,
    write_trace_csv,
)

_RULES = {
    "constant": ConstantStep,
    "fixedlength": ConstantLength,
    "nonsum": NonsummableDiminishing,
    "sqrsum": SquareSummable,
}

METHODS = ("nonmonotone", *_RULES)


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
    r.add_argument("--step-const", type=float, default=None,
                   help="constant of the prefixed rule (method-specific default)")
    r.add_argument("--config", default=None,
                   help="JSON or key=value config file; explicit flags override it")
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
    k.add_argument("--c", type=float, default=None)
    k.add_argument("--beta", type=float, default=None)
    k.add_argument("--rho", type=float, default=None)
    k.add_argument("--zeta", type=float, default=None, help="gamma_k = zeta/sqrt(k)")
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
            raise ConfigError(
                "planted optimum lies outside the requested set; "
                "enlarge the set or drop --planted"
            )
        save_instance(args.out, inst, cset)
    else:
        if args.from_csv is not None:
            if _given(args, ("m", "seed", "scale")):
                raise ConfigError("--m, --seed and --scale do not apply to --from-csv")
            anchors = read_anchor_csv(args.from_csv)
            if args.n not in (None, anchors.shape[1]):
                raise ConfigError(
                    f"--n {args.n} conflicts with csv width {anchors.shape[1]}"
                )
            inst = FermatWeberInstance(anchors=anchors, weights=np.ones(anchors.shape[0]))
        else:
            inst = gen_fermat_weber(**{"seed": 0, "n": 2, "m": 27,
                                       **_given(args, ("seed", "n", "m", "scale"))})
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
        # text opening with "{" or "[" is JSON, so a JSON syntax error is
        # reported as one, with the file and the position
        if text.lstrip()[:1] in ("{", "["):
            base = _config_from_items(_json_value(text, f"config file {args.config!r}"))
        else:
            base = config_from_keyvalues(text)
    return _override(base, args, ("c", "beta", "rho", "alpha1", "max_iters", "backtrack_cap"))


def _override(base: SolverConfig, args, names) -> SolverConfig:
    """base with the flags among names, and --zeta, that the command line
    gives in place of its fields."""
    given = _given(args, names)
    if args.zeta is not None:
        given["gamma"] = SqrtInverse(zeta=args.zeta)
    return dataclasses.replace(base, **given)


def _make_rule(method: str, const: float | None):
    """The method's step rule, with the rule's own default constant unless
    one is given; a constant that is not positive is a ValueError."""
    cls = _RULES[method]
    rule = cls() if const is None else cls(a=const)
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
    write_trace_csv(report, args.out, f_star=f_star)
    summary = {
        "config": _config_items(cfg),
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


# ----- bench -----


def cmd_bench(args) -> int:
    with open(args.plan, "r", encoding="utf-8") as fh:
        obj = _json_value(fh.read(), f"plan file {args.plan!r}")
    plan = _Plan(**_read_fields("plan", obj, dataclasses.fields(_Plan)))
    entry_cls = _ENTRIES.get(plan.problem)
    if entry_cls is None:
        raise ConfigError(f"unknown problem kind {plan.problem!r}")
    for m in plan.methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    base = _bench_solver(plan.solver)
    rules = _bench_rules(plan.step_constants)
    out_dir = args.out_dir or plan.out_dir
    if not out_dir:
        raise ConfigError("no output directory: pass --out-dir or set out_dir in the plan")
    if not plan.configs:
        raise ConfigError("plan has no configs")
    benches = [_bench_config(f"'configs'[{i}]", entry_cls, conf, base)
               for i, conf in enumerate(plan.configs)]
    # every table is built before anything is written, so a run that fails
    # leaves no output
    tables = [_bench_one_config(plan.problem, *bench, plan.methods, rules, out_dir)
              for bench in benches]
    os.makedirs(out_dir, exist_ok=True)
    for path, lines in tables:
        _atomic_write(path, "\n".join(lines) + "\n")
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
    """The keys of every bench config entry; None means the default."""

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

    def problems(self):
        """(seed, problem, f_star) for each seed."""
        for seed in self.seeds:
            inst = plant_optimum_max_affine(seed, self.n, self.m, active_count=self.active,
                                            **_given(self, ("spread", "sigma", "active_scale")))
            yield seed, make_problem(inst), inst.f_star


@dataclasses.dataclass(frozen=True)
class _FermatWeberEntry(_Entry):
    anchor_scale: float | None = None
    anchors_csv: str | None = None

    def problems(self):
        """(seed, problem, f_star) for each seed, f_star from weiszfeld. An
        anchors file must hold m rows of n columns."""
        anchors = None if self.anchors_csv is None else read_anchor_csv(self.anchors_csv)
        if anchors is not None and anchors.shape != (self.m, self.n):
            raise ValueError(f"anchors_csv {self.anchors_csv!r} holds {anchors.shape[0]} rows "
                             f"of {anchors.shape[1]} columns, not m = {self.m} rows "
                             f"of n = {self.n}")
        scale = {} if self.anchor_scale is None else {"scale": self.anchor_scale}
        for seed in self.seeds:
            if anchors is not None:
                inst = FermatWeberInstance(anchors=anchors, weights=np.ones(anchors.shape[0]))
            else:
                inst = gen_fermat_weber(seed, self.n, self.m, **scale)
            _, f_star = weiszfeld(inst)
            yield seed, dataclasses.replace(make_problem(inst), f_star=f_star), f_star


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


def _bench_rules(steps) -> dict:
    """Every prefixed method's step rule, with the plan's constant where given."""
    consts = _read_fields("plan field 'step_constants'", steps, _STEP_CONSTANTS)
    rules = {}
    for method in _RULES:
        try:
            rules[method] = _make_rule(method, consts.get(method))
        except ValueError as exc:
            raise ConfigError(f"plan field 'step_constants', {method!r}: {exc}") from None
    return rules


def _bench_config(what: str, entry_cls, conf, base: SolverConfig):
    """(entry, solver config, [(seed, problem, f_star)]) of one config entry,
    with each seed's problem built once; a malformed entry is a ConfigError."""
    entry = entry_cls(**_read_fields(what, conf, dataclasses.fields(entry_cls)))
    if not entry.seeds:
        raise ConfigError(f"{what} has an empty seed list")
    gamma = SqrtInverse(**_given(entry, ("zeta",)))
    cfg = dataclasses.replace(base, gamma=gamma, max_iters=entry.iters)
    try:
        runs = list(entry.problems())
    except (ValueError, OSError, MemoryError) as exc:  # the entry names the culprit
        raise ConfigError(f"{what} = {conf!r}: {exc}") from None
    return entry, cfg, runs


def _bench_one_config(kind, entry, cfg, runs, methods, rules, out_dir):
    """(path, lines) of one config's table: a row per method and seed, whose
    status is the run's termination, and a median row per method."""
    fw = kind == "fermatweber"
    x_cols = [f"x{i+1}" for i in range(entry.n)] if fw else []
    header = ["method", "seed"] + x_cols + ["gap", "it_best", "status"]
    lines = [",".join(header)]
    for method in methods:
        gaps, bests = [], []
        for seed, problem, f_star in runs:
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
            lines.append(",".join(cells))
        cells = [method, "median"] + ["nan"] * len(x_cols)
        cells += [
            repr(float(np.median(gaps))),
            repr(float(np.median(bests))),
            "aggregate",
        ]
        lines.append(",".join(cells))
    name = f"bench_{kind}_n{entry.n}_m{entry.m}.csv"
    return os.path.join(out_dir, name), lines


# ----- check -----


def _audit_config(args) -> SolverConfig:
    """The config the summary beside the trace records, or the defaults when
    there is none, with the check's flags in place of its fields."""
    base = SolverConfig()
    spath = _summary_path(args.trace)
    if os.path.exists(spath):
        what = f"summary file {spath!r}"
        with open(spath, "r", encoding="utf-8") as fh:
            summary = _json_value(fh.read(), what)
        if not isinstance(summary, dict):
            raise ConfigError(f"{what} must be a JSON object, got {type(summary).__name__}")
        try:
            base = _config_from_items(summary.get("config", {}))
        except ConfigError as exc:
            raise ConfigError(f"{what}: {exc}") from None
    return _override(base, args, ("c", "beta", "rho"))


def cmd_check(args) -> int:
    report, _ = read_trace_csv(args.trace)
    inst, cset = load_instance(args.instance)
    problem = make_problem(inst, cset)
    cfg = _audit_config(args)
    tc = None if problem.L is None else constants(cfg.rho, cfg.beta, problem.L, c=cfg.c)
    merged = merge_reports(
        audit_stepwise(report, problem, cfg, tc),
        audit_rate_bounds(report, problem, cfg, tc, x1=_start_point(problem, None)),
    )
    for ch in merged.checks:
        loc = f" (worst at k={ch.worst_index})" if ch.worst_index is not None else ""
        why = f" [{ch.detail}]" if ch.detail else ""
        print(f"{ch.name}: {ch.status}{loc}{why}")
    if args.out:
        _atomic_write(args.out, audit_report_to_json(merged) + "\n")
    ran = sum(ch.status != SKIPPED for ch in merged.checks)
    verdict = "passed" if merged.passed else "FAILED"
    print(f"audit {verdict} ({ran or 'none'} of {len(merged.checks)} checks ran)")
    return 0 if merged.passed else 1


# ----- entry point -----


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
