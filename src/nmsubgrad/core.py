"""Core types for the non-monotone projected subgradient toolkit.

A point is a finite 1-D float64 numpy array. Iteration and gamma indices are
1-based throughout: gamma_values(seq, n)[0] is the first slack value and the
first trace row carries k=1.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields
from itertools import repeat
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "ConfigError",
    "OracleError",
    "BacktrackFailureError",
    "TheoryRegimeWarning",
    "as_point",
    "SqrtInverse",
    "PowerInverse",
    "StronglyConvexHarmonic",
    "ExplicitTable",
    "GammaSequence",
    "gamma_values",
    "SolverConfig",
    "config_from_keyvalues",
    "IterationRecord",
    "RunReport",
    "TERMINATION_MAX_ITERS",
    "TERMINATION_ZERO_SUBGRADIENT",
    "TERMINATION_BACKTRACK_FAILURE",
    "TERMINATION_NONFINITE_ORACLE",
]


class ConfigError(ValueError):
    """Invalid solver or sequence parameters, or a malformed input file or
    field. SolverConfig and each gamma sequence raise it from their own
    constructors, the readers for bad JSON or a missing, unknown or mistyped
    field; the command line prints it as one error line with exit 2."""


class OracleError(RuntimeError):
    """An objective evaluation returned a non-finite value."""


class BacktrackFailureError(RuntimeError):
    """The backtracking search exhausted its trial cap."""


class TheoryRegimeWarning(UserWarning):
    """rho <= 1/2 leaves the complexity constants non-positive."""


TERMINATION_MAX_ITERS = "max_iters"
TERMINATION_ZERO_SUBGRADIENT = "zero_subgradient"
TERMINATION_BACKTRACK_FAILURE = "backtrack_failure"  # the trial cap ran out
TERMINATION_NONFINITE_ORACLE = "nonfinite_oracle"  # a value or a subgradient norm is not finite


def as_point(x) -> np.ndarray:
    """Coerce to a finite contiguous float64 vector."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point has non-finite entries")
    return arr


# ----- gamma sequences -----
#
# All kinds are positive and non-increasing in k. Values are defined for
# k >= 1; an ExplicitTable raises past its end instead of extending silently.
# Each kind's _at(k) is its one formula, in numpy over a float64 array k of
# 1-based indices; gamma_values passes [1, ..., n].


@dataclass(frozen=True)
class SqrtInverse:
    """gamma_k = zeta / sqrt(k)."""

    zeta: float = 1.0

    def __post_init__(self):
        if not (self.zeta > 0.0 and math.isfinite(self.zeta)):
            raise ConfigError(f"zeta must be positive and finite, got {self.zeta}")

    def _at(self, k):
        return self.zeta / np.sqrt(k)


@dataclass(frozen=True)
class PowerInverse:
    """gamma_k = zeta / k**(1 - theta/2) with theta in (0, 1)."""

    zeta: float
    theta: float

    def __post_init__(self):
        if not (self.zeta > 0.0 and math.isfinite(self.zeta)):
            raise ConfigError(f"zeta must be positive and finite, got {self.zeta}")
        if not (0.0 < self.theta < 1.0):
            raise ConfigError(f"theta must lie in (0, 1), got {self.theta}")

    def _at(self, k):
        return self.zeta / k ** (1.0 - self.theta / 2.0)


@dataclass(frozen=True)
class StronglyConvexHarmonic:
    """gamma_k = 2 / (sigma * beta * big_theta * k), the schedule paired with
    sigma-strongly-convex objectives."""

    sigma: float
    beta: float
    big_theta: float

    def __post_init__(self):
        for name in ("sigma", "beta", "big_theta"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be positive and finite, got {v}")

    def _at(self, k):
        return 2.0 / (self.sigma * self.beta * self.big_theta * k)


@dataclass(frozen=True)
class ExplicitTable:
    """A finite table of slack values; indexing past the end is an error."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) == 0:
            raise ConfigError("gamma table must be non-empty")
        arr = np.asarray(vals)
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
            raise ConfigError("gamma table values must be positive and finite")
        if np.any(np.diff(arr) > 0.0):
            raise ConfigError("gamma table must be non-increasing")

    def _at(self, k):
        last = int(k.max())
        if last > len(self.values):
            raise ValueError(
                f"gamma table has {len(self.values)} entries, index {last} is out of range"
            )
        return np.asarray(self.values)[k.astype(np.intp) - 1]


GammaSequence = Union[SqrtInverse, PowerInverse, StronglyConvexHarmonic, ExplicitTable]

# the one place each kind's serialized name is written
_GAMMA_KINDS = {
    "sqrt_inverse": SqrtInverse,
    "power_inverse": PowerInverse,
    "strongly_convex_harmonic": StronglyConvexHarmonic,
    "table": ExplicitTable,
}
_GAMMA_TYPES = tuple(_GAMMA_KINDS.values())


def gamma_values(seq: GammaSequence, n: int) -> np.ndarray:
    """Vectorized [gamma_1, ..., gamma_n]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not isinstance(seq, _GAMMA_TYPES):
        raise TypeError(f"not a gamma sequence: {seq!r}")
    return seq._at(np.arange(1, n + 1, dtype=np.float64))


# ----- solver configuration -----


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the non-monotone projected subgradient method.

    c > 0 caps the accepted trial size at c*gamma_k; beta in (0,1) is the
    backtracking ratio; rho in (0,1) the sufficient-decrease factor; alpha1 > 0
    the initial trial size. A config checks itself when it is made (and so
    when dataclasses.replace makes one), naming every violation in one
    ConfigError. rho > 1/2 is the regime where the complexity constants are
    positive; solve_nonmonotone warns outside it. No solver reads seed, and
    bench leaves it at its default: a bench entry's seeds pick its instances.
    """

    c: float = 1.0
    beta: float = 0.9
    rho: float = 0.8
    alpha1: float = 0.1
    gamma: GammaSequence = field(default_factory=SqrtInverse)
    max_iters: int = 3000
    backtrack_cap: int = 500
    seed: int = 0

    def __post_init__(self):
        problems = []
        if not (self.c > 0.0 and math.isfinite(self.c)):
            problems.append(f"c must be positive and finite, got {self.c}")
        if not (0.0 < self.beta < 1.0):
            problems.append(f"beta must lie in (0, 1), got {self.beta}")
        if not (0.0 < self.rho < 1.0):
            problems.append(f"rho must lie in (0, 1), got {self.rho}")
        if not (self.alpha1 > 0.0 and math.isfinite(self.alpha1)):
            problems.append(f"alpha1 must be positive and finite, got {self.alpha1}")
        if not isinstance(self.max_iters, int) or self.max_iters < 1:
            problems.append(f"max_iters must be an integer >= 1, got {self.max_iters}")
        if not isinstance(self.backtrack_cap, int) or self.backtrack_cap < 1:
            problems.append(f"backtrack_cap must be an integer >= 1, got {self.backtrack_cap}")
        if not isinstance(self.gamma, _GAMMA_TYPES):
            problems.append(f"gamma is not a recognized sequence: {self.gamma!r}")
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))


# ----- reading JSON fields -----


def _json_value(text: str, what: str):
    """The JSON value text holds. A syntax error (with its position) or
    nesting deeper than the parser can recurse is a ConfigError naming what,
    where a reader of a file puts the file's path."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{what} is nested too deeply to read as JSON") from None


def _float_array(raw) -> np.ndarray:
    """raw, a number or nested lists of numbers, as a float64 array. A bool or
    a string anywhere in it is a TypeError, though numpy would convert it."""
    todo = [[raw]]
    while todo:
        items = todo.pop()
        kinds = set(map(type, items))  # exact types, so a bool is no int
        if list in kinds:
            kinds.discard(list)
            todo.extend(v for v in items if type(v) is list)
        if not kinds <= {int, float}:
            bad = sorted(k.__name__ for k in kinds - {int, float})
            raise TypeError(f"holds {', '.join(bad)}, not only numbers")
    return np.asarray(raw, dtype=np.float64)


# the JSON values a field of each scalar annotation takes, and their name (a
# float's exact compare also keeps NaN and an int too large for a float out)
_SCALAR_KINDS = {
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max, "a finite number"),
    "int": (lambda v: type(v) is int, "an integer"),
    "list[int]": (lambda v: type(v) is list and all(type(i) is int for i in v),
                  "a list of integers"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}


def _read_value(what: str, key: str, kind: str, raw):
    """raw as the value of a field annotated kind: a scalar as it is (a float
    field's number as a float), an array as float64 and a table as a tuple of
    floats; ConfigError otherwise."""
    if kind in _SCALAR_KINDS:
        takes, want = _SCALAR_KINDS[kind]
        if takes(raw):
            return float(raw) if kind == "float" else raw
    else:
        try:
            arr = _float_array(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{what} field {key!r} is not a numeric array: {exc}") from None
        if kind == "np.ndarray":
            return arr
        if arr.ndim <= 1:  # a table: one number or a list of numbers
            return tuple(arr.reshape(-1).tolist())
        want = "a number or a list of numbers"
    raise ConfigError(f"{what} field {key!r} must be {want}, got {raw!r}")


def _read_fields(what: str, obj, flds, prefix: str = "") -> dict:
    """The keyword arguments that the JSON object obj holds for the dataclass
    fields flds, each under the key prefix + its name.

    By annotation, a float field takes a finite JSON number, an int field a
    JSON integer (not a bool or a float), a list[int] field a list of JSON
    integers, an array or table field a JSON number or nested lists of them
    (no bool or string inside), and a str, list or dict field a JSON string,
    list or object. null in a field with a default means the field is absent.
    One ConfigError names every missing and every unknown key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    flds = {prefix + f.name: f for f in flds}
    missing = [key for key, f in flds.items() if obj.get(key) is None
               and f.default is MISSING and f.default_factory is MISSING]
    unknown = sorted(set(obj) - set(flds))
    faults = [f"{what} {verb} field(s) {', '.join(map(repr, keys))}"
              for verb, keys in (("is missing", missing), ("has unknown", unknown)) if keys]
    if faults:
        raise ConfigError("; ".join(faults))
    # annotations are kept as source text; "| None" only marks an optional field
    return {f.name: _read_value(what, key, f.type.removesuffix(" | None"), obj[key])
            for key, f in flds.items() if obj.get(key) is not None}


def _from_obj(what: str, tag: str, names: dict, obj, prefix: str = "", nested=None):
    """The dataclass in names that obj's tag key names, built from obj's
    other keys by _read_fields; the class constructor checks the values.
    The key nested, if given, holds an object the caller reads."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    items = dict(obj)
    items.pop(nested, None)
    name = items.pop(tag, None)
    cls = names.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ConfigError(f"unknown {what} {tag}: {name!r}")
    return cls(**_read_fields(what, items, fields(cls), prefix))


def _to_obj(tag: str, names: dict, value, prefix: str = "") -> dict:
    """Inverse of _from_obj: value's name in names under tag, and its fields
    under prefix; a None field is left out, an array or a tuple is a list."""
    name = {cls: name for name, cls in names.items()}.get(type(value))
    if name is None:
        raise TypeError(f"no {tag} name for {value!r}")
    obj = {tag: name}
    for f in fields(value):
        v = getattr(value, f.name)
        if v is not None:
            obj[prefix + f.name] = np.asarray(v).tolist() if isinstance(v, (np.ndarray, tuple)) else v
    return obj


# ----- config serialization -----

_NUMBER_FIELDS = [f for f in fields(SolverConfig) if f.name != "gamma"]


def _config_items(cfg: SolverConfig) -> dict:
    items = {f.name: getattr(cfg, f.name) for f in _NUMBER_FIELDS}
    items.update(_to_obj("gamma.kind", _GAMMA_KINDS, cfg.gamma, "gamma."))
    return items


def _config_from_items(items: dict) -> SolverConfig:
    """A config from the fields present in items, a JSON object; absent ones
    keep the SolverConfig defaults. With gamma.kind given, the gamma.* keys
    are the fields of the kind it names; without it, they are unknown."""
    gamma = {}
    if isinstance(items, dict) and "gamma.kind" in items:
        gamma = {key: value for key, value in items.items() if key.startswith("gamma.")}
        items = {key: value for key, value in items.items() if key not in gamma}
    given = _read_fields("config", items, _NUMBER_FIELDS)
    if gamma:
        given["gamma"] = _from_obj("config", "gamma.kind", _GAMMA_KINDS, gamma, "gamma.")
    return SolverConfig(**given)


def _text_value(text: str):
    """Text as the JSON value it stands for: an int, else a float, else the
    text itself."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def config_from_keyvalues(text: str) -> SolverConfig:
    """The config of `key = value` lines, each value read as a JSON config
    would hold it: comma-separated values are a list."""
    items: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        parts = [_text_value(part.strip()) for part in value.split(",")]
        items[key.strip()] = parts if len(parts) > 1 else parts[0]
    return _config_from_items(items)


# ----- run records -----


class IterationRecord(NamedTuple):
    """One visited iterate.

    Rows where a line-search step was taken carry ell >= 1 and satisfy
    alpha_next = beta**(ell-1) * alpha and step = beta * alpha_next. The final
    landed iterate (and every row of a prefixed-step run) uses the ell = 0
    sentinel; prefixed rows store the applied step size in both alpha and step.
    x is None for traces re-read from CSV, which does not serialize iterates.
    """

    k: int
    x: np.ndarray | None
    f: float
    gamma: float
    alpha: float
    ell: int
    step: float
    snorm: float
    alpha_next: float


_RECORD_FIELDS = IterationRecord._fields


class _Records(Sequence):
    """RunReport.records: the report's rows as IterationRecords, each built
    from the columns only when asked for."""

    __slots__ = ("_report",)

    def __init__(self, report: RunReport):
        self._report = report

    def __len__(self) -> int:
        return len(self._report.k)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._build(index))
        index = range(len(self))[index]  # IndexError past either end
        return next(self._build(slice(index, index + 1)))

    def __iter__(self):
        return self._build(slice(None))

    def _build(self, rows: slice):
        """The records of rows, one column per IterationRecord field."""
        r = self._report
        xs = repeat(None) if r.xs is None else r.xs[rows]
        return map(IterationRecord, *(xs if name == "x" else getattr(r, name)[rows].tolist()
                                      for name in _RECORD_FIELDS))


@dataclass(frozen=True, eq=False)
class RunReport:
    """A full run: one column per IterationRecord field, with one entry per
    visited iterate, plus how the run ended.

    k and ell are int64 arrays; f, gamma, alpha, step, snorm and alpha_next
    are float64 arrays. xs is one C-contiguous float64 array of shape
    (rows, n) whose row i is the i-th visited iterate, or None for a trace
    re-read from CSV.

    records is a read-only Sequence view of the rows as IterationRecords,
    made anew on every access and holding no record itself: len(records) is
    len(k) and builds none, records[i] (negative i too) builds one, and a
    slice (a tuple) or an iteration builds only the rows it covers. Each
    record holds Python scalars, and its x is a row of xs (None without xs).

    f_best is the minimum recorded objective value and it_best the first k
    attaining it. termination is one of the TERMINATION_* constants ("unknown"
    only for traces reconstructed from CSV).
    """

    k: np.ndarray
    xs: np.ndarray | None
    f: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    ell: np.ndarray
    step: np.ndarray
    snorm: np.ndarray
    alpha_next: np.ndarray
    f_best: float
    it_best: int
    termination: str

    @property
    def records(self) -> Sequence[IterationRecord]:
        return _Records(self)

    @property
    def n_steps(self) -> int:
        return len(self.k) - 1  # every run ends with its landed row


def _report(columns, termination: str) -> RunReport:
    """A report from columns, a mapping from each IterationRecord field name
    to a sequence of Python values, except x: a sequence of equal-length
    vectors stacked here into one (rows, n) block, or None. Other keys are
    ignored. f_best and it_best are min() and the first index() over f as
    given, so a NaN keeps the meaning it has for them."""
    k, xs, f = columns["k"], columns["x"], columns["f"]
    if not k:
        raise ValueError("a run must visit at least one iterate")
    best = min(f)
    arrays = {name: np.array(columns[name], dtype=np.int64 if name in ("k", "ell") else np.float64)
              for name in _RECORD_FIELDS if name != "x"}
    block = None if xs is None else np.array(xs, dtype=np.float64)
    return RunReport(**arrays, xs=block, f_best=best, it_best=k[f.index(best)],
                     termination=termination)
