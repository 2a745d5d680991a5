"""Test problems: max-of-affine functions and Fermat-Weber location.

Both come with exact subgradient oracles, constraint sets with cheap
projections, Lipschitz-constant bounds, and (for max-affine) a generator that
plants a known optimum so runs can be measured against ground truth.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

from . import _kernels
from .core import _from_obj, _json_value, _to_obj, as_point

__all__ = [
    "WholeSpace",
    "Box",
    "Ball",
    "NonnegativeOrthant",
    "SetDescriptor",
    "project",
    "contains",
    "diameter_sq",
    "radius_bound",
    "MaxAffineInstance",
    "FermatWeberInstance",
    "Instance",
    "plant_optimum_max_affine",
    "gen_max_affine",
    "gen_fermat_weber",
    "weiszfeld",
    "lipschitz_bound",
    "ProblemSpec",
    "make_problem",
    "save_instance",
    "load_instance",
    "read_anchor_csv",
]

FEASIBILITY_TOL = 1e-9
PLANT_TOL = 1e-12


# ----- constraint sets -----


@dataclass(frozen=True)
class WholeSpace:
    pass


@dataclass(frozen=True, eq=False)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_point(self.lo)
        hi = as_point(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape:
            raise ValueError("box bounds must share a shape")
        if np.any(lo > hi):
            raise ValueError("box needs lo <= hi componentwise")


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class NonnegativeOrthant:
    pass


SetDescriptor = Union[WholeSpace, Box, Ball, NonnegativeOrthant]


def project(cset: SetDescriptor, y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the set."""
    if isinstance(cset, WholeSpace):
        return y
    if isinstance(cset, Box):
        return _kernels.project_box(cset.lo, cset.hi, y)
    if isinstance(cset, Ball):
        return _kernels.project_ball(cset.center, cset.radius, y)
    if isinstance(cset, NonnegativeOrthant):
        return _kernels.project_orthant(y)
    raise TypeError(f"not a set descriptor: {cset!r}")


@np.errstate(over="ignore")  # a distance that overflows is +inf, outside any ball
def contains(cset: SetDescriptor, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
    if isinstance(cset, WholeSpace):
        return True
    if isinstance(cset, Box):
        return bool(np.all(x >= cset.lo - tol) and np.all(x <= cset.hi + tol))
    if isinstance(cset, Ball):
        return float(np.linalg.norm(x - cset.center)) <= cset.radius + tol
    if isinstance(cset, NonnegativeOrthant):
        return bool(np.all(x >= -tol))
    raise TypeError(f"not a set descriptor: {cset!r}")


def diameter_sq(cset: SetDescriptor) -> float | None:
    """max ||x - y||^2 over the set, None when unbounded and +inf when it
    overflows, as for a ball of radius 1e160."""
    if isinstance(cset, Box):
        return float(((cset.hi - cset.lo) ** 2).sum())
    if isinstance(cset, Ball):
        try:
            return float((2.0 * cset.radius) ** 2)
        except OverflowError:  # float pow raises where a product would give +inf
            return math.inf
    return None


def radius_bound(cset: SetDescriptor) -> float | None:
    """sup ||x|| over the set, None when unbounded."""
    if isinstance(cset, Ball):
        return float(np.linalg.norm(cset.center)) + cset.radius
    if isinstance(cset, Box):
        corner = np.maximum(np.abs(cset.lo), np.abs(cset.hi))
        return float(np.linalg.norm(corner))
    return None


# ----- instances -----


@dataclass(frozen=True, eq=False)
class MaxAffineInstance:
    """f(x) = max_j (a_j . x + b_j) [+ (sigma/2) ||x||^2 when sigma > 0].

    When planted, x_star/f_star certify the optimum: the pieces active at
    x_star have gradient mean equal to -sigma * x_star (zero at sigma = 0),
    which places the zero vector in the subdifferential there.
    """

    A: np.ndarray
    b: np.ndarray
    sigma: float = 0.0
    x_star: np.ndarray | None = None
    f_star: float | None = None

    def __post_init__(self):
        # first, so a planted sigma that made A or b non-finite is named
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        A = np.ascontiguousarray(self.A, dtype=np.float64)
        b = np.ascontiguousarray(self.b, dtype=np.float64)
        if A.ndim != 2 or 0 in A.shape:
            raise ValueError(f"A must be a non-empty 2-D array, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have shape ({A.shape[0]},), got {b.shape}")
        # argmin and argmax stop at the first NaN, so no (m, n) mask is needed,
        # and on small arrays they cost a fraction of a min or max reduction
        lo, hi = A.item(A.argmin()), A.item(A.argmax())
        if not all(map(math.isfinite, (lo, hi, b.item(b.argmin()), b.item(b.argmax())))):
            raise ValueError("A and b must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.x_star is not None:
            object.__setattr__(self, "x_star", as_point(self.x_star))
            if self.x_star.shape != (A.shape[1],):
                raise ValueError("x_star dimension does not match A")
        if (self.x_star is None) != (self.f_star is None):
            raise ValueError("x_star and f_star must be planted together")
        if self.f_star is not None:
            object.__setattr__(self, "f_star", float(self.f_star))
            _check_planted(self)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]


def _check_planted(inst: MaxAffineInstance) -> None:
    val, resid, active_max = _certificate(inst)
    if not abs(val - inst.f_star) <= PLANT_TOL * max(1.0, abs(inst.f_star)):  # NaN fails too
        raise ValueError(
            f"planted value mismatch: f(x_star) = {val!r} but f_star = {inst.f_star!r}"
        )
    if resid > PLANT_TOL * max(1.0, active_max):
        raise ValueError(f"planted certificate fails: |mean active grad + sigma*x*| = {resid}")


@np.errstate(over="ignore")  # an A x_star that overflows fails the value check, silently
def _certificate(inst: MaxAffineInstance) -> tuple[float, float, float]:
    """(f(x_star) as max_affine_eval forms it, the residual ||mean active
    gradient + sigma*x_star|| (numpy's mean, a row sum over the count), ~0
    when 0 is a subgradient there, and max |a_ij| over the active pieces)
    from one A x_star + b: a huge entry of an inactive piece cannot let a
    broken certificate through. A top piece of +inf or NaN has no active set,
    and the last two are NaN."""
    x = inst.x_star
    vals = inst.A.dot(x)
    vals += inst.b
    top = vals.item(vals.argmax())
    value = top + 0.5 * inst.sigma * float(x.dot(x)) if inst.sigma > 0.0 else top
    if not top < math.inf:
        return value, math.nan, math.nan
    active = inst.A[vals >= top - 1e-9 * max(1.0, abs(top))]
    active_max = max(active.item(active.argmax()), -active.item(active.argmin()))
    g = np.add.reduce(active, axis=0)
    g /= active.shape[0]
    if inst.sigma > 0.0:  # at sigma = 0 the term only flips the sign of zeros
        g += inst.sigma * x
    return value, math.sqrt(g.dot(g)), active_max


@dataclass(frozen=True, eq=False)
class FermatWeberInstance:
    """f(x) = sum_i w_i ||x - a_i|| with positive weights.

    anchors is stored column-major, so anchors.T, one row per coordinate, is
    the contiguous array the kernel works on."""

    anchors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        anchors = np.asfortranarray(self.anchors, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if anchors.ndim != 2 or 0 in anchors.shape:
            raise ValueError(f"anchors must be a non-empty 2-D array, got {anchors.shape}")
        if weights.shape != (anchors.shape[0],):
            raise ValueError(
                f"weights must have shape ({anchors.shape[0]},), got {weights.shape}"
            )
        # per-column extrema: NaN propagates through them, and the anchors
        # coincide exactly when each column's least entry is its greatest
        lo, hi = anchors.min(axis=0), anchors.max(axis=0)
        if not (math.isfinite(lo.min()) and math.isfinite(hi.max())):
            raise ValueError("anchors must be finite")
        if not (weights.min() > 0.0 and math.isfinite(weights.max())):
            raise ValueError("weights must be positive and finite")
        if anchors.shape[0] > 1 and np.array_equal(lo, hi):
            raise ValueError("anchors must not all coincide")
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.anchors.shape[1]

    @property
    def m(self) -> int:
        return self.anchors.shape[0]


Instance = Union[MaxAffineInstance, FermatWeberInstance]


# ----- generators -----


@np.errstate(over="ignore", invalid="ignore")  # MaxAffineInstance refuses bad sigma, A or b
def plant_optimum_max_affine(
    seed: int,
    n: int,
    m: int,
    active_count: int | None = None,
    spread: float = 1.0,
    sigma: float = 0.0,
    active_scale: float = 1.0,
) -> MaxAffineInstance:
    """Max-affine instance with a known optimum.

    active_count pieces (default n+1, required n+1 <= t <= m) are made active
    at a drawn x_star with common value f_star; their gradients are drawn and
    the last is chosen so the equal-weight mean equals -sigma*x_star, which
    certifies 0 in the subdifferential at x_star. The remaining pieces are
    lowered by positive slacks so they stay inactive at x_star.

    spread is the exact distance of x_star from the origin (its direction is
    uniform on the sphere) and also scales the inactive slacks. active_scale
    multiplies the active gradients: values above 1 sharpen the kink at the
    optimum, which is the regime separating adaptive from prefixed step rules.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    t = n + 1 if active_count is None else int(active_count)
    if not (n + 1 <= t <= m):
        raise ValueError(f"active_count must satisfy n+1 <= t <= m, got t={t}")
    if not (spread > 0.0 and math.isfinite(spread)):
        raise ValueError(f"spread must be positive, got {spread}")
    if not (active_scale > 0.0 and math.isfinite(active_scale)):
        raise ValueError(f"active_scale must be positive, got {active_scale}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(n)
    x_star = spread * direction
    x_star /= math.sqrt(direction.dot(direction))
    f_star = float(rng.standard_normal())
    A = rng.standard_normal((m, n))
    A[: t - 1] *= active_scale
    np.negative(t * sigma * x_star + np.add.reduce(A[: t - 1], axis=0), out=A[t - 1])
    quad = 0.5 * sigma * x_star.dot(x_star)
    b = np.empty(m)
    b[:t] = f_star - A[:t].dot(x_star) - quad
    slacks = spread * rng.uniform(0.1, 1.0, size=m - t)
    b[t:] = f_star - A[t:].dot(x_star) - quad - slacks
    return MaxAffineInstance(A=A, b=b, sigma=sigma, x_star=x_star, f_star=f_star)


def gen_max_affine(seed: int, n: int, m: int, sigma: float = 0.0) -> MaxAffineInstance:
    """Plain random instance (no planted optimum): A, b with standard normal
    entries."""
    rng = np.random.default_rng(seed)
    return MaxAffineInstance(
        A=rng.standard_normal((m, n)), b=rng.standard_normal(m), sigma=sigma
    )


@np.errstate(over="ignore")  # FermatWeberInstance refuses non-finite anchors
def gen_fermat_weber(seed: int, n: int, m: int, scale: float = 10.0) -> FermatWeberInstance:
    """Random anchors ~ scale * N(0, I), unit weights."""
    rng = np.random.default_rng(seed)
    return FermatWeberInstance(
        anchors=scale * rng.standard_normal((m, n)), weights=np.ones(m)
    )


# ----- reference solver for Fermat-Weber -----


def weiszfeld(
    inst: FermatWeberInstance,
    tol: float = 1e-10,
    max_iters: int = 100_000,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Weighted-median fixed-point iteration.

    Starts at the weighted centroid unless x0 is given. Stops when successive
    objective values differ by less than tol. An iterate landing exactly on an
    anchor is tested for optimality (residual force <= that anchor's weight);
    if optimal the anchor is returned, otherwise the iterate is nudged by tol
    along the descent direction and iteration continues.
    """
    anchors, weights = inst.anchors, inst.weights
    if x0 is None:
        x = _kernels.row_sums(weights * anchors.T) / weights.sum()
    else:
        x = as_point(x0).copy()
    if x.shape != (inst.n,):
        raise ValueError(f"point has shape {x.shape}, instance expects ({inst.n},)")

    def distances(x):
        # the kernel's arithmetic, so f is its value
        return _kernels.fermat_weber_distances(anchors, weights, x)[1:]

    d, f = distances(x)
    for _ in range(max_iters):
        hit = np.nonzero(d == 0.0)[0]
        if hit.size:
            j = int(hit[0])
            # the kernel's subgradient weighs the coincident terms zero: the
            # force of the other anchors
            resid = _kernels.fermat_weber_eval(anchors, weights, x)[1]
            rnorm = float(np.linalg.norm(resid))
            if rnorm <= weights[j]:
                return x, f
            x = x - (tol / rnorm) * resid
            d, f = distances(x)
            continue
        inv = weights / d
        x_new = _kernels.row_sums(inv * anchors.T) / inv.sum()
        d, f_new = distances(x_new)
        if abs(f - f_new) < tol:
            return x_new, f_new
        x, f = x_new, f_new
    return x, f


# ----- Lipschitz constants -----


@np.errstate(over="ignore")  # an overflowed bound is refused below
def lipschitz_bound(inst: Instance, cset: SetDescriptor | None = None) -> float:
    """Upper bound on subgradient norms, valid on the given set.

    Max-affine: max_j ||a_j||, the square root (correctly rounded and
    monotone) of the largest squared row norm, so the bits equal
    np.sqrt((A**2).sum(axis=1)).max(); plus sigma * sup||x|| over a bounded
    set when the quadratic term is present (unbounded set -> error then).
    Fermat-Weber: sum of the weights. A bound that overflows is an error.
    """
    if isinstance(inst, MaxAffineInstance):
        L = math.sqrt(_kernels.row_sq_norms(inst.A).max())
        if inst.sigma > 0.0:
            radius = None if cset is None else radius_bound(cset)
            if radius is None:
                raise ValueError("sigma > 0 has no finite Lipschitz constant on an unbounded set")
            L += inst.sigma * radius
    elif isinstance(inst, FermatWeberInstance):
        L = float(inst.weights.sum())
    else:
        raise TypeError(f"not an instance: {inst!r}")
    if not math.isfinite(L):
        raise ValueError(f"the Lipschitz bound overflows to {L}")
    return L


# ----- problem bundle consumed by the solvers -----


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Everything a solver run needs: oracles, a projector, and (when known)
    the optimum for gap reporting. value(x) -> float; eval(x) -> (float,
    subgradient). L is a subgradient-norm bound valid on the set, None when
    unavailable. No field is checked: the instance certified x_star, f_star.

    From make_problem, value(x) runs one full oracle evaluation and parks the
    subgradient it computed; the next eval(x) on a point with the same bytes
    and dtype takes that subgradient instead of evaluating again. The slot
    holds one entry per problem and is emptied by every eval, so no
    subgradient array is handed out twice. The package is single-threaded:
    one problem must not be evaluated from two threads at once."""

    n: int
    value: Callable[[np.ndarray], float]
    eval: Callable[[np.ndarray], tuple[float, np.ndarray]]
    cset: SetDescriptor
    sigma: float = 0.0
    L: float | None = None
    x_star: np.ndarray | None = None
    f_star: float | None = None

    def project(self, y: np.ndarray) -> np.ndarray:
        return project(self.cset, y)


def _parked_oracles(kernel, n: int):
    """value and eval closures over kernel(x), a (value, subgradient) kernel
    with its instance's arrays bound. value parks what the kernel
    returned, keyed on the point's bytes and dtype; eval takes it back once on
    a match, so an accepted line-search trial costs one kernel call, and an
    in-place change to the point between the two calls is a miss, never a
    stale hit."""
    shape = (n,)
    parked = None  # (x bytes, x dtype, (f, g)) of the last value call

    def value(x: np.ndarray) -> float:
        nonlocal parked
        if x.shape != shape:
            raise ValueError(f"point has shape {x.shape}, instance expects {shape}")
        out = kernel(x)
        parked = (x.tobytes(), x.dtype, out)
        return out[0]

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal parked
        if x.shape != shape:
            raise ValueError(f"point has shape {x.shape}, instance expects {shape}")
        hit, parked = parked, None
        if hit is not None and hit[0] == x.tobytes() and hit[1] == x.dtype:
            return hit[2]
        return kernel(x)

    return value, evaluate


def make_problem(inst: Instance, cset: SetDescriptor | None = None) -> ProblemSpec:
    """Bundle an instance with a constraint set. A planted optimum must be
    feasible, otherwise the certificate would not transfer to the constrained
    problem. A box's or ball's vectors must have the instance's dimension."""
    cset = WholeSpace() if cset is None else cset
    if isinstance(inst, MaxAffineInstance):
        kernel = partial(_kernels.max_affine_eval, inst.A, inst.b, inst.sigma)
        x_star, f_star, sigma = inst.x_star, inst.f_star, inst.sigma
    elif isinstance(inst, FermatWeberInstance):
        kernel = partial(_kernels.fermat_weber_eval, inst.anchors, inst.weights)
        x_star, f_star, sigma = None, None, 0.0
    else:
        raise TypeError(f"not an instance: {inst!r}")
    value, evaluate = _parked_oracles(kernel, inst.n)
    for name, v in vars(cset).items():  # the set's dataclass fields
        if isinstance(v, np.ndarray) and v.shape != (inst.n,):
            raise ValueError(f"{type(cset).__name__} field {name!r} has length {len(v)}, "
                             f"but the instance has n = {inst.n}")
    if x_star is not None and not contains(cset, x_star):
        raise ValueError("planted optimum lies outside the requested set")
    try:
        L = lipschitz_bound(inst, cset)
    except ValueError:
        L = None
    return ProblemSpec(n=inst.n, value=value, eval=evaluate, cset=cset, sigma=sigma, L=L,
                       x_star=x_star, f_star=f_star)


# ----- serialization -----
#
# An instance file is the instance's dataclass fields plus "type", with the
# constraint set's fields plus "kind" under "set". Arrays are written as
# nested lists, and a None field is left out; reading it back, null in an
# optional field means absent.

_SET_KINDS = {"rn": WholeSpace, "orthant": NonnegativeOrthant, "box": Box, "ball": Ball}
_INSTANCE_TYPES = {"maxaffine": MaxAffineInstance, "fermatweber": FermatWeberInstance}


def instance_to_obj(inst: Instance, cset: SetDescriptor | None = None) -> dict:
    obj = _to_obj("type", _INSTANCE_TYPES, inst)
    obj["set"] = _to_obj("kind", _SET_KINDS, WholeSpace() if cset is None else cset)
    return obj


def instance_from_obj(obj: dict) -> tuple[Instance, SetDescriptor]:
    """Inverse of instance_to_obj; a malformed object raises ValueError."""
    inst = _from_obj("instance", "type", _INSTANCE_TYPES, obj, nested="set")
    cset = obj.get("set")  # null means absent, as in any optional field
    return inst, WholeSpace() if cset is None else _from_obj("set", "kind", _SET_KINDS, cset)


def save_instance(path: str, inst: Instance, cset: SetDescriptor | None = None) -> None:
    text = json.dumps(instance_to_obj(inst, cset), sort_keys=True, indent=2)
    _atomic_write({path: text + "\n"})


def load_instance(path: str) -> tuple[Instance, SetDescriptor]:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_obj(_json_value(fh.read(), f"instance file {str(path)!r}"))


def read_anchor_csv(path: str) -> np.ndarray:
    """Anchor coordinates from `lat,lon` rows (a header line is skipped).

    Each value is truncated to its integer part and made non-positive,
    matching the convention for south/west coordinates listed unsigned. A
    row that does not parse or holds a non-finite value raises ValueError
    naming the file and the line.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:  # float() ignores the whitespace around each part
                vals = [float(p) for p in line.split(",")]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"{path}:{lineno}: cannot parse row {raw!r}")
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"{path}:{lineno}: non-finite value in row {raw!r}")
            rows.append([-abs(math.trunc(v)) for v in vals])
    if not rows:
        raise ValueError(f"{path}: no anchor rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: rows have inconsistent column counts")
    return np.asarray(rows, dtype=np.float64)


def _atomic_write(texts: dict[str, str]) -> None:
    """Write each text of texts to its path through path + ".tmp" and one
    rename, every temp file before the first rename, so no path holds half a
    file and a failure writes none of them: it removes the temp files made
    and the paths already renamed, and its OSError names the path asked for."""
    made, renamed = [], []
    try:
        for path, text in texts.items():
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                made.append(path)
                fh.write(text)
        for path in made:
            os.replace(path + ".tmp", path)
            renamed.append(path)
    except OSError as exc:
        # a failed open made nothing, so a file already there stays
        for done in made[len(renamed):]:
            os.remove(done + ".tmp")
        for done in renamed:
            os.remove(done)
        raise OSError(exc.errno, exc.strerror, path) from None
