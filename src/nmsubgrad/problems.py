"""Test problems: max-of-affine functions and Fermat-Weber location.

Both come with exact subgradient oracles, constraint sets with cheap
projections, Lipschitz-constant bounds, and (for max-affine) a generator that
plants a known optimum so runs can be measured against ground truth.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
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
_ROW_BLOCK = 1 << 16  # entries per row block when a pass over A needs a temporary


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
    """max ||x - y||^2 over the set, None when unbounded."""
    if isinstance(cset, Box):
        return float(((cset.hi - cset.lo) ** 2).sum())
    if isinstance(cset, Ball):
        return float((2.0 * cset.radius) ** 2)
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
        A = np.ascontiguousarray(self.A, dtype=np.float64)
        b = np.ascontiguousarray(self.b, dtype=np.float64)
        if A.ndim != 2 or 0 in A.shape:
            raise ValueError(f"A must be a non-empty 2-D array, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have shape ({A.shape[0]},), got {b.shape}")
        # NaN propagates through min and max, so no (m, n) mask is needed
        if not all(map(math.isfinite, (A.min(), A.max(), b.min(), b.max()))):
            raise ValueError("A and b must be finite")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
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
    val = _kernels.max_affine_eval(inst.A, inst.b, inst.sigma, inst.x_star)[0]
    scale = max(1.0, abs(inst.f_star))
    if abs(val - inst.f_star) > PLANT_TOL * scale:
        raise ValueError(
            f"planted value mismatch: f(x_star) = {val!r} but f_star = {inst.f_star!r}"
        )
    resid = planted_certificate_residual(inst)
    if resid > PLANT_TOL * max(1.0, _abs_max(inst.A)):
        raise ValueError(f"planted certificate fails: |mean active grad + sigma*x*| = {resid}")


def _abs_max(A: np.ndarray) -> float:
    """max |a_ij|, equal to np.abs(A).max() without an |A| temporary."""
    return max(float(A.max()), float(-A.min()))


def planted_certificate_residual(inst: MaxAffineInstance) -> float:
    """Norm of (mean of active-piece gradients + sigma * x_star); ~0 certifies
    that the zero vector lies in the subdifferential at x_star."""
    if inst.x_star is None:
        raise ValueError("instance has no planted optimum")
    vals = inst.A @ inst.x_star + inst.b
    top = vals.max()
    active = vals >= top - 1e-9 * max(1.0, abs(top))
    mean_grad = inst.A[active].mean(axis=0)
    return float(np.linalg.norm(mean_grad + inst.sigma * inst.x_star))


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
    if not (sigma >= 0.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if not (active_scale > 0.0 and math.isfinite(active_scale)):
        raise ValueError(f"active_scale must be positive, got {active_scale}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(n)
    x_star = spread * direction / float(np.linalg.norm(direction))
    f_star = float(rng.standard_normal())
    A = rng.standard_normal((m, n))
    A[: t - 1] *= active_scale
    A[t - 1] = -(t * sigma * x_star + A[: t - 1].sum(axis=0))
    quad = 0.5 * sigma * float(np.dot(x_star, x_star))
    b = np.empty(m)
    b[:t] = f_star - A[:t] @ x_star - quad
    slacks = spread * rng.uniform(0.1, 1.0, size=m - t)
    b[t:] = f_star - A[t:] @ x_star - quad - slacks
    return MaxAffineInstance(A=A, b=b, sigma=sigma, x_star=x_star, f_star=f_star)


def gen_max_affine(seed: int, n: int, m: int, sigma: float = 0.0) -> MaxAffineInstance:
    """Plain random instance (no planted optimum): A, b with standard normal
    entries."""
    rng = np.random.default_rng(seed)
    return MaxAffineInstance(
        A=rng.standard_normal((m, n)), b=rng.standard_normal(m), sigma=sigma
    )


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
            # the kernel's subgradient drops the coincident terms: the force
            # of the other anchors
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


def lipschitz_bound(inst: Instance, cset: SetDescriptor | None = None) -> float:
    """Upper bound on subgradient norms, valid on the given set.

    Max-affine: max_j ||a_j||, plus sigma * sup||x|| over a bounded set when
    the quadratic term is present (unbounded set -> error then).
    Fermat-Weber: sum of the weights.

    The row norms stream over blocks of whole rows, at most _ROW_BLOCK entries
    each (one row when a row is longer), so no temporary the size of A is
    made. The bits equal np.sqrt((A**2).sum(axis=1)).max(): each norm is still
    one reduction over one contiguous row, and max is exact.
    """
    if isinstance(inst, MaxAffineInstance):
        A = inst.A
        rows = max(1, _ROW_BLOCK // A.shape[1])
        base = max(float(np.sqrt((A[i : i + rows] ** 2).sum(axis=1)).max())
                   for i in range(0, A.shape[0], rows))
        if inst.sigma > 0.0:
            if cset is None or radius_bound(cset) is None:
                raise ValueError(
                    "sigma > 0 has no finite Lipschitz constant on an unbounded set"
                )
            base += inst.sigma * radius_bound(cset)
        return base
    if isinstance(inst, FermatWeberInstance):
        return float(inst.weights.sum())
    raise TypeError(f"not an instance: {inst!r}")


# ----- problem bundle consumed by the solvers -----


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Everything a solver run needs: oracles, a projector, and (when known)
    the optimum for gap reporting. value(x) -> float; eval(x) -> (float,
    subgradient). L is a subgradient-norm bound valid on the set, None when
    unavailable.

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

    def __post_init__(self):
        if (self.x_star is not None) and (self.f_star is not None):
            val = self.value(self.x_star)
            scale = max(1.0, abs(self.f_star))
            if abs(val - self.f_star) > PLANT_TOL * scale:
                raise ValueError(
                    f"value at x_star is {val!r}, inconsistent with f_star = {self.f_star!r}"
                )

    def project(self, y: np.ndarray) -> np.ndarray:
        return project(self.cset, y)


def _parked_oracles(kernel, data: tuple, n: int):
    """value and eval closures over one (value, subgradient) kernel called as
    kernel(*data, x), with data bound once. value parks what the kernel
    returned, keyed on the point's bytes and dtype; eval takes it back once on
    a match, so an accepted line-search trial costs one kernel call, and an
    in-place change to the point between the two calls is a miss, never a
    stale hit."""
    shape = (n,)
    kernel = partial(kernel, *data)
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
        value, evaluate = _parked_oracles(
            _kernels.max_affine_eval, (inst.A, inst.b, inst.sigma), inst.n
        )
        x_star, f_star = inst.x_star, inst.f_star
        sigma = inst.sigma
    elif isinstance(inst, FermatWeberInstance):
        value, evaluate = _parked_oracles(
            _kernels.fermat_weber_eval, (inst.anchors, inst.weights), inst.n
        )
        x_star, f_star = None, None
        sigma = 0.0
    else:
        raise TypeError(f"not an instance: {inst!r}")
    for f in fields(cset):
        v = getattr(cset, f.name)
        if isinstance(v, np.ndarray) and v.shape != (inst.n,):
            raise ValueError(f"{type(cset).__name__} field {f.name!r} has length {len(v)}, "
                             f"but the instance has n = {inst.n}")
    if x_star is not None and not contains(cset, x_star):
        raise ValueError("planted optimum lies outside the requested set")
    try:
        L = lipschitz_bound(inst, cset)
    except ValueError:
        L = None
    return ProblemSpec(
        n=inst.n,
        value=value,
        eval=evaluate,
        cset=cset,
        sigma=sigma,
        L=L,
        x_star=x_star,
        f_star=f_star,
    )


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
    _atomic_write(path, text + "\n")


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
            parts = [p.strip() for p in line.split(",")]
            try:
                vals = [float(p) for p in parts]
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


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
