import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmsubgrad import (
    Ball,
    Box,
    FermatWeberInstance,
    MaxAffineInstance,
    NonnegativeOrthant,
    WholeSpace,
    contains,
    diameter_sq,
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
)
from nmsubgrad import problems
from nmsubgrad.problems import (
    instance_from_obj,
    instance_to_obj,
    planted_certificate_residual,
    radius_bound,
)

from oracles import abs_max_full_ref, grid_min_2d, lipschitz_full_ref


# ----- constraint sets -----


def test_box_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        Box(lo=np.array([0.0, 1.0]), hi=np.array([1.0, 0.5]))


def test_box_rejects_mismatched_bounds():
    with pytest.raises(ValueError, match="share a shape"):
        Box(lo=np.zeros(2), hi=np.ones(3))


def test_ball_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        Ball(center=np.zeros(2), radius=0.0)


def test_project_and_contains_per_kind():
    y = np.array([2.0, -3.0])
    np.testing.assert_array_equal(project(WholeSpace(), y), y)
    np.testing.assert_array_equal(project(NonnegativeOrthant(), y), [2.0, 0.0])
    box = Box(lo=np.array([-1.0, -1.0]), hi=np.array([1.0, 1.0]))
    np.testing.assert_array_equal(project(box, y), [1.0, -1.0])
    ball = Ball(center=np.zeros(2), radius=1.0)
    p = project(ball, y)
    assert np.linalg.norm(p) == pytest.approx(1.0, rel=1e-12)
    assert contains(ball, p)
    assert not contains(ball, y)


def test_set_functions_reject_a_non_set():
    for fn in (project, contains):
        with pytest.raises(TypeError, match="not a set descriptor"):
            fn(object(), np.zeros(2))


def test_diameter_and_radius_bounds():
    assert diameter_sq(WholeSpace()) is None
    assert diameter_sq(NonnegativeOrthant()) is None
    ball = Ball(center=np.array([1.0, 0.0]), radius=2.0)
    assert diameter_sq(ball) == pytest.approx(16.0)
    assert radius_bound(ball) == pytest.approx(3.0)  # ||center|| + radius
    box = Box(lo=np.array([0.0, 0.0]), hi=np.array([3.0, 4.0]))
    assert diameter_sq(box) == pytest.approx(25.0)
    assert radius_bound(box) == pytest.approx(5.0)


# ----- instance validation -----


def test_max_affine_rejects_mismatched_offsets():
    with pytest.raises(ValueError):
        MaxAffineInstance(A=np.eye(2), b=np.zeros(3))


def test_max_affine_rejects_bad_sigma_and_plant():
    A, b = np.array([[1.0], [-1.0]]), np.zeros(2)
    with pytest.raises(ValueError, match="sigma"):
        MaxAffineInstance(A=A, b=b, sigma=-1.0)
    with pytest.raises(ValueError, match="x_star dimension"):
        MaxAffineInstance(A=A, b=b, x_star=np.zeros(2), f_star=0.0)
    for half in ({"x_star": np.zeros(1)}, {"f_star": 0.0}):
        with pytest.raises(ValueError, match="planted together"):
            MaxAffineInstance(A=A, b=b, **half)
    # f(0) = 0 = f_star, but the one active piece has gradient 2
    with pytest.raises(ValueError, match="certificate fails"):
        MaxAffineInstance(A=np.array([[2.0], [-1.0]]), b=np.array([0.0, -1.0]),
                          x_star=np.zeros(1), f_star=0.0)
    with pytest.raises(ValueError, match="no planted optimum"):
        planted_certificate_residual(MaxAffineInstance(A=A, b=b))


def test_instance_sizes_and_point_shape():
    inst = MaxAffineInstance(A=np.zeros((3, 2)), b=np.zeros(3))
    assert (inst.m, inst.n) == (3, 2)
    with pytest.raises(ValueError, match=r"instance expects \(2,\)"):
        make_problem(inst).value(np.zeros(3))
    fw = FermatWeberInstance(anchors=np.eye(3)[:, :2], weights=np.ones(3))
    assert (fw.m, fw.n) == (3, 2)
    # a one-entry start would broadcast against the anchors unnoticed
    with pytest.raises(ValueError, match=r"instance expects \(2,\)"):
        weiszfeld(fw, x0=np.zeros(1))


def test_fermat_weber_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        FermatWeberInstance(anchors=np.eye(2), weights=np.array([1.0, 0.0]))


def test_fermat_weber_rejects_bad_weights_shape_and_non_finite_anchors():
    with pytest.raises(ValueError, match="weights must have shape"):
        FermatWeberInstance(anchors=np.eye(2), weights=np.ones(3))
    for bad in (math.nan, math.inf, -math.inf):
        anchors = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        anchors[-1, -1] = bad
        with pytest.raises(ValueError, match="anchors must be finite"):
            FermatWeberInstance(anchors=anchors, weights=np.ones(3))


# coincidence is exact: anchors 1 apart at 1e6 differ by only 1e-6 relative
def test_fermat_weber_coincidence_is_exact():
    with pytest.raises(ValueError, match="must not all coincide"):
        FermatWeberInstance(anchors=np.full((3, 2), 1e6), weights=np.ones(3))
    inst = FermatWeberInstance(anchors=np.array([[1e6, 0.0], [1e6 + 1.0, 0.0]]),
                               weights=np.ones(2))
    assert inst.m == 2


def test_max_affine_rejects_inconsistent_plant():
    # claims a minimum at 0 with value 0, but the single piece is x1 + 1
    with pytest.raises(ValueError):
        MaxAffineInstance(
            A=np.array([[1.0]]), b=np.array([1.0]),
            x_star=np.zeros(1), f_star=0.0,
        )


# ----- planted generator -----


def test_planted_instance_structure():
    inst = plant_optimum_max_affine(0, 3, 12, spread=0.7, active_scale=2.5)
    assert inst.A.shape == (12, 3)
    assert np.linalg.norm(inst.x_star) == pytest.approx(0.7, rel=1e-12)
    assert make_problem(inst).value(inst.x_star) == pytest.approx(inst.f_star, rel=1e-12)
    vals = inst.A @ inst.x_star + inst.b
    active = np.isclose(vals, vals.max(), rtol=0, atol=1e-10)
    assert active.sum() == 4  # n + 1 by default
    assert planted_certificate_residual(inst) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    extra=st.integers(0, 8),
    spread=st.floats(0.01, 10.0),
    scale=st.floats(0.5, 20.0),
    sigma=st.sampled_from([0.0, 0.5]),
)
def test_planted_certificate_property(seed, n, extra, spread, scale, sigma):
    m = n + 1 + extra
    inst = plant_optimum_max_affine(
        seed, n, m, spread=spread, sigma=sigma, active_scale=scale
    )
    value = make_problem(inst).value
    assert value(inst.x_star) == pytest.approx(inst.f_star, rel=1e-9, abs=1e-9)
    assert np.linalg.norm(inst.x_star) == pytest.approx(spread, rel=1e-9)
    assert planted_certificate_residual(inst) <= 1e-8 * max(1.0, scale * spread)
    # nearby evaluations never dip below the planted value
    rng = np.random.default_rng(seed + 1)
    for _ in range(8):
        probe = inst.x_star + spread * 0.5 * rng.standard_normal(n)
        assert value(probe) >= inst.f_star - 1e-9 * abs(inst.f_star)


def test_planted_optimum_survives_grid_search():
    inst = plant_optimum_max_affine(3, 2, 8, spread=0.5)
    value = make_problem(inst).value
    best_f, bx, by = grid_min_2d(
        lambda p: value(np.asarray(p)),
        center=inst.x_star, half_width=1.0, points=101, refinements=3,
    )
    assert best_f >= inst.f_star - 1e-6
    assert math.hypot(bx - inst.x_star[0], by - inst.x_star[1]) <= 0.1


def test_planted_rejects_bad_arguments():
    with pytest.raises(ValueError):
        plant_optimum_max_affine(0, 3, 3)  # m < n + 1
    with pytest.raises(ValueError):
        plant_optimum_max_affine(0, 2, 10, active_count=2)
    with pytest.raises(ValueError):
        plant_optimum_max_affine(0, 2, 10, spread=0.0)
    with pytest.raises(ValueError):
        plant_optimum_max_affine(0, 2, 10, active_scale=-1.0)
    with pytest.raises(ValueError, match="n >= 1"):
        plant_optimum_max_affine(0, 0, 10)
    with pytest.raises(ValueError, match="sigma"):
        plant_optimum_max_affine(0, 2, 10, sigma=-1.0)


def test_planted_is_deterministic():
    a = plant_optimum_max_affine(42, 4, 9, spread=0.3)
    b = plant_optimum_max_affine(42, 4, 9, spread=0.3)
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.b, b.b)
    np.testing.assert_array_equal(a.x_star, b.x_star)


def test_gen_max_affine_plain():
    inst = gen_max_affine(7, 3, 5)
    assert inst.A.shape == (5, 3)
    assert inst.x_star is None and inst.f_star is None


# ----- lipschitz bounds -----


def test_lipschitz_max_affine_frozen():
    inst = MaxAffineInstance(A=np.array([[3.0, 4.0], [0.0, 1.0]]), b=np.zeros(2))
    assert lipschitz_bound(inst) == pytest.approx(5.0, rel=1e-15)


def test_lipschitz_adds_quadratic_on_bounded_set():
    inst = MaxAffineInstance(
        A=np.array([[3.0, 4.0]]), b=np.zeros(1), sigma=2.0
    )
    ball = Ball(center=np.zeros(2), radius=1.5)
    assert lipschitz_bound(inst, ball) == pytest.approx(5.0 + 2.0 * 1.5, rel=1e-15)
    with pytest.raises(ValueError):
        lipschitz_bound(inst)  # unbounded set, sigma > 0


# the last has one row per block; 1000 rows are not a multiple of the block
_LARGE_SHAPES = [(1, 1), (3, 7), (1000, 200), (5000, 200), (3, 70000)]


@pytest.mark.parametrize("shape", _LARGE_SHAPES, ids=str)
def test_streamed_passes_match_full_array_forms(shape):
    rng = np.random.default_rng(sum(shape))
    # rows of very different scales, so the largest norm is one row's
    A = rng.standard_normal(shape) * rng.uniform(0.01, 100.0, size=(shape[0], 1))
    inst = MaxAffineInstance(A=A, b=np.zeros(shape[0]))
    L = lipschitz_bound(inst)
    assert L.hex() == lipschitz_full_ref(inst.A).hex()
    assert problems._abs_max(inst.A).hex() == abs_max_full_ref(inst.A).hex()
    assert problems._abs_max(-inst.A).hex() == abs_max_full_ref(inst.A).hex()


def test_lipschitz_of_the_kernel_heavy_instance_keeps_its_bits():
    inst = plant_optimum_max_affine(0, 200, 5000)
    assert lipschitz_bound(inst).hex() == "0x1.a5e72ab428e4cp+7"


def _traced_peak(call):
    """Bytes call() allocates beyond what is live when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


def test_max_affine_passes_allocate_nothing_the_size_of_a():
    rng = np.random.default_rng(0)
    A, b = rng.standard_normal((5000, 200)), rng.standard_normal(5000)
    peak, inst = _traced_peak(lambda: MaxAffineInstance(A=A, b=b))
    assert peak < A.nbytes / 4
    assert inst.A is A  # already contiguous float64: no copy
    peak, _ = _traced_peak(lambda: lipschitz_bound(inst))
    assert peak < A.nbytes / 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("where", ["A_last_block", "b"])
def test_max_affine_rejects_non_finite_in_last_block_or_b(bad, where):
    rng = np.random.default_rng(1)
    A, b = rng.standard_normal((1000, 200)), rng.standard_normal(1000)
    if where == "b":
        b[-1] = bad
    else:
        A[-1, -1] = bad  # rows 981..999 are the last block of 327 rows
    with pytest.raises(ValueError, match="must be finite"):
        MaxAffineInstance(A=A, b=b)


# beyond the weights it is handed, the check reads per-column extrema only
def test_fermat_weber_construction_allocates_little():
    anchors = np.asfortranarray(np.random.default_rng(0).standard_normal((70000, 3)))
    weights = np.ones(70000)
    peak, inst = _traced_peak(lambda: FermatWeberInstance(anchors=anchors, weights=weights))
    assert peak < anchors.nbytes / 4
    assert inst.anchors is anchors and inst.weights is weights


def test_lipschitz_fermat_weber_is_weight_sum():
    inst = FermatWeberInstance(anchors=np.eye(3), weights=np.array([1.0, 2.5, 3.0]))
    assert lipschitz_bound(inst) == pytest.approx(6.5, rel=1e-15)


# ----- weiszfeld reference solver -----


def test_weiszfeld_single_anchor():
    inst = FermatWeberInstance(anchors=np.array([[3.0, 4.0]]), weights=np.array([2.0]))
    x, f = weiszfeld(inst)
    np.testing.assert_array_equal(x, [3.0, 4.0])
    assert f == 0.0


def test_weiszfeld_symmetric_square_centroid():
    inst = FermatWeberInstance(
        anchors=np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]),
        weights=np.ones(4),
    )
    x, f = weiszfeld(inst)
    np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-12)
    assert f == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)


def test_weiszfeld_collinear_median():
    inst = FermatWeberInstance(
        anchors=np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]), weights=np.ones(3)
    )
    x, f = weiszfeld(inst)
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-6)
    assert f == pytest.approx(10.0, abs=1e-9)


def test_weiszfeld_dominant_anchor_wins():
    # w0 exceeds the total pull of the others, so anchor 0 is the optimum
    inst = FermatWeberInstance(
        anchors=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        weights=np.array([10.0, 1.0, 1.0, 1.0]),
    )
    x, f = weiszfeld(inst)
    assert np.linalg.norm(x) <= 1e-9
    assert f == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-10)
    # starting exactly on the optimal anchor returns it unchanged
    x2, f2 = weiszfeld(inst, x0=np.zeros(2))
    np.testing.assert_array_equal(x2, [0.0, 0.0])
    # starting on a non-optimal anchor escapes it
    x3, _ = weiszfeld(inst, x0=np.array([1.0, 1.0]))
    assert np.linalg.norm(x3) <= 1e-9


def test_weiszfeld_stops_at_its_iteration_budget():
    inst = gen_fermat_weber(1, 2, 9, scale=5.0)
    x1, f1 = weiszfeld(inst, max_iters=1)
    x, f = weiszfeld(inst)
    assert f1 == make_problem(inst).value(x1)
    assert f < f1


def test_weiszfeld_beats_dense_grid():
    inst = gen_fermat_weber(1, 2, 9, scale=5.0)
    x, f = weiszfeld(inst)
    value = make_problem(inst).value
    best_f, bx, by = grid_min_2d(
        lambda p: value(np.asarray(p)),
        center=x, half_width=2.0, points=101, refinements=3,
    )
    assert best_f >= f - 1e-9  # nothing on the grid does better
    assert abs(best_f - f) <= 1e-4


# ----- serialization -----


def test_max_affine_instance_roundtrip(tmp_path):
    inst = plant_optimum_max_affine(5, 3, 7, spread=0.4, sigma=0.5)
    ball = Ball(center=np.zeros(3), radius=2.0)
    path = str(tmp_path / "inst.json")
    save_instance(path, inst, ball)
    loaded, cset = load_instance(path)
    assert isinstance(loaded, MaxAffineInstance)
    np.testing.assert_array_equal(loaded.A, inst.A)
    np.testing.assert_array_equal(loaded.b, inst.b)
    np.testing.assert_array_equal(loaded.x_star, inst.x_star)
    assert loaded.f_star == inst.f_star
    assert loaded.sigma == inst.sigma
    assert isinstance(cset, Ball)
    np.testing.assert_array_equal(cset.center, ball.center)
    assert cset.radius == ball.radius


def test_fermat_weber_instance_roundtrip(tmp_path):
    inst = gen_fermat_weber(2, 2, 5, scale=3.0)
    path = str(tmp_path / "fw.json")
    save_instance(path, inst)
    loaded, cset = load_instance(path)
    assert isinstance(loaded, FermatWeberInstance)
    np.testing.assert_array_equal(loaded.anchors, inst.anchors)
    np.testing.assert_array_equal(loaded.weights, inst.weights)
    assert isinstance(cset, WholeSpace)


def test_instance_obj_rejects_unknown_kind():
    obj = instance_to_obj(gen_max_affine(0, 2, 3))
    obj["type"] = "quadratic"
    with pytest.raises(ValueError):
        instance_from_obj(obj)


_ROUNDTRIP_SETS = {
    "rn": WholeSpace(),
    "orthant": NonnegativeOrthant(),
    "box": Box(lo=-np.ones(3), hi=np.array([1.0, 2.0, 3.0])),
    "ball": Ball(center=np.array([0.5, 0.0, -0.5]), radius=2.0),
}
_ROUNDTRIP_INSTANCES = {
    "maxaffine_planted": plant_optimum_max_affine(5, 3, 7, spread=0.4, sigma=0.5),
    "maxaffine": gen_max_affine(1, 3, 6),
    "fermatweber": gen_fermat_weber(2, 3, 5, scale=3.0),
}


@pytest.mark.parametrize("cset", _ROUNDTRIP_SETS.values(), ids=_ROUNDTRIP_SETS)
@pytest.mark.parametrize("inst", _ROUNDTRIP_INSTANCES.values(), ids=_ROUNDTRIP_INSTANCES)
def test_instance_obj_roundtrip_is_byte_identical(inst, cset):
    text = json.dumps(instance_to_obj(inst, cset), sort_keys=True, indent=2)
    again = instance_from_obj(json.loads(text))
    assert json.dumps(instance_to_obj(*again), sort_keys=True, indent=2) == text


def test_instance_obj_names_every_missing_and_unknown_key():
    obj = {"type": "maxaffine", "a": [[1.0]], "sigam": 0.5, "set": {"kind": "ball"}}
    with pytest.raises(ValueError) as err:
        instance_from_obj(obj)
    assert str(err.value) == ("instance is missing field(s) 'A', 'b'; "
                              "instance has unknown field(s) 'a', 'sigam'")
    obj = {"type": "maxaffine", "A": [[1.0]], "b": [0.0], "set": {"kind": "ball", "r": 1}}
    with pytest.raises(ValueError, match=r"'center', 'radius'; set has unknown field\(s\) 'r'"):
        instance_from_obj(obj)


def test_instance_obj_null_optional_field_reads_as_absent():
    obj = instance_to_obj(gen_max_affine(0, 2, 3))
    obj["f_star"] = None
    inst, _ = instance_from_obj(obj)
    assert inst.f_star is None and inst.x_star is None


# JSON-shaped values: scalars of every JSON kind (NaN, infinities and ints of
# any size included), nested lists and objects, and numeric vectors and
# 3-column matrices, which fit the round-trip instances' dimension
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
_NUMBERS = st.floats(-10.0, 10.0) | st.integers(-3, 3)
_FIELD_VALUES = (
    _JSON
    | _NUMBERS
    | st.lists(_NUMBERS, min_size=1, max_size=4)
    | st.lists(st.lists(_NUMBERS, min_size=3, max_size=3), max_size=4)
)
_VALID_TEXTS = [
    json.dumps(instance_to_obj(inst, cset))
    for inst in _ROUNDTRIP_INSTANCES.values() for cset in _ROUNDTRIP_SETS.values()
]
# the fields a mutation may replace or drop; "set." names a field of the set
_FIELD_NAMES = ["type", "A", "b", "sigma", "x_star", "f_star", "anchors", "weights", "set",
                "set.kind", "set.lo", "set.hi", "set.center", "set.radius"]
_DROP = object()


@st.composite
def _mutated_instance_objs(draw):
    """A valid instance object with up to three fields replaced or dropped."""
    obj = json.loads(draw(st.sampled_from(_VALID_TEXTS)))
    changes = draw(st.dictionaries(st.sampled_from(_FIELD_NAMES),
                                   _FIELD_VALUES | st.just(_DROP), max_size=3))
    for name, value in changes.items():
        target = obj
        if name.startswith("set."):
            target, name = obj.get("set"), name[len("set."):]
            if not isinstance(target, dict):
                continue
        if value is _DROP:
            target.pop(name, None)
        else:
            target[name] = value
    return obj


@settings(max_examples=300, deadline=None)
@given(_mutated_instance_objs() | _JSON)
@example({"type": "maxaffine", "A": [[10**400]], "b": [0.0]})
@example({"type": "maxaffine", "A": [[1.0]], "b": [0.0], "sigma": 10**400})
@example({"type": "maxaffine", "A": [[1.0]], "b": [0.0], "set": {"kind": "box", "lo": {}}})
@example({"type": "fermatweber", "anchors": "x", "weights": [1.0]})
@example({"type": [], "set": {"kind": {}}})
@example({"type": "maxaffine", "A": [["1.5", True]], "b": ["0"]})
@example({"type": "maxaffine", "A": [[1.0]], "b": [0.0], "sigam": 0.5})
def test_instance_from_obj_returns_or_raises_value_error(obj):
    try:
        inst, cset = instance_from_obj(obj)
    except ValueError:
        return
    assert isinstance(inst, (MaxAffineInstance, FermatWeberInstance))
    assert isinstance(cset, (WholeSpace, NonnegativeOrthant, Box, Ball))
    # every key read is a field, written back unless null, and an array field
    # read was nested lists of numbers, with no bool or string
    written = instance_to_obj(inst, cset)
    for source, fields in ((obj, written), (obj.get("set"), written["set"])):
        if source is not None:
            assert {key for key, value in source.items() if value is not None} <= set(fields)
        for name, value in fields.items():
            if isinstance(value, list):
                assert all(type(leaf) in (int, float) for leaf in _leaves(source[name]))


def _leaves(value):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


# ----- anchor CSV convention -----


def test_read_anchor_csv_truncates_and_flips_sign(tmp_path):
    p = tmp_path / "anchors.csv"
    p.write_text("lat,lon\n12.9,3.4\n-5.2,7.8\n0.4,19.99\n")
    got = read_anchor_csv(str(p))
    np.testing.assert_array_equal(
        got, [[-12.0, -3.0], [-5.0, -7.0], [0.0, -19.0]]
    )


def test_read_anchor_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        read_anchor_csv(str(p))


def test_read_anchor_csv_rejects_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("lat,lon\n")
    with pytest.raises(ValueError):
        read_anchor_csv(str(p))


# cells of every kind a reader meets: numbers, non-finite and overflowing
# spellings, blanks, words and stray separators
_CSV_CELLS = (st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "", " ", "lat", "1_0",
                               "0x10", "-0.0", "1e308", "+7", ";"])
              | st.floats().map(repr) | st.integers(-10**20, 10**20).map(str))


@st.composite
def _anchor_csv_texts(draw):
    rows = draw(st.lists(st.lists(_CSV_CELLS, min_size=1, max_size=3), max_size=5))
    return "\n".join(",".join(row) for row in rows) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(_anchor_csv_texts() | st.text(st.characters(blacklist_categories=("Cs",)), max_size=30))
@example("lat,lon\ninf,3\n")
@example("nan,1\n")
@example("1e400,2\n3,4\n")
def test_read_anchor_csv_returns_or_raises_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "anchors.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            anchors = read_anchor_csv(path)
        except ValueError as exc:
            assert str(exc).startswith(path + ":"), exc
            return
    assert anchors.dtype == np.float64 and anchors.ndim == 2 and anchors.size > 0
    assert np.all(np.isfinite(anchors)) and np.all(anchors <= 0.0)
    np.testing.assert_array_equal(anchors, np.trunc(anchors))


# ----- problem bundles -----


def test_instance_functions_reject_a_non_instance():
    for fn in (lipschitz_bound, make_problem, instance_to_obj):
        with pytest.raises(TypeError, match="not an instance|no type name"):
            fn(object())


def test_make_problem_carries_certificates():
    inst = plant_optimum_max_affine(1, 2, 6, spread=0.3)
    prob = make_problem(inst)
    assert prob.n == 2
    assert prob.f_star == inst.f_star
    assert prob.L == pytest.approx(lipschitz_bound(inst))
    v, g = prob.eval(inst.x_star)
    assert v == pytest.approx(inst.f_star, rel=1e-12)
    assert prob.value(inst.x_star) == pytest.approx(inst.f_star, rel=1e-12)


def test_make_problem_rejects_infeasible_plant():
    inst = plant_optimum_max_affine(1, 2, 6, spread=5.0)
    tiny = Ball(center=np.zeros(2), radius=0.1)
    with pytest.raises(ValueError, match="outside"):
        make_problem(inst, tiny)


def test_make_problem_sigma_unbounded_set_leaves_l_unset():
    inst = plant_optimum_max_affine(1, 2, 6, spread=0.3, sigma=1.0)
    prob = make_problem(inst)
    assert prob.L is None


def test_problem_spec_checks_star_consistency():
    inst = plant_optimum_max_affine(1, 2, 6, spread=0.3)
    prob = make_problem(inst)
    with pytest.raises(ValueError, match="inconsistent"):
        type(prob)(
            n=prob.n, value=prob.value, eval=prob.eval, cset=prob.cset,
            x_star=inst.x_star, f_star=inst.f_star + 1.0,
        )


# ----- parked oracle: value(x) hands its subgradient to the next eval(x) -----


def _oracle_cases():
    ball = Ball(center=np.zeros(3), radius=2.0)
    return [
        ("maxaffine", plant_optimum_max_affine(2, 3, 9, spread=0.5), None),
        ("maxaffine_sigma", plant_optimum_max_affine(2, 3, 9, spread=0.5, sigma=0.7), ball),
        ("fermatweber", gen_fermat_weber(2, 3, 11), None),
    ]


ORACLE_CASES = _oracle_cases()
ORACLE_IDS = [name for name, _, _ in ORACLE_CASES]


@pytest.mark.parametrize("name,inst,cset", ORACLE_CASES, ids=ORACLE_IDS)
def test_parked_eval_matches_fresh_eval(name, inst, cset):
    prob = make_problem(inst, cset)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(inst.n)
        f = prob.value(x)
        v, g = prob.eval(x)
        v_fresh, g_fresh = make_problem(inst, cset).eval(x.copy())
        # the value oracle agrees bit for bit with a fresh problem's
        assert f == make_problem(inst, cset).value(x.copy())
        assert v == f == v_fresh
        np.testing.assert_array_equal(g, g_fresh)


@pytest.mark.parametrize("name,inst,cset", ORACLE_CASES, ids=ORACLE_IDS)
def test_parked_eval_misses_after_in_place_change(name, inst, cset):
    prob = make_problem(inst, cset)
    x = np.full(inst.n, 0.25)
    prob.value(x)
    x[0] += 1.0
    v, g = prob.eval(x)
    v_fresh, g_fresh = make_problem(inst, cset).eval(x.copy())
    assert v == v_fresh
    np.testing.assert_array_equal(g, g_fresh)


@pytest.mark.parametrize("name,inst,cset", ORACLE_CASES, ids=ORACLE_IDS)
def test_parked_subgradient_is_handed_out_once(name, inst, cset):
    prob = make_problem(inst, cset)
    x = np.full(inst.n, -0.5)
    prob.value(x)
    _, g1 = prob.eval(x)
    _, g2 = prob.eval(x)
    assert g1 is not g2
    assert not np.shares_memory(g1, g2)
    np.testing.assert_array_equal(g1, g2)
    g1[:] = np.nan  # a caller scribbling on its copy leaves the next one alone
    _, g3 = prob.eval(x)
    np.testing.assert_array_equal(g3, g2)


@pytest.mark.parametrize("name,inst,cset", ORACLE_CASES, ids=ORACLE_IDS)
def test_parked_oracles_reject_wrong_shapes(name, inst, cset):
    prob = make_problem(inst, cset)
    good = np.zeros(inst.n)
    prob.value(good)
    # a length-1 point would broadcast silently against the anchors
    for bad in (np.zeros(1), np.zeros(inst.n + 1), np.zeros((inst.n, 1))):
        with pytest.raises(ValueError, match="shape"):
            prob.value(bad)
        with pytest.raises(ValueError, match="shape"):
            prob.eval(bad)
