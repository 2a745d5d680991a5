import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmsubgrad import (
    ConfigError,
    ExplicitTable,
    PowerInverse,
    SolverConfig,
    SqrtInverse,
    StronglyConvexHarmonic,
    TheoryRegimeWarning,
    config_from_keyvalues,
    gamma_values,
    make_problem,
    plant_optimum_max_affine,
    solve_nonmonotone,
)
from nmsubgrad.core import IterationRecord, as_point

from oracles import (
    GammaDiagnostics,
    build_report,
    config_from_json,
    config_to_json,
    config_to_keyvalues,
    gamma_ref,
    sequence_diagnostics,
)


# ----- as_point -----


def test_as_point_coerces_lists():
    a = as_point([1, 2, 3])
    assert a.dtype == np.float64
    assert a.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(a, [1.0, 2.0, 3.0])


def test_as_point_rejects_matrix_and_nan():
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_point([1.0, math.nan])


# ----- gamma sequences: frozen values -----


def test_sqrt_inverse_quarter():
    assert gamma_values(SqrtInverse(1.0), 4)[3] == 0.5


def test_sqrt_inverse_first_value_is_zeta():
    assert gamma_values(SqrtInverse(2.0), 1)[0] == 2.0


def test_strongly_convex_harmonic_value():
    seq = StronglyConvexHarmonic(sigma=1.0, beta=0.9, big_theta=0.5)
    assert gamma_values(seq, 2)[1] == pytest.approx(2.0 / 0.9, rel=1e-12)
    assert gamma_values(seq, 2)[1] == pytest.approx(2.2222222222, rel=1e-9)


def test_power_inverse_dyadic_value():
    # 16**(1 - 0.25) = 8 exactly
    assert gamma_values(PowerInverse(1.0, 0.5), 16)[15] == pytest.approx(0.125, rel=1e-15)


@given(
    zeta=st.floats(1e-3, 1e3),
    k=st.integers(1, 10_000),
)
def test_sqrt_inverse_matches_reference(zeta, k):
    assert gamma_values(SqrtInverse(zeta), k)[k - 1] == pytest.approx(
        gamma_ref("sqrt_inverse", k, zeta=zeta), rel=1e-12
    )


@given(
    zeta=st.floats(1e-3, 1e3),
    theta=st.floats(0.01, 0.99),
    k=st.integers(1, 10_000),
)
def test_power_inverse_matches_reference(zeta, theta, k):
    assert gamma_values(PowerInverse(zeta, theta), k)[k - 1] == pytest.approx(
        gamma_ref("power_inverse", k, zeta=zeta, theta=theta), rel=1e-12
    )


@given(k=st.integers(1, 1000))
def test_gamma_kinds_positive_nonincreasing(k):
    for seq in (
        SqrtInverse(0.7),
        PowerInverse(2.0, 0.3),
        StronglyConvexHarmonic(2.0, 0.8, 0.4),
    ):
        a, b = gamma_values(seq, k + 1)[k - 1:]
        assert a > 0.0
        assert b <= a


# one arithmetic: gamma_k, read as the last entry of gamma_values(seq, k), has
# the bits of its entry in every longer table, of every kind
def test_gamma_values_vector_matches_scalar():
    for seq in (SqrtInverse(0.7), PowerInverse(1.7, 0.3), StronglyConvexHarmonic(2.0, 0.8, 0.4),
                ExplicitTable(tuple(1.0 / k for k in range(1, 334)))):
        vec = gamma_values(seq, 333)
        assert vec.shape == (333,)
        assert [gamma_values(seq, k)[k - 1] for k in range(1, 334)] == vec.tolist()


@given(zeta=st.floats(1e-3, 1e3), theta=st.floats(0.01, 0.99),
       n=st.integers(1, 300), data=st.data())
def test_power_inverse_value_has_the_bits_of_its_table_entry(zeta, theta, n, data):
    seq = PowerInverse(zeta, theta)
    k = data.draw(st.integers(1, n))
    assert gamma_values(seq, k)[k - 1] == gamma_values(seq, n)[k - 1]


def test_gamma_values_rejects_empty_table_and_non_sequence():
    with pytest.raises(ValueError, match="n >= 1"):
        gamma_values(SqrtInverse(), 0)
    with pytest.raises(TypeError, match="not a gamma sequence"):
        gamma_values(0.5, 3)


# ----- explicit tables -----


def test_explicit_table_lookup_and_overrun():
    t = ExplicitTable((3.0, 2.0, 1.0))
    assert gamma_values(t, 3)[2] == 1.0
    with pytest.raises(ValueError):
        gamma_values(t, 4)


def test_explicit_table_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExplicitTable(())
    with pytest.raises(ConfigError):
        ExplicitTable((1.0, 0.0))
    with pytest.raises(ConfigError):
        ExplicitTable((1.0, math.inf))
    with pytest.raises(ConfigError):
        ExplicitTable((1.0, 2.0))  # increasing


def test_gamma_param_validation():
    with pytest.raises(ConfigError):
        SqrtInverse(0.0)
    with pytest.raises(ConfigError):
        PowerInverse(1.0, 1.0)
    for zeta in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="zeta"):
            PowerInverse(zeta, 0.5)
    with pytest.raises(ConfigError):
        StronglyConvexHarmonic(1.0, 0.9, 0.0)


# ----- sequence diagnostics -----


def test_diagnostics_fields_match_direct_sums():
    seq = SqrtInverse(2.0)
    N = 100
    g = [gamma_ref("sqrt_inverse", k, zeta=2.0) for k in range(1, N + 2)]
    d = sequence_diagnostics(seq, N)
    assert isinstance(d, GammaDiagnostics)
    s5 = sum(v * v for v in g[:N])
    s6 = sum(g[:N])
    assert d.s5 == pytest.approx(s5, rel=1e-12)
    assert d.s6 == pytest.approx(s6, rel=1e-12)
    assert d.r3 == pytest.approx(s5 / sum(g[1 : N + 1]), rel=1e-12)
    assert d.r4 == pytest.approx(s5 / (N * g[N]), rel=1e-12)


def test_sqrt_inverse_ratios_decay():
    seq = SqrtInverse(1.0)
    assert sequence_diagnostics(seq, 10_000).r3 < sequence_diagnostics(seq, 100).r3
    assert sequence_diagnostics(seq, 10_000).r4 < sequence_diagnostics(seq, 100).r4


def test_constant_table_ratio_is_one():
    N = 64
    t = ExplicitTable((1.0,) * (N + 1))
    d = sequence_diagnostics(t, N)
    assert d.r3 == pytest.approx(1.0, rel=1e-15)


def test_sqrt_inverse_partial_sum_lower_bound():
    # sum_{k<=N} 1/sqrt(k) >= 2*(sqrt(N+1) - 1)
    N = 10_000
    d = sequence_diagnostics(SqrtInverse(1.0), N)
    assert d.s6 >= 2.0 * (math.sqrt(N + 1) - 1.0)


def test_diagnostics_rejects_n_zero():
    with pytest.raises(ValueError):
        sequence_diagnostics(SqrtInverse(), 0)


# ----- config validation -----
#
# a config checks its fields when it is made; solve_nonmonotone warns when
# rho <= 1/2 leaves the complexity constants non-positive


def _tiny_problem():
    return make_problem(plant_optimum_max_affine(0, 2, 4))


def test_validate_config_passes_defaults():
    cfg = SolverConfig(max_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the default rho lies in the theory's regime
        solve_nonmonotone(_tiny_problem(), cfg)


def test_validate_config_rejects_beta_one():
    with pytest.raises(ConfigError, match="beta"):
        SolverConfig(beta=1.0)


def test_validate_config_warns_small_rho():
    cfg = SolverConfig(rho=0.4, max_iters=5)
    with pytest.warns(TheoryRegimeWarning, match="rho = 0.4 <= 1/2"):
        solve_nonmonotone(_tiny_problem(), cfg)


def test_validate_config_collects_every_violation():
    with pytest.raises(ConfigError) as err:
        SolverConfig(c=-1.0, beta=2.0, rho=0.0, alpha1=0.0, max_iters=0)
    msg = str(err.value)
    for field in ("c ", "beta", "rho", "alpha1", "max_iters"):
        assert field in msg


@pytest.mark.parametrize("changes, named", [
    ({"backtrack_cap": 0}, "backtrack_cap"),
    ({"backtrack_cap": 2.0}, "backtrack_cap"),
    ({"gamma": 0.5}, "gamma is not a recognized sequence"),
], ids=["cap_zero", "cap_float", "gamma_number"])
def test_config_rejects_backtrack_cap_and_gamma(changes, named):
    with pytest.raises(ConfigError, match=named):
        SolverConfig(**changes)


# ----- config serialization -----


def test_config_json_has_contracted_keys():
    cfg = SolverConfig(gamma=PowerInverse(0.5, 0.25))
    obj = json.loads(config_to_json(cfg))
    assert set(obj) == {
        "c", "beta", "rho", "alpha1", "gamma.kind", "gamma.zeta", "gamma.theta",
        "max_iters", "backtrack_cap", "seed",
    }
    assert obj["gamma.kind"] == "power_inverse"
    assert obj["gamma.zeta"] == 0.5
    assert obj["gamma.theta"] == 0.25


def test_config_json_roundtrip_all_kinds():
    for gamma in (
        SqrtInverse(0.01),
        PowerInverse(2.0, 0.75),
        StronglyConvexHarmonic(1.0, 0.9, 0.5),
        ExplicitTable((2.0, 1.0, 1.0)),
        ExplicitTable((0.5,)),  # keyvalues writes a one-entry table as a bare number
    ):
        cfg = SolverConfig(c=1.25, beta=0.85, rho=0.7, alpha1=0.3,
                           gamma=gamma, max_iters=17, backtrack_cap=33, seed=5)
        assert config_from_json(config_to_json(cfg)) == cfg
        assert config_from_keyvalues(config_to_keyvalues(cfg)) == cfg


def test_config_keyvalues_roundtrip():
    cfg = SolverConfig(gamma=SqrtInverse(3.0), seed=11)
    text = config_to_keyvalues(cfg)
    assert "gamma.kind = sqrt_inverse" in text
    assert config_from_keyvalues(text) == cfg


@pytest.mark.filterwarnings("ignore::nmsubgrad.core.TheoryRegimeWarning")
@settings(max_examples=60)
@given(
    c=st.floats(1e-3, 1e3),
    beta=st.floats(0.01, 0.99),
    rho=st.floats(0.01, 0.99),
    alpha1=st.floats(1e-6, 1e3),
    zeta=st.floats(1e-6, 1e6),
    max_iters=st.integers(1, 10**6),
    cap=st.integers(1, 10**4),
    seed=st.integers(0, 2**31 - 1),
)
def test_config_roundtrip_property(c, beta, rho, alpha1, zeta, max_iters, cap, seed):
    cfg = SolverConfig(c=c, beta=beta, rho=rho, alpha1=alpha1,
                       gamma=SqrtInverse(zeta), max_iters=max_iters,
                       backtrack_cap=cap, seed=seed)
    assert config_from_json(config_to_json(cfg)) == cfg
    assert config_from_keyvalues(config_to_keyvalues(cfg)) == cfg


def test_config_from_json_rejects_unknown_gamma():
    cfg = SolverConfig()
    obj = json.loads(config_to_json(cfg))
    obj["gamma.kind"] = "geometric"
    with pytest.raises(ConfigError):
        config_from_json(json.dumps(obj))


@pytest.mark.parametrize("items, named", [
    ({"rho": 0.7, "max_iter": 5}, "'max_iter'"),
    ({"gamma.zeta": 2.0}, "'gamma.zeta'"),
    ({"gamma.kind": "sqrt_inverse", "gamma.theta": 0.5}, "'gamma.theta'"),
    ({"rho": [0.7]}, "'rho'"),
    ({"max_iters": 2.5}, "'max_iters'"),
    ({"max_iters": True}, "'max_iters'"),
    ({"gamma.kind": "table", "gamma.values": [[1.0]]}, "'gamma.values'"),
], ids=["scalar_typo", "gamma_field_without_kind", "other_kinds_field", "wrong_type",
        "int_field_float", "int_field_bool", "table_matrix"])
def test_config_rejects_unknown_or_malformed_fields(items, named):
    with pytest.raises(ConfigError, match=named):
        config_from_json(json.dumps(items))
    text = "".join(f"{key} = {value}\n" for key, value in items.items())
    with pytest.raises(ConfigError, match=named):
        config_from_keyvalues(text)


# ----- config reader fuzzing -----

# JSON-shaped values: scalars of every JSON kind (NaN, infinities and ints of
# any size included), and nested lists and objects
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
_NUMBERS = st.floats(-10.0, 10.0) | st.integers(-3, 3)
_CONFIG_VALUES = (_JSON | _NUMBERS | st.lists(_NUMBERS, max_size=4)
                  | st.sampled_from(["sqrt_inverse", "power_inverse", "table",
                                     "strongly_convex_harmonic"]))
_VALID_CONFIGS = [
    json.loads(config_to_json(SolverConfig(gamma=gamma)))
    for gamma in (SqrtInverse(0.5), PowerInverse(2.0, 0.75),
                  StronglyConvexHarmonic(1.0, 0.9, 0.5), ExplicitTable((2.0, 1.0)))
]
# the keys a mutation may replace or drop: every config field, the fields of
# every gamma kind, and two unknown keys
_CONFIG_KEYS = sorted({key for items in _VALID_CONFIGS for key in items}
                      | {"gamma", "gamma.sigmaa"})
_DROP = object()


@st.composite
def _mutated_config_items(draw):
    """A valid config's items with up to three keys replaced or dropped."""
    items = dict(draw(st.sampled_from(_VALID_CONFIGS)))
    changes = draw(st.dictionaries(st.sampled_from(_CONFIG_KEYS),
                                   _CONFIG_VALUES | st.just(_DROP), max_size=3))
    for key, value in changes.items():
        if value is _DROP:
            items.pop(key, None)
        else:
            items[key] = value
    return items


def _read_or_config_error(read, text):
    """read(text), or None when it raises ConfigError; a config it returns
    writes itself back to the same config."""
    try:
        cfg = read(text)
    except ConfigError:
        return None
    assert isinstance(cfg, SolverConfig)
    assert config_from_json(config_to_json(cfg)) == cfg
    assert config_from_keyvalues(config_to_keyvalues(cfg)) == cfg
    return cfg


@settings(max_examples=300, deadline=None)
@given(_mutated_config_items() | _JSON)
@example({"max_iters": 2.5})
@example({"max_iters": True})
@example({"gamma.kind": "table", "gamma.values": 0.5})
@example({"gamma.kind": "table", "gamma.values": [[1.0]]})
@example({"gamma.kind": ["table"]})
@example({"c": 10**400})
def test_config_from_json_returns_or_raises_config_error(items):
    _read_or_config_error(config_from_json, json.dumps(items))


# values as key=value text: numbers in several spellings, lists, and words
_TEXT_VALUES = (
    st.text(alphabet="0123456789.,-+e_ nafity", max_size=8)
    | _NUMBERS.map(repr)
    | st.lists(_NUMBERS.map(repr), min_size=2, max_size=4).map(",".join)
    | st.sampled_from(["sqrt_inverse", "table", "True", "nan", "1e999", "9" * 5000])
)


@st.composite
def _keyvalue_texts(draw):
    """A valid config's key=value text with up to three lines changed,
    dropped or added, and now and then a line with no '='."""
    items = {key: value for key, value in draw(_mutated_config_items()).items()
             if isinstance(value, (int, float, str))}
    text_items = {key: str(value) for key, value in items.items()}
    changes = draw(st.dictionaries(st.sampled_from(_CONFIG_KEYS), _TEXT_VALUES, max_size=3))
    text_items.update(changes)
    lines = [f"{key} = {value}" for key, value in text_items.items()]
    lines += draw(st.lists(st.text(max_size=6), max_size=1))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_keyvalue_texts() | st.text(max_size=20))
@example("max_iters = 2.5\n")
@example("max_iters = true\n")
@example("gamma.kind = table\ngamma.values = 0.5\n")
@example("gamma.kind = table\ngamma.values = 2.0,1.0,nan\n")
@example("c = " + "9" * 5000 + "\n")
@example("gamma.kind = sqrt_inverse,table\n")
def test_config_from_keyvalues_returns_or_raises_config_error(text):
    _read_or_config_error(config_from_keyvalues, text)


# ----- package namespace -----


def test_package_all_is_the_modules_lists():
    import nmsubgrad
    from nmsubgrad import analysis, core, linesearch, problems, solver

    names = nmsubgrad.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(nmsubgrad, name) for name in names)
    modules = (core, problems, linesearch, solver, analysis)
    assert set(names) == {"BACKEND"}.union(*(m.__all__ for m in modules))
    # values and subgradients come from a problem's oracles, and gamma_k from
    # gamma_values; the package exports no second path to them
    for name in ("max_affine_value", "fermat_weber_value", "max_affine_eval",
                 "fermat_weber_eval", "gamma_value"):
        assert not hasattr(nmsubgrad, name), name


# ----- run reports -----


def _rec(k, f):
    return IterationRecord(k=k, x=None, f=f, gamma=1.0, alpha=0.1,
                           ell=1, step=0.09, snorm=1.0, alpha_next=0.1)


def test_build_report_best_is_first_minimum():
    rep = build_report([_rec(1, 3.0), _rec(2, 1.0), _rec(3, 1.0), _rec(4, 2.0)],
                       "max_iters")
    assert rep.f_best == 1.0
    assert rep.it_best == 2
    assert rep.n_steps == 3  # the last row is read as the landed iterate


def test_build_report_requires_records():
    with pytest.raises(ValueError):
        build_report([], "max_iters")


# f_best and it_best are min() and list.index() over the f values as given:
# a NaN first wins (no later value compares below it), a NaN later is passed over
@pytest.mark.parametrize("fs, it_best", [
    ([math.nan, 3.0, 1.0], 1),
    ([3.0, math.nan, 1.0, 2.0], 3),
], ids=["nan_first", "nan_mid"])
def test_build_report_best_with_nan(fs, it_best):
    rep = build_report([_rec(k, f) for k, f in enumerate(fs, 1)], "backtrack_failure")
    assert rep.it_best == it_best
    best = fs[it_best - 1]
    assert rep.f_best == best or (math.isnan(rep.f_best) and math.isnan(best))
