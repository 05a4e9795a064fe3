import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoppp as ip
from isoppp import TailKind
from isoppp.shapes import _SCENARIOS
from conftest import SCENARIO_PARAMS, profile_slope, rayleigh_channel


class TestScenarios:
    def test_scattered_basics(self):
        shape = ip.scenario_scattered(100.0)
        assert shape.eval_f(0.0) == 1.0
        assert shape.tail.kind is TailKind.EXPONENTIAL_DECAY
        assert shape.tail.param == pytest.approx(0.01)

    def test_carrier_sense_limits(self):
        shape = ip.scenario_carrier_sense(1e-5, 4.0)
        assert shape.eval_f(0.0) == 0.0
        assert shape.eval_f(1e6) == pytest.approx(1.0)
        assert shape.tail.kind is TailKind.NON_DECAYING

    def test_finite_network_plateau_and_support(self):
        shape = ip.scenario_finite_network(400.0, 600.0)
        assert shape.eval_f(200.0) == 1.0
        assert shape.eval_f(700.0) == 0.0
        assert shape.support_end == 600.0

    def test_urban_hotspot_levels(self):
        shape = ip.scenario_urban_hotspot(0.4, 10.0, 30.0, 0.6, 200.0, 400.0)
        assert shape.f_zero == pytest.approx(1.0)
        assert shape.eval_f(0.0) == pytest.approx(1.0)
        assert shape.eval_f(100.0) == pytest.approx(0.6)  # hotspot gone, base intact
        assert shape.eval_f(500.0) == 0.0

    def test_bad_params(self):
        with pytest.raises(ip.InvalidScenarioParams):
            ip.scenario_finite_network(600.0, 400.0)
        with pytest.raises(ip.InvalidScenarioParams):
            ip.scenario_urban_hotspot(0.7, 10, 30, 0.7, 200, 400)  # levels sum > 1
        with pytest.raises(ip.InvalidScenarioParams):
            ip.scenario_scattered(-1.0)
        with pytest.raises(ip.InvalidScenarioParams):
            ip.scenario_carrier_sense(0.0, 4.0)


@pytest.mark.parametrize("build, args, kwargs", [
    (ip.scenario_scattered, (), {}),
    (ip.scenario_scattered, (1.0, 2.0), {}),
    (ip.scenario_finite_network, (), {"r0": 1}),
], ids=["missing", "surplus", "missing-keyword"])
def test_wrong_arity_is_invalid_params(build, args, kwargs):
    # the registry's bind checks the arity of direct calls and descriptors alike
    with pytest.raises(ip.InvalidScenarioParams, match="scenario [AC]: "):
        build(*args, **kwargs)


class TestConstant:
    def test_values(self):
        shape = ip.constant_shape(1.0)
        assert shape.eval_f(123.4) == 1.0
        assert shape.tail.kind is TailKind.NON_DECAYING

    def test_zero_derivative(self):
        r = np.geomspace(1e-3, 1e6, 50)
        assert np.all(np.diff(ip.constant_shape(0.5).eval_f(r)) == 0.0)

    @pytest.mark.parametrize("level", [0.0, -0.2, 1.5])
    def test_invalid_level(self, level):
        with pytest.raises(ip.InvalidScenarioParams):
            ip.constant_shape(level)


class TestPowerTail:
    def test_origin_value(self):
        assert ip.power_tail_shape(2.0, 1.0).eval_f(0.0) == 1.0

    def test_far_value(self):
        # direct evaluation oracle: F(1e3) = (1 + 1e6)^(-1)
        value = ip.power_tail_shape(2.0, 1.0).eval_f(1e3)
        assert value == pytest.approx(1.0 / (1.0 + 1e6), rel=1e-5)

    def test_tail_class(self):
        tail = ip.power_tail_shape(1.5, 50.0).tail
        assert tail.kind is TailKind.POWER_DECAY
        assert tail.param == 1.5

    def test_invalid_exponent(self):
        with pytest.raises(ip.InvalidScenarioParams):
            ip.power_tail_shape(-0.5, 1.0)


_D80 = ip.scenario_carrier_sense(1e-5, 80.0)
_LINK = ip.LinkConfig(1e-5, 1e4, 10.0, 1.0)


@pytest.mark.parametrize("call, expected", [
    (lambda: _D80.eval_f(1e4), 1.0),
    (lambda: ip.power_tail_shape(2.5, 50.0).eval_f(1e200), 0.0),
    (lambda: ip.outage_approx(_D80, rayleigh_channel(4, 0.0), _LINK), 0.004922646068421613),
    (lambda: ip.log_divergence(_D80, rayleigh_channel(4, 0.0), _LINK), 4.1314587055026444e-12),
    (lambda: ip.lower_tail_bound(_D80, rayleigh_channel(4, 1.0), 1e-5, 1e4, 1e-3), 0.0),
], ids=["D-eval", "powerTail-eval", "outage_approx", "log_divergence", "lower_tail_bound"])
def test_scalar_radius_overflows_to_the_limit(call, expected):
    # a Python-float radius reaches the profile as a float array, so r^alpha
    # overflows to inf (F's limit) instead of raising OverflowError
    assert call() == expected


def _derivative_consistent(shape, radii, tol=1e-5):
    """|F(r+h) - F(r-h) - 2 h f(r)| <= tol h + tol h^2 with h = 1e-4 max(1, r),
    where f is the closed-form slope oracle.

    Points whose symmetric stencil would need a negative radius are skipped.
    """
    for r in radii:
        h = 1e-4 * max(1.0, r)
        if r - h < 0.0:
            continue
        lhs = abs(
            float(shape.eval_f(r + h)) - float(shape.eval_f(r - h))
            - 2.0 * h * float(profile_slope(shape, r))
        )
        assert lhs <= tol * h + tol * h * h, f"derivative mismatch at r={r}"


ALL_SHAPES = [
    ip.scenario_finite_network(500.0, 800.0),
    ip.scenario_urban_hotspot(0.3, 10.0, 30.0, 0.5, 200.0, 400.0),
    ip.scenario_scattered(100.0),
    ip.scenario_carrier_sense(1e-5, 4.0),
    ip.constant_shape(0.7),
    ip.power_tail_shape(2.0, 50.0),
    ip.log_decay_shape(100.0),
]


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: s.descriptor["scenario"])
def test_derivative_matches_profile(shape):
    radii = [0.0, 0.5, 3.0, 17.0, 90.0, 333.0, 450.0, 501.0, 650.0, 1000.0]
    _derivative_consistent(shape, radii)


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: s.descriptor["scenario"])
def test_scalar_radius_gives_a_float(shape):
    assert isinstance(shape.eval_f(5.0), float)


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: s.descriptor["scenario"])
def test_range_is_unit_interval(shape):
    r = np.geomspace(1e-3, 1e6, 200)
    values = shape.eval_f(np.concatenate(([0.0], r)))
    assert np.all(values >= 0.0) and np.all(values <= 1.0)


@given(nu=st.floats(0.3, 6.0), r0=st.floats(0.1, 300.0), r=st.floats(1e-3, 1e4))
@settings(max_examples=60, deadline=None)
def test_power_tail_derivative_property(nu, r0, r):
    shape = ip.power_tail_shape(nu, r0)
    _derivative_consistent(shape, [r], tol=1e-4)


@given(rho=st.floats(0.5, 500.0), r=st.floats(1e-3, 2e3))
@settings(max_examples=60, deadline=None)
def test_scattered_derivative_property(rho, r):
    _derivative_consistent(ip.scenario_scattered(rho), [r], tol=1e-4)


def test_power_tail_classification_consistent():
    # F(r) * r^nu must settle to a finite positive constant at large r
    for nu in (0.8, 1.5, 2.0):
        shape = ip.power_tail_shape(nu, 2.0)
        probes = np.array([1e3, 1e4, 1e5])
        scaled = shape.eval_f(probes) * probes**nu
        drift = scaled.max() / scaled.min() - 1.0
        assert drift < 0.2


def test_ccdf_interpretation():
    # shapes with F(0) = 1 and F nonincreasing: 1 - F is a CDF
    for shape in (ip.scenario_scattered(10.0), ip.power_tail_shape(2.0, 5.0),
                  ip.scenario_finite_network(50.0, 80.0)):
        assert shape.f_zero == 1.0
        r = np.linspace(0.0, 500.0, 2000)
        cdf = 1.0 - shape.eval_f(r)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == 0.0
        assert shape.eval_f(1e9) < 1e-6  # tail decays, CDF limit is 1


def test_monotonicity_by_scenario():
    r = np.linspace(0.0, 1200.0, 4000)
    nonincreasing = ip.scenario_finite_network(500.0, 800.0), ip.scenario_scattered(100.0)
    for shape in nonincreasing:
        assert np.all(np.diff(shape.eval_f(r)) <= 1e-12)
    growing = ip.scenario_carrier_sense(1e-5, 4.0)
    assert np.all(np.diff(growing.eval_f(r)) >= -1e-12)


PARAMETERS = [(name, param) for name, build in _SCENARIOS.items()
              for param in inspect.signature(build).parameters]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("scenario,param", PARAMETERS)
def test_parameter_must_be_positive_and_finite(scenario, param, value):
    params = {**SCENARIO_PARAMS[scenario], param: value}
    with pytest.raises(ip.InvalidScenarioParams, match=f"{scenario}: {param} must be positive"):
        _SCENARIOS[scenario](**params)


@pytest.mark.parametrize("value", [None, True, [100], "abc", 10**400],
                         ids=["None", "True", "list", "abc", "int-1e400"])
@pytest.mark.parametrize("scenario,param", PARAMETERS)
def test_parameter_must_be_a_number(scenario, param, value):
    # a direct call reads its arguments as from_descriptor does
    params = {**SCENARIO_PARAMS[scenario], param: value}
    with pytest.raises(ip.InvalidScenarioParams, match=f"{scenario}: {param} must be a number"):
        _SCENARIOS[scenario](**params)


def test_numeric_string_is_read_as_its_number():
    shape = ip.scenario_scattered("100")
    assert shape.descriptor == {"scenario": "C", "params": {"rho": 100.0}}
    assert type(shape.descriptor["params"]["rho"]) is float


@pytest.mark.parametrize("value", [1e-300, 1e300])
@pytest.mark.parametrize("scenario,param", PARAMETERS)
def test_profile_at_extreme_parameter_has_no_nan(scenario, param, value):
    """An accepted extreme parameter gives a profile free of NaN, and a
    subharmonic test (second differences of F) free of RuntimeWarnings
    (errors under the test configuration)."""
    params = {**SCENARIO_PARAMS[scenario], param: value}
    try:
        shape = _SCENARIOS[scenario](**params)
    except ip.InvalidScenarioParams:
        return
    assert not np.any(np.isnan(shape.eval_f(np.array([0.0, 1.0, 1e3, 1e300]))))
    ip.subharmonic_region(shape, shape.scale / 256.0)


@pytest.mark.parametrize("kind", [TailKind.COMPACT_SUPPORT, TailKind.POWER_DECAY,
                                  TailKind.EXPONENTIAL_DECAY])
@pytest.mark.parametrize("param", [None, math.nan, math.inf, 0.0, -1.0])
def test_tail_parameter_must_be_positive_and_finite(kind, param):
    with pytest.raises(ip.DomainError):
        ip.TailClass(kind, param)


def test_carrier_sense_scale_overflow_names_alpha():
    with pytest.raises(ip.InvalidScenarioParams, match="scenario D: alpha=1e-300"):
        ip.from_descriptor({"scenario": "D", "params": {"delta": 1e-5, "alpha": 1e-300}})


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_descriptor_round_trips(scenario):
    for shape in (_SCENARIOS[scenario](**SCENARIO_PARAMS[scenario]),
                  ip.from_descriptor({"scenario": scenario, "params": SCENARIO_PARAMS[scenario]})):
        assert shape.descriptor == {"scenario": scenario, "params": SCENARIO_PARAMS[scenario]}
        assert ip.from_descriptor(shape.descriptor).descriptor == shape.descriptor


@pytest.mark.parametrize("build,default", [(ip.constant_shape, {"level": 1.0}),
                                           (ip.log_decay_shape, {"r0": 100.0})])
def test_descriptor_records_defaults(build, default):
    shape = build()
    assert shape.descriptor["params"] == default
    assert ip.from_descriptor(shape.descriptor).descriptor == shape.descriptor


class TestDescriptor:
    def test_roundtrip(self):
        shape = ip.from_descriptor({"scenario": "C", "params": {"rho": 100}})
        assert shape.eval_f(100.0) == pytest.approx(math.exp(-1.0))
        assert shape.descriptor == {"scenario": "C", "params": {"rho": 100.0}}

    def test_constant_default_level(self):
        shape = ip.from_descriptor({"scenario": "constant"})
        assert shape.eval_f(5.0) == 1.0

    def test_unknown_scenario(self):
        with pytest.raises(ip.InvalidScenarioParams):
            ip.from_descriptor({"scenario": "E", "params": {}})

    def test_missing_params(self):
        with pytest.raises(ip.InvalidScenarioParams):
            ip.from_descriptor({"scenario": "A", "params": {"r0": 10}})

    def test_unknown_params(self):
        with pytest.raises(ip.InvalidScenarioParams):
            ip.from_descriptor({"scenario": "C", "params": {"rho": 1, "junk": 2}})

    def test_non_string_key(self):
        with pytest.raises(ip.InvalidScenarioParams, match="string keys"):
            ip.from_descriptor({"scenario": "C", "params": {1: 2}})

    def test_missing_scenario_key(self):
        with pytest.raises(ip.InvalidScenarioParams, match="needs a 'scenario' key"):
            ip.from_descriptor({})

    def test_params_must_be_a_mapping(self):
        with pytest.raises(ip.InvalidScenarioParams, match="'params' must be a mapping"):
            ip.from_descriptor({"scenario": "C", "params": [100]})

    def test_descriptor_must_be_a_mapping(self):
        with pytest.raises(ip.InvalidScenarioParams, match="must be a mapping, got 5"):
            ip.from_descriptor(5)

    @pytest.mark.parametrize("value", [None, True, [100], "abc", 10**400])
    def test_params_must_be_numbers(self, value):
        # a boolean is refused too, though float(True) is 1.0
        with pytest.raises(ip.InvalidScenarioParams, match="scenario C: rho must be a number"):
            ip.from_descriptor({"scenario": "C", "params": {"rho": value}})


def _hand_built(f):
    return ip.ShapeFunction(eval_f=lambda r: f(np.asarray(r, dtype=float)),
                            tail=ip.TailClass(TailKind.EXPONENTIAL_DECAY, 0.02), scale=50.0)


@pytest.mark.parametrize("f, bad", [
    (lambda r: np.cos(r / 10.0) * np.exp(-r / 50.0), r"F\(25\) = -0.4859"),
    (lambda r: 0.5 + 0.6 * np.sin(r / 20.0), r"F\(25\) = 1.069"),
    (lambda r: np.where(r < 1e3, np.exp(-r / 50.0), np.nan), r"F\(1600\) = nan"),
], ids=["negative", "above-one", "nan"])
def test_hand_built_profile_checked_beyond_origin(f, bad):
    # F(0) is in [0, 1]; the probe names the first scale 2^k radius where F is not
    with pytest.raises(ip.InvalidScenarioParams, match=bad):
        _hand_built(f)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_hand_built_scale_checked(scale):
    with pytest.raises(ip.InvalidScenarioParams, match="scale must be positive and finite"):
        ip.ShapeFunction(eval_f=lambda r: np.exp(-np.asarray(r, dtype=float)),
                         tail=ip.TailClass(TailKind.EXPONENTIAL_DECAY, 1.0), scale=scale)


def test_hand_built_profile_keeps_the_origin_message():
    with pytest.raises(ip.InvalidScenarioParams, match=r"F\(0\) must lie in \[0, 1\]"):
        _hand_built(lambda r: 2.0 * np.exp(-r / 50.0))


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_catalogued_build_constructs_one_shape(monkeypatch, scenario):
    # the registry makes the shape once, so its construction probe runs once
    post_init = ip.ShapeFunction.__post_init__
    calls = []

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(ip.ShapeFunction, "__post_init__", counted)
    shape = _SCENARIOS[scenario](**SCENARIO_PARAMS[scenario])
    assert len(calls) == 1 and calls[0] is shape
