"""The five validating value types: construction, equality, hashing, repr,
immutability, pattern matching, and copies and pickles that rebuild through
the validating constructor."""

import copy
import math
import pickle
import weakref

import pytest

from soplab import BatteryParams, BatteryState, ConfigurationError, OcvCurve, Soa, Window

# Each value built positionally and by keyword (defaults left out where the
# type has them), with the repr both must print.
CASES = [
    (
        BatteryParams(0.05, 0.03, 10.0, 2.0),
        BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0),
        "BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0, coulombic_eff=1.0)",
    ),
    (
        OcvCurve([(0, 3), (1.0, 4.2)]),
        OcvCurve(points=((0.0, 3.0), (1.0, 4.2))),
        "OcvCurve(points=((0.0, 3.0), (1.0, 4.2)))",
    ),
    (
        BatteryState(0.5),
        BatteryState(soc=0.5, vp=0.0),
        "BatteryState(soc=0.5, vp=0.0)",
    ),
    (
        Window(10, 1.0),
        Window(steps=10, dt=1.0),
        "Window(steps=10, dt=1.0)",
    ),
    (
        Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9),
        Soa(vt_min=2.8, vt_max=4.3, i_max_dis=10.0, i_max_chg=-4.0, soc_min=0.1, soc_max=0.9),
        "Soa(vt_min=2.8, vt_max=4.3, i_max_dis=10.0, i_max_chg=-4.0, soc_min=0.1, soc_max=0.9)",
    ),
]
VALUES = [positional for positional, _, _ in CASES]
IDS = [type(value).__name__ for value in VALUES]

# One field of each type and a value that differs from the case's.
CHANGED = {
    "BatteryParams": ("coulombic_eff", 0.98),
    "OcvCurve": ("points", ((0.0, 3.0), (1.0, 4.1))),
    "BatteryState": ("vp", 0.1),
    "Window": ("dt", 0.5),
    "Soa": ("soc_max", 0.95),
}


def _fields(value):
    return {name: getattr(value, name) for name in type(value).__match_args__}


def _with(value, name, new):
    return type(value)(**{**_fields(value), name: new})


@pytest.mark.parametrize("positional, keyword, text", CASES, ids=IDS)
def test_construction_equality_and_repr(positional, keyword, text):
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    assert repr(positional) == repr(keyword) == text
    assert len({positional, keyword}) == 1


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_any_changed_field_breaks_equality(value):
    other = _with(value, *CHANGED[type(value).__name__])
    assert value != other
    assert not value == other
    assert value != tuple(_fields(value).values())  # no tuple or cross-type equality
    assert (value == object()) is False


def test_defaults():
    assert BatteryParams(0.05, 0.03, 10.0, 2.0).coulombic_eff == 1.0
    assert BatteryState(0.5).vp == 0.0


def test_constructor_arity_and_keywords():
    with pytest.raises(TypeError):
        BatteryState()
    with pytest.raises(TypeError):
        BatteryState(0.5, 0.0, 1.0)
    with pytest.raises(TypeError):
        Window(steps=10, dt=1.0, extra=0)
    with pytest.raises(TypeError):
        Soa(2.8, 4.3, 10.0, -4.0, 0.1)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_and_attributes_refuse_assignment_and_deletion(value):
    for name in (*type(value).__match_args__, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert weakref.ref(value)() is value


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_copies_and_pickles_round_trip(value):
    for clone in (
        copy.copy(value),
        copy.deepcopy(value),
        *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value) and repr(clone) == repr(value)
    assert copy.deepcopy(VALUES) == VALUES


@pytest.mark.parametrize(
    "value, name, bad",
    [
        (VALUES[0], "r0", -1.0),
        (VALUES[1], "points", ((0.5, 3.0), (0.2, 4.2))),
        (VALUES[2], "soc", 2.0),
        (VALUES[3], "steps", 0),
        (VALUES[4], "vt_min", 9.0),
    ],
    ids=IDS,
)
def test_rebuilding_validates(value, name, bad):
    # Corrupt a copy behind the constructor's back: copying or unpickling it
    # goes through __init__ again, so the bad field is refused.
    corrupt = copy.copy(value)
    object.__setattr__(corrupt, name, bad)
    with pytest.raises(ConfigurationError):
        copy.copy(corrupt)
    with pytest.raises(ConfigurationError):
        copy.deepcopy(corrupt)
    data = pickle.dumps(corrupt)
    with pytest.raises(ConfigurationError):
        pickle.loads(data)


def test_pattern_matching():
    match BatteryState(0.25, -0.1):
        case BatteryState(soc, vp):
            assert (soc, vp) == (0.25, -0.1)
    match Window(10, 1.0):
        case Window(steps=10, dt=dt):
            assert dt == 1.0
    assert OcvCurve.__match_args__ == ("points",)
    assert BatteryParams.__match_args__ == ("r0", "r1", "tau", "capacity_ah", "coulombic_eff")


def test_ocv_curve_socs_is_derived():
    curve = OcvCurve([(0, 3), (0.5, 3.6), (1, 4.2)])
    assert curve.points == ((0.0, 3.0), (0.5, 3.6), (1.0, 4.2))
    assert curve.socs == (0.0, 0.5, 1.0)
    assert "socs" not in repr(curve)
    with pytest.raises(AttributeError):
        curve.socs = ()


@pytest.mark.parametrize("capacity_ah, eff", [(2.0, 1.0), (2.3, 0.97), (0.1, 0.5), (5e3, 0.999)])
def test_soc_per_amp_second_is_derived_once(capacity_ah, eff):
    params = BatteryParams(0.05, 0.03, 10.0, capacity_ah, eff)
    # Bit-identical to the expression it replaced, and no part of eq, hash or repr.
    assert params.soc_per_amp_second == eff / (3600.0 * capacity_ah)
    assert "soc_per_amp_second" not in repr(params)
    assert params == BatteryParams(0.05, 0.03, 10.0, capacity_ah, eff)
    assert copy.deepcopy(params).soc_per_amp_second == params.soc_per_amp_second
    with pytest.raises(AttributeError):
        params.soc_per_amp_second = 1.0


def test_derived_values_are_finite():
    # eta / (3600 * 5e-324) overflows to inf; a zero-current step then
    # computed a NaN SOC (0 * inf) and indexed past the OCV table.
    with pytest.raises(ConfigurationError, match="capacity_ah"):
        BatteryParams(0.05, 0.03, 10.0, 5e-324)
    assert math.isfinite(BatteryParams(0.05, 0.03, 10.0, 1e-300).soc_per_amp_second)
    # A window whose duration K * dt overflows: sop_cc printed nan for it.
    with pytest.raises(ConfigurationError, match="duration"):
        Window(2, 1.7e308)
    with pytest.raises(ConfigurationError, match="duration"):
        Window(10**400, 1.0)
    assert Window(1, 1.7e308).duration == 1.7e308


@pytest.mark.parametrize(
    "capacity_ah, eff", [(2.0, 5e-324), (5e304, 1.0), (1.7e308, 1.0)], ids=["eta", "capacity", "max"]
)
def test_soc_per_amp_second_must_not_underflow(capacity_ah, eff):
    # eta / (3600 C_a) underflows to 0: a step whose throughput current * dt
    # overflows then computed inf * 0, a NaN SOC.
    with pytest.raises(ConfigurationError, match="underflows to 0"):
        BatteryParams(0.05, 0.03, 10.0, capacity_ah, eff)
    assert BatteryParams(0.05, 0.03, 10.0, 1e300).soc_per_amp_second > 0.0
    assert BatteryParams(0.05, 0.03, 10.0, 1e-300, 5e-324).soc_per_amp_second > 0.0


@pytest.mark.parametrize(
    "points",
    [
        ((0.0, 3.0), (5e-324, 3.1)),  # a subnormal run: 0.1 / 5e-324 overflows
        ((0.0, 3.0), (1e-320, 3.0), (2e-320, 3.5), (1.0, 4.2)),  # an inner segment
        ((0.0, -1e308), (1.0, 1e308)),  # the rise itself overflows
    ],
    ids=["subnormal-run", "inner-run", "rise"],
)
def test_ocv_curve_rejects_a_non_finite_segment_slope(points):
    # Such a table gave sop_cc an infinite kappa (an end voltage of nan),
    # while the stepwise engines and the CC oracle answered (-4 A on a charge
    # window at soc 0.5, K = 10).
    with pytest.raises(ConfigurationError, match="non-finite slope"):
        OcvCurve(points)
    # Steep but finite is a table: 1e299 V per unit SOC.
    assert OcvCurve(((0.0, 3.0), (1e-300, 3.1), (1.0, 4.2))).socs == (0.0, 1e-300, 1.0)
