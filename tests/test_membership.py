from __future__ import annotations

import math

import pytest
from hypothesis import example, given, strategies as st

from loiterwatch.fuzzy import (
    HOLD,
    InputDataError,
    LinguisticVariable,
    MembershipFunction,
    ConfigurationError,
    clamp,
)


def interp_oracle(points, left_hold, right_hold, x):
    """Straight-line interpolation written from the definition, no shortcuts."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if x < xs[0]:
        return ys[0] if left_hold else 0.0
    if x > xs[-1]:
        return ys[-1] if right_hold else 0.0
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            if x == xs[i]:
                return ys[i]
            if x == xs[i + 1]:
                return ys[i + 1]
            frac = (x - xs[i]) / (xs[i + 1] - xs[i])
            return ys[i] + frac * (ys[i + 1] - ys[i])
    raise AssertionError("unreachable")


ramp = MembershipFunction("ramp", ((2.0, 0.0), (6.0, 1.0)))
hold_ramp = MembershipFunction("hold", ((2.0, 1.0), (6.0, 0.0)),
                               left_extension=HOLD, right_extension=HOLD)
triangle = MembershipFunction("tri", ((0.0, 0.0), (5.0, 1.0), (10.0, 0.0)))


def test_breakpoints_are_exact():
    for mf in (ramp, hold_ramp, triangle):
        for x, y in mf.breakpoints:
            assert mf.evaluate(x) == y


def test_linear_between_breakpoints():
    assert ramp.evaluate(4.0) == pytest.approx(0.5)
    assert triangle.evaluate(2.5) == pytest.approx(0.5)
    assert triangle.evaluate(7.5) == pytest.approx(0.5)


def test_zero_extension_outside_support():
    assert ramp.evaluate(0.0) == 0.0
    assert ramp.evaluate(100.0) == 0.0
    assert triangle.evaluate(-1.0) == 0.0


def test_hold_extension_keeps_edge_degree():
    assert hold_ramp.evaluate(-50.0) == 1.0
    assert hold_ramp.evaluate(50.0) == 0.0


def test_rejects_unsorted_and_short_breakpoints():
    with pytest.raises(ConfigurationError):
        MembershipFunction("bad", ((5.0, 0.0), (2.0, 1.0)))
    with pytest.raises(ConfigurationError):
        MembershipFunction("bad", ((5.0, 0.0),))
    with pytest.raises(ConfigurationError):
        MembershipFunction("bad", ((0.0, 0.0), (1.0, 1.5)))


@given(
    xs=st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=8,
                unique=True),
    ys=st.lists(st.floats(0, 1, allow_nan=False), min_size=8, max_size=8),
    probe=st.floats(-80, 80, allow_nan=False),
    left=st.booleans(),
    right=st.booleans(),
)
# A segment a few ulps wide, where (d1 - d0) * (x - x0) / (x1 - x0) rounds
# twice and, unclamped, the degree is -1.1e-16.
@example(xs=[0.0, -1.0, -6.358998188622e-113], ys=[0.0, 0.8548399773663629] + [0.0] * 6,
         probe=-3.759536642724022e-141, left=False, right=False)
def test_evaluate_matches_interpolation_oracle(xs, ys, probe, left, right):
    points = tuple(zip(sorted(xs), ys))
    mf = MembershipFunction(
        "prop", points,
        left_extension=HOLD if left else "zero",
        right_extension=HOLD if right else "zero",
    )
    expected = interp_oracle(points, left, right, probe)
    assert mf.evaluate(probe) == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= mf.evaluate(probe) <= 1.0


class TestVariable:
    def test_fuzzify_clamps_to_domain(self, config):
        hour = config.variable("hour")
        below = hour.fuzzify(-3.0)
        at_zero = hour.fuzzify(0.0)
        assert below.degrees == at_zero.degrees
        assert below.crisp == 0.0

    def test_fuzzify_rejects_non_finite(self, config):
        hour = config.variable("hour")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputDataError):
                hour.fuzzify(bad)
        with pytest.raises(InputDataError):
            hour.fuzzify(True)

    def test_noon_is_fully_day(self, config):
        degrees = config.variable("hour").fuzzify(12.0).degrees
        assert degrees == {"night": 0.0, "day": 1.0, "evening": 0.0}

    def test_five_people_anchor(self, config):
        degrees = config.variable("people-count").fuzzify(5.0).degrees
        assert degrees["low-activity"] == 0.0
        assert degrees["medium-activity"] == 1.0
        assert degrees["high-activity"] == pytest.approx(0.27, abs=0.005)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            LinguisticVariable("v", (0.0, 1.0), (ramp, ramp))

    def test_missing_label_lookup(self, config):
        with pytest.raises(ConfigurationError):
            config.variable("hour").member("afternoon-tea")


def test_clamp():
    assert clamp(5.0, 0.0, 10.0) == 5.0
    assert clamp(-1.0, 0.0, 10.0) == 0.0
    assert clamp(11.0, 0.0, 10.0) == 10.0
