from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loiterwatch.fuzzy import (
    Atom,
    ConfigurationError,
    EngineConfig,
    FuzzyEngine,
    InputDataError,
    LinguisticVariable,
    MembershipFunction,
    Rule,
    STATUS_INPUT_ERROR,
    STATUS_OK,
    config_to_dict,
)

from oracles import centroid_of_activations, score as oracle_score

INPUT_NAMES = ("hour", "dwell-time", "speed-changes", "direction-changes",
               "people-count")


def inputs_for(hour, dwell, speed=0.0, direction=0.0, people=1.0):
    return dict(zip(INPUT_NAMES, (hour, dwell, speed, direction, people)))


# Scores confirmed by the reference pipeline in oracles.py at 10x grid
# resolution (all agree within 0.03).
FROZEN_SCORES = [
    (inputs_for(11.0, 0.0), 8.3),
    (inputs_for(3.0, 0.0), 50.0),
    (inputs_for(3.0, 20.0), 79.2),
    (inputs_for(11.0, 20.0), 50.0),
    (inputs_for(11.0, 20.0, direction=4.0), 62.5),
    (inputs_for(19.5, 20.0), 75.0),
    (inputs_for(13.0, 5.0, 1.0, 1.0, people=12.0), 8.3),
    (inputs_for(2.0, 5.0, 1.0, 1.0, people=12.0), 50.0),
    (inputs_for(0.0, 12.0), 50.0),
]


@pytest.mark.parametrize("inputs,expected", FROZEN_SCORES)
def test_frozen_score_landscape(engine, inputs, expected):
    result = engine.score_object(inputs)
    assert result.status == STATUS_OK
    assert result.value == pytest.approx(expected, abs=0.05)


@pytest.mark.parametrize("inputs,expected", FROZEN_SCORES)
def test_scores_match_reference_pipeline(engine, config, inputs, expected):
    ref = oracle_score(config_to_dict(config), inputs, 10 * config.grid_resolution)
    assert engine.score_object(inputs).value == pytest.approx(ref, abs=0.1)


def test_night_dwell_sweep_is_monotone(engine):
    scores = [engine.score_object(inputs_for(3.0, d)).value
              for d in np.arange(0.0, 30.5, 0.5)]
    assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))
    assert scores[0] == pytest.approx(50.0, abs=0.05)
    assert scores[-1] == pytest.approx(79.2, abs=0.05)


def test_night_beats_day_pointwise(engine):
    for dwell in np.arange(0.0, 30.5, 0.5):
        day = engine.score_object(inputs_for(11.0, dwell)).value
        night = engine.score_object(inputs_for(3.0, dwell)).value
        assert night >= day - 1e-9


class TestErrorHandling:
    def test_nan_input_scores_zero(self, engine):
        result = engine.score_object(inputs_for(11.0, math.nan), object_id="cam/3")
        assert result.status == STATUS_INPUT_ERROR
        assert result.value == 0.0
        assert not result.ok

    def test_error_appends_one_log_line(self, config):
        engine = FuzzyEngine(config)
        engine.score_object(inputs_for(math.inf, 0.0), object_id="cam/7")
        assert len(engine.error_log.entries) == 1
        stamp, object_id, reason = engine.error_log.entries[0]
        assert object_id == "cam/7"
        assert "hour" in reason

    def test_missing_input_is_an_input_error(self, config):
        engine = FuzzyEngine(config)
        result = engine.score_object({"hour": 3.0}, object_id="cam/9")
        assert result.status == STATUS_INPUT_ERROR
        assert result.value == 0.0
        assert len(engine.error_log.entries) == 1

    def test_fuzzify_all_raises_directly(self, engine):
        with pytest.raises(InputDataError):
            engine.fuzzify_all({"hour": 3.0})


def tiny_config():
    """One input, one rule that is silent over half the domain."""
    x = LinguisticVariable("x", (0.0, 10.0), (
        MembershipFunction("a", ((0.0, 1.0), (2.0, 0.0))),
        MembershipFunction("b", ((0.0, 0.0), (5.0, 1.0), (10.0, 0.0))),
        MembershipFunction("c", ((8.0, 0.0), (10.0, 1.0))),
    ))
    out = LinguisticVariable("y", (0.0, 100.0), (
        MembershipFunction("m1", ((0.0, 1.0), (25.0, 0.0))),
        MembershipFunction("m2", ((0.0, 0.0), (25.0, 1.0), (50.0, 0.0))),
        MembershipFunction("m3", ((25.0, 0.0), (50.0, 1.0), (75.0, 0.0))),
        MembershipFunction("m4", ((50.0, 0.0), (75.0, 1.0), (100.0, 0.0))),
        MembershipFunction("m5", ((75.0, 0.0), (100.0, 1.0))),
    ))
    rules = (Rule("only", Atom("x", "a"), "m5"),)
    return EngineConfig(variables=(x, out), output="y", rules=rules)


def test_silent_rule_base_scores_zero():
    engine = FuzzyEngine(tiny_config())
    result = engine.score_object({"x": 9.0})
    assert result.status == STATUS_OK
    assert result.value == 0.0


def test_unknown_consequent_rejected_at_construction(config):
    from dataclasses import replace
    bogus = replace(config, rules=config.rules + (Rule("bad", Atom("hour", "night"), "bogus"),))
    with pytest.raises(ConfigurationError, match="bogus"):
        FuzzyEngine(bogus)


def test_disabled_rules_do_not_fire(config):
    from dataclasses import replace
    muted = replace(config, rules=tuple(replace(r, enabled=False)
                                        for r in config.rules))
    engine = FuzzyEngine(muted)
    assert engine.score_object(inputs_for(3.0, 20.0)).value == 0.0


def test_grid_refinement_stability(config):
    from dataclasses import replace
    coarse = FuzzyEngine(config)
    fine = FuzzyEngine(replace(config, grid_resolution=5001))
    for inputs, _ in FROZEN_SCORES:
        a = coarse.score_object(inputs).value
        b = fine.score_object(inputs).value
        assert a == pytest.approx(b, abs=0.05)


OUTPUT_LABELS = ("very-low", "low", "medium", "high", "very-high")


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.floats(0, 1, allow_nan=False), min_size=5, max_size=5))
def test_aggregate_centroid_matches_oracle(engine, config, weights):
    activations = dict(zip(OUTPUT_LABELS, weights))
    got = engine.defuzzify(engine.aggregate(activations)).value
    ref = centroid_of_activations(config_to_dict(config), activations,
                                  config.grid_resolution)
    assert got == pytest.approx(ref, abs=1e-9)
    assert 0.0 <= got <= 100.0


@settings(max_examples=40, deadline=None)
@given(
    hour=st.floats(0, 24, allow_nan=False),
    dwell=st.floats(0, 30, allow_nan=False),
    speed=st.floats(0, 30, allow_nan=False),
    direction=st.floats(0, 30, allow_nan=False),
    people=st.floats(0, 40, allow_nan=False),
)
def test_full_pipeline_matches_oracle(engine, config, hour, dwell, speed,
                                      direction, people):
    inputs = inputs_for(hour, dwell, speed, direction, people)
    ref = oracle_score(config_to_dict(config), inputs, config.grid_resolution)
    assert engine.score_object(inputs).value == pytest.approx(ref, abs=1e-9)


def test_envelope_never_exceeds_strongest_weight(engine):
    agg = engine.aggregate({"medium": 0.4, "high": 0.7})
    assert float(agg.envelope.max()) <= 0.7 + 1e-12
    assert set(agg.activations) == {"medium", "high"}
