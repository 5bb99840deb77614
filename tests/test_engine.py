from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loiterwatch.fuzzy import (
    And,
    Atom,
    ConfigurationError,
    EngineConfig,
    FuzzyEngine,
    HOLD,
    InputDataError,
    LinguisticVariable,
    MembershipFunction,
    Or,
    Rule,
    STATUS_INPUT_ERROR,
    STATUS_OK,
    ZERO,
    config_to_dict,
    default_config,
)
from loiterwatch.fuzzy import engine as engine_module
from loiterwatch.fuzzy.engine import CENTROID_MEMO_CAP

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


def test_compiled_degrees_stay_in_unit_range():
    # A segment a few ulps wide, where two roundings give -1.1e-16 unclamped.
    probe = -3.759536642724022e-141
    config = tiny_config()
    x = LinguisticVariable("x", (-1.0, 10.0), (
        MembershipFunction("a", ((-1.0, 0.0), (-6.358998188622e-113, 0.8548399773663629),
                                 (0.0, 0.0))),
        *config.variable("x").members[1:],
    ))
    engine = FuzzyEngine(EngineConfig(variables=(x, config.variable("y")), output="y",
                                      rules=config.rules))
    _, _, members = engine._fuzzify_plan[0]
    degrees = engine_module._degrees(probe, members)
    assert degrees[0] == 0.0
    assert list(degrees) == list(x.fuzzify(probe).degrees.values())


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


def evaluated(member, grid):
    """The reference samples: one ``MembershipFunction.evaluate`` call per point."""
    return np.array([member.evaluate(z) for z in grid])


@pytest.mark.parametrize("resolution", [5, 1001, 5001])
def test_output_curves_equal_pointwise_evaluation(config, resolution):
    from dataclasses import replace
    engine = FuzzyEngine(replace(config, grid_resolution=resolution))
    for member in config.output_variable.members:
        curve = engine._curves[member.label]
        assert curve.tobytes() == evaluated(member, engine.grid).tobytes(), member.label


def ulps(x, steps):
    """The float ``steps`` representable values above x (below for steps < 0)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


@st.composite
def members_and_grids(draw):
    """A curve with 2-5 breakpoints and a grid that holds a linspace over
    and past its span, its breakpoints, and the floats a few ulps either
    side of each, where rounding carries the interpolation past [0, 1]."""
    xs = sorted(draw(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2,
                              max_size=5, unique=True)))
    degree = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))
    points = tuple((x, draw(degree)) for x in xs)
    left, right = draw(st.sampled_from([HOLD, ZERO])), draw(st.sampled_from([HOLD, ZERO]))
    pad = draw(st.floats(0, 10))
    line = np.linspace(xs[0] - pad, xs[-1] + pad, draw(st.integers(2, 60)))
    near = [ulps(x, k) for x in xs for k in (-3, -2, -1, 1, 2, 3)]
    grid = np.concatenate([line, np.array(xs + near)])
    return MembershipFunction("m", points, left, right), grid


# A falling segment sampled one ulp below its end, where the interpolation
# rounds to -6.9e-18 and the clamp returns 0.0.
CLAMPED = (MembershipFunction("m", ((-7.273998251224491, 0.061865719343514924),
                                    (1.3183308786834154, 0.0))),
           np.array([1.3183308786834151]))


def test_clamp_case_rounds_below_zero():
    member, grid = CLAMPED
    (x0, d0), (x1, d1) = member.breakpoints
    assert d0 + (d1 - d0) * (grid[0] - x0) / (x1 - x0) < 0.0
    assert engine_module._sample(member, grid).tobytes() == np.array([0.0]).tobytes()


# A segment 1e-300 wide: interpolating the grid points far outside it
# would divide ~1e10 by 1e-300 and overflow.
NARROW = (MembershipFunction("a", ((0.0, 0.0), (1e-300, 1.0))),
          np.linspace(-1e10, 1e10, 11))


@settings(max_examples=300, deadline=None)
@given(case=members_and_grids())
@example(case=CLAMPED)
@example(case=NARROW)
def test_sampled_curve_equals_pointwise_evaluation(case):
    member, grid = case
    assert engine_module._sample(member, grid).tobytes() == evaluated(member, grid).tobytes()


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


# -- the closed-form centroid against the sampled reference -----------------

@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e6), n=st.integers(2, 3000))
def test_grid_equals_numpy_linspace(lo, width, n):
    assert engine_module._linspace(lo, lo + width, n) == np.linspace(lo, lo + width, n).tolist()


def reference_centroid(engine, weights):
    return engine.defuzzify(engine.aggregate(weights)).value


@st.composite
def output_engines(draw):
    """An engine whose output variable has 1-5 random curves: HOLD or ZERO
    extensions, breakpoints inside and outside the domain, some of them on
    grid points, and degrees 0, 1 or in between. One input's rules
    conclude a random non-empty subset of the labels."""
    resolution = draw(st.sampled_from([2, 5, 1001, 5001]))
    lo = draw(st.floats(-100, 100))
    hi = lo + draw(st.floats(0.5, 200))
    grid = np.linspace(lo, hi, resolution)
    on_grid = st.integers(0, resolution - 1).map(lambda i: float(grid[i]))
    off_grid = st.floats(lo - (hi - lo) / 4, hi + (hi - lo) / 4)
    degree = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(1e-3, 1.0))
    members = []
    for k in range(draw(st.integers(1, 5))):
        xs = sorted(draw(st.lists(st.one_of(on_grid, off_grid), min_size=2, max_size=4,
                                  unique=True)))
        members.append(MembershipFunction(
            f"m{k}", tuple((x, draw(degree)) for x in xs),
            draw(st.sampled_from([HOLD, ZERO])), draw(st.sampled_from([HOLD, ZERO]))))
    out = LinguisticVariable("y", (lo, hi), tuple(members))
    x = LinguisticVariable("x", (0.0, 1.0), (MembershipFunction("a", ((0.0, 1.0), (1.0, 0.0))),))
    fired = draw(st.lists(st.sampled_from(out.labels()), min_size=1, unique=True))
    rules = tuple(Rule(f"r-{label}", Atom("x", "a"), label) for label in fired)
    return FuzzyEngine(EngineConfig(variables=(x, out), output="y", rules=rules,
                                    grid_resolution=resolution))


@settings(max_examples=300, deadline=None)
@given(engine=output_engines(), data=st.data())
def test_centroid_matches_sampled_reference(engine, data):
    weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-9, 1.0))
    labels = engine.config.output_variable.labels()
    weights = dict(zip(labels, data.draw(st.lists(weight, min_size=len(labels),
                                                    max_size=len(labels)))))
    got = engine.centroid(weights).value
    assert got == pytest.approx(reference_centroid(engine, weights), abs=1e-9)


@pytest.mark.parametrize("weights,expected", [
    ({}, 0.0),
    (dict.fromkeys(OUTPUT_LABELS, 0.0), 0.0),
    # An envelope symmetric about 50, whose sampled centroid is 49.99999999999999.
    ({"medium": 0.75}, 50.0),
    ({"medium": 0.5}, 50.0),
])
def test_centroid_pinned_cases(engine, weights, expected):
    assert engine.centroid(weights).value == pytest.approx(expected, abs=1e-9)
    assert reference_centroid(engine, weights) == pytest.approx(expected, abs=1e-9)


def test_centroid_rejects_an_unknown_label(engine):
    with pytest.raises(ConfigurationError, match="bogus"):
        engine.centroid({"bogus": 0.5})


def test_envelope_never_exceeds_strongest_weight(engine):
    agg = engine.aggregate({"medium": 0.4, "high": 0.7})
    assert float(agg.envelope.max()) <= 0.7 + 1e-12
    assert set(agg.activations) == {"medium", "high"}


# -- the compiled scoring path against the tree walk ------------------------

def tree_walk(engine, inputs):
    """Score through the public pieces: fuzzify, per-rule premise weights,
    each label's strongest weight, then the closed-form centroid, which
    the tests below compare with the sampled ``aggregate``/``defuzzify``."""
    env = engine.fuzzify_all(inputs)
    rules = [r for r in engine.config.rules if r.enabled]
    weights = {label: max(r.evaluate(env) for r in rules if r.consequent == label)
               for label in {r.consequent for r in rules}}
    return engine.centroid(weights).value


def assert_exact(engine, inputs):
    expected = tree_walk(engine, inputs)
    for _ in range(2):  # a memo miss, then a hit
        result = engine.score_object(inputs)
        assert result.status == STATUS_OK
        assert result.value == expected


def edge_inputs():
    """Each input at every breakpoint x, both domain ends and past them,
    as floats and as ints, the others held at a night-time base."""
    config = default_config()
    base = inputs_for(2.0, 12.0, 2.0, 4.0, 3.0)
    cases = []
    for name in config.input_names:
        variable = config.variable(name)
        lo, hi = variable.domain
        xs = {x for m in variable.members for x, _ in m.breakpoints}
        xs |= {lo, hi, lo - 1.0, hi + 7.5, -1e9, 1e9}
        for x in sorted(xs):
            cases.append({**base, name: x})
            if x == int(x):
                cases.append({**base, name: int(x)})
    return cases


@pytest.mark.parametrize("inputs", edge_inputs())
def test_compiled_score_equals_tree_walk_at_edges(engine, inputs):
    assert_exact(engine, inputs)


crisp = st.one_of(st.floats(-5, 45, allow_nan=False), st.integers(-5, 45))


@settings(max_examples=200, deadline=None)
@given(hour=st.one_of(st.floats(-2, 26, allow_nan=False), st.integers(-2, 26)),
       dwell=crisp, speed=crisp, direction=crisp, people=crisp)
def test_compiled_score_equals_tree_walk(engine, hour, dwell, speed, direction, people):
    assert_exact(engine, inputs_for(hour, dwell, speed, direction, people))


def test_compiled_score_equals_tree_walk_on_nested_rules():
    """OR under AND under OR, a shared subtree and a one-child node."""
    from dataclasses import replace
    config = tiny_config()
    either = Or((Atom("x", "b"), Atom("x", "c")))
    rules = (
        Rule("r1", Atom("x", "a"), "m1"),
        Rule("r2", And((Atom("x", "a"),)), "m2"),
        Rule("r3", Or((And((either, Atom("x", "a"))), Atom("x", "c"))), "m3"),
        Rule("r4", And((either, Atom("x", "b"))), "m3"),
        Rule("r5", And((Atom("x", "b"), Atom("x", "c"))), "m4", enabled=False),
    )
    engine = FuzzyEngine(replace(config, rules=rules))
    for x in np.linspace(-1.0, 11.0, 241):
        assert_exact(engine, {"x": float(x)})


def test_unknown_atom_rejected_at_construction():
    from dataclasses import replace
    config = tiny_config()
    bad = replace(config, rules=config.rules + (Rule("bad", Atom("x", "nope"), "m1"),))
    with pytest.raises(ConfigurationError, match="nope"):
        FuzzyEngine(bad)


def test_centroid_memo_never_grows_past_its_cap():
    engine = FuzzyEngine(tiny_config())
    n = CENTROID_MEMO_CAP + 50
    sizes = set()
    for i in range(1, n + 1):
        x = 2.0 * i / (n + 1)  # label a's degree 1 - x/2 differs at every x
        value = engine.score_object({"x": x}).value
        sizes.add(len(engine._centroids))
        if i % 97 == 0:
            assert value == tree_walk(engine, {"x": x})
    assert max(sizes) == CENTROID_MEMO_CAP


def test_shared_engine_scores_match_across_threads(monkeypatch):
    cap = 16
    monkeypatch.setattr(engine_module, "CENTROID_MEMO_CAP", cap)
    inputs = [inputs_for(h, d, s, 1.0, p)
              for h in (3.0, 6.3, 11.0, 17.2, 22.0)
              for d in (0.0, 7.5, 17.0, 25.0)
              for s in (0.0, 2.0, 8.0)
              for p in (1.0, 4.0, 12.0)]
    alone = FuzzyEngine(default_config())
    expected = [alone.score_object(x).value for x in inputs]
    shared = FuzzyEngine(default_config())
    results: dict[int, list[float]] = {}
    sizes: list[int] = []

    def work(k):
        order = inputs[k:] + inputs[:k]
        got = []
        for _ in range(3):
            for x in order:
                got.append(shared.score_object(x).value)
                sizes.append(len(shared._centroids))
        results[k] = got

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    for k in range(8):
        order = expected[k:] + expected[:k]
        assert results[k] == order * 3
    assert max(sizes) <= cap


# -- score_record: a record's objects against the tree walk -----------------

PIPELINE_SHARED = ("hour", "people-count")  # what FogPipeline.process_record shares
SPLITS = pytest.mark.parametrize("shared_names", [PIPELINE_SHARED, ()],
                                 ids=["pipeline-split", "empty-split"])


def as_record(objects, shared_names):
    """(shared, per-object inputs) for objects agreeing on shared_names."""
    shared = {name: objects[0][name] for name in shared_names}
    own = [{k: v for k, v in o.items() if k not in shared_names} for o in objects]
    return shared, own


def assert_record_exact(engine, objects, shared_names):
    shared, own = as_record(objects, shared_names)
    ids = [f"cam/{i}" for i in range(len(own))]
    expected = [tree_walk(engine, o) for o in objects]
    for _ in range(2):  # a score memo miss, then a hit
        scores = engine.score_record(shared, own, ids)
        assert [s.status for s in scores] == [STATUS_OK] * len(objects)
        assert [s.value for s in scores] == expected


# Flat regions and every ramp of the hour's members, ramp ends included.
HOURS = (0.0, 2.0, 5.0, 5.5, 6.25, 7.0, 11.0, 16.0, 16.75, 18.0, 19.5, 21.0,
         21.3, 22.0, 23.0, 23.5, 24.0)
PEOPLE = (0.0, 1.0, 3.0, 4.5, 5.0, 9.0, 12.0)
OWN = [dict(zip(("dwell-time", "speed-changes", "direction-changes"), v))
       for v in ((0.0, 0.0, 0.0), (7.5, 2.0, 4.0), (12.0, 3.0, 1.0),
                 (17.5, 8.0, 7.0), (25.0, 12.0, 0.0), (30.0, 1.0, 10.0))]


@SPLITS
@pytest.mark.parametrize("hour", HOURS)
def test_score_record_equals_tree_walk(engine, shared_names, hour):
    for people in PEOPLE:
        objects = [{"hour": hour, "people-count": people, **own} for own in OWN]
        assert_record_exact(engine, objects, shared_names)  # many objects
        assert_record_exact(engine, objects[2:3], shared_names)  # one


@SPLITS
def test_score_record_equals_tree_walk_at_edges(engine, shared_names):
    records: dict[tuple, list] = {}
    for inputs in edge_inputs():
        assert_record_exact(engine, [inputs], shared_names)
        key = tuple(repr(inputs[name]) for name in PIPELINE_SHARED)
        records.setdefault(key, []).append(inputs)
    for objects in records.values():
        assert_record_exact(engine, objects, shared_names)


@pytest.mark.parametrize("shared_names", [
    ("speed-changes", "people-count"), ("dwell-time",), ("hour", "direction-changes")],
    ids="+".join)
@pytest.mark.parametrize("hour", HOURS)
def test_score_record_equals_tree_walk_on_other_splits(engine, shared_names, hour):
    """Shared inputs interleaved with own ones in variable order. The
    objects of a record take their shared values from one OWN entry."""
    for people in (1.0, 4.5, 12.0):
        for common in OWN:
            fixed = {name: common[name] for name in shared_names if name in common}
            objects = [{"hour": hour, "people-count": people, **own, **fixed}
                       for own in OWN]
            assert_record_exact(engine, objects, shared_names)


@settings(max_examples=100, deadline=None)
@given(hour=st.one_of(st.floats(-2, 26, allow_nan=False), st.integers(-2, 26)),
       people=crisp,
       own=st.lists(st.tuples(crisp, crisp, crisp), min_size=1, max_size=8))
def test_score_record_equals_tree_walk_on_random_records(engine, hour, people, own):
    objects = [inputs_for(hour, d, s, c, people) for d, s, c in own]
    assert_record_exact(engine, objects, PIPELINE_SHARED)


def test_empty_record_scores_nothing(config):
    engine = FuzzyEngine(config)
    assert engine.score_record({"hour": 3.0, "people-count": 1.0}, [], []) == []
    assert engine.score_record({"hour": math.nan}, [], []) == []
    assert engine.error_log.entries == []


OWN_OK = {"dwell-time": 12.0, "speed-changes": 3.0, "direction-changes": 1.0}


@pytest.mark.parametrize("shared,objects", [
    # A bad shared input fails every object; each reports its first bad
    # input in variable order, which for the second is its own.
    ({"hour": 3.0, "people-count": math.nan},
     [OWN_OK, {**OWN_OK, "speed-changes": math.inf}, OWN_OK]),
    ({"hour": math.nan, "people-count": 3.0}, [OWN_OK, OWN_OK]),
    ({"hour": 3.0}, [OWN_OK]),  # people-count missing
    # A bad per-object input fails that object only.
    ({"hour": 3.0, "people-count": 2.0},
     [OWN_OK, {**OWN_OK, "dwell-time": math.nan}, OWN_OK,
      {"dwell-time": 1.0, "speed-changes": 2.0}]),
], ids=["nan-people", "nan-hour", "missing-shared", "bad-objects"])
def test_score_record_errors_match_score_object(config, shared, objects):
    ids = [f"cam/{i}" for i in range(len(objects))]
    by_record = FuzzyEngine(config)
    got = by_record.score_record(shared, objects, ids)
    by_object = FuzzyEngine(config)
    want = [by_object.score_object({**o, **shared}, object_id=i) for o, i in zip(objects, ids)]
    assert got == want
    assert STATUS_INPUT_ERROR in {s.status for s in got}
    assert ([entry[1:] for entry in by_record.error_log.entries]
            == [entry[1:] for entry in by_object.error_log.entries])


# -- the per-object memos: degrees per own input, scores per object ---------

def memo_sizes(engine):
    """Entries in each of the engine's memos."""
    return {"centroids": len(engine._centroids), "scores": len(engine._scores),
            **{name: len(memo) for name, memo in engine._degree_memos.items()}}


@SPLITS
def test_score_record_repeats_hit_every_memo(config, shared_names):
    engine = FuzzyEngine(config)
    records = [[{"hour": hour, "people-count": people, **own} for own in OWN]
               for hour in (2.0, 6.25, 13.0, 21.3) for people in (1.0, 4.5, 12.0)]
    expected = [[tree_walk(engine, o) for o in objects] for objects in records]
    for round_ in range(2):
        for objects, want in zip(records, expected):
            shared, own = as_record(objects, shared_names)
            scores = engine.score_record(shared, own, [f"cam/{i}" for i in range(len(own))])
            assert [s.value for s in scores] == want
        if round_ == 0:
            sizes = memo_sizes(engine)
            assert sizes["scores"] > 0
    assert memo_sizes(engine) == sizes  # the second round added nothing
    for name, _ in engine._inputs:
        assert bool(engine._degree_memos[name]) == (name not in shared_names)


SIGNED_ZEROS_AND_RANGE = (0.0, -0.0, -3.5, 1e6, -1e-300, 1e-300, 45.0, 1e300)


@pytest.mark.parametrize("name", ["dwell-time", "speed-changes", "direction-changes"])
def test_own_input_memo_on_zeros_out_of_domain_and_ints(config, name):
    engine = FuzzyEngine(config)
    base = inputs_for(2.0, 12.0, 2.0, 4.0, 3.0)
    shared, _ = as_record([base], PIPELINE_SHARED)
    values = SIGNED_ZEROS_AND_RANGE + (0, 3, -2, 46, 10**9)
    for _ in range(2):  # each value twice, in either order of 0.0 and -0.0
        for x in values + tuple(reversed(values)):
            objects = [{**base, name: x}]
            (score,) = engine.score_record(shared, as_record(objects, PIPELINE_SHARED)[1],
                                           ["cam/1"])
            assert score.status == STATUS_OK
            assert score.value == tree_walk(engine, objects[0])
    # Only exact floats are memoized; 0.0 and -0.0 share one entry.
    assert all(type(x) is float for x in engine._degree_memos[name])
    assert len(engine._degree_memos[name]) == len(set(SIGNED_ZEROS_AND_RANGE))


@pytest.mark.parametrize("bad", [
    {"speed-changes": True},
    {"direction-changes": False},
    {"dwell-time": math.nan},
    {"dwell-time": -math.inf},
    {"speed-changes": None},
], ids=["true", "false", "nan", "-inf", "none"])
def test_errors_unchanged_after_the_value_is_memoized(config, bad):
    """1.0 and 0.0 are memoized as floats first; True, False, NaN and the
    rest must still fail with the detail a fresh engine gives."""
    shared = {"hour": 3.0, "people-count": 2.0}
    warm = [{"dwell-time": d, "speed-changes": s, "direction-changes": c}
            for d in (0.0, 1.0, 12.0) for s in (0.0, 1.0) for c in (0.0, 1.0)]
    objects = [OWN_OK, {**OWN_OK, **bad}, {"dwell-time": 1.0, "speed-changes": 1.0},
               OWN_OK]
    ids = [f"cam/{i}" for i in range(len(objects))]
    memoized = FuzzyEngine(config)
    memoized.score_record(shared, warm, [f"w/{i}" for i in range(len(warm))])
    assert memoized._degree_memos["speed-changes"] and memoized._scores
    memoized.error_log.entries.clear()
    got = memoized.score_record(shared, objects, ids)
    fresh = FuzzyEngine(config)
    want = [fresh.score_object({**o, **shared}, object_id=i) for o, i in zip(objects, ids)]
    assert got == want
    assert [s.status for s in got] == [STATUS_OK, STATUS_INPUT_ERROR, STATUS_INPUT_ERROR,
                                       STATUS_OK]
    assert ([entry[1:] for entry in memoized.error_log.entries]
            == [entry[1:] for entry in fresh.error_log.entries])
    assert all(type(x) is float and x == x
               for memo in memoized._degree_memos.values() for x in memo)


def test_no_memo_grows_past_its_cap(config, monkeypatch):
    cap = 7
    monkeypatch.setattr(engine_module, "CENTROID_MEMO_CAP", cap)
    engine = FuzzyEngine(config)
    peaks: dict[str, int] = {}
    for hour in (2.0, 5.5, 6.25, 13.0, 17.2, 21.3):
        for people in (1.0, 4.5, 9.0):
            for dwell in np.linspace(0.0, 30.0, 13):
                # One object per record, so each memo's size is seen after
                # every insert.
                for s, c in ((0.0, 0.0), (2.0, 3.0), (8.0, 0.0)):
                    inputs = inputs_for(hour, float(dwell), s, c, people)
                    shared, own = as_record([inputs], PIPELINE_SHARED)
                    (score,) = engine.score_record(shared, own, ["cam/1"])
                    assert score.value == tree_walk(engine, inputs)
                    for name, size in memo_sizes(engine).items():
                        peaks[name] = max(peaks.get(name, 0), size)
    assert all(size <= cap for size in peaks.values())
    assert peaks["scores"] == peaks["centroids"] == peaks["dwell-time"] == cap, peaks


def test_shared_engine_record_scores_match_across_threads(monkeypatch):
    """The 8-thread check of score_object, through score_record with the
    pipeline split, so every memo is read and cleared while others fill it."""
    cap = 16
    monkeypatch.setattr(engine_module, "CENTROID_MEMO_CAP", cap)
    records = [[inputs_for(h, d, s, 1.0, p) for d in (0.0, 7.5, 17.0, 25.0)
                for s in (0.0, 2.0, 8.0)]
               for h in (3.0, 6.3, 11.0, 17.2, 22.0) for p in (1.0, 4.0, 12.0)]
    alone = FuzzyEngine(default_config())
    expected = [[tree_walk(alone, o) for o in objects] for objects in records]
    shared_engine = FuzzyEngine(default_config())
    results: dict[int, list] = {}
    sizes: list[int] = []

    def work(k):
        got = []
        for _ in range(3):
            for objects in records[k:] + records[:k]:
                shared, own = as_record(objects, PIPELINE_SHARED)
                got.append([s.value for s in
                            shared_engine.score_record(shared, own, ["cam/1"] * len(own))])
                sizes.append(max(memo_sizes(shared_engine).values()))
        results[k] = got

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    for k in range(8):
        assert results[k] == (expected[k:] + expected[:k]) * 3
    assert max(sizes) <= cap
