from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from loiterwatch.context import (
    AlarmPolicy,
    CameraContext,
    FogPipeline,
    hour_of_day,
    load_cameras,
    load_policy,
)
from loiterwatch.fuzzy import FuzzyEngine, SuspicionScore, default_config
from loiterwatch.logs import ErrorLog
from loiterwatch.tracking import FeatureRecord, ObjectFeatures


def cam(**kwargs):
    return CameraContext(camera_id="cam-1", **kwargs)


class TestHourOfDay:
    def test_plain_utc(self):
        assert hour_of_day(3600.0 * 7, cam()) == 7.0

    def test_wraps_past_midnight(self):
        assert hour_of_day(3600.0 * 25, cam()) == 1.0

    def test_timezone_offset(self):
        assert hour_of_day(3600.0 * 23, cam(timezone_offset=3.0)) == 2.0
        assert hour_of_day(3600.0 * 1, cam(timezone_offset=-2.5)) == 22.5

    def test_fractional_hours(self):
        assert hour_of_day(3600.0 * 10 + 1800.0, cam()) == 10.5

    @given(ts=st.floats(0, 1e9, allow_nan=False),
           tz=st.floats(-12, 14, allow_nan=False))
    def test_always_in_day_range(self, ts, tz):
        hour = hour_of_day(ts, cam(timezone_offset=tz))
        assert 0.0 <= hour < 24.0


class TestThreshold:
    def test_tier_one_indoor_daytime(self):
        assert AlarmPolicy().threshold_for(cam(), 12.0) == 60.0

    def test_tier_steps_lower_threshold(self):
        assert AlarmPolicy().threshold_for(cam(security_level=2), 12.0) == 50.0
        assert AlarmPolicy().threshold_for(cam(security_level=3), 12.0) == 40.0

    def test_outdoor_after_hours_bonus(self):
        outdoor = cam(placement="outdoor", security_level=3)
        assert AlarmPolicy().threshold_for(outdoor, 23.0) == 35.0
        assert AlarmPolicy().threshold_for(outdoor, 3.0) == 35.0
        assert AlarmPolicy().threshold_for(outdoor, 12.0) == 40.0

    def test_after_hours_boundaries(self):
        policy = AlarmPolicy()
        assert policy.is_after_hours(22.0)
        assert policy.is_after_hours(5.99)
        assert not policy.is_after_hours(6.0)
        assert not policy.is_after_hours(21.99)

    def test_after_hours_window_within_one_day(self):
        policy = AlarmPolicy(after_hours_start=0.0, after_hours_end=6.0)
        assert policy.is_after_hours(0.0)
        assert policy.is_after_hours(5.99)
        assert not policy.is_after_hours(6.0)
        assert not policy.is_after_hours(12.0)
        assert not policy.is_after_hours(23.99)
        outdoor = cam(placement="outdoor", security_level=3)
        assert policy.threshold_for(outdoor, 12.0) == 40.0
        assert policy.threshold_for(outdoor, 3.0) == 35.0

    def test_after_hours_window_wrapping_midnight(self):
        policy = AlarmPolicy(after_hours_start=20.0, after_hours_end=2.0)
        assert policy.is_after_hours(20.0)
        assert policy.is_after_hours(23.5)
        assert policy.is_after_hours(0.0)
        assert policy.is_after_hours(1.99)
        assert not policy.is_after_hours(2.0)
        assert not policy.is_after_hours(12.0)
        assert not policy.is_after_hours(19.99)

    @pytest.mark.parametrize("bound", [0.0, 6.0, 22.0])
    def test_after_hours_window_empty_when_start_equals_end(self, bound):
        policy = AlarmPolicy(after_hours_start=bound, after_hours_end=bound)
        for hour in (0.0, 5.99, 6.0, 12.0, 21.99, 22.0, 23.99):
            assert not policy.is_after_hours(hour)

    def test_indoor_after_hours_gets_no_bonus(self):
        assert AlarmPolicy().threshold_for(cam(security_level=3), 23.0) == 40.0

    def test_clamped_to_floor(self):
        policy = AlarmPolicy(base_threshold=40.0)
        outdoor = cam(placement="outdoor", security_level=3)
        assert policy.threshold_for(outdoor, 23.0) == 30.0

    def test_clamped_to_ceiling(self):
        policy = AlarmPolicy(base_threshold=130.0)
        assert policy.threshold_for(cam(), 12.0) == 90.0


class TestCameraContext:
    def test_rejects_bad_placement(self):
        with pytest.raises(ValueError):
            cam(placement="rooftop")

    def test_rejects_bad_tier(self):
        for level in (0, 4):
            with pytest.raises(ValueError):
                cam(security_level=level)


class FixedScore:
    """An engine that scores every object at one value."""

    def __init__(self, value):
        self.value = value
        self.error_log = ErrorLog()

    def score_record(self, shared, objects, object_ids):
        return [SuspicionScore(value=self.value) for _ in objects]


def record_with(dwell, speed=0, direction=0, people=1, ts=3600.0 * 3):
    objects = tuple(
        ObjectFeatures(track_id=i + 1, dwell_time=dwell,
                       speed_change_count=speed, direction_change_count=direction)
        for i in range(people))
    return FeatureRecord(frame_index=10, timestamp=ts, people_count=people,
                         objects=objects)


class SpyScore(FixedScore):
    """A fixed-score engine that keeps the inputs it was given."""

    def __init__(self, value):
        super().__init__(value)
        self.calls = []

    def score_record(self, shared, objects, object_ids):
        self.calls.append((shared, objects, object_ids))
        return super().score_record(shared, objects, object_ids)


def test_contextualize_maps_engine_inputs():
    engine = SpyScore(0.0)
    pipeline = FogPipeline(engine, cameras={"cam-1": cam()})
    pipeline.process_record("cam-1", record_with(dwell=12.5, speed=2, direction=3, people=2))
    [(shared, objects, object_ids)] = engine.calls
    assert object_ids == ["cam-1/1", "cam-1/2"]
    assert len(objects) == 2
    inputs = {**shared, **objects[0]}
    assert inputs == {"hour": 3.0, "dwell-time": 12.5, "speed-changes": 2.0,
                      "direction-changes": 3.0, "people-count": 2.0}
    assert all(type(value) is float for value in inputs.values())


def decide_one(engine, policy, context, record):
    """(score, threshold, alarm, status) of a 1-object record's one
    decision-log row, through a fresh pipeline."""
    pipeline = FogPipeline(engine, cameras={context.camera_id: context}, policy=policy)
    assert pipeline.process_record(context.camera_id, record) is None
    [(_, _, _, score, threshold, alarm, status)] = pipeline.decision_log.rows
    return float(score), float(threshold), alarm == "1", status


class TestDecide:
    def test_alarm_iff_ok_and_at_threshold(self, engine):
        policy = AlarmPolicy()
        context = cam()
        score, threshold, alarm, status = decide_one(engine, policy, context,
                                                     record_with(dwell=25.0))
        assert status == "ok" and score >= threshold
        assert alarm

        calm = record_with(dwell=0.0, ts=3600.0 * 11)
        score, threshold, alarm, status = decide_one(engine, policy, context, calm)
        assert status == "ok" and score < threshold
        assert not alarm

    def test_input_error_never_alarms(self, engine):
        policy = AlarmPolicy(base_threshold=0.0, min_threshold=0.0)
        score, threshold, alarm, status = decide_one(engine, policy, cam(),
                                                     record_with(dwell=math.nan))
        assert status == "input-error"
        assert score == 0.0 == threshold
        assert not alarm  # 0 >= 0, yet status blocks the alarm

    @pytest.mark.parametrize("base,value,alarm", [
        pytest.param(60.0, 49.99999999999999, True,  # logs 50.0000
                     id="49.99999999999999-True"),
        pytest.param(60.0, 49.99995000001, True, id="49.99995000001-True"),  # logs 50.0000
        # Stored just below, so it logs 49.9999.
        pytest.param(60.0, 49.99995, False, id="49.99995-False"),
        pytest.param(60.0, 50.0, True, id="50.0-True"),
        # The threshold 55.00004 and the score both log 55.0000.
        pytest.param(65.00004, 55.00002, True, id="base-65.00004-55.00002-True"),
    ])
    def test_alarm_follows_the_logged_score(self, base, value, alarm):
        score, threshold, logged_alarm, _ = decide_one(
            FixedScore(value), AlarmPolicy(base_threshold=base), cam(security_level=2),
            record_with(dwell=1.0))
        assert threshold == round(base - 10.0, 4) and logged_alarm is alarm
        assert logged_alarm is (score >= threshold)


class TestFogPipeline:
    @pytest.fixture()
    def pipeline(self):
        engine = FuzzyEngine(default_config())
        cameras = {"cam-1": cam()}
        return FogPipeline(engine, cameras)

    def test_processes_known_camera(self, pipeline):
        assert pipeline.process_record("cam-1", record_with(dwell=25.0, people=2)) is None
        assert [row[1:3] for row in pipeline.decision_log.rows] == [["cam-1", "1"],
                                                                    ["cam-1", "2"]]
        assert pipeline.error_log.entries == []

    def test_rejects_unknown_camera(self, pipeline):
        assert pipeline.process_record("cam-9", record_with(dwell=25.0)) is None
        [(_, source, reason)] = pipeline.error_log.entries
        assert (source, reason) == ("cam-9", "record from unknown camera rejected")
        assert pipeline.decision_log.rows == []

    def test_record_decisions_equal_single_object_records(self, pipeline):
        objects = (ObjectFeatures(1, 25.0, 2, 4), ObjectFeatures(2, math.nan, 0, 0),
                   ObjectFeatures(3, 7.5, 8, 1))
        record = FeatureRecord(frame_index=10, timestamp=3600.0 * 3, people_count=3,
                               objects=objects)
        pipeline.process_record("cam-1", record)
        alone = FogPipeline(FuzzyEngine(default_config()), {"cam-1": cam()})
        for obj in objects:
            alone.process_record("cam-1", replace(record, objects=(obj,)))
        assert len(pipeline.decision_log.rows) == 3
        assert pipeline.decision_log.rows == alone.decision_log.rows
        assert ([entry[1:] for entry in pipeline.error_log.entries]
                == [entry[1:] for entry in alone.error_log.entries])
        assert [entry[1] for entry in pipeline.error_log.entries] == ["cam-1/2"]

    def test_decision_log_row_shape(self, pipeline):
        pipeline.process_record("cam-1", record_with(dwell=25.0))
        row = pipeline.decision_log.rows[0]
        assert row[1] == "cam-1"
        assert row[5] in ("0", "1")
        assert row[6] == "ok"


def test_load_policy_and_cameras(tmp_path):
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps({"base_threshold": 55.0, "tier_step": 5.0}))
    policy = load_policy(policy_path)
    assert policy.base_threshold == 55.0
    assert policy.tier_step == 5.0
    assert policy.max_threshold == 90.0  # unset fields keep defaults

    cameras_path = tmp_path / "cameras.json"
    cameras_path.write_text(json.dumps({
        "lobby": {"placement": "indoor", "security_level": 2},
        "gate": {"placement": "outdoor", "security_level": 3,
                 "timezone_offset": -5.0},
    }))
    cameras = load_cameras(cameras_path)
    assert set(cameras) == {"lobby", "gate"}
    assert cameras["gate"].camera_id == "gate"
    assert cameras["gate"].timezone_offset == -5.0
    assert cameras["lobby"].security_level == 2
