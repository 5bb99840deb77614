"""Fog-side contextualization and alarm decisions.

The fog node joins edge feature records with per-camera deployment context
(placement, security tier, timezone), derives the local hour of day, runs
the fuzzy scorer per object, and compares against a context-shifted alarm
threshold. Context never rescales scores; it only moves the threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .logs import DecisionLog

if TYPE_CHECKING:  # the engine and records are passed in; neither is built here
    from .fuzzy import FuzzyEngine, SuspicionScore
    from .tracking import FeatureRecord

INDOOR = "indoor"
OUTDOOR = "outdoor"


@dataclass(frozen=True)
class CameraContext:
    camera_id: str
    placement: str = INDOOR          # indoor | outdoor
    security_level: int = 1          # 1 (routine) .. 3 (sensitive)
    timezone_offset: float = 0.0     # hours added to stream timestamps

    def __post_init__(self):
        if self.placement not in (INDOOR, OUTDOOR):
            raise ValueError(f"camera {self.camera_id!r}: bad placement {self.placement!r}")
        if not 1 <= self.security_level <= 3:
            raise ValueError(f"camera {self.camera_id!r}: security_level must be 1..3")


@dataclass(frozen=True)
class AlarmPolicy:
    """Threshold policy: a base value shifted down for riskier contexts."""

    base_threshold: float = 60.0
    tier_step: float = 10.0            # per security level above 1
    outdoor_after_hours_step: float = 5.0
    after_hours_start: float = 22.0    # inclusive
    after_hours_end: float = 6.0       # exclusive
    min_threshold: float = 30.0
    max_threshold: float = 90.0

    def is_after_hours(self, hour: float) -> bool:
        """Whether hour lies in [start, end). A window whose start is after
        its end wraps midnight; one whose start equals its end is empty."""
        start, end = self.after_hours_start, self.after_hours_end
        if start <= end:
            return start <= hour < end
        return hour >= start or hour < end

    def threshold_for(self, ctx: CameraContext, hour: float) -> float:
        value = self.base_threshold
        value -= self.tier_step * (ctx.security_level - 1)
        if ctx.placement == OUTDOOR and self.is_after_hours(hour):
            value -= self.outdoor_after_hours_step
        return min(max(value, self.min_threshold), self.max_threshold)


def hour_of_day(timestamp: float, ctx: CameraContext) -> float:
    """Local hour in [0, 24) from a stream timestamp in seconds."""
    hour = (timestamp / 3600.0 + ctx.timezone_offset) % 24.0
    # Float modulo can round a tiny negative operand up to exactly 24.0.
    return 0.0 if hour >= 24.0 else hour


def _alarm(score: SuspicionScore, threshold: float) -> bool:
    """An object alarms when an ok score reaches the threshold, both
    rounded to the 4 decimals the decision log writes.

    Deciding on the logged values keeps every row's alarm equal to its own
    score and threshold columns, whatever their last bits are: an envelope
    symmetric about 50 can score 49.99999999999999, which logs 50.0000.
    Input-error scores are forced to 0 by the engine and never alarm.
    """
    return score.ok and round(score.value, 4) >= round(threshold, 4)


class FogPipeline:
    """Contextualize-score-decide loop over incoming feature records; its
    decision log is its one output."""

    def __init__(self, engine: FuzzyEngine, cameras: dict[str, CameraContext],
                 policy: AlarmPolicy | None = None):
        self.engine = engine
        self.cameras = dict(cameras)
        self.policy = policy or AlarmPolicy()
        self.decision_log = DecisionLog()
        self.error_log = engine.error_log

    def process_record(self, camera_id: str, record: FeatureRecord) -> None:
        """Score every object of one record, apply the context-shifted
        threshold and log one row per object, in record order. A record
        from an unknown camera logs no row and one error line.

        Camera, local hour and threshold are per record, so they are looked
        up once, and the record's objects are scored together with hour
        and people count as their shared inputs.
        """
        ctx = self.cameras.get(camera_id)
        if ctx is None:
            self.error_log.append(camera_id, "record from unknown camera rejected")
            return
        camera_id, timestamp, objects = ctx.camera_id, record.timestamp, record.objects
        hour = hour_of_day(timestamp, ctx)
        threshold = self.policy.threshold_for(ctx, hour)
        scores = self.engine.score_record(
            {"hour": hour, "people-count": float(record.people_count)},
            [{"dwell-time": obj.dwell_time,
              "speed-changes": float(obj.speed_change_count),
              "direction-changes": float(obj.direction_change_count)}
             for obj in objects],
            [f"{camera_id}/{obj.track_id}" for obj in objects])
        log = self.decision_log.append
        for obj, score in zip(objects, scores):
            log(timestamp, camera_id, obj.track_id, score.value, threshold,
                _alarm(score, threshold), score.status)


def load_policy(path: str | Path) -> AlarmPolicy:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return AlarmPolicy(**data)


def load_cameras(path: str | Path) -> dict[str, CameraContext]:
    """Camera contexts from JSON keyed by camera_id."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return {
        camera_id: CameraContext(camera_id=camera_id, **attrs)
        for camera_id, attrs in data.items()
    }
