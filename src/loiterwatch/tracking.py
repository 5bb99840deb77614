"""Edge-side track bookkeeping and per-track movement features.

Per-frame tracker boxes keep existing tracks updated; every detector cycle
the detector's boxes are reconciled against live tracks by greedy IOU
matching. Tracks the detector no longer confirms are deleted together with
their accumulated state, so a re-detected person starts over with a fresh
id and zeroed counters (dwell resets). A staleness kill bounds memory when
detector rows stop arriving entirely.

Speed and heading are smoothed over a short sample window. Change counters
advance through checks spaced one refractory interval apart: each check
compares the current smoothed values against the values captured at the
previous check. Sub-floor speeds count as standing, and heading is held
whenever the window's net displacement is too small to define a direction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import pairwise

from .logs import ErrorLog

TRACKER = "tracker"
DETECTOR = "detector"

Box = tuple[float, float, float, float]  # x, y, w, h


class StreamOrderError(ValueError):
    """Raised when frames arrive out of order."""


@dataclass(frozen=True)
class Detection:
    frame_index: int
    timestamp: float
    box: Box
    source: str = TRACKER
    track_hint: int | None = None  # ground-truth id, harness only


@dataclass
class TrackerParams:
    iou_threshold: float = 0.5
    detector_cycle: int = 5        # frames between detector passes
    max_missed_cycles: int = 3     # staleness kill bound
    smoothing_window: int = 5      # centroid samples per speed/heading estimate
    speed_delta: float = 0.5       # relative speed change that counts
    heading_delta_deg: float = 45.0
    refractory: float = 1.0        # seconds between change checks
    speed_floor: float = 2.0       # px/s; below this an object is standing


@dataclass
class TrackState:
    track_id: int
    first_seen: float
    last_seen: float
    last_frame: int
    box: Box
    history: deque = field(default_factory=deque)  # (t, cx, cy)
    speed: float = 0.0
    heading: float = 0.0
    heading_valid: bool = False
    speed_change_count: int = 0
    direction_change_count: int = 0
    # change-check state
    last_check: float | None = None
    base_speed: float = 0.0
    base_heading: float | None = None

    @property
    def dwell(self) -> float:
        return self.last_seen - self.first_seen


@dataclass(frozen=True)
class ObjectFeatures:
    track_id: int
    dwell_time: float
    speed_change_count: int
    direction_change_count: int


@dataclass(frozen=True)
class FeatureRecord:
    frame_index: int
    timestamp: float
    people_count: int
    objects: tuple[ObjectFeatures, ...]


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two x,y,w,h boxes."""
    ax0, ay0, aw, ah = a
    bx0, by0, bw, bh = b
    ix0, iy0 = max(ax0, bx0), max(ay0, by0)
    ix1, iy1 = min(ax0 + aw, bx0 + bw), min(ay0 + ah, by0 + bh)
    iw, ih = ix1 - ix0, iy1 - iy0
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def centroid(box: Box) -> tuple[float, float]:
    x, y, w, h = box
    return (x + w / 2.0, y + h / 2.0)


def _angle_diff(a: float, b: float) -> float:
    """Absolute circular difference of two angles in radians, within [0, pi]."""
    d = math.fmod(a - b, 2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    elif d < -math.pi:
        d += 2.0 * math.pi
    return abs(d)


def update_kinematics(track: TrackState, box: Box, timestamp: float,
                      params: TrackerParams) -> bool:
    """Fold one observation into a track's smoothed motion state.

    Returns False (and changes nothing) when the timestamp does not advance
    the track's history; the caller decides how to log the rejection.
    """
    if track.history and timestamp <= track.history[-1][0]:
        return False
    cx, cy = centroid(box)
    track.history.append((timestamp, cx, cy))
    while len(track.history) > params.smoothing_window:
        track.history.popleft()
    track.box = box
    track.last_seen = timestamp

    if len(track.history) < 2:
        return True
    t0, x0, y0 = track.history[0]
    span = timestamp - t0
    path = 0.0
    for (ta, xa, ya), (tb, xb, yb) in pairwise(track.history):
        path += math.hypot(xb - xa, yb - ya)
    speed = path / span if span > 0 else 0.0
    if speed < params.speed_floor:
        speed = 0.0  # standing
    track.speed = speed

    net = math.hypot(cx - x0, cy - y0)
    if net >= params.speed_floor * span and span > 0:
        track.heading = math.atan2(cy - y0, cx - x0)
        track.heading_valid = True
    else:
        track.heading_valid = False  # direction undefined while standing

    if track.last_check is None:
        track.last_check = timestamp
        track.base_speed = speed
        track.base_heading = track.heading if track.heading_valid else None
        return True

    if timestamp - track.last_check >= params.refractory:
        rel = abs(speed - track.base_speed) / max(track.base_speed, params.speed_floor)
        if rel > params.speed_delta:
            track.speed_change_count += 1
        if track.heading_valid:
            if (track.base_heading is not None
                    and _angle_diff(track.heading, track.base_heading)
                    > math.radians(params.heading_delta_deg)):
                track.direction_change_count += 1
            track.base_heading = track.heading
        track.base_speed = speed
        track.last_check = timestamp
    return True


def greedy_iou_match(tracks: dict[int, TrackState], detections: list[Detection],
                     iou_threshold: float) -> tuple[list[tuple[int, int, float]], list[int], list[int]]:
    """Greedy descending-IOU assignment between live tracks and detections.

    Ties break on (track_id, detection index) so matching is deterministic.
    Returns (matches, unmatched track ids, unmatched detection indices).
    """
    pairs = []
    for tid, track in tracks.items():
        for di, det in enumerate(detections):
            score = iou(track.box, det.box)
            if score >= iou_threshold:
                pairs.append((-score, tid, di))
    pairs.sort()
    matched_tracks: set[int] = set()
    matched_dets: set[int] = set()
    matches = []
    for neg, tid, di in pairs:
        if tid in matched_tracks or di in matched_dets:
            continue
        matched_tracks.add(tid)
        matched_dets.add(di)
        matches.append((tid, di, -neg))
    unmatched_tracks = [tid for tid in tracks if tid not in matched_tracks]
    unmatched_dets = [di for di in range(len(detections)) if di not in matched_dets]
    return matches, unmatched_tracks, unmatched_dets


def reconcile_detections(tracks: dict[int, TrackState], detections: list[Detection],
                         iou_threshold: float, params: TrackerParams,
                         next_id: int) -> int:
    """Apply one detector cycle to the live track table (mutates it).

    Matched pairs continue their track; unmatched detections spawn fresh
    tracks; live tracks the detector did not confirm are deleted along with
    their accumulated state. Newly spawned tracks are not re-matched against
    tracks deleted in the same cycle. Returns the next free track id.
    """
    matches, unmatched_tracks, unmatched_dets = greedy_iou_match(tracks, detections, iou_threshold)
    for tid, di, _ in matches:
        det = detections[di]
        update_kinematics(tracks[tid], det.box, det.timestamp, params)
        tracks[tid].last_frame = det.frame_index
    for tid in unmatched_tracks:
        del tracks[tid]
    for di in unmatched_dets:
        det = detections[di]
        track = TrackState(
            track_id=next_id, first_seen=det.timestamp, last_seen=det.timestamp,
            last_frame=det.frame_index, box=det.box,
        )
        update_kinematics(track, det.box, det.timestamp, params)
        tracks[next_id] = track
        next_id += 1
    return next_id


def build_feature_record(tracks: dict[int, TrackState], frame_index: int,
                         timestamp: float) -> FeatureRecord:
    """Snapshot the live track table into one transportable record."""
    objects = tuple(
        ObjectFeatures(
            track_id=t.track_id,
            dwell_time=t.dwell,
            speed_change_count=t.speed_change_count,
            direction_change_count=t.direction_change_count,
        )
        for t in sorted(tracks.values(), key=lambda t: t.track_id)
    )
    return FeatureRecord(
        frame_index=frame_index,
        timestamp=timestamp,
        people_count=len(objects),
        objects=objects,
    )


class TrackFeatureExtractor:
    """Per-camera stateful frame consumer producing FeatureRecords.

    Frames must arrive in order; each call covers all of one frame's rows.
    Not thread-safe; run one extractor per camera stream.
    """

    def __init__(self, params: TrackerParams | None = None,
                 error_log: ErrorLog | None = None):
        self.params = params or TrackerParams()
        self.tracks: dict[int, TrackState] = {}
        self.error_log = error_log or ErrorLog()
        self._next_id = 1
        self._last_frame: int | None = None
        self._last_ts: float | None = None

    def process_frame(self, detections: list[Detection], frame_index: int,
                      timestamp: float) -> FeatureRecord:
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise StreamOrderError(
                f"frame {frame_index} after frame {self._last_frame}")
        if self._last_ts is not None and timestamp < self._last_ts:
            raise StreamOrderError(
                f"timestamp {timestamp} regresses past {self._last_ts}")
        self._last_frame, self._last_ts = frame_index, timestamp

        detector_rows = [d for d in detections if d.source == DETECTOR]
        if detector_rows:
            self._next_id = reconcile_detections(
                self.tracks, detector_rows, self.params.iou_threshold,
                self.params, self._next_id)
        else:
            self._tracker_update(detections)
        self._kill_stale(frame_index)
        return build_feature_record(self.tracks, frame_index, timestamp)

    def _tracker_update(self, detections: list[Detection]) -> None:
        # Tracker rows can only continue tracks the detector created.
        matches, _, _ = greedy_iou_match(self.tracks, detections, self.params.iou_threshold)
        for tid, di, _ in matches:
            det = detections[di]
            if not update_kinematics(self.tracks[tid], det.box, det.timestamp, self.params):
                self.error_log.append(str(tid), "non-monotonic timestamp in track update")
                continue
            self.tracks[tid].last_frame = det.frame_index

    def _kill_stale(self, frame_index: int) -> None:
        limit = self.params.max_missed_cycles * self.params.detector_cycle
        for tid in [tid for tid, t in self.tracks.items()
                    if frame_index - t.last_frame >= limit]:
            del self.tracks[tid]
