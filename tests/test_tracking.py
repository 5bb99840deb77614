from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from loiterwatch.tracking import (
    DETECTOR,
    Detection,
    StreamOrderError,
    TRACKER,
    TrackFeatureExtractor,
    TrackState,
    TrackerParams,
    greedy_iou_match,
    iou,
    update_kinematics,
)

FPS = 5.0
DT = 1.0 / FPS
BOX_W, BOX_H = 40.0, 100.0


def box_at(x, y):
    return (x - BOX_W / 2.0, y - BOX_H / 2.0, BOX_W, BOX_H)


# ---------------------------------------------------------------- iou

def test_iou_hand_case():
    assert iou((0, 0, 2, 2), (1, 0, 2, 2)) == pytest.approx(1.0 / 3.0)


def test_iou_disjoint_and_identical():
    assert iou((0, 0, 2, 2), (5, 5, 2, 2)) == 0.0
    assert iou((1, 1, 3, 4), (1, 1, 3, 4)) == 1.0


def test_iou_degenerate_boxes():
    assert iou((0, 0, 0, 2), (0, 0, 2, 2)) == 0.0
    assert iou((0, 0, 2, -1), (0, 0, 2, 2)) == 0.0


boxes = st.tuples(st.floats(-100, 100), st.floats(-100, 100),
                  st.floats(0.1, 50), st.floats(0.1, 50))


@given(a=boxes, b=boxes)
def test_iou_symmetric_and_bounded(a, b):
    ab = iou(a, b)
    assert ab == iou(b, a)
    assert 0.0 <= ab <= 1.0 + 1e-12


@given(a=boxes)
def test_iou_self_is_one(a):
    assert iou(a, a) == pytest.approx(1.0)


# --------------------------------------------------- greedy association

def track_with_box(tid, box):
    return TrackState(track_id=tid, first_seen=0.0, last_seen=0.0,
                      last_frame=0, box=box)


def greedy_oracle(track_boxes, det_boxes, threshold):
    """Greedy by descending IOU, written as explicit pair enumeration."""
    pairs = []
    for tid, tbox in track_boxes.items():
        for di, dbox in enumerate(det_boxes):
            score = iou(tbox, dbox)
            if score >= threshold:
                pairs.append((score, tid, di))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_t, used_d, matched = set(), set(), []
    for score, tid, di in pairs:
        if tid in used_t or di in used_d:
            continue
        used_t.add(tid)
        used_d.add(di)
        matched.append((tid, di, score))
    return matched


def best_assignment_size(track_boxes, det_boxes, threshold):
    """Max number of threshold-passing matches over all assignments."""
    tids = list(track_boxes)
    best = 0
    for perm in itertools.permutations(range(len(det_boxes)), len(tids)):
        size = sum(1 for tid, di in zip(tids, perm)
                   if iou(track_boxes[tid], det_boxes[di]) >= threshold)
        best = max(best, size)
    return best


def as_detections(det_boxes):
    return [Detection(0, 0.0, b, DETECTOR) for b in det_boxes]


def test_greedy_differs_from_optimal_here():
    # 10x10 boxes shifted along x; iou = (10-dx)/(10+dx).
    t_boxes = {1: (0.0, 0.0, 10.0, 10.0), 2: (5.833, 0.0, 10.0, 10.0)}
    d_boxes = [(2.5, 0.0, 10.0, 10.0), (-2.903, 0.0, 10.0, 10.0)]
    # Best total assignment pairs both (size 2); greedy grabs (1, d0) first
    # and leaves track 2 with an under-threshold leftover.
    assert best_assignment_size(t_boxes, d_boxes, 0.5) == 2
    tracks = {tid: track_with_box(tid, b) for tid, b in t_boxes.items()}
    matches, unmatched_t, unmatched_d = greedy_iou_match(
        tracks, as_detections(d_boxes), 0.5)
    assert [(tid, di) for tid, di, _ in matches] == [(1, 0)]
    assert unmatched_t == [2]
    assert unmatched_d == [1]


# Person-sized boxes as the stream has them, and boxes of any size,
# zero and negative width and height included.
box = st.one_of(
    st.builds(box_at, st.floats(0, 300), st.floats(0, 300)),
    st.tuples(st.floats(0, 80), st.floats(0, 80),
              st.one_of(st.floats(-20, 60), st.sampled_from([0.0, -0.0, -5.0])),
              st.one_of(st.floats(-20, 60), st.sampled_from([0.0, -0.0, -5.0]))),
)


@given(
    track_boxes=st.lists(box, min_size=0, max_size=4),
    det_boxes=st.lists(box, min_size=0, max_size=4),
    threshold=st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
)
def test_greedy_matches_enumeration_oracle(track_boxes, det_boxes, threshold):
    t_boxes = dict(enumerate(track_boxes, 1))
    tracks = {tid: track_with_box(tid, b) for tid, b in t_boxes.items()}
    matches, unmatched_t, unmatched_d = greedy_iou_match(
        tracks, as_detections(det_boxes), threshold)
    expected = greedy_oracle(t_boxes, det_boxes, threshold)
    assert matches == expected  # pairs, order and iou() scores, exactly
    assert set(unmatched_t) == set(t_boxes) - {t for t, _, _ in expected}
    assert set(unmatched_d) == set(range(len(det_boxes))) - {d for _, d, _ in expected}
    for tid, di, score in matches:
        assert score >= threshold
    if threshold <= 0.0:  # zero-IOU pairs are admitted too
        assert len(matches) == min(len(t_boxes), len(det_boxes))


def nudged(value, ulps):
    """value moved by ``ulps`` units in the last place, down if negative."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


SPECIAL = (math.nan, math.inf, -math.inf)


@st.composite
def edge_frames(draw):
    """Track boxes, and detections whose left edge sits on a track's right
    edge, or whose right edge sits on its left edge, or one ulp either side,
    at the track's height; then any coordinate may turn NaN or infinite."""
    track_boxes = draw(st.lists(box, min_size=1, max_size=4))
    det_boxes = []
    for _ in range(draw(st.integers(1, 5))):
        x, y, w, h = draw(st.sampled_from(track_boxes))
        bw = draw(st.one_of(st.floats(0.5, 60), st.just(w)))
        ulps = draw(st.sampled_from([-1, 0, 1]))
        if draw(st.booleans()):
            det = [nudged(x + w, ulps), y, bw, h]  # left edge at the right edge
        else:
            det = [nudged(x - bw, ulps), y, bw, h]  # right edge near the left edge
        det_boxes.append(det)
    for boxes_ in (track_boxes, det_boxes):
        for i in range(len(boxes_)):
            if draw(st.booleans()):
                b = list(boxes_[i])
                b[draw(st.integers(0, 3))] = draw(st.sampled_from(SPECIAL))
                boxes_[i] = b
    return [tuple(b) for b in track_boxes], [tuple(b) for b in det_boxes]


@given(frame=edge_frames(), threshold=st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
# A NaN x gives NaN left and right edges, and iou() then takes the track's
# own edges: IOU 1 for boxes of the same size.
@example(frame=([(0.0, 0.0, 10.0, 10.0)], [(math.nan, 0.0, 10.0, 10.0)]), threshold=0.5)
@example(frame=([(0.0, 0.0, 10.0, 10.0)], [(10.0, 0.0, math.inf, 10.0),
                                          (-math.inf, 0.0, math.inf, 10.0),
                                          (math.nextafter(10.0, 0.0), 0.0, 5.0, 10.0)]),
         threshold=1.0)
@example(frame=([(0.0, 0.0, math.inf, 10.0)], [(math.inf, 0.0, 1.0, 10.0),
                                              (-5.0, 0.0, 5.0, 10.0)]),
         threshold=0.5)
def test_greedy_matches_oracle_on_touching_and_non_finite_edges(frame, threshold):
    track_boxes, det_boxes = frame
    t_boxes = dict(enumerate(track_boxes, 1))
    tracks = {tid: track_with_box(tid, b) for tid, b in t_boxes.items()}
    matches, unmatched_t, unmatched_d = greedy_iou_match(
        tracks, as_detections(det_boxes), threshold)
    expected = greedy_oracle(t_boxes, det_boxes, threshold)
    assert matches == expected
    assert set(unmatched_t) == set(t_boxes) - {t for t, _, _ in expected}
    assert set(unmatched_d) == set(range(len(det_boxes))) - {d for _, d, _ in expected}


# ------------------------------------------------- kinematics counters

def count_changes_oracle(samples, params):
    """Replay the counting definition over (t, x, y) samples, plain lists."""
    window: list[tuple[float, float, float]] = []
    speed_events = 0
    direction_events = 0
    last_check = None
    base_speed = 0.0
    base_heading = None
    for t, x, y in samples:
        window.append((t, x, y))
        if len(window) > params.smoothing_window:
            window = window[-params.smoothing_window:]
        if len(window) < 2:
            continue
        span = window[-1][0] - window[0][0]
        path = sum(math.hypot(window[i + 1][1] - window[i][1],
                              window[i + 1][2] - window[i][2])
                   for i in range(len(window) - 1))
        speed = path / span if span > 0 else 0.0
        if speed < params.speed_floor:
            speed = 0.0
        net_x = window[-1][1] - window[0][1]
        net_y = window[-1][2] - window[0][2]
        heading_valid = span > 0 and math.hypot(net_x, net_y) >= params.speed_floor * span
        heading = math.atan2(net_y, net_x) if heading_valid else None

        if last_check is None:
            last_check = t
            base_speed = speed
            base_heading = heading
            continue
        if t - last_check < params.refractory:
            continue
        if abs(speed - base_speed) / max(base_speed, params.speed_floor) > params.speed_delta:
            speed_events += 1
        if heading is not None:
            if base_heading is not None:
                delta = abs(heading - base_heading) % (2 * math.pi)
                if delta > math.pi:
                    delta = 2 * math.pi - delta
                if delta > math.radians(params.heading_delta_deg):
                    direction_events += 1
            base_heading = heading
        base_speed = speed
        last_check = t
    return speed_events, direction_events


def drive_track(samples, params):
    track = TrackState(track_id=1, first_seen=samples[0][0],
                       last_seen=samples[0][0], last_frame=0,
                       box=box_at(samples[0][1], samples[0][2]))
    for t, x, y in samples:
        assert update_kinematics(track, box_at(x, y), t, params)
    return track.speed_change_count, track.direction_change_count


def times(duration):
    return [round(i * DT, 10) for i in range(int(duration * FPS) + 1)]


def path_constant(speed=50.0, duration=10.0):
    return [(t, speed * t, 100.0) for t in times(duration)]


def path_reverse(speed=50.0, leg=5.0):
    samples = []
    for t in times(2 * leg):
        x = speed * t if t <= leg else speed * leg - speed * (t - leg)
        samples.append((t, x, 100.0))
    return samples


def path_stop(speed=50.0, leg=5.0):
    samples = []
    for t in times(2 * leg):
        x = speed * min(t, leg)
        samples.append((t, x, 100.0))
    return samples


def path_zigzag():
    """Back and forth with standing pauses, like someone casing a doorway.

    Walk phases taper to half speed on their first and last frame. That
    keeps every smoothing window's speed ratio at least 0.1 away from the
    0.5 event threshold, so sub-floor jitter can never flip a check,
    regardless of how the refractory checks align with phase boundaries.
    """
    samples = []
    x, direction = 0.0, 1.0
    t = 0.0
    steps = [30.0] + [60.0] * 9 + [30.0]  # 2.2 s walking
    for phase in range(4):
        for speed in steps:
            t += DT
            x += direction * speed * DT
            samples.append((round(t, 10), x, 100.0))
        direction = -direction
        for _ in range(8):  # 1.6 s standing
            t += DT
            samples.append((round(t, 10), x, 100.0))
    return samples


def path_circle(radius=60.0, deg_per_s=60.0, duration=12.0):
    omega = math.radians(deg_per_s)
    return [(t, 300.0 + radius * math.cos(omega * t),
             240.0 + radius * math.sin(omega * t)) for t in times(duration)]


def jittered(samples, amplitude=0.1, seed=42):
    rng = random.Random(seed)
    return [(t, x + rng.uniform(-amplitude, amplitude),
             y + rng.uniform(-amplitude, amplitude)) for t, x, y in samples]


PARAMS = TrackerParams()


def test_constant_velocity_counts_nothing():
    assert drive_track(path_constant(), PARAMS) == (0, 0)


def test_reversal_counts_one_direction_change():
    assert drive_track(path_reverse(), PARAMS) == (0, 1)


def test_stopping_counts_one_speed_change():
    assert drive_track(path_stop(), PARAMS) == (1, 0)


@pytest.mark.parametrize("path", [
    path_constant(), path_reverse(), path_stop(), path_zigzag(), path_circle(),
], ids=["constant", "reverse", "stop", "zigzag", "circle"])
def test_counts_match_definitional_oracle(path):
    assert drive_track(path, PARAMS) == count_changes_oracle(path, PARAMS)


@pytest.mark.parametrize("seed", [7, 21, 99])
def test_subfloor_jitter_never_changes_counts(seed):
    for path in (path_constant(), path_reverse(), path_stop(), path_zigzag()):
        noisy = jittered(path, amplitude=0.1, seed=seed)
        assert drive_track(noisy, PARAMS) == drive_track(path, PARAMS)


def test_zigzag_actually_accumulates_changes():
    speed_events, direction_events = drive_track(path_zigzag(), PARAMS)
    assert direction_events >= 3
    assert speed_events >= 3


@given(steps=st.lists(st.tuples(st.floats(1e-3, 2.0), st.floats(-500, 500),
                                st.floats(-500, 500)), min_size=1, max_size=30),
       window=st.integers(2, 7))
def test_cached_path_equals_pairwise_hypot_sum(steps, window):
    """Each sample keeps its segment's length; their left-to-right sum is
    the pairwise hypot sum over the window, bit for bit, and so is the
    speed derived from it."""
    params = TrackerParams(smoothing_window=window)
    track = TrackState(track_id=1, first_seen=0.0, last_seen=0.0, last_frame=0,
                       box=box_at(0.0, 0.0))
    t = 0.0
    for dt, x, y in steps:
        t += dt
        assert update_kinematics(track, box_at(x, y), t, params)
        samples = list(track.history)
        assert len(samples) <= window
        pairwise_path = 0.0
        for (_, xa, ya, _), (_, xb, yb, _) in itertools.pairwise(samples):
            pairwise_path += math.hypot(xb - xa, yb - ya)
        cached_path = 0.0
        for sample in samples[1:]:
            cached_path += sample[3]
        assert cached_path == pairwise_path
        span = t - samples[0][0]
        speed = pairwise_path / span if len(samples) > 1 and span > 0 else 0.0
        if speed < params.speed_floor:
            speed = 0.0
        assert track.speed == speed


def test_non_advancing_timestamp_rejected():
    track = TrackState(track_id=1, first_seen=0.0, last_seen=0.0,
                       last_frame=0, box=box_at(0, 0))
    assert update_kinematics(track, box_at(0, 0), 1.0, PARAMS)
    assert not update_kinematics(track, box_at(5, 0), 1.0, PARAMS)
    assert not update_kinematics(track, box_at(5, 0), 0.5, PARAMS)
    assert len(track.history) == 1


# ------------------------------------------------------- track lifecycle

def det_row(frame, x, y=100.0, source=DETECTOR):
    return Detection(frame, frame * DT, box_at(x, y), source)


def test_extractor_matches_direct_kinematics():
    path = path_zigzag()
    extractor = TrackFeatureExtractor(PARAMS)
    record = None
    for i, (t, x, y) in enumerate(path):
        source = DETECTOR if i % PARAMS.detector_cycle == 0 else TRACKER
        record = extractor.process_frame(
            [Detection(i, t, box_at(x, y), source)], i, t)
    assert record is not None
    assert len(record.objects) == 1
    features = record.objects[0]
    expected = drive_track(path, PARAMS)
    assert (features.speed_change_count, features.direction_change_count) == expected
    assert features.dwell_time == pytest.approx(path[-1][0] - path[0][0])


def lifecycle(extractor, rows, frame, timestamp):
    """Process one frame; return its record and its (kind, track id) transitions.

    Continued tracks come first, then killed, then spawned, each in id
    order. A kill on a frame without detector rows is a stale kill.
    """
    before = dict(extractor.tracks)
    record = extractor.process_frame(rows, frame, timestamp)
    after = extractor.tracks
    kill = "killed" if any(r.source == DETECTOR for r in rows) else "stale-killed"
    transitions = ([("continued", tid) for tid in sorted(before)
                    if tid in after and after[tid].last_frame == frame]
                   + [(kill, tid) for tid in sorted(before) if tid not in after]
                   + [("spawned", tid) for tid in sorted(after) if tid not in before])
    return record, transitions


def test_lifecycle_spawn_kill_respawn():
    extractor = TrackFeatureExtractor(PARAMS)
    _, kinds = lifecycle(extractor, [det_row(0, 100.0)], 0, 0.0)
    assert list(extractor.tracks) == [1]
    kinds += lifecycle(extractor, [det_row(5, 101.0)], 5, 1.0)[1]
    assert list(extractor.tracks) == [1]
    # Detector cycle with only a far-away box: track 1 dies, track 2 spawns.
    kinds += lifecycle(extractor, [det_row(10, 500.0)], 10, 2.0)[1]
    assert list(extractor.tracks) == [2]
    # The person reappears: a fresh id with zeroed history, not track 1.
    record, last = lifecycle(extractor, [det_row(15, 100.0), det_row(15, 500.0)], 15, 3.0)
    kinds += last
    assert sorted(extractor.tracks) == [2, 3]
    fresh = next(o for o in record.objects if o.track_id == 3)
    assert fresh.dwell_time == 0.0
    assert kinds == [("spawned", 1), ("continued", 1), ("killed", 1),
                     ("spawned", 2), ("continued", 2), ("spawned", 3)]


def test_stale_track_killed_without_detector_rows():
    extractor = TrackFeatureExtractor(PARAMS)
    extractor.process_frame([det_row(0, 100.0)], 0, 0.0)
    limit = PARAMS.max_missed_cycles * PARAMS.detector_cycle
    for frame in range(1, limit):
        extractor.process_frame([], frame, frame * DT)
        assert 1 in extractor.tracks
    _, kinds = lifecycle(extractor, [], limit, limit * DT)
    assert extractor.tracks == {}
    assert kinds[-1][0] == "stale-killed"


def test_tracker_rows_cannot_spawn():
    extractor = TrackFeatureExtractor(PARAMS)
    record = extractor.process_frame([det_row(0, 100.0, source=TRACKER)], 0, 0.0)
    assert extractor.tracks == {}
    assert record.objects == ()
    assert record.people_count == 0


def test_frame_order_enforced():
    extractor = TrackFeatureExtractor(PARAMS)
    extractor.process_frame([det_row(3, 100.0)], 3, 0.6)
    with pytest.raises(StreamOrderError):
        extractor.process_frame([], 3, 0.8)
    with pytest.raises(StreamOrderError):
        extractor.process_frame([], 4, 0.1)


def test_two_walkers_stay_separate_tracks():
    extractor = TrackFeatureExtractor(PARAMS)
    for i, t in enumerate(times(10.0)):
        source = DETECTOR if i % PARAMS.detector_cycle == 0 else TRACKER
        rows = [Detection(i, t, box_at(50.0 + 40.0 * t, 100.0), source),
                Detection(i, t, box_at(590.0 - 40.0 * t, 300.0), source)]
        record = extractor.process_frame(rows, i, t)
    assert record.people_count == 2
    assert [o.track_id for o in record.objects] == [1, 2]
    for features in record.objects:
        assert features.speed_change_count == 0
        assert features.direction_change_count == 0
