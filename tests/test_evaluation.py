from __future__ import annotations

import pytest

from loiterwatch.harness import (
    EvaluationResult,
    LabelInterval,
    emit_report,
    evaluate,
)
from loiterwatch.logs import DecisionLog


def rows(*entries):
    """(ts, track, score) triples; the alarm flag mirrors score >= 60."""
    return [(ts, tid, score, score >= 60.0) for ts, tid, score in entries]


EVENT = [LabelInterval(1, 10.0, 30.0, "loitering")]


def test_alarm_inside_window_is_tp():
    timeline = rows((12.0, 1, 70.0), (13.0, 1, 75.0))
    assert evaluate(timeline, EVENT, 60.0) == (1, 0, 0)


def test_alarm_in_post_event_grace_is_tp():
    timeline = rows((34.9, 1, 70.0))
    assert evaluate(timeline, EVENT, 60.0) == (1, 0, 0)


def test_alarm_after_grace_is_fp_and_event_missed():
    timeline = rows((36.0, 1, 70.0))
    assert evaluate(timeline, EVENT, 60.0) == (0, 1, 1)


def test_no_alarms_is_fn():
    timeline = rows((12.0, 1, 30.0))
    assert evaluate(timeline, EVENT, 60.0) == (0, 0, 1)


def test_any_track_can_claim_the_event():
    timeline = rows((15.0, 99, 70.0))
    assert evaluate(timeline, EVENT, 60.0) == (1, 0, 0)


def test_threshold_is_reapplied_to_scores():
    timeline = rows((15.0, 1, 55.0))
    assert evaluate(timeline, EVENT, 60.0) == (0, 0, 1)
    assert evaluate(timeline, EVENT, 50.0) == (1, 0, 0)


def test_normal_labels_are_not_events():
    labels = [LabelInterval(1, 0.0, 50.0, "normal")]
    timeline = rows((15.0, 1, 70.0))
    assert evaluate(timeline, labels, 60.0) == (0, 1, 0)


def test_stray_alarm_bursts_collapse_per_track():
    close_burst = rows((40.0, 2, 70.0), (42.0, 2, 70.0), (44.0, 2, 70.0))
    assert evaluate(close_burst, EVENT, 60.0) == (0, 1, 1)

    split_burst = rows((40.0, 2, 70.0), (46.0, 2, 70.0))
    assert evaluate(split_burst, EVENT, 60.0) == (0, 2, 1)

    two_tracks = rows((40.0, 2, 70.0), (40.0, 3, 70.0))
    assert evaluate(two_tracks, EVENT, 60.0) == (0, 2, 1)


def test_multiple_events_counted_separately():
    labels = [LabelInterval(1, 10.0, 30.0, "loitering"),
              LabelInterval(2, 100.0, 130.0, "loitering")]
    timeline = rows((12.0, 1, 70.0))
    assert evaluate(timeline, labels, 60.0) == (1, 0, 1)


def test_zero_threshold_collapses_to_track_clusters():
    # Continuous 0.5 s cadence scores on two normal tracks, one event window.
    timeline = []
    for i in range(100):
        ts = i * 0.5
        timeline.append((ts, 2, 10.0, False))
        timeline.append((ts, 3, 10.0, False))
    tp, fp, fn = evaluate(timeline, EVENT, 0.0)
    assert tp == 1  # the window swallows the rows inside it, any track
    # Out-of-window rows split at the window into before/after clusters.
    assert fp == 4
    assert fn == 0


def test_empty_everything():
    assert evaluate([], [], 60.0) == (0, 0, 0)
    assert evaluate([], EVENT, 60.0) == (0, 0, 1)


def result(name, kind="loiter", events=1, tp=1, fp=0, fn=0, **kw):
    return EvaluationResult(scenario=name, kind=kind, events=events,
                            tp=tp, fp=fp, fn=fn, **kw)


def test_report_files_are_deterministic(tmp_path):
    results = [result("a"), result("b", kind="crowd", events=0, tp=0),
               result("c", fn=1, tp=0)]
    emit_report(results, tmp_path / "one")
    emit_report(results, tmp_path / "two")
    for name in ("report.csv", "summary.txt"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_report_totals_row(tmp_path):
    results = [result("a"), result("b", tp=0, fn=1)]
    path = emit_report(results, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,kind,events,tp,fp,fn"
    assert lines[-1] == "total,-,2,1,0,1"


def test_runtime_stats_kept_out_of_report(tmp_path):
    results = [result("a", decisions=100, mean_decide_ms=0.5, wall_s=1.0)]
    emit_report(results, tmp_path)
    report = (tmp_path / "report.csv").read_text()
    assert "0.5" not in report
    assert (tmp_path / "runtime.csv").exists()


def test_no_runtime_file_without_decisions(tmp_path):
    emit_report([result("a")], tmp_path)
    assert not (tmp_path / "runtime.csv").exists()


def test_load_timeline_round_trip(tmp_path):
    log = DecisionLog()
    log.append(1.5, "cam-1", 3, 62.5, 60.0, True, "ok")
    log.append(2.0, "cam-1", 3, 10.0, 60.0, False, "ok")
    path = tmp_path / "t.decisions.csv"
    log.write(path)
    assert path.read_text() == ("timestamp,camera_id,track_id,score,threshold,alarm,status\n"
                                "1.5000,cam-1,3,62.5000,60.0000,1,ok\n"
                                "2.0000,cam-1,3,10.0000,60.0000,0,ok\n")
    loaded = DecisionLog.read(path)
    assert loaded.rows == log.rows
    assert loaded.timeline == [(1.5, 3, 62.5, True), (2.0, 3, 10.0, False)]
