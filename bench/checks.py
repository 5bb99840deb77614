"""Correctness checks written apart from the package.

Nothing here imports ``loiterwatch``: the scorer, the threshold, the
alarm recount and the stream parsing are written from their definitions
(the shipped JSON config and policy, the documented CSV formats and the
evaluation rules in the package docs), so a fault in the package cannot
hide by agreeing with itself.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

ORACLE_TOLERANCE = 0.1     # score points on the 0-100 scale
EVAL_THRESHOLD = 60.0      # the suite's evaluation operating point
MATCH_WINDOW = 5.0         # seconds after a labeled interval


class CheckFailed(AssertionError):
    """An output of the program is wrong; the message says which."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _degree(points, left_hold, right_hold, x):
    if x < points[0][0]:
        return points[0][1] if left_hold else 0.0
    if x > points[-1][0]:
        return points[-1][1] if right_hold else 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            if x == x1:
                return y1
            return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    return points[-1][1]


def _member(m):
    return ([tuple(p) for p in m["breakpoints"]],
            m.get("left_extension", "zero") == "hold-degree",
            m.get("right_extension", "zero") == "hold-degree")


class OracleScorer:
    """Mamdani min-max scoring with a centroid on a grid ten times finer."""

    def __init__(self, config: dict):
        self.config = config
        self.inputs = {v["name"]: v for v in config["variables"] if v["name"] != config["output"]}
        out = next(v for v in config["variables"] if v["name"] == config["output"])
        lo, hi = out["domain"]
        n = 10 * int(config.get("grid_resolution", 1001))
        self.grid = np.array([lo + (hi - lo) * i / (n - 1) for i in range(n)])
        self.curves = {m["label"]: np.array([_degree(*_member(m), z) for z in self.grid])
                       for m in out["members"]}

    def _weight(self, node, degrees):
        if "atom" in node:
            var, label = node["atom"]
            return degrees[var][label]
        children = [self._weight(c, degrees) for c in node.get("and", node.get("or", []))]
        return min(children) if "and" in node else max(children)

    def score(self, inputs: dict[str, float]) -> float:
        degrees = {}
        for name, var in self.inputs.items():
            lo, hi = var["domain"]
            x = min(max(float(inputs[name]), lo), hi)
            degrees[name] = {m["label"]: _degree(*_member(m), x) for m in var["members"]}
        weights: dict[str, float] = {}
        for rule in self.config["rules"]:
            if rule.get("enabled", True):
                w = self._weight(rule["antecedent"], degrees)
                weights[rule["consequent"]] = max(weights.get(rule["consequent"], 0.0), w)
        envelope = np.zeros_like(self.grid)
        for label, w in weights.items():
            if w > 0.0:
                envelope = np.maximum(envelope, np.minimum(w, self.curves[label]))
        mass = envelope.sum()
        return float((self.grid * envelope).sum() / mass) if mass > 0 else 0.0


def local_hour(timestamp: float, timezone_offset: float) -> float:
    hour = (timestamp / 3600.0 + timezone_offset) % 24.0
    return 0.0 if hour >= 24.0 else hour


def threshold(policy: dict, camera: dict, hour: float) -> float:
    """Alarm threshold from the policy definition in the package README."""
    value = policy["base_threshold"] - policy["tier_step"] * (camera.get("security_level", 1) - 1)
    after_hours = hour >= policy["after_hours_start"] or hour < policy["after_hours_end"]
    if camera.get("placement", "indoor") == "outdoor" and after_hours:
        value -= policy["outdoor_after_hours_step"]
    return min(max(value, policy["min_threshold"]), policy["max_threshold"])


def decision_rows(data: bytes) -> list[dict]:
    """Rows of a decision log: timestamp,camera_id,track_id,score,threshold,alarm,status."""
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    require(bool(rows) or data.count(b"\n") == 1, "decision log unreadable")
    return rows


def check_alarm_flags(rows: list[dict]) -> int:
    """Every alarm flag equals score >= threshold on ok rows; returns alarms."""
    alarms = 0
    for row in rows:
        expect = row["status"] == "ok" and float(row["score"]) >= float(row["threshold"])
        require(row["alarm"] == str(int(expect)),
                f"alarm flag {row['alarm']} disagrees with score {row['score']} "
                f"and threshold {row['threshold']}")
        alarms += row["alarm"] == "1"
    return alarms


def check_sample(scorer: OracleScorer, policy: dict, samples: list[tuple[dict, dict, dict]]) -> float:
    """Re-score (camera, record object, decision row) triples; returns the
    largest disagreement in score points."""
    worst = 0.0
    for camera, obj, row in samples:
        hour = local_hour(obj["timestamp"], camera.get("timezone_offset", 0.0))
        expect = scorer.score({
            "hour": hour, "dwell-time": obj["dwell_time"],
            "speed-changes": obj["speed_change_count"],
            "direction-changes": obj["direction_change_count"],
            "people-count": obj["people_count"],
        })
        got = float(row["score"])
        worst = max(worst, abs(got - expect))
        require(abs(got - expect) <= ORACLE_TOLERANCE,
                f"track {row['track_id']} at {row['timestamp']}: score {got} vs oracle {expect:.4f}")
        require(abs(float(row["threshold"]) - threshold(policy, camera, hour)) < 1e-3,
                f"track {row['track_id']} at {row['timestamp']}: threshold {row['threshold']}")
    return worst


def read_labels(path: Path) -> list[tuple[int, float, float, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [(int(r["track_hint"]), float(r["start"]), float(r["end"]), r["label"])
                for r in csv.DictReader(fh)]


def recount(rows: list[dict], labels, threshold_value: float = EVAL_THRESHOLD,
            window: float = MATCH_WINDOW) -> tuple[int, int, int]:
    """(tp, fp, fn): a loitering interval is a TP when any alarm falls in
    [start, end + window]; alarms outside every window are FPs, merged per
    track while consecutive ones are at most a window apart."""
    alarms = [(float(r["timestamp"]), r["track_id"]) for r in rows
              if float(r["score"]) >= threshold_value]
    windows = [(s, e + window) for _, s, e, label in labels if label == "loitering"]
    tp = sum(1 for s, e in windows if any(s <= t <= e for t, _ in alarms))
    last: dict[str, float] = {}
    fp = 0
    for t, track in sorted(alarms, key=lambda a: (a[1], a[0])):
        if any(s <= t <= e for s, e in windows):
            continue
        if track not in last or t - last[track] > window:
            fp += 1
        last[track] = t
    return tp, fp, len(windows) - tp


def detector_rows_per_frame(path: Path) -> dict[str, int]:
    """Detector rows per frame, keyed by the frame timestamp as logged (%.4f)."""
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for r in csv.DictReader(fh):
            if r["source"] == "detector":
                key = f"{float(r['timestamp']):.4f}"
                counts[key] = counts.get(key, 0) + 1
    return counts


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
