"""Detection-stream CSV loading and validation.

Stream format, one detection per row, frame-ordered:

    frame,timestamp,track_hint,x,y,w,h,source

track_hint is the generator's ground-truth id and may be empty; the
pipeline never uses it for tracking, only evaluation tooling does.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..tracking import DETECTOR, TRACKER, Detection

STREAM_HEADER = ["frame", "timestamp", "track_hint", "x", "y", "w", "h", "source"]


class DatasetError(ValueError):
    """Malformed detection stream; message names the offending line."""


def load_track_dataset(path: str | Path) -> list[Detection]:
    """Parse and validate a detection stream CSV.

    Rows must be grouped by non-decreasing frame index with non-decreasing
    timestamps; each frame must carry a single timestamp. An empty stream
    (header only) is valid and returns [].
    """
    path = Path(path)
    detections: list[Detection] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected header {STREAM_HEADER}")
        if header != STREAM_HEADER:
            raise DatasetError(f"{path}: line 1: bad header {header!r}")

        last_frame: int | None = None
        last_ts: float | None = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(STREAM_HEADER):
                raise DatasetError(f"{path}: line {lineno}: expected {len(STREAM_HEADER)} fields, got {len(row)}")
            try:
                frame = int(row[0])
                timestamp = float(row[1])
                hint = int(row[2]) if row[2] != "" else None
                x, y, w, h = (float(v) for v in row[3:7])
                source = row[7]
            except ValueError as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
            if source not in (TRACKER, DETECTOR):
                raise DatasetError(f"{path}: line {lineno}: unknown source {source!r}")
            if w <= 0 or h <= 0:
                raise DatasetError(f"{path}: line {lineno}: non-positive box size")
            if last_frame is not None and frame < last_frame:
                raise DatasetError(f"{path}: line {lineno}: frame {frame} regresses past {last_frame}")
            if last_ts is not None and timestamp < last_ts:
                raise DatasetError(f"{path}: line {lineno}: timestamp {timestamp} regresses past {last_ts}")
            # Frames never regress, so a frame can only repeat the previous row's.
            if frame == last_frame and timestamp != last_ts:
                raise DatasetError(f"{path}: line {lineno}: frame {frame} has conflicting timestamps")
            last_frame, last_ts = frame, timestamp
            detections.append(Detection(
                frame_index=frame, timestamp=timestamp, box=(x, y, w, h),
                source=source, track_hint=hint,
            ))
    return detections


def group_frames(detections: list[Detection]) -> list[tuple[int, float, list[Detection]]]:
    """Collapse a validated stream into (frame, timestamp, rows) groups."""
    groups: list[tuple[int, float, list[Detection]]] = []
    for det in detections:
        if groups and groups[-1][0] == det.frame_index:
            groups[-1][2].append(det)
        else:
            groups.append((det.frame_index, det.timestamp, [det]))
    return groups
