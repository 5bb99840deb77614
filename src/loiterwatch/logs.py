"""Append-only operational logs shared by the edge and fog sides.

Error lines are tab-separated ``ISO8601-timestamp<TAB>object-id<TAB>reason``
so they can be grepped and joined against decision logs. The decision log
is plain CSV with a fixed header; every value written to it is derived from
record data (never from the wall clock) so replaying the same stream twice
produces byte-identical files.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

DECISION_HEADER = ["timestamp", "camera_id", "track_id", "score", "threshold", "alarm", "status"]


class ErrorLog:
    """Append-only error sink; optionally mirrored to a file."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.entries: list[tuple[str, str, str]] = []

    def append(self, object_id: str, reason: str) -> None:
        stamp = datetime.now(timezone.utc).isoformat()
        self.entries.append((stamp, object_id, reason))
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(f"{stamp}\t{object_id}\t{reason}\n")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class DecisionLog:
    """Collects per-object decisions; one row per scored object."""

    rows: list[list[str]] = field(default_factory=list)

    def append(self, timestamp: float, camera_id: str, track_id: int,
               score: float, threshold: float, alarm: bool, status: str) -> None:
        # Fixed-width formatting keeps log bytes identical across runs.
        self.rows.append([
            f"{timestamp:.4f}", camera_id, str(track_id),
            f"{score:.4f}", f"{threshold:.4f}", "1" if alarm else "0", status,
        ])

    @classmethod
    def read(cls, path: str | Path) -> DecisionLog:
        """Load a log written by ``write``; any other file raises ValueError."""
        with open(path, encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
        if lines[:1] != [DECISION_HEADER]:
            raise ValueError(f"{path}: line 1: not a decision log header")
        for number, row in enumerate(lines[1:], start=2):
            try:
                _timeline_entry(row)
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
        return cls(rows=lines[1:])

    @property
    def timeline(self) -> list[tuple[float, int, float, bool]]:
        """(timestamp, track_id, score, alarm) per row, as logged."""
        return [_timeline_entry(row) for row in self.rows]

    def write(self, path: str | Path) -> None:
        write_csv(path, DECISION_HEADER, self.rows)

    def as_bytes(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(DECISION_HEADER)
        writer.writerows(self.rows)
        return buf.getvalue().encode("utf-8")


def _timeline_entry(row: list[str]) -> tuple[float, int, float, bool]:
    timestamp, _camera, track_id, score, _threshold, alarm, _status = row
    return float(timestamp), int(track_id), float(score), alarm == "1"


def write_csv(path: str | Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
