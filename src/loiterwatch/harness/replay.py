"""Scenario replay through the full pipeline.

Replays drive the edge extractor frame by frame (including empty frames,
synthesized from the scenario fps, so staleness rules see time passing),
feed the resulting records to the fog pipeline either in-process or over a
loopback transport link, and collect a per-object score timeline plus the
decision log. Records carry their own timestamps, so replay speed never
changes outcomes: pacing only affects wall-clock duration. A loopback
replay that does not deliver every record raises instead of returning a
truncated result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..context import AlarmPolicy, FogPipeline
from ..fuzzy import EngineConfig, FuzzyEngine, default_config
from ..logs import DecisionLog, ErrorLog, TIMELINE_HEADER, write_csv
from ..tracking import TrackerParams, TrackFeatureExtractor
from ..transport import FeatureSender, FogReceiver, TransportConfig
from .dataset import group_frames, load_track_dataset
from .scenarios import Scenario


@dataclass
class ReplayStats:
    decisions: int = 0
    total_decide_s: float = 0.0
    wall_s: float = 0.0

    @property
    def mean_decide_ms(self) -> float:
        return 1000.0 * self.total_decide_s / self.decisions if self.decisions else 0.0


@dataclass
class ReplayResult:
    scenario: Scenario
    timeline: list[tuple[float, int, float, bool]] = field(default_factory=list)
    decision_log: DecisionLog = field(default_factory=DecisionLog)
    stats: ReplayStats = field(default_factory=ReplayStats)
    timeline_path: Path | None = None
    decisions_path: Path | None = None

    def write(self, out_dir: str | Path) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.timeline_path = out_dir / f"{self.scenario.name}.timeline.csv"
        self.decisions_path = out_dir / f"{self.scenario.name}.decisions.csv"
        write_csv(self.timeline_path, TIMELINE_HEADER,
                  [[f"{ts:.4f}", str(tid), f"{score:.4f}", str(int(alarm))]
                   for ts, tid, score, alarm in self.timeline])
        self.decision_log.write(self.decisions_path)


def _frame_ticks(scenario: Scenario, detections) -> list[tuple[int, float, list]]:
    """Every frame tick over the stream span, empty frames included."""
    groups = {frame: rows for frame, _, rows in group_frames(detections)}
    last_frame = max(groups) if groups else int(round(scenario.duration * scenario.fps))
    ticks = []
    for frame in range(last_frame + 1):
        timestamp = scenario.start_timestamp + frame / scenario.fps
        rows = groups.get(frame, [])
        if rows:
            timestamp = rows[0].timestamp
        ticks.append((frame, timestamp, rows))
    return ticks


def replay_scenario(scenario: Scenario,
                    engine_config: EngineConfig | None = None,
                    policy: AlarmPolicy | None = None,
                    tracker_params: TrackerParams | None = None,
                    transport: TransportConfig | None = None,
                    out_dir: str | Path | None = None,
                    pace: bool = False,
                    error_log: ErrorLog | None = None) -> ReplayResult:
    """Run one scenario end to end; transport=None keeps it in-process."""
    engine = FuzzyEngine(engine_config or default_config(),
                         error_log=error_log or ErrorLog())
    fog = FogPipeline(
        engine, cameras={scenario.camera.camera_id: scenario.camera},
        policy=policy or AlarmPolicy())
    extractor = TrackFeatureExtractor(tracker_params, error_log=engine.error_log)
    result = ReplayResult(scenario=scenario, decision_log=fog.decision_log)

    detections = load_track_dataset(scenario.detections_path)
    ticks = _frame_ticks(scenario, detections)

    def consume(camera_id: str, record) -> None:
        t0 = time.perf_counter()
        reports = fog.process_record(camera_id, record)
        result.stats.total_decide_s += time.perf_counter() - t0
        result.stats.decisions += len(reports)
        for report in reports:
            result.timeline.append(
                (report.timestamp, report.track_id, report.score.value, report.alarm))

    started = time.perf_counter()
    if transport is None:
        for frame, timestamp, rows in ticks:
            if pace and frame:
                time.sleep(1.0 / scenario.fps)
            record = extractor.process_frame(rows, frame, timestamp)
            consume(scenario.camera.camera_id, record)
    else:
        receiver = FogReceiver(
            transport, on_message=lambda m: consume(m.camera_id, m.record))
        receiver.start()
        sender_config = TransportConfig(**{**transport.__dict__, "port": receiver.port})
        sender = FeatureSender(sender_config)
        sender.connect()
        try:
            for frame, timestamp, rows in ticks:
                if pace and frame:
                    time.sleep(1.0 / scenario.fps)
                record = extractor.process_frame(rows, frame, timestamp)
                sender.send_record(record, scenario.camera.camera_id)
            sender.flush()
            deadline = time.monotonic() + 30.0
            while (len(receiver.latency.samples) + receiver.rejected + receiver.duplicates
                   < len(ticks) and time.monotonic() < deadline):
                time.sleep(0.005)
        finally:
            sender.close()
            receiver.stop()
        delivered = len(receiver.latency.samples)
        if delivered < len(ticks):
            raise RuntimeError(
                f"loopback replay incomplete: sent {len(ticks)}, delivered {delivered}, "
                f"rejected {receiver.rejected}, duplicates {receiver.duplicates}, "
                f"gaps {len(receiver.gaps)}")
    result.stats.wall_s = time.perf_counter() - started

    if out_dir is not None:
        result.write(out_dir)
    return result
