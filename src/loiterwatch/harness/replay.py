"""Scenario replay through the full pipeline.

One tick loop drives the edge extractor frame by frame (including empty
frames, synthesized from the scenario fps, so staleness rules see time
passing) and sends each record to the fog, in-process or over a loopback
link; only the latter imports the transport. The fog's decision log is the
replay's one per-object record. Records carry their own timestamps, so
replay speed never changes outcomes. A loopback replay that does not
deliver every record raises instead of returning a truncated result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..context import AlarmPolicy, FogPipeline
from ..fuzzy import EngineConfig, FuzzyEngine, default_config
from ..logs import DecisionLog
from ..tracking import TrackFeatureExtractor
from .dataset import group_frames, load_track_dataset
from .scenarios import Scenario

if TYPE_CHECKING:
    from ..transport import TransportConfig


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
    decision_log: DecisionLog = field(default_factory=DecisionLog)
    stats: ReplayStats = field(default_factory=ReplayStats)
    decisions_path: Path | None = None

    @property
    def timeline(self) -> list[tuple[float, int, float, bool]]:
        return self.decision_log.timeline


def _frame_ticks(scenario: Scenario, detections) -> list[tuple[int, float, list]]:
    """Every frame tick over the stream span, empty frames included."""
    groups = {frame: (timestamp, rows) for frame, timestamp, rows in group_frames(detections)}
    last_frame = max(groups) if groups else int(round(scenario.duration * scenario.fps))
    return [(frame, *groups.get(frame, (scenario.start_timestamp + frame / scenario.fps, [])))
            for frame in range(last_frame + 1)]


def replay_scenario(scenario: Scenario,
                    engine_config: EngineConfig | None = None,
                    policy: AlarmPolicy | None = None,
                    transport: TransportConfig | None = None,
                    out_dir: str | Path | None = None,
                    pace: bool = False) -> ReplayResult:
    """Run one scenario end to end; transport=None keeps it in-process."""
    engine = FuzzyEngine(engine_config or default_config())
    camera_id = scenario.camera.camera_id
    fog = FogPipeline(engine, cameras={camera_id: scenario.camera}, policy=policy)
    extractor = TrackFeatureExtractor(error_log=engine.error_log)
    result = ReplayResult(scenario=scenario, decision_log=fog.decision_log)
    ticks = _frame_ticks(scenario, load_track_dataset(scenario.detections_path))

    def consume(record, camera_id: str) -> None:
        t0 = time.perf_counter()
        fog.process_record(camera_id, record)
        result.stats.total_decide_s += time.perf_counter() - t0

    def run(send) -> None:
        """The tick loop: pace, extract, and send each record on."""
        for frame, timestamp, rows in ticks:
            if pace and frame:
                time.sleep(1.0 / scenario.fps)
            send(extractor.process_frame(rows, frame, timestamp), camera_id)

    started = time.perf_counter()
    if transport is None:
        run(consume)
    else:
        from ..transport import FeatureSender, FogReceiver, TransportConfig

        receiver = FogReceiver(transport, on_message=lambda m: consume(m.record, m.camera_id))
        try:
            receiver.start()
            sender = FeatureSender(TransportConfig(**{**transport.__dict__,
                                                      "port": receiver.port}))
            try:
                sender.connect()
                run(sender.send_record)
                # Records the sender never handed to its socket cannot arrive.
                unsent = sender.flush()
                deadline = time.monotonic() + 30.0
                while (len(receiver.latency.samples) + receiver.rejected + receiver.duplicates
                       < len(ticks) - unsent and time.monotonic() < deadline):
                    time.sleep(0.005)
            finally:
                sender.close()
        finally:
            receiver.stop()
        delivered = len(receiver.latency.samples)
        if delivered < len(ticks):
            raise RuntimeError(
                f"loopback replay incomplete, {unsent} never left the sender: "
                f"sent {len(ticks)}, delivered {delivered}, "
                f"rejected {receiver.rejected}, duplicates {receiver.duplicates}, "
                f"gaps {len(receiver.gaps)}")
    result.stats.wall_s = time.perf_counter() - started
    result.stats.decisions = len(fog.decision_log.rows)

    if out_dir is not None:
        result.decisions_path = Path(out_dir) / f"{scenario.name}.decisions.csv"
        result.decisions_path.parent.mkdir(parents=True, exist_ok=True)
        fog.decision_log.write(result.decisions_path)
    return result
