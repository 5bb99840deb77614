"""The three workloads: ``suite``, ``crowd`` and ``link``.

Each workload prepares its inputs once from the seed (scenario files, RSA
keys, a reference run), then runs whole passes until the run's time is up.
A pass returns its counts and timings; the checks in ``checks.py`` judge
its outputs. Only the generated streams reach the program.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import checks
from checks import require

CROWD = {"people": 30, "duration": 120.0, "jitter": 2.0, "hour": 13.0}
CROWD_TINY = {"people": 6, "duration": 40.0, "jitter": 2.0, "hour": 13.0}
LINK_MODE = "handshake-then-symmetric"
LINK_RATE = 250.0          # frames/s offered in the paced phase
LINK_TINY_RATE = 100.0
DELIVERY_DEADLINE = 20.0   # seconds to wait for a phase's last decision
ORACLE_SAMPLES = 100


@dataclass
class PassResult:
    """One pass. ``frames``, ``decisions`` and ``wire_bytes`` belong to the
    timed stretch ``wall_s``; ``attempted`` counts every frame the pass sent."""

    frames: int
    decisions: int
    alarms: int
    wall_s: float
    wire_bytes: int
    latencies_s: list[float]
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.attempted = self.attempted or self.frames


class FrameClock:
    """Alert latency of in-process frames: from the frame entering the edge
    tracker to its decisions returning from the fog pipeline.

    It patches two methods for the whole run; the cost is two clock reads
    and an append per frame. With ``capture`` on, it also keeps each
    (camera, record) the fog pipeline scored, for the oracle checks.
    """

    def __init__(self):
        from loiterwatch.context import FogPipeline
        from loiterwatch.tracking import TrackFeatureExtractor

        self.latencies: list[float] = []
        self.captured: list[tuple[str, object]] = []
        self.capture = False
        self._start = 0.0
        clock = self
        self._patched = [(TrackFeatureExtractor, "process_frame", TrackFeatureExtractor.process_frame),
                         (FogPipeline, "process_record", FogPipeline.process_record)]
        process_frame, process_record = self._patched[0][2], self._patched[1][2]

        def timed_frame(self, *args, **kwargs):
            clock._start = perf_counter()
            return process_frame(self, *args, **kwargs)

        def timed_record(self, camera_id, record, *args, **kwargs):
            out = process_record(self, camera_id, record, *args, **kwargs)
            clock.latencies.append(perf_counter() - clock._start)
            if clock.capture:
                clock.captured.append((camera_id, record))
            return out

        TrackFeatureExtractor.process_frame = timed_frame
        FogPipeline.process_record = timed_record

    def take(self) -> list[float]:
        out, self.latencies = self.latencies, []
        return out

    def uninstall(self) -> None:
        for owner, attr, original in self._patched:
            setattr(owner, attr, original)


def _objects(captured, rows_by_camera) -> list[tuple[str, dict, dict]]:
    """Pair each scored object with its decision row, in log order."""
    paired = []
    cursor: dict[str, int] = {}
    for camera_id, record in captured:
        rows = rows_by_camera[camera_id]
        for obj in record.objects:
            i = cursor.get(camera_id, 0)
            require(i < len(rows), f"{camera_id}: more scored objects than decision rows")
            row = rows[i]
            cursor[camera_id] = i + 1
            require(row["track_id"] == str(obj.track_id)
                    and row["timestamp"] == f"{record.timestamp:.4f}",
                    f"{camera_id}: decision row {i} does not belong to track {obj.track_id}")
            paired.append((camera_id, {
                "timestamp": record.timestamp, "dwell_time": obj.dwell_time,
                "speed_change_count": obj.speed_change_count,
                "direction_change_count": obj.direction_change_count,
                "people_count": record.people_count}, row))
    for camera_id, rows in rows_by_camera.items():
        require(cursor.get(camera_id, 0) == len(rows),
                f"{camera_id}: {len(rows)} decision rows for {cursor.get(camera_id, 0)} objects")
    return paired


def _wire_bytes(records: list[tuple[str, object]]) -> int:
    """Bytes these records take on a handshake-mode link: length prefix,
    16-byte header and the sealed payload."""
    from loiterwatch.transport import HandshakeSession, encode_record

    session = HandshakeSession(bytes(32))
    header = bytes(16)
    return sum(4 + len(header) + len(session.seal(header, encode_record(record, camera_id)))
               for camera_id, record in records)


class Workload:
    name = ""
    open_loop = False

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.root, self.work, self.seed, self.tiny = root, work, seed, tiny
        self.rng = random.Random(seed)
        data = root / "src" / "loiterwatch" / "data"
        self.fuzzy_json = checks.load_json(data / "fuzzy_config.json")
        self.policy = checks.load_json(data / "policy.json")
        self.checks_run: list[str] = []
        self.oracle_worst = 0.0
        self.counts: dict = {}       # workload-specific deterministic counts

    def ran(self, name: str) -> None:
        if name not in self.checks_run:
            self.checks_run.append(name)

    def oracle(self, paired, cameras: dict[str, dict]) -> None:
        sample = self.rng.sample(paired, min(ORACLE_SAMPLES, len(paired)))
        worst = checks.check_sample(checks.OracleScorer(self.fuzzy_json), self.policy,
                                    [(cameras[c], obj, row) for c, obj, row in sample])
        self.oracle_worst = max(self.oracle_worst, worst)
        self.ran("oracle-rescore")

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Suite(Workload):
    """The fixed 12-scenario suite through ``run_suite``; the seed picks the
    decisions the oracle re-scores."""

    name = "suite"

    def prepare(self) -> None:
        from loiterwatch import harness

        # Looked up on each call, so the traced run sees the wrapped function.
        self.harness = harness
        self.out = self.work / "suite"
        self.clock = FrameClock()
        self.clock.capture = True
        result = harness.run_suite(self.out, threshold=checks.EVAL_THRESHOLD)
        self.clock.capture = False
        self.clock.take()
        self.reference = self._outputs()

        rows_by_camera, cameras, totals = {}, {}, [0, 0, 0]
        for scenario in result.scenarios:
            camera = checks.load_json(self.out / "scenarios" / f"{scenario.name}.scenario.json")["camera"]
            cameras[camera["camera_id"]] = camera
            rows = checks.decision_rows(self.reference[f"runs/{scenario.name}.decisions.csv"])
            rows_by_camera[camera["camera_id"]] = rows
            labels = checks.read_labels(self.out / "scenarios" / f"{scenario.name}.labels.csv")
            counted = checks.recount(rows, labels)
            evaluation = next(e for e in result.evaluations if e.scenario == scenario.name)
            require(counted == (evaluation.tp, evaluation.fp, evaluation.fn),
                    f"{scenario.name}: recount {counted} vs report "
                    f"{(evaluation.tp, evaluation.fp, evaluation.fn)}")
            totals = [a + b for a, b in zip(totals, counted)]
        self.ran("evaluation-recount")
        tp, fp, fn = totals
        require(tp == 4 and fn == 0 and fp <= 1, f"suite tp={tp} fp={fp} fn={fn}, want 4/<=1/0")
        self.ran("planted-labels")
        self.alarms = sum(checks.check_alarm_flags(rows) for rows in rows_by_camera.values())
        self.ran("alarm-flags")
        self.decisions = sum(len(rows) for rows in rows_by_camera.values())
        self.oracle(_objects(self.clock.captured, rows_by_camera), cameras)
        self.wire_bytes = _wire_bytes(self.clock.captured)
        self.clock.captured = []
        self.counts = {"tp": tp, "fp": fp, "fn": fn}

    def _outputs(self) -> dict[str, bytes]:
        files = sorted((self.out / "runs").glob("*.decisions.csv")) + [self.out / "report.csv"]
        return {p.relative_to(self.out).as_posix(): p.read_bytes() for p in files}

    def run_pass(self) -> PassResult:
        started = perf_counter()
        self.harness.run_suite(self.out, threshold=checks.EVAL_THRESHOLD)
        wall = perf_counter() - started
        latencies = self.clock.take()
        require(self._outputs() == self.reference, "suite outputs differ from the first pass")
        self.ran("byte-identical-passes")
        return PassResult(frames=len(latencies), decisions=self.decisions, alarms=self.alarms,
                          wall_s=wall, wire_bytes=self.wire_bytes, latencies_s=latencies)

    def close(self) -> None:
        self.clock.uninstall()


class Crowd(Workload):
    """A dense crowd replayed in-process with ``replay_scenario``."""

    name = "crowd"

    def _scenario(self):
        from loiterwatch import harness

        # Looked up on each call, so the traced run sees the wrapped function.
        self.harness = harness
        params = CROWD_TINY if self.tiny else CROWD
        return harness.generate_scenario("crowd", self.work / "scenario", name="crowd",
                                         seed=self.seed, **params)

    def _reference(self):
        """In-process replay with capture on; checks the stream's decisions."""
        self.clock = FrameClock()
        self.clock.capture = True
        result = self.harness.replay_scenario(self.scenario)
        self.clock.capture = False
        self.frames = len(self.clock.take())
        self.reference = result.decision_log.as_bytes()
        rows = checks.decision_rows(self.reference)
        camera = checks.load_json(self.work / "scenario" / "crowd.scenario.json")["camera"]

        per_frame: dict[str, int] = {}
        for row in rows:
            per_frame[row["timestamp"]] = per_frame.get(row["timestamp"], 0) + 1
        detector = checks.detector_rows_per_frame(self.scenario.detections_path)
        require(bool(detector), "crowd stream has no detector frames")
        for stamp, expect in detector.items():
            require(per_frame.get(stamp, 0) == expect,
                    f"detector frame at {stamp}: {per_frame.get(stamp, 0)} scored, {expect} detected")
        self.ran("objects-per-detector-frame")
        tp, fp, fn = checks.recount(rows, checks.read_labels(self.scenario.labels_path))
        require(tp == 0 and fn == 0 and fp <= 1, f"crowd tp={tp} fp={fp} fn={fn}, want 0/<=1/0")
        self.ran("normal-labels")
        self.alarms = checks.check_alarm_flags(rows)
        self.ran("alarm-flags")
        self.decisions = len(rows)
        self.oracle(_objects(self.clock.captured, {camera["camera_id"]: rows}),
                    {camera["camera_id"]: camera})
        self.records = self.clock.captured
        self.clock.captured = []
        self.counts = {"fp": fp, "tracks_per_frame": round(self.decisions / self.frames, 4)}

    def prepare(self) -> None:
        self.scenario = self._scenario()
        self._reference()
        self.wire_bytes = _wire_bytes(self.records)

    def run_pass(self) -> PassResult:
        started = perf_counter()
        result = self.harness.replay_scenario(self.scenario)
        wall = perf_counter() - started
        latencies = self.clock.take()
        require(result.decision_log.as_bytes() == self.reference,
                "crowd decision log differs from the first replay")
        self.ran("byte-identical-passes")
        return PassResult(frames=len(latencies), decisions=self.decisions, alarms=self.alarms,
                          wall_s=wall, wire_bytes=self.wire_bytes, latencies_s=latencies)

    def close(self) -> None:
        self.clock.uninstall()


class Link(Crowd):
    """The crowd stream over loopback TCP: a paced phase, then a burst.

    This class drives the link itself: it waits for every frame's decisions
    up to a deadline and counts what did not arrive intact as failed,
    instead of the package's loopback replay, which gives up silently
    after 30 s.
    """

    name = "link"
    open_loop = True

    def prepare(self) -> None:
        from loiterwatch.harness import group_frames, load_track_dataset
        from loiterwatch.transport import TransportConfig, generate_keypair

        self.scenario = self._scenario()
        self._reference()
        self.clock.uninstall()
        self.rate = LINK_TINY_RATE if self.tiny else LINK_RATE
        # The edge sees every frame tick, empty ones included, like replay does.
        groups = {frame: rows for frame, _, rows in
                  group_frames(load_track_dataset(self.scenario.detections_path))}
        s = self.scenario
        self.ticks = [(frame, groups[frame][0].timestamp if frame in groups
                       else s.start_timestamp + frame / s.fps, groups.get(frame, []))
                      for frame in range(max(groups) + 1)]
        require(len(self.ticks) == self.frames, "link ticks differ from the replay's frames")
        private_pem, public_pem = generate_keypair()
        self.keys = {"private": private_pem, "public": public_pem}
        self.receiver_config = TransportConfig(mode=LINK_MODE, server_private_key_pem=private_pem)
        self.sender_config = TransportConfig(mode=LINK_MODE, server_public_key_pem=public_pem)
        self.link_us: list[int] = []

    def _phase(self, paced: bool) -> tuple[PassResult, list[float]]:
        from loiterwatch.context import AlarmPolicy, FogPipeline
        from loiterwatch.fuzzy import FuzzyEngine, default_config
        from loiterwatch.tracking import TrackFeatureExtractor
        from loiterwatch.transport import FeatureSender, FogReceiver

        camera = self.scenario.camera
        fog = FogPipeline(FuzzyEngine(default_config()), cameras={camera.camera_id: camera},
                          policy=AlarmPolicy())
        extractor = TrackFeatureExtractor()
        total = len(self.ticks)
        got: list[tuple[int, object, float]] = []
        done = threading.Event()

        def on_message(message):
            fog.process_record(message.camera_id, message.record)
            got.append((message.sequence, message.record, perf_counter()))
            if len(got) >= total:
                done.set()

        receiver = FogReceiver(self.receiver_config, on_message=on_message)
        receiver.start()
        sender = FeatureSender(replace(self.sender_config, port=receiver.port))
        sent: dict[int, tuple[object, float]] = {}
        late: list[float] = []
        try:
            sender.connect()
            started = perf_counter()
            for i, (frame, timestamp, rows) in enumerate(self.ticks):
                due = perf_counter()
                if paced:
                    due = started + 0.005 + i / self.rate
                    wait = due - perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    late.append(perf_counter() - due)
                record = extractor.process_frame(rows, frame, timestamp)
                sent[sender.send_record(record, camera.camera_id)] = (record, due)
            done.wait(DELIVERY_DEADLINE)
        finally:
            sender.close()
            receiver.stop()

        delivered = {seq: record for seq, record, _ in got}
        bad = {seq for seq, (record, _) in sent.items() if delivered.get(seq) != record}
        failed = len(bad) + receiver.duplicates
        self.ran("decoded-equals-sent")
        require(failed > 0 or (receiver.rejected == 0 and not receiver.gaps),
                "frames rejected or gapped although every frame arrived")
        if failed == 0:
            require(fog.decision_log.as_bytes() == self.reference,
                    "link decision log differs from the in-process replay")
            self.ran("byte-identical-to-in-process")
        samples = receiver.latency.samples
        self.link_us.extend(s[3] for s in samples)
        wall = (max(t for _, _, t in got) if got else perf_counter()) - started
        latencies = [t - sent[seq][1] for seq, _, t in got if seq in sent]
        result = PassResult(
            frames=total, decisions=self.decisions, alarms=self.alarms, wall_s=wall,
            wire_bytes=sum(s[2] for s in samples), latencies_s=latencies, failed=failed,
            extra={"rejected": receiver.rejected, "duplicates": receiver.duplicates,
                   "gaps": len(receiver.gaps), "undelivered": len(set(sent) - set(delivered))})
        return result, late

    def run_pass(self) -> PassResult:
        paced, late = self._phase(paced=True)
        burst, _ = self._phase(paced=False)
        burst.latencies_s = paced.latencies_s
        burst.attempted += paced.attempted
        burst.failed += paced.failed
        burst.extra = {k: paced.extra[k] + burst.extra[k] for k in burst.extra}
        burst.extra["late_s"] = late
        return burst


WORKLOADS = {w.name: w for w in (Suite, Crowd, Link)}
