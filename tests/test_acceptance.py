"""Acceptance checks for the whole pipeline.

Each test covers one operating requirement and prints a single PASS/FAIL
line with the measured numbers, so a plain pytest run doubles as the
acceptance report. Tolerances are pinned in the assertions, not derived
from the implementation under test.
"""

from __future__ import annotations

import random
import secrets
import time
from dataclasses import replace

import pytest

from oracles import centroid_of_activations, fuzzify as oracle_fuzzify
from test_tracking import (PARAMS, count_changes_oracle, drive_track, jittered,
                           path_constant, path_reverse, path_stop, path_zigzag)

from loiterwatch.context import CameraContext, FogPipeline
from loiterwatch.fuzzy import (FuzzyEngine, config_to_dict, default_config,
                               validate_config)
from loiterwatch.harness import generate_scenario, replay_scenario, run_suite
from loiterwatch.tracking import FeatureRecord, ObjectFeatures
from loiterwatch.transport import (FeatureSender, FogReceiver, TransportConfig,
                                   generate_keypair, measure_latency)

MODES = ("plaintext", "symmetric", "handshake-then-symmetric")


def report(capsys, ok: bool, line: str) -> None:
    with capsys.disabled():
        print(f"\n  [{'PASS' if ok else 'FAIL'}] {line}", flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair()


def transport_config(mode: str, keypair) -> TransportConfig:
    private_pem, public_pem = keypair
    return TransportConfig(mode=mode, psk_hex=secrets.token_hex(32),
                           server_private_key_pem=private_pem,
                           server_public_key_pem=public_pem)


def synthetic_records(count: int, objects_low: int, objects_high: int,
                      seed: int = 5) -> list[FeatureRecord]:
    """Deterministic feature records with a bounded object count range."""
    rng = random.Random(seed)
    records = []
    for i in range(count):
        n = rng.randint(objects_low, objects_high)
        objects = tuple(
            ObjectFeatures(
                track_id=k + 1,
                dwell_time=round(rng.uniform(0.0, 30.0), 3),
                speed_change_count=rng.randrange(0, 10),
                direction_change_count=rng.randrange(0, 10),
            )
            for k in range(n)
        )
        records.append(FeatureRecord(
            frame_index=i, timestamp=round(i * 0.2, 3),
            people_count=n, objects=objects,
        ))
    return records


def test_decision_latency_budget(capsys):
    """Each record's time through ``FogPipeline.process_record`` counts as
    the latency of every decision in it."""
    rng = random.Random(9)
    records = [
        FeatureRecord(
            frame_index=i, timestamp=3600.0 * rng.uniform(0.0, 24.0),
            people_count=rng.randrange(2, 15),
            objects=tuple(ObjectFeatures(
                track_id=k + 1, dwell_time=rng.uniform(0.0, 30.0),
                speed_change_count=rng.randrange(0, 12),
                direction_change_count=rng.randrange(0, 12)) for k in range(2)))
        for i in range(10_000)]
    camera = CameraContext(camera_id="bench")
    pipeline = FogPipeline(FuzzyEngine(default_config()), {camera.camera_id: camera})

    timings = []
    for record in records:
        t0 = time.perf_counter()
        pipeline.process_record(camera.camera_id, record)
        timings.append(time.perf_counter() - t0)
    decisions = len(pipeline.decision_log.rows)
    timings.sort()
    n = len(timings)
    mean_ms = 1000.0 * sum(timings) / n
    p95_ms = 1000.0 * timings[min(n - 1, int(0.95 * (n - 1) + 0.5))]
    ok = decisions >= 20_000 and mean_ms <= 2.0 and p95_ms <= 5.0
    report(capsys, ok,
           f"decision latency: {decisions} decisions in {n} records, "
           f"per record mean {mean_ms:.3f} ms (limit 2), "
           f"p95 {p95_ms:.3f} ms (limit 5)")


def test_people_count_fuzzification_anchor(capsys):
    degrees = default_config().variable("people-count").fuzzify(5.0).degrees
    medium, high = degrees["medium-activity"], degrees["high-activity"]
    ok = abs(medium - 1.00) <= 0.01 and abs(high - 0.27) <= 0.02
    report(capsys, ok,
           f"people-count at 5: medium {medium:.3f} (want 1.00 +- 0.01), "
           f"high {high:.3f} (want 0.27 +- 0.02)")


def test_membership_coverage_floor(capsys):
    config = default_config()
    validation = validate_config(config, samples=10_000)

    worst = 1.0
    for var_dict in config_to_dict(config)["variables"]:
        lo, hi = var_dict["domain"]
        for i in range(10_000):
            x = lo + (hi - lo) * i / 9_999
            worst = min(worst, max(oracle_fuzzify(var_dict, x).values()))
    ok = validation.ok and worst >= 0.5
    report(capsys, ok,
           f"coverage: validate_config {'ok' if validation.ok else 'FAILED'}, "
           f"worst max-membership {worst:.3f} (floor 0.5) "
           f"over {len(config.variables)} variables x 10000 points")


def test_centroid_against_brute_force(capsys, config, engine):
    labels = config.output_variable.labels()
    config_dict = config_to_dict(config)
    rng = random.Random(2026)
    worst = 0.0
    for _ in range(100):
        weights = {lab: rng.random() if rng.random() < 0.85 else 0.0
                   for lab in labels}
        got = engine.centroid(weights).value
        want = centroid_of_activations(config_dict, weights,
                                       10 * config.grid_resolution)
        worst = max(worst, abs(got - want))
    ok = worst <= 0.1
    report(capsys, ok,
           f"centroid vs 10x brute force: worst |diff| {worst:.4f} "
           f"over 100 random activation vectors (limit 0.1)")


def test_day_walk_versus_night_loiter(capsys, tmp_path):
    day = generate_scenario("straight-walk", tmp_path, name="day-walk", seed=11)
    night = generate_scenario("loiter", tmp_path, name="night-loiter", seed=11)
    day_scores = [s for _, _, s, _ in replay_scenario(day).timeline]
    night_scores = [s for _, _, s, _ in replay_scenario(night).timeline]

    start_ordered = night_scores[0] > day_scores[0]
    matched = list(zip(day_scores, night_scores))
    pointwise = all(n >= d - 1e-9 for d, n in matched)
    day_alarms = sum(s >= 60.0 for s in day_scores)
    night_alarms = sum(s >= 60.0 for s in night_scores)
    ok = (start_ordered and pointwise
          and day_alarms == 0 and night_alarms >= 1)
    report(capsys, ok,
           f"11:00 walk vs 03:00 loiter: dwell=0 scores {day_scores[0]:.1f} < "
           f"{night_scores[0]:.1f}, pointwise>= holds at {len(matched)} matched "
           f"samples, alarms at threshold 60: day {day_alarms}, night {night_alarms}")


def test_planted_loitering_suite(capsys, tmp_path):
    result = run_suite(tmp_path / "suite", threshold=60.0)
    ok = result.tp == 4 and result.fn == 0 and result.fp <= 1
    report(capsys, ok,
           f"12-scenario suite at threshold 60: tp {result.tp} (want 4), "
           f"fn {result.fn} (want 0), fp {result.fp} (limit 1)")


def test_track_feature_counts_match_oracle(capsys):
    paths = {"constant": path_constant(), "reverse": path_reverse(),
             "stop": path_stop(), "zigzag": path_zigzag()}
    clean = {}
    exact = True
    for name, samples in paths.items():
        clean[name] = drive_track(samples, PARAMS)
        exact = exact and clean[name] == count_changes_oracle(samples, PARAMS)
    stable = all(
        drive_track(jittered(samples, amplitude=0.1, seed=seed), PARAMS) == clean[name]
        for name, samples in paths.items() for seed in (7, 21, 99))
    counts = ", ".join(f"{name} {c}" for name, c in clean.items())
    report(capsys, exact and stable,
           f"track features: counts == oracle {'exactly' if exact else 'MISMATCH'} "
           f"({counts}); sub-floor jitter {'unchanged' if stable else 'CHANGED'} "
           f"across 3 seeds")


def _stream_with_one_tampered_frame(config: TransportConfig,
                                    records) -> tuple[int, int]:
    """(rejected, delivered) after flipping one bit of the first sealed body."""
    receiver = FogReceiver(config)
    receiver.start()
    sender = FeatureSender(replace(config, port=receiver.port))
    sender.connect()
    try:
        session = sender._session
        original_seal = session.seal
        tampered = []

        def corrupt_once(header, payload):
            body = original_seal(header, payload)
            if not tampered:
                tampered.append(True)
                body = bytes([body[0] ^ 0x01]) + body[1:]
            return body

        session.seal = corrupt_once
        for record in records:
            sender.send_record(record, "acceptance")
        sender.flush()
        deadline = time.monotonic() + 10.0
        while (receiver.message_count < len(records) - 1
               and time.monotonic() < deadline):
            time.sleep(0.005)
    finally:
        sender.close()
        receiver.stop()
    return receiver.rejected, receiver.message_count


def test_transport_fidelity_latency_and_tampering(capsys, keypair):
    intact = {}
    ordered = {}
    small_sent, large_sent = synthetic_records(1000, 0, 2), synthetic_records(1000, 6, 10)
    for mode in MODES:
        small, small_got = measure_latency(transport_config(mode, keypair), small_sent)
        large, large_got = measure_latency(transport_config(mode, keypair), large_sent)
        intact[mode] = (small_got == small_sent and large_got == large_sent
                        and len(small.samples) == 1000)
        ordered[mode] = small.mean_us <= large.mean_us

    rejections = {}
    for mode in ("symmetric", "handshake-then-symmetric"):
        rejected, delivered = _stream_with_one_tampered_frame(
            transport_config(mode, keypair), synthetic_records(20, 1, 2, seed=3))
        rejections[mode] = rejected == 1 and delivered == 19

    ok = all(intact.values()) and all(ordered.values()) and all(rejections.values())
    report(capsys, ok,
           f"transport: 1000-record loopback bit-identical in "
           f"{sum(intact.values())}/3 modes, small<=large mean latency in "
           f"{sum(ordered.values())}/3 modes, tampered frame rejected in "
           f"{sum(rejections.values())}/2 encrypted modes")


def test_full_suite_determinism(capsys, tmp_path):
    first = run_suite(tmp_path / "one", threshold=60.0)
    second = run_suite(tmp_path / "two", threshold=60.0)

    names = sorted(p.name for p in (tmp_path / "one" / "runs").iterdir())
    identical = bool(names)
    for name in names:
        identical = identical and (
            (tmp_path / "one" / "runs" / name).read_bytes()
            == (tmp_path / "two" / "runs" / name).read_bytes())
    for name in ("report.csv", "summary.txt"):
        identical = identical and (
            (tmp_path / "one" / name).read_bytes()
            == (tmp_path / "two" / name).read_bytes())
    ok = identical and first.tp == second.tp
    report(capsys, ok,
           f"determinism: two suite runs, {len(names)} per-scenario logs plus "
           f"report.csv and summary.txt {'byte-identical' if identical else 'DIFFER'}")
