from __future__ import annotations

import pytest

from loiterwatch.harness import evaluate_scenario, generate_scenario, replay_scenario
from loiterwatch.logs import DecisionLog
from loiterwatch.transport import TransportConfig


@pytest.fixture(scope="module")
def day_walk(tmp_path_factory):
    out = tmp_path_factory.mktemp("walk")
    return generate_scenario("straight-walk", out, seed=3)


@pytest.fixture(scope="module")
def night_loiter(tmp_path_factory):
    out = tmp_path_factory.mktemp("loiter")
    return generate_scenario("loiter", out, seed=3)


def test_day_walk_raises_no_alarms(day_walk):
    result = replay_scenario(day_walk)
    assert result.stats.decisions > 0
    assert all(not alarm for _, _, _, alarm in result.timeline)
    assert max(score for _, _, score, _ in result.timeline) < 60.0


def test_night_loiter_trips_the_alarm(night_loiter):
    result = replay_scenario(night_loiter)
    alarms = [row for row in result.timeline if row[3]]
    assert alarms
    evaluation = evaluate_scenario(night_loiter, result.timeline, threshold=60.0)
    assert (evaluation.tp, evaluation.fn) == (1, 0)


def test_alarm_flags_agree_with_logged_thresholds(night_loiter, tmp_path):
    result = replay_scenario(night_loiter, out_dir=tmp_path)
    lines = result.decisions_path.read_text().splitlines()
    assert lines[0] == "timestamp,camera_id,track_id,score,threshold,alarm,status"
    for line in lines[1:]:
        _, _, _, score, threshold, alarm, status = line.split(",")
        expected = status == "ok" and float(score) >= float(threshold)
        assert (alarm == "1") == expected


def test_written_timeline_round_trips(night_loiter, tmp_path):
    result = replay_scenario(night_loiter, out_dir=tmp_path)
    name = night_loiter.name
    assert result.decisions_path == tmp_path / f"{name}.decisions.csv"
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{name}.decisions.csv"]
    loaded = DecisionLog.read(result.decisions_path)
    assert loaded.as_bytes() == result.decision_log.as_bytes()
    assert loaded.timeline == result.timeline
    assert result.timeline


def test_replay_is_deterministic(night_loiter):
    first = replay_scenario(night_loiter)
    second = replay_scenario(night_loiter)
    assert first.timeline == second.timeline
    assert first.decision_log.as_bytes() == second.decision_log.as_bytes()


@pytest.mark.parametrize("mode", ["plaintext", "symmetric"])
def test_loopback_matches_in_process(night_loiter, mode):
    import secrets

    direct = replay_scenario(night_loiter)
    config = TransportConfig(mode=mode, psk_hex=secrets.token_hex(32))
    routed = replay_scenario(night_loiter, transport=config)
    assert routed.timeline == direct.timeline
    assert routed.decision_log.as_bytes() == direct.decision_log.as_bytes()


def test_occlusion_dropout_stays_quiet(tmp_path):
    scenario = generate_scenario("occlusion-dropout", tmp_path, seed=3)
    result = replay_scenario(scenario)
    evaluation = evaluate_scenario(scenario, result.timeline, threshold=60.0)
    assert (evaluation.events, evaluation.tp, evaluation.fp, evaluation.fn) == (0, 0, 0, 0)


def test_stats_track_decision_cost(day_walk):
    result = replay_scenario(day_walk)
    assert result.stats.decisions == len(result.timeline)
    assert result.stats.wall_s > 0.0
    assert 0.0 < result.stats.mean_decide_ms < 100.0


def test_loopback_replay_raises_when_a_frame_is_lost(night_loiter, monkeypatch):
    import re
    import secrets
    import time

    from loiterwatch.transport.session import SymmetricSession

    original_seal = SymmetricSession.seal
    tampered = []

    def corrupt_once(self, header, payload):
        body = original_seal(self, header, payload)
        if not tampered:
            tampered.append(True)
            body = bytes([body[0] ^ 0x01]) + body[1:]
        return body

    monkeypatch.setattr(SymmetricSession, "seal", corrupt_once)
    config = TransportConfig(mode="symmetric", psk_hex=secrets.token_hex(32))
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="loopback replay incomplete") as excinfo:
        replay_scenario(night_loiter, transport=config)
    assert time.monotonic() - started < 10.0
    counts = re.search(r"sent (\d+), delivered (\d+), rejected 1, duplicates 0, "
                       r"gaps \d+$", str(excinfo.value))
    assert counts, str(excinfo.value)
    assert int(counts[2]) == int(counts[1]) - 1


def test_loopback_replay_names_records_left_unsent(night_loiter, monkeypatch):
    import re
    import time

    import loiterwatch.transport as transport_module
    from loiterwatch.transport import FeatureSender, FogReceiver

    receivers = []
    stop_after = 20

    class Receiver(FogReceiver):
        def start(self):
            super().start()
            receivers.append(self)

    class Sender(FeatureSender):
        def send_record(self, record, camera_id):
            seq = super().send_record(record, camera_id)
            if seq == stop_after:
                # Stop the receiver once it holds the first records, so
                # every later record stays with the sender.
                assert self.flush() == 0
                deadline = time.monotonic() + 5.0
                while (len(receivers[0].latency.samples) < stop_after
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                receivers[0].stop()
            return seq

    # Loopback replay imports these from the package when it runs.
    monkeypatch.setattr(transport_module, "FogReceiver", Receiver)
    monkeypatch.setattr(transport_module, "FeatureSender", Sender)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="loopback replay incomplete") as excinfo:
        replay_scenario(night_loiter, transport=TransportConfig(mode="plaintext"))
    assert time.monotonic() - started < 10.0
    counts = re.search(r"(\d+) never left the sender: sent (\d+), delivered (\d+), "
                       r"rejected 0, duplicates 0, gaps 0$", str(excinfo.value))
    assert counts, str(excinfo.value)
    unsent, sent, delivered = map(int, counts.groups())
    assert delivered == stop_after
    assert unsent == sent - stop_after > 0


def test_failed_handshake_leaves_no_receiver_running(night_loiter):
    import threading

    from loiterwatch.transport import FrameRejected, generate_keypair

    private, _ = generate_keypair()
    _, other_public = generate_keypair()
    config = TransportConfig(mode="handshake-then-symmetric", server_private_key_pem=private,
                             server_public_key_pem=other_public)
    before = threading.active_count()
    with pytest.raises(FrameRejected):
        replay_scenario(night_loiter, transport=config)
    assert threading.active_count() == before
