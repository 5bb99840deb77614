"""Pin the suite's outputs and a dense crowd's decision log across commits.

The digests below were recorded from ``run_suite(out, threshold=60.0)`` and
from an in-process replay of a seeded 30-person crowd, with the shipped
fuzzy config and policy; the suite's and first three crowds' digests
predate the closed-form centroid and held across it. The suite scores about 1.6 objects per record; the crowd, about
9, exercises the fog node's per-record loop. Two more streams run on the
hour's ramps (a crowd at 06:00, two people at 17:00), where every record
brings new shared degrees and so new keys for the fog's score memo. Two
more replay the crowd on cameras whose threshold is not 60: security level
2 (threshold 50, where an envelope symmetric about 50 scores within a few
ulps of it, below or above) and outdoor after hours (threshold 55). A
change that keeps decisions byte-identical keeps this test green; a change that moves any score, alarm
or count fails it and must re-record the digests together with an
explanation of why the outputs moved.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from loiterwatch.context import CameraContext
from loiterwatch.harness import generate_scenario, replay_scenario, run_suite

SUITE_DIGESTS = {
    "runs/crowd-1300.decisions.csv":
        "bf65d5f3179d743830916f4545036bd521c60f961b94b8f6139923bc35673e11",
    "runs/loiter-0100.decisions.csv":
        "e8ad9a15c1773495e4c63ef1457a88a3a785311b2336b92247512a32b9c9dcf1",
    "runs/loiter-0300.decisions.csv":
        "7abfc9907582a00e0d56c5cb4aa4ee7f762dc18c1a54f34547f3a54f49d92c43",
    "runs/loiter-1100.decisions.csv":
        "16969a5376c1640bb88b27e9cb8bd06783d92b586f8a7c8d13c8e30213e76ec0",
    "runs/loiter-1930.decisions.csv":
        "cdf0c90cde4569be9ef8bc78e1c294eba728813b3fd8d9f1a982b0f76af9a97c",
    "runs/night-walk-0300.decisions.csv":
        "2d48e4c48776ebee4ce4d632ee4759f753a6888c5b257a5300ac486df52dd51a",
    "runs/night-walk-2330.decisions.csv":
        "bf15a2c45015ce9435e68476bfd90e82d4c4d93c4d15ba39dc9ec331e153957a",
    "runs/occlusion-1000.decisions.csv":
        "0658abb691b6ae21c10080dd7b8a39fbe379c60357387bd8d535cf147b18421c",
    "runs/occlusion-1500.decisions.csv":
        "f87c3fe0952c777aba93ab9f976010af7f54fb005d7bd75f9fea1af713eb94e0",
    "runs/walk-0900.decisions.csv":
        "6c5d3ebba1180b5726287124342452dca1635d86ba7064b8c8d9ff2c60bf484b",
    "runs/walk-1100.decisions.csv":
        "ca69e29320f67d75aca0b1c66cd81ac140691a74aece69d7204965b719c28686",
    "runs/walk-1400.decisions.csv":
        "400d4a55f6f3eab4c7c9886ce6f2c5a7be77eadf8a9a6d05a967868c89e33927",
    "report.csv":
        "92a972a6561234505b5b1bf9f66ae28c3a7e3592b31e3491b5d34c4efcd1cc91",
    "summary.txt":
        "9aea93a2dded7eba4958cb755f2154f528e8f35a70c43f0671226f189396e542",
}

CROWD_ROWS = 3896
CROWD_DIGEST = "d0fc9c7a06b8d142eacf40ef5e5e1a08a4c51a3905b9e124f7f521a74c2b3409"

# Streams on the hour's ramps, where the hour's degrees, and so every
# record's shared degrees, change at every record: (people, hour) ->
# (rows, sha256 of the decision log).
RAMP_DIGESTS = {
    (30, 6): (3896, "4ca09a6fafc7f45ad263d131db83ab5ea09af82898a655ffb06face5125e8998"),
    (2, 17): (256, "2e8c4449b1fad920a0050d234dc207a5b1f78134bef7cecacf51c15bc1f0c130"),
}


def test_suite_outputs_match_recorded_digests(tmp_path):
    run_suite(tmp_path, threshold=60.0)
    outputs = sorted(p.relative_to(tmp_path).as_posix()
                     for p in (tmp_path / "runs").iterdir())
    assert outputs == sorted(k for k in SUITE_DIGESTS if k.startswith("runs/"))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in SUITE_DIGESTS}
    assert got == SUITE_DIGESTS


def test_crowd_decision_log_matches_recorded_digest(tmp_path):
    scenario = generate_scenario("crowd", tmp_path, seed=1, people=30,
                                 duration=120, jitter=2.0, hour=13)
    log = replay_scenario(scenario).decision_log
    assert len(log.rows) == CROWD_ROWS
    assert hashlib.sha256(log.as_bytes()).hexdigest() == CROWD_DIGEST


@pytest.mark.parametrize("people,hour", sorted(RAMP_DIGESTS), ids=["crowd-0600", "pair-1700"])
def test_ramp_hour_decision_logs_match_recorded_digests(tmp_path, people, hour):
    scenario = generate_scenario("crowd", tmp_path, seed=1, people=people,
                                 duration=120, jitter=2.0, hour=hour)
    log = replay_scenario(scenario).decision_log
    rows, digest = RAMP_DIGESTS[(people, hour)]
    assert len(log.rows) == rows
    assert hashlib.sha256(log.as_bytes()).hexdigest() == digest


# The 30-person crowd on other cameras: name -> (camera settings, hour,
# rows, sha256 of the decision log).
CAMERA_DIGESTS = {
    "level-2-2200": ({"security_level": 2}, 22, 3896,
                     "19b6868c3a5112a53d0c8676a062593559b6011cba6ec74e720703604fa08bdc"),
    "outdoor-0200": ({"placement": "outdoor"}, 2, 3896,
                     "71085517778bb6612371cc2ae869b1a1a6d866bd2be27fd1d8e3d317637c8d2d"),
}


@pytest.mark.parametrize("name", sorted(CAMERA_DIGESTS))
def test_other_camera_decision_logs_match_recorded_digests(tmp_path, name):
    camera, hour, rows, digest = CAMERA_DIGESTS[name]
    scenario = generate_scenario("crowd", tmp_path, seed=1, people=30,
                                 duration=120, jitter=2.0, hour=hour)
    scenario = dataclasses.replace(scenario, camera=CameraContext(
        camera_id=scenario.camera.camera_id, **camera))
    log = replay_scenario(scenario).decision_log
    assert len(log.rows) == rows
    assert hashlib.sha256(log.as_bytes()).hexdigest() == digest
