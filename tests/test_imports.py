"""What each side of the pipeline imports, and the packages' lazy exports.

numpy is a test dependency: no command or side of the pipeline loads it.
The edge (tracker, transport, stream loader) runs without the fuzzy
engine, and the in-process fog and in-process replay without the
transport or cryptography. Each footprint is checked in a fresh
interpreter, since the test process has loaded everything already.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import loiterwatch

SRC = Path(loiterwatch.__file__).resolve().parents[1]
PACKAGES = ("loiterwatch", "loiterwatch.fuzzy", "loiterwatch.harness")


def loaded_after(script: str, watched: tuple[str, ...]) -> set[str]:
    """The watched modules a fresh interpreter holds after running script."""
    probe = textwrap.dedent(script) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([m for m in {watched!r} if m in sys.modules]))
    """)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env=env, cwd=SRC)
    assert done.returncode == 0, done.stderr[-2000:]
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def test_edge_extracts_and_encodes_without_numpy(tmp_path):
    stream = tmp_path / "stream.csv"
    stream.write_text("frame,timestamp,track_hint,x,y,w,h,source\n"
                      "0,0.0,1,100.0,200.0,40.0,100.0,detector\n"
                      "1,0.2,1,102.0,200.0,40.0,100.0,detector\n")
    loaded = loaded_after(f"""
        from loiterwatch.harness.dataset import group_frames, load_track_dataset
        from loiterwatch.tracking import TrackFeatureExtractor
        from loiterwatch.transport import decode_record, encode_record

        extractor = TrackFeatureExtractor()
        for frame, ts, rows in group_frames(load_track_dataset({str(stream)!r})):
            record = extractor.process_frame(rows, frame, ts)
        assert record.objects
        assert decode_record(encode_record(record, "cam-1")) == ("cam-1", record)
    """, ("numpy", "loiterwatch.fuzzy", "cryptography"))
    assert loaded == {"cryptography"}


def test_in_process_fog_scores_without_transport():
    loaded = loaded_after("""
        import loiterwatch
        from loiterwatch.fuzzy import default_config

        camera = loiterwatch.CameraContext(camera_id="cam-1")
        engine = loiterwatch.FuzzyEngine(default_config())
        pipeline = loiterwatch.FogPipeline(engine, cameras={"cam-1": camera})
        record = loiterwatch.FeatureRecord(
            frame_index=0, timestamp=3600.0 * 3, people_count=1,
            objects=(loiterwatch.ObjectFeatures(7, 40.0, 0, 0),))
        pipeline.process_record("cam-1", record)
        [row] = pipeline.decision_log.rows
        assert row[5:] == ["1", "ok"], row
    """, ("numpy", "cryptography", "loiterwatch.transport", "loiterwatch.fuzzy.validation"))
    assert loaded == set()


def test_fog_set_up_and_replay_load_no_numpy(tmp_path):
    """The set-up a fresh fog node runs (package, config, engine,
    pipeline), then a whole in-process replay."""
    loaded = loaded_after(f"""
        from pathlib import Path
        import loiterwatch
        from loiterwatch.fuzzy import default_config

        camera = loiterwatch.CameraContext(camera_id="cam-probe")
        loiterwatch.FogPipeline(loiterwatch.FuzzyEngine(default_config()),
                                cameras={{camera.camera_id: camera}})
        from loiterwatch.harness import generate_scenario, replay_scenario

        out = Path({str(tmp_path)!r})
        scenario = generate_scenario("crowd", out / "scen", seed=1, people=6, duration=20)
        result = replay_scenario(scenario)
        assert result.stats.decisions, result.stats
    """, ("numpy",))
    assert loaded == set()


def test_in_process_replay_loads_no_transport(tmp_path):
    loaded = loaded_after(f"""
        from pathlib import Path
        from loiterwatch.harness import generate_scenario, replay_scenario

        out = Path({str(tmp_path)!r})
        scenario = generate_scenario("loiter", out / "scen", seed=3, duration=20)
        result = replay_scenario(scenario, out_dir=out / "runs")
        assert result.stats.decisions and result.decisions_path.exists()
    """, ("cryptography", "loiterwatch.transport"))
    assert loaded == set()


def test_cli_help_loads_neither_numpy_nor_cryptography():
    loaded = loaded_after("""
        from loiterwatch.cli import main

        for command in ([], ["replay"], ["suite"], ["evaluate"], ["validate-config"]):
            try:
                main([*command, "--help"])
            except SystemExit as exc:
                assert exc.code == 0, command
    """, ("numpy", "cryptography"))
    assert loaded == set()


def test_every_command_runs_where_numpy_cannot_load(tmp_path):
    """numpy is a test dependency only: each command, on small inputs, in an
    interpreter where importing numpy fails."""
    loaded_after(f"""
        import sys
        sys.modules["numpy"] = None  # makes every import of numpy fail
        from pathlib import Path
        from loiterwatch.cli import main

        out = Path({str(tmp_path)!r})
        scenario = str(out / "scen" / "l1.scenario.json")
        verdict = str(out / "eval" / "l1.json")
        for command in (
                ["generate", "--kind", "loiter", "--out", str(out / "scen"), "--name", "l1",
                 "--seed", "3", "--duration", "20"],
                ["replay", scenario, "--out", str(out / "runs")],
                ["replay", scenario, "--out", str(out / "link"), "--transport", "loopback",
                 "--mode", "handshake-then-symmetric"],
                ["evaluate", scenario, str(out / "runs" / "l1.decisions.csv"), "--out", verdict],
                ["report", verdict, "--out", str(out / "report")],
                ["validate-config"],
                ["suite", "--out", str(out / "suite")]):
            try:
                main(command)
            except SystemExit as exc:
                assert exc.code == 0, (command, exc.code)
    """, ())


def home_bindings(package: str, name: str) -> list[object]:
    """What every module under the package binds to ``name`` in its own
    namespace (a lazy package binds none)."""
    root = importlib.import_module(package)
    found = []
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        namespace = vars(importlib.import_module(info.name))
        if name in namespace:
            found.append(namespace[name])
    return found


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_resolve_to_their_home_objects(package):
    module = importlib.import_module(package)
    assert module.__all__ == sorted(set(module.__all__))
    for name in module.__all__:
        homes = home_bindings(package, name)
        assert homes, f"{package}.{name} is defined nowhere below {package}"
        assert all(getattr(module, name) is home for home in homes), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_and_dir_list_every_export(package):
    module = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_export_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        module.no_such_export  # noqa: B018
    assert not hasattr(module, "no_such_export")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_export", {})
