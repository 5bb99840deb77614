from __future__ import annotations

import json
import re

import pytest
from click.testing import CliRunner

from loiterwatch.cli import main
from loiterwatch.fuzzy import config_to_dict, default_config


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(runner, tmp_path_factory):
    """One generated-and-replayed loiter scenario shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    result = runner.invoke(main, ["generate", "--kind", "loiter",
                                  "--out", str(root / "scen"),
                                  "--name", "l1", "--seed", "3"])
    assert result.exit_code == 0, result.output
    descriptor = root / "scen" / "l1.scenario.json"
    result = runner.invoke(main, ["replay", str(descriptor),
                                  "--out", str(root / "runs")])
    assert result.exit_code == 0, result.output
    return root


def test_generate_reports_the_stream_path(runner, tmp_path):
    result = runner.invoke(main, ["generate", "--kind", "straight-walk",
                                  "--out", str(tmp_path), "--name", "w1"])
    assert result.exit_code == 0
    assert result.output.startswith("generated w1: ")
    assert (tmp_path / "w1.detections.csv").exists()
    assert (tmp_path / "w1.labels.csv").exists()
    assert (tmp_path / "w1.scenario.json").exists()


def test_generate_rejects_unknown_kind(runner, tmp_path):
    result = runner.invoke(main, ["generate", "--kind", "teleport",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_replay_summarizes_the_run(runner, workspace):
    descriptor = workspace / "scen" / "l1.scenario.json"
    result = runner.invoke(main, ["replay", str(descriptor),
                                  "--out", str(workspace / "runs2")])
    assert result.exit_code == 0
    assert re.fullmatch(
        r"replayed l1: \d+ decisions, [1-9]\d* alarm rows -> .*l1\.timeline\.csv\n",
        result.output)
    assert (workspace / "runs2" / "l1.timeline.csv").exists()
    assert (workspace / "runs2" / "l1.decisions.csv").exists()


def test_replay_over_loopback_transport(runner, workspace):
    descriptor = workspace / "scen" / "l1.scenario.json"
    result = runner.invoke(main, ["replay", str(descriptor),
                                  "--out", str(workspace / "runs3"),
                                  "--transport", "loopback",
                                  "--mode", "symmetric"])
    assert result.exit_code == 0
    direct = (workspace / "runs" / "l1.decisions.csv").read_bytes()
    routed = (workspace / "runs3" / "l1.decisions.csv").read_bytes()
    assert routed == direct


def test_evaluate_prints_counts_and_writes_json(runner, workspace, tmp_path):
    descriptor = workspace / "scen" / "l1.scenario.json"
    timeline = workspace / "runs" / "l1.timeline.csv"
    out = tmp_path / "evals" / "eval.json"  # parent dir is created on demand
    result = runner.invoke(main, ["evaluate", str(descriptor), str(timeline),
                                  "--out", str(out)])
    assert result.exit_code == 0
    assert result.output == "l1: events=1 tp=1 fp=0 fn=0\n"
    data = json.loads(out.read_text())
    assert set(data) == {"scenario", "kind", "events", "tp", "fp", "fn",
                         "decisions", "mean_decide_ms", "wall_s"}
    assert (data["scenario"], data["tp"]) == ("l1", 1)


def test_evaluate_rejects_garbage_timeline(runner, workspace, tmp_path):
    descriptor = workspace / "scen" / "l1.scenario.json"
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,track_id,score,alarm\nnot,numbers,at,all\n")
    result = runner.invoke(main, ["evaluate", str(descriptor), str(bad)])
    assert result.exit_code == 1
    assert result.stderr.startswith("evaluate: ")


def test_report_aggregates_eval_files(runner, workspace, tmp_path):
    descriptor = workspace / "scen" / "l1.scenario.json"
    timeline = workspace / "runs" / "l1.timeline.csv"
    evals = []
    for i, threshold in enumerate((60.0, 90.0)):
        out = tmp_path / f"e{i}.json"
        runner.invoke(main, ["evaluate", str(descriptor), str(timeline),
                             "--threshold", str(threshold), "--out", str(out)])
        evals.append(str(out))
    result = runner.invoke(main, ["report", *evals,
                                  "--out", str(tmp_path / "rep")])
    assert result.exit_code == 0
    assert result.output == f"wrote {tmp_path / 'rep' / 'report.csv'}\n"
    lines = (tmp_path / "rep" / "report.csv").read_text().splitlines()
    assert lines[0] == "scenario,kind,events,tp,fp,fn"
    assert lines[-1].startswith("total,-,2,")
    assert (tmp_path / "rep" / "summary.txt").exists()


def test_validate_config_accepts_the_default(runner):
    result = runner.invoke(main, ["validate-config"])
    assert result.exit_code == 0
    assert re.fullmatch(
        r"ok: \d+ variables, \d+ rules, coverage checked at \d+ points per variable\n",
        result.output)


def test_validate_config_flags_dangling_rule(runner, tmp_path):
    data = config_to_dict(default_config())
    data["rules"][0]["consequent"] = "no-such-label"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["validate-config", str(path)])
    assert result.exit_code == 1
    assert "rule-reference" in result.stderr


def test_validate_config_rejects_malformed_json(runner, tmp_path):
    path = tmp_path / "nope.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["validate-config", str(path)])
    assert result.exit_code == 1
    assert result.stderr.startswith("validate-config: ")


def test_bench_decision_reports_timing(runner):
    result = runner.invoke(main, ["bench-decision", "--records", "200"])
    assert result.exit_code == 0
    assert result.output.startswith("decisions=400 mean=")
    assert "p95=" in result.output and "alarms=" in result.output


def test_bench_transport_single_mode(runner, tmp_path):
    result = runner.invoke(main, ["bench-transport", "--records", "30",
                                  "--mode", "plaintext",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert result.output.startswith("plaintext: n=30 mean=")
    assert "payloads-intact=True" in result.output
    csv = (tmp_path / "latency-plaintext.csv").read_text().splitlines()
    assert csv[0] == "sequence,mode,bytes,latency_us"
    assert len(csv) == 31


def test_suite_command_runs_everything(runner, tmp_path):
    result = runner.invoke(main, ["suite", "--out", str(tmp_path / "s")])
    assert result.exit_code == 0
    assert result.output.startswith("suite: tp=4 fp=0 fn=0 -> ")
    for name in ("report.csv", "summary.txt", "runtime.csv"):
        assert (tmp_path / "s" / name).exists()


@pytest.mark.parametrize("file_mode,flag,expected", [
    ("symmetric", None, "symmetric"),
    ("symmetric", "plaintext", "plaintext"),
    (None, None, "plaintext"),
])
def test_replay_mode_from_flag_then_transport_config(runner, workspace, tmp_path,
                                                      monkeypatch, file_mode,
                                                      flag, expected):
    import loiterwatch.cli as cli

    modes = []
    real_replay = cli.replay_scenario

    def spy(*args, **kwargs):
        modes.append(kwargs["transport"].mode)
        return real_replay(*args, **kwargs)

    monkeypatch.setattr(cli, "replay_scenario", spy)
    args = ["replay", str(workspace / "scen" / "l1.scenario.json"),
            "--out", str(tmp_path), "--transport", "loopback"]
    if file_mode is not None:
        config_path = tmp_path / "transport.json"
        config_path.write_text(json.dumps({"mode": file_mode, "psk_hex": "11" * 32}))
        args += ["--transport-config", str(config_path)]
    if flag is not None:
        args += ["--mode", flag]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert modes == [expected]
    direct = (workspace / "runs" / "l1.decisions.csv").read_bytes()
    assert (tmp_path / "l1.decisions.csv").read_bytes() == direct
