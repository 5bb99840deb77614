"""Command-line harness for the scoring pipeline.

Every subcommand exits 0 on success and nonzero with a stage-attributed
message on stderr otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .context import AlarmPolicy, load_policy
from .fuzzy import ConfigurationError, default_config, load_config, validate_config
from .harness.bench import bench_decision, bench_transport
from .harness.evaluation import (MATCH_WINDOW, EvaluationResult, emit_report,
                                 evaluate_scenario, load_timeline)
from .harness.replay import replay_scenario
from .harness.scenarios import KINDS, Scenario, generate_scenario
from .harness.suite import run_suite
from .tracking import TrackerParams
from .transport import TransportConfig, generate_keypair, load_transport_config

MODES = ("plaintext", "symmetric", "handshake-then-symmetric")


def _fail(stage: str, exc: Exception) -> None:
    click.echo(f"{stage}: {exc}", err=True)
    sys.exit(1)


@click.group()
def main() -> None:
    """Loitering suspicion scoring pipeline tools."""


@main.command()
@click.option("--kind", type=click.Choice(KINDS), required=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--name", default=None, help="Scenario name (defaults to kind).")
@click.option("--seed", default=0, show_default=True)
@click.option("--hour", type=float, default=None, help="Local start hour.")
@click.option("--duration", type=float, default=None, help="Walk duration, seconds.")
@click.option("--people", type=int, default=None)
@click.option("--fps", type=float, default=5.0, show_default=True)
@click.option("--jitter", type=float, default=0.0, show_default=True,
              help="Uniform centroid noise amplitude, px.")
@click.option("--gap-start", type=float, default=None, help="Occlusion gap start, seconds.")
@click.option("--gap-len", type=float, default=None, help="Occlusion gap length, seconds.")
@click.option("--base", default=None, help="Base kind for occlusion-dropout.")
def generate(kind, out_dir, name, seed, hour, duration, people, fps, jitter,
             gap_start, gap_len, base):
    """Write one synthetic scenario (stream, labels, descriptor)."""
    params = {k: v for k, v in {
        "hour": hour, "duration": duration, "people": people, "fps": fps,
        "jitter": jitter, "gap_start": gap_start, "gap_len": gap_len,
        "base": base,
    }.items() if v is not None}
    try:
        scenario = generate_scenario(kind, out_dir, name=name, seed=seed, **params)
    except (ValueError, OSError) as exc:
        _fail("generate", exc)
    click.echo(f"generated {scenario.name}: {scenario.detections_path}")


def _load_engine_config(path: str | None):
    return load_config(path) if path else default_config()


@main.command()
@click.argument("scenario_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--fuzzy-config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--policy", "policy_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--transport", type=click.Choice(["in-process", "loopback"]),
              default="in-process", show_default=True)
@click.option("--mode", type=click.Choice(MODES), default=None,
              show_default="the --transport-config file's mode, else plaintext",
              help="Confidentiality mode for loopback transport.")
@click.option("--transport-config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON transport config (keys for symmetric/handshake modes).")
@click.option("--pace/--no-pace", default=False, show_default=True,
              help="Sleep between frames at the scenario fps.")
def replay(scenario_json, out_dir, fuzzy_config, policy_path, transport, mode,
           transport_config, pace):
    """Replay a scenario through the pipeline; writes timeline + decisions."""
    try:
        scenario = Scenario.load(scenario_json)
        engine_config = _load_engine_config(fuzzy_config)
        policy = load_policy(policy_path) if policy_path else AlarmPolicy()
        tcfg = None
        if transport == "loopback":
            if transport_config:
                tcfg = load_transport_config(transport_config)
                if mode is not None:
                    tcfg.mode = mode
            else:
                tcfg = TransportConfig(mode=mode or "plaintext")
                if mode == "symmetric":
                    tcfg.psk_hex = "00" * 32
                elif mode == "handshake-then-symmetric":
                    private_pem, public_pem = generate_keypair()
                    tcfg.server_private_key_pem = private_pem
                    tcfg.server_public_key_pem = public_pem
        result = replay_scenario(scenario, engine_config=engine_config,
                                 policy=policy, transport=tcfg,
                                 out_dir=out_dir, pace=pace)
    except Exception as exc:
        _fail("replay", exc)
    alarms = sum(1 for *_ , alarm in result.timeline if alarm)
    click.echo(f"replayed {scenario.name}: {result.stats.decisions} decisions, "
               f"{alarms} alarm rows -> {result.timeline_path}")


@main.command()
@click.argument("scenario_json", type=click.Path(exists=True, dir_okay=False))
@click.argument("timeline_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--threshold", type=float, default=60.0, show_default=True)
@click.option("--window", type=float, default=MATCH_WINDOW, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the result as JSON here.")
def evaluate(scenario_json, timeline_csv, threshold, window, out_path):
    """Score a replayed timeline against its scenario labels."""
    try:
        scenario = Scenario.load(scenario_json)
        timeline = load_timeline(timeline_csv)
        result = evaluate_scenario(scenario, timeline, threshold, window)
        if out_path:
            out = Path(out_path)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(result.__dict__, sort_keys=True) + "\n",
                           encoding="utf-8")
    except Exception as exc:
        _fail("evaluate", exc)
    click.echo(f"{result.scenario}: events={result.events} tp={result.tp} "
               f"fp={result.fp} fn={result.fn}")


@main.command()
@click.argument("eval_json", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def report(eval_json, out_dir):
    """Aggregate evaluation JSON files into report.csv and summary.txt."""
    try:
        results = []
        for path in eval_json:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            results.append(EvaluationResult(**data))
        report_path = emit_report(results, out_dir)
    except Exception as exc:
        _fail("report", exc)
    click.echo(f"wrote {report_path}")


@main.command("validate-config")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False), required=False)
def validate_config_cmd(config_path):
    """Check a fuzzy config (the shipped default when no path is given)."""
    try:
        config = _load_engine_config(config_path)
    except (ConfigurationError, OSError) as exc:
        _fail("validate-config", exc)
    report = validate_config(config)
    if report.ok:
        click.echo(f"ok: {len(config.variables)} variables, {len(config.rules)} rules, "
                   f"coverage checked at {report.samples_per_variable} points per variable")
        return
    for violation in report.violations:
        click.echo(str(violation), err=True)
    sys.exit(1)


@main.command("bench-decision")
@click.option("--records", default=10_000, show_default=True)
@click.option("--objects", default=2, show_default=True)
@click.option("--seed", default=9, show_default=True)
@click.option("--fuzzy-config", type=click.Path(exists=True, dir_okay=False), default=None)
def bench_decision_cmd(records, objects, seed, fuzzy_config):
    """Time the per-object score+decide path."""
    try:
        result = bench_decision(records=records, objects_per_record=objects,
                                seed=seed,
                                engine_config=_load_engine_config(fuzzy_config))
    except Exception as exc:
        _fail("bench-decision", exc)
    click.echo(f"decisions={result.decisions} mean={result.mean_ms:.3f}ms "
               f"p95={result.p95_ms:.3f}ms max={result.max_ms:.3f}ms "
               f"wall={result.wall_s:.2f}s rss={result.max_rss_kb}kB "
               f"alarms={result.alarms}")


@main.command("bench-transport")
@click.option("--records", default=1000, show_default=True)
@click.option("--mode", "modes", type=click.Choice(MODES + ("all",)),
              default="all", show_default=True)
@click.option("--objects-low", default=0, show_default=True)
@click.option("--objects-high", default=2, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Write per-message latency CSVs here.")
def bench_transport_cmd(records, modes, objects_low, objects_high, out_dir):
    """Loopback latency benchmark across confidentiality modes."""
    run_modes = MODES if modes == "all" else (modes,)
    try:
        private_pem, public_pem = generate_keypair()
        for mode in run_modes:
            config = TransportConfig(mode=mode, psk_hex="11" * 32,
                                     server_private_key_pem=private_pem,
                                     server_public_key_pem=public_pem)
            stats, intact = bench_transport(config, records=records,
                                            objects_low=objects_low,
                                            objects_high=objects_high)
            click.echo(f"{mode}: n={len(stats.samples)} mean={stats.mean_us:.1f}us "
                       f"p95={stats.p95_us:.1f}us max={stats.max_us}us "
                       f"payloads-intact={intact}")
            if not intact:
                _fail("bench-transport", RuntimeError(f"{mode}: decoded records differ"))
            if out_dir:
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
                stats.write_csv(out / f"latency-{mode}.csv")
    except SystemExit:
        raise
    except Exception as exc:
        _fail("bench-transport", exc)


@main.command()
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--threshold", type=float, default=60.0, show_default=True)
@click.option("--window", type=float, default=MATCH_WINDOW, show_default=True)
@click.option("--fuzzy-config", type=click.Path(exists=True, dir_okay=False), default=None)
def suite(out_dir, threshold, window, fuzzy_config):
    """Generate, replay and evaluate the fixed 12-scenario suite."""
    try:
        result = run_suite(out_dir, threshold=threshold, window=window,
                           engine_config=_load_engine_config(fuzzy_config))
    except Exception as exc:
        _fail("suite", exc)
    click.echo(f"suite: tp={result.tp} fp={result.fp} fn={result.fn} "
               f"-> {result.report_path}")


if __name__ == "__main__":
    main()
