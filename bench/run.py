"""Benchmark of the edge-to-fog chain: one command, three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload suite|crowd|link --seed N --seconds S --trace 0|1

The run prepares seeded inputs, times a few fresh set-ups, then repeats
whole passes of the workload until S seconds have gone, checking every
pass's outputs. With ``--trace 0`` the last line of standard output is the
end-to-end result; with ``--trace 1`` the package's layer boundaries are
wrapped and the last line holds the per-layer metrics instead. Counts and
timings also go to two files under ``.bench_out/results/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import weakref
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "decisions_per_s": "decisions/s",
    "alert_latency_p50_ms": "ms",
    "alert_latency_p90_ms": "ms",
    "wire_bytes_per_frame": "bytes",
    "peak_rss_mb": "MiB",
}

# Per-call medians: metric -> (group, scale to the unit).
PER_CALL = {
    "tracking.frame_us": ("tracking.frame", 1e6),
    "fuzzy.build_ms": ("fuzzy.build", 1e3),
    "fuzzy.score_us": ("fuzzy.score", 1e6),
    "fuzzy.fuzzify_us": ("fuzzy.fuzzify", 1e6),
    "fuzzy.infer_us": ("fuzzy.infer", 1e6),
    "fuzzy.defuzzify_us": ("fuzzy.defuzzify", 1e6),
    "context.record_us": ("context.record", 1e6),
    "logs.append_us": ("logs.append", 1e6),
    "transport.wire.encode_us": ("transport.wire.encode", 1e6),
    "transport.wire.decode_us": ("transport.wire.decode", 1e6),
    "transport.session.seal_us": ("transport.session.seal", 1e6),
    "transport.session.open_us": ("transport.session.open", 1e6),
    "transport.net.send_us": ("transport.net.send", 1e6),
}
# Busy seconds per pass of a group's outermost calls.
BUSY = {
    "logs.write_s": "logs.write",
    "harness.dataset.load_s": "harness.dataset.load",
    "harness.scenarios.generate_s": "harness.scenarios.generate",
    "harness.evaluation.evaluate_s": "harness.evaluation.evaluate",
}
PER_LAYER_UNITS = {
    **{name: name.rpartition("_")[2] for name in PER_CALL},
    **{name: "s" for name in BUSY},
    "context.self_us": "us",
    "transport.session.handshake_ms": "ms",
    "transport.net.link_us": "us",
    "tracking.frames": "count",
    "tracking.tracks_per_frame": "count",
    "tracking.spawns": "count",
    "tracking.kills": "count",
    "fuzzy.scores": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.balance_error_pct": "%",
    "trace.frames_per_s": "frames/s",
}
PER_LAYER_UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})

SETUP_PROBES = 20
# Timings are read at the slowest twentieth of their samples; see README.md.
SLOW_PERCENT = 5


def pin_to_one_cpu() -> int | None:
    """Run on one CPU of those allowed, threads and set-up probes included.

    The program's threads share one interpreter lock, so they never use
    more than one core's worth of Python; left free to spread over cores,
    the lock's hand-offs between them made loopback latency swing 2-10x
    from run to run.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fail(message: str) -> int:
    print(f"bench/run.py: {message}", file=sys.stderr)
    return 2


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"q1": v, "median": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def slow_end(values: list[float], higher_is_better: bool) -> float:
    """The value at the slow end of the samples: the 5th percentile of a
    rate, the 95th of a time."""
    return percentile(values, SLOW_PERCENT if higher_is_better else 100 - SLOW_PERCENT)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def host_info() -> dict:
    import cryptography
    import numpy

    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cryptography": cryptography.__version__, "machine": platform.machine()}


def probe_setup(workload: str, keys_path: Path | None, count: int) -> list[float]:
    """Seconds of ``count`` fresh set-ups, each in a new interpreter."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload]
    if keys_path is not None:
        command.append(str(keys_path))
    samples = []
    for _ in range(count):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def observe_tracking(tracer) -> None:
    """Count tracks, spawns and kills from the records the tracker returns."""
    previous: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def after(args, record) -> None:
        ids = {o.track_id for o in record.objects}
        before = previous.get(args[0], set())
        tracer.count("tracking.spawns", len(ids - before))
        tracer.count("tracking.kills", len(before - ids))
        tracer.count("tracking.tracks", len(ids))
        previous[args[0]] = ids

    tracer.observers["tracking.frame"] = after


def per_layer(tracer, passes, windows, link_us) -> tuple[dict, dict]:
    n = max(1, len(passes))
    median = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    m = {name: median(tracer.durations(group)) * scale for name, (group, scale) in PER_CALL.items()}
    m.update({name: tracer.busy(group) / n for name, group in BUSY.items()})
    m["context.self_us"] = median(tracer.self_calls("context.record")) * 1e6
    m["transport.session.handshake_ms"] = 1e3 * (median(tracer.durations("transport.session.wrap"))
                                                 + median(tracer.durations("transport.session.unwrap")))
    m["transport.net.link_us"] = median(link_us)
    frames = len(tracer.durations("tracking.frame"))
    m["tracking.frames"] = frames / n
    m["tracking.tracks_per_frame"] = tracer.counters["tracking.tracks"] / frames if frames else 0.0
    m["tracking.spawns"] = tracer.counters["tracking.spawns"] / n
    m["tracking.kills"] = tracer.counters["tracking.kills"] / n
    m["fuzzy.scores"] = len(tracer.durations("fuzzy.score")) / n
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self(layer) / n
    balance = tracer.balance(windows)
    main = next((row for row in balance if row["main"]), {"unattributed_s": 0.0})
    m["trace.wall_s"] = sum(b - a for a, b in windows) / n
    m["trace.unattributed_s"] = main["unattributed_s"] / n
    m["trace.balance_error_pct"] = max((row["error_pct"] for row in balance), default=0.0)
    m["trace.frames_per_s"] = slow_end([p.frames / p.wall_s for p in passes], True)
    others = [row for row in balance if not row["main"]]
    detail = {"absent_boundaries": tracer.absent, "main_thread": main,
              "other_threads": len(others),
              "other_threads_busy_s": sum(row["attributed_s"] for row in others)}
    return m, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "crowd", "link"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs and one pass, for selfcheck.py")
    args = parser.parse_args()

    if not (SRC / "loiterwatch" / "__init__.py").is_file():
        return fail(f"no package source at {SRC}/loiterwatch; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import loiterwatch

    if not Path(loiterwatch.__file__).resolve().is_relative_to(SRC.resolve()):
        return fail(f"imported {loiterwatch.__file__}, not the package under {SRC}")

    import checks
    from workloads import WORKLOADS

    cpu = pin_to_one_cpu()
    tiny = args.size == "tiny"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if tiny else "")
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, tiny)
    passes, windows, error = [], [], None
    tracer = None
    try:
        workload.prepare()
        keys_path = None
        if args.workload == "link":
            keys_path = work / "keys.json"
            keys_path.write_text(json.dumps(workload.keys), encoding="utf-8")
        setup = probe_setup(args.workload, keys_path, 1 if tiny else SETUP_PROBES)
        if args.trace:
            tracer = Tracer()
            observe_tracking(tracer)
            tracer.install()
        deadline = perf_counter() + args.seconds
        while True:
            start = perf_counter()
            passes.append(workload.run_pass())
            windows.append((start, perf_counter()))
            if perf_counter() >= deadline or tiny:
                break
    except checks.CheckFailed as exc:
        error = str(exc)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    counts = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "per_pass": ({"frames": passes[0].attempted, "decisions": passes[0].decisions,
                      "alarms": passes[0].alarms, "wire_bytes": passes[0].wire_bytes}
                     if passes else {}),
        "failed_share": failed / attempted if attempted else None,
        "failures": {k: sum(p.extra.get(k, 0) for p in passes)
                     for k in ("undelivered", "rejected", "duplicates", "gaps")},
        "checks": workload.checks_run,
        "oracle_max_error": round(workload.oracle_worst, 3),
        **workload.counts,
        "error": error,
    }
    if error is None:
        latencies_ms = [1e3 * x for p in passes for x in p.latencies_s]
        late_ms = [1e3 * x for p in passes for x in p.extra.get("late_s", [])]
        pass_p50 = [1e3 * percentile(p.latencies_s, 50) for p in passes]
        pass_p90 = [1e3 * percentile(p.latencies_s, 90) for p in passes]
        if workload.open_loop:
            # A paced frame's latency includes the queue earlier frames left,
            # so the run's paced frames form one sample.
            p50, p90 = percentile(latencies_ms, 50), percentile(latencies_ms, 90)
        else:
            p50, p90 = slow_end(pass_p50, False), slow_end(pass_p90, False)
        end_to_end = {
            "setup_s": slow_end(setup, False),
            "frames_per_s": slow_end([p.frames / p.wall_s for p in passes], True),
            "decisions_per_s": slow_end([p.decisions / p.wall_s for p in passes], True),
            "alert_latency_p50_ms": p50,
            "alert_latency_p90_ms": p90,
            "wire_bytes_per_frame": passes[0].wire_bytes / passes[0].frames,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        timings = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "host": {**host_info(), "pinned_cpu": cpu},
            "passes": len(passes),
            "setup_s": {"samples": setup, **quartiles(setup)},
            "pass_wall_s": quartiles([p.wall_s for p in passes]),
            "frames_per_s": quartiles([p.frames / p.wall_s for p in passes]),
            "alert_latency_ms": {"n": len(latencies_ms),
                                 **{f"p{q}": percentile(latencies_ms, q) for q in (50, 90, 99)}},
            "generator_late_ms": {"n": len(late_ms),
                                  **{f"p{q}": percentile(late_ms, q) for q in (50, 90, 100)}},
            "end_to_end": end_to_end,
            "per_pass": {
                "wall_s": [p.wall_s for p in passes],
                "frames_per_s": [p.frames / p.wall_s for p in passes],
                "latency_p50_ms": pass_p50,
                "latency_p90_ms": pass_p90,
            },
        }
        if tracer is not None:
            metrics, detail = per_layer(tracer, passes, windows, getattr(workload, "link_us", []))
            timings.update(per_layer=metrics, trace=detail)
            printed = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        else:
            printed = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END.items()}
        (results / f"{tag}.timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    else:
        print(f"bench/run.py: check failed: {error}", file=sys.stderr)
        printed = {}
    (results / f"{tag}.counts.json").write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": error is None, "attempted": max(1, attempted),
                      "failed": failed, "metrics": printed}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
