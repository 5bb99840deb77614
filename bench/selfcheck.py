"""Fast self-check of the benchmark: every workload at a tiny size.

Usage, from the root of a checkout:

    python3 bench/selfcheck.py

Runs ``run.py --size tiny`` (small inputs, one pass) for each workload,
untraced and traced, and fails unless every metric named in
BENCHMARK.json is printed, the metrics each workload exercises are above
0, every correctness check of the workload ran, no operation failed, and
the traced layer times add up to the traced wall time within 1 %.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CHECKS = {
    "suite": {"evaluation-recount", "planted-labels", "alarm-flags", "oracle-rescore",
              "byte-identical-passes"},
    "crowd": {"objects-per-detector-frame", "normal-labels", "alarm-flags", "oracle-rescore",
              "byte-identical-passes"},
    "link": {"objects-per-detector-frame", "normal-labels", "alarm-flags", "oracle-rescore",
             "decoded-equals-sent", "byte-identical-to-in-process"},
}
COMMON = ("tracking.", "fuzzy.", "context.", "logs.append_us", "logs.self_s",
          "trace.wall_s", "trace.unattributed_s", "trace.frames_per_s")
# Per-layer metrics that must be above 0 on each workload (name prefixes).
LAYERS_USED = {
    "suite": COMMON + ("logs.write_s", "harness."),
    "crowd": COMMON + ("harness.dataset.", "harness.replay."),
    "link": COMMON + ("transport.",),
}
MAY_BE_ZERO = {"trace.balance_error_pct"}
BALANCE_TOLERANCE_PCT = 1.0   # self times + unattributed vs traced wall time


def run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    counts = json.loads((ROOT / ".bench_out" / "results"
                         / f"{workload}-seed1-trace{trace}-tiny.counts.json").read_text())
    return result, counts


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    problems = []
    covered = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, end_to_end), (1, per_layer)):
            result, counts = run(workload, trace)
            where = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            missing = CHECKS[workload] - set(counts["checks"])
            if missing:
                problems.append(f"{where}: checks did not run: {sorted(missing)}")
            metrics = result["metrics"]
            for name in names:
                if name not in metrics:
                    problems.append(f"{where}: metric {name} missing")
                    continue
                must = trace == 0 or name.startswith(LAYERS_USED[workload])
                if metrics[name]["value"] > 0:
                    covered.add(name)
                elif must and name not in MAY_BE_ZERO:
                    problems.append(f"{where}: {name} = {metrics[name]['value']}")
            error = metrics.get("trace.balance_error_pct", {"value": 0.0})["value"]
            if error > BALANCE_TOLERANCE_PCT:
                problems.append(f"{where}: layer times miss the traced wall time by {error:.3f}%")
            print(f"{where}: {len(metrics)} metrics, checks {counts['checks']}")
    never = set(per_layer) - covered - MAY_BE_ZERO
    if never:
        problems.append(f"per-layer metrics above 0 on no workload: {sorted(never)}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
