"""Alarm evaluation against labeled intervals, plus report emission.

An alarm row is any entry of a decision log's timeline whose score clears
the evaluation threshold (the threshold is re-applied here, so the same
replay can be scored at different operating points). A labeled loitering
interval counts one TP when any alarm falls inside [start, end + window];
otherwise it is one FN. Alarms outside every window are false positives,
collapsed per track: consecutive out-of-window alarms gapped by at most the
window length merge into a single FP.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass
from pathlib import Path

from ..logs import write_csv
from .scenarios import LOITERING, LabelInterval, Scenario

MATCH_WINDOW = 5.0  # seconds appended after each labeled interval

REPORT_HEADER = ["scenario", "kind", "events", "tp", "fp", "fn"]
RUNTIME_HEADER = ["scenario", "decisions", "mean_decide_ms", "wall_s", "max_rss_kb"]


@dataclass
class EvaluationResult:
    scenario: str
    kind: str
    events: int
    tp: int
    fp: int
    fn: int
    decisions: int = 0
    mean_decide_ms: float = 0.0
    wall_s: float = 0.0


def evaluate(timeline: list[tuple[float, int, float, bool]],
             labels: list[LabelInterval], threshold: float,
             window: float = MATCH_WINDOW) -> tuple[int, int, int]:
    """(tp, fp, fn) for one scenario's timeline against its labels."""
    alarms = [(ts, tid) for ts, tid, score, _alarm in timeline if score >= threshold]
    events = [lab for lab in labels if lab.label == LOITERING]

    tp = fn = 0
    windows = [(lab.start, lab.end + window) for lab in events]
    for start, end in windows:
        if any(start <= ts <= end for ts, _ in alarms):
            tp += 1
        else:
            fn += 1

    stray = [(ts, tid) for ts, tid in alarms
             if not any(start <= ts <= end for start, end in windows)]
    fp = 0
    by_track: dict[int, list[float]] = {}
    for ts, tid in stray:
        by_track.setdefault(tid, []).append(ts)
    for times in by_track.values():
        times.sort()
        previous = None
        for ts in times:
            if previous is None or ts - previous > window:
                fp += 1
            previous = ts
    return tp, fp, fn


def evaluate_scenario(scenario: Scenario,
                      timeline: list[tuple[float, int, float, bool]],
                      threshold: float, window: float = MATCH_WINDOW,
                      decisions: int = 0, mean_decide_ms: float = 0.0,
                      wall_s: float = 0.0) -> EvaluationResult:
    labels = scenario.labels()
    tp, fp, fn = evaluate(timeline, labels, threshold, window)
    return EvaluationResult(
        scenario=scenario.name, kind=scenario.kind,
        events=sum(1 for lab in labels if lab.label == LOITERING),
        tp=tp, fp=fp, fn=fn,
        decisions=decisions, mean_decide_ms=mean_decide_ms, wall_s=wall_s,
    )


def emit_report(results: list[EvaluationResult], out_dir: str | Path) -> Path:
    """Write report.csv and summary.txt (deterministic); runtime stats,
    which vary run to run, go to a separate runtime.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = [[r.scenario, r.kind, str(r.events), str(r.tp), str(r.fp), str(r.fn)]
            for r in results]
    totals = ["total", "-", str(sum(r.events for r in results)),
              str(sum(r.tp for r in results)), str(sum(r.fp for r in results)),
              str(sum(r.fn for r in results))]
    report_path = out_dir / "report.csv"
    write_csv(report_path, REPORT_HEADER, rows + [totals])

    width = max([len("scenario")] + [len(r.scenario) for r in results]) + 2
    lines = ["Scenario evaluation", "=" * 19, "",
             f"{'scenario':<{width}}{'kind':<20}{'events':>7}{'tp':>5}{'fp':>5}{'fn':>5}"]
    for r in results:
        lines.append(f"{r.scenario:<{width}}{r.kind:<20}{r.events:>7}{r.tp:>5}{r.fp:>5}{r.fn:>5}")
    lines.append("")
    lines.append(f"{'total':<{width}}{'':<20}{totals[2]:>7}{totals[3]:>5}{totals[4]:>5}{totals[5]:>5}")
    lines.append("")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if any(r.decisions for r in results):
        max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        runtime_rows = [[r.scenario, str(r.decisions), f"{r.mean_decide_ms:.4f}",
                         f"{r.wall_s:.4f}", str(max_rss)] for r in results]
        write_csv(out_dir / "runtime.csv", RUNTIME_HEADER, runtime_rows)
    return report_path
