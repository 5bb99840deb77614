"""End-to-end run of the fixed evaluation suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..fuzzy import EngineConfig
from .evaluation import MATCH_WINDOW, EvaluationResult, emit_report, evaluate_scenario
from .replay import replay_scenario
from .scenarios import Scenario, generate_suite


@dataclass
class SuiteResult:
    out_dir: Path
    scenarios: list[Scenario]
    evaluations: list[EvaluationResult]
    report_path: Path

    @property
    def tp(self) -> int:
        return sum(r.tp for r in self.evaluations)

    @property
    def fp(self) -> int:
        return sum(r.fp for r in self.evaluations)

    @property
    def fn(self) -> int:
        return sum(r.fn for r in self.evaluations)


def run_suite(out_dir: str | Path, threshold: float = 60.0,
              window: float = MATCH_WINDOW,
              engine_config: EngineConfig | None = None) -> SuiteResult:
    """Generate, replay, evaluate and report the fixed 12-scenario suite."""
    out_dir = Path(out_dir)
    scenarios = generate_suite(out_dir / "scenarios")
    evaluations = []
    for scenario in scenarios:
        replay = replay_scenario(scenario, engine_config=engine_config,
                                 out_dir=out_dir / "runs")
        evaluations.append(evaluate_scenario(
            scenario, replay.timeline, threshold=threshold, window=window,
            decisions=replay.stats.decisions,
            mean_decide_ms=replay.stats.mean_decide_ms,
            wall_s=replay.stats.wall_s))
    report_path = emit_report(evaluations, out_dir)
    return SuiteResult(out_dir=out_dir, scenarios=scenarios,
                       evaluations=evaluations, report_path=report_path)
