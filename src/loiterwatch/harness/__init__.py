"""Scenario generation, replay, evaluation and benchmarks.

Exports load on first access; see the ``loiterwatch`` package docstring.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "bench": ("DecisionBenchResult", "bench_decision", "bench_transport",
              "synthetic_records"),
    "dataset": ("DatasetError", "STREAM_HEADER", "group_frames",
                "load_track_dataset"),
    "evaluation": ("EvaluationResult", "MATCH_WINDOW", "emit_report", "evaluate",
                   "evaluate_scenario"),
    "replay": ("ReplayResult", "ReplayStats", "replay_scenario"),
    "scenarios": ("DEFAULT_SUITE", "KINDS", "LOITERING", "NORMAL",
                  "LabelInterval", "Scenario", "generate_scenario",
                  "generate_suite"),
    "suite": ("SuiteResult", "run_suite"),
})
