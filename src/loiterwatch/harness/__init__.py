"""Scenario generation, replay, evaluation and the suite run.

Exports load on first access; see the ``loiterwatch`` package docstring.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "dataset": ("DatasetError", "group_frames", "load_track_dataset"),
    "evaluation": ("EvaluationResult", "emit_report", "evaluate", "evaluate_scenario"),
    "replay": ("replay_scenario",),
    "scenarios": ("DEFAULT_SUITE", "KINDS", "LOITERING", "NORMAL",
                  "LabelInterval", "Scenario", "generate_scenario",
                  "generate_suite"),
    "suite": ("run_suite",),
})
