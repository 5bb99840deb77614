"""Fuzzy scoring: membership curves, rule base, Mamdani inference.

Exports load on first access; see the ``loiterwatch`` package docstring.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "config": ("config_from_dict", "config_to_dict", "default_config",
               "load_config", "save_config"),
    "engine": ("EngineConfig", "FuzzyEngine", "SuspicionScore",
               "STATUS_INPUT_ERROR", "STATUS_OK"),
    "membership": ("ConfigurationError", "FuzzifiedValue", "HOLD",
                   "InputDataError", "LinguisticVariable", "MembershipFunction",
                   "ZERO", "clamp"),
    "rules": ("And", "Antecedent", "Atom", "Or", "Rule", "parse_antecedent"),
    "validation": ("ValidationReport", "Violation", "validate_config"),
})
