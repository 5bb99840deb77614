"""Mamdani-style inference: fuzzify, clip, aggregate, centroid.

The engine is immutable after construction and safe to share across
threads. Output member curves are pre-sampled on a uniform grid over the
output domain. Inference reduces the rule weights to one weight per output
label, the strongest premise weight among the enabled rules that conclude
it, clips each label's curve at that weight and aggregates by pointwise
maximum. Clipping per label instead of per rule gives the same envelope,
because max_i min(w_i, c) == min(max_i w_i, c) at every grid point.
Defuzzification is the centroid of that envelope on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..logs import ErrorLog
from .membership import (ConfigurationError, FuzzifiedValue, InputDataError,
                         LinguisticVariable)
from .rules import Rule

STATUS_OK = "ok"
STATUS_INPUT_ERROR = "input-error"

DEFAULT_GRID_RESOLUTION = 1001


@dataclass(frozen=True)
class EngineConfig:
    """Validated variable set, output variable name and rule base."""

    variables: tuple[LinguisticVariable, ...]
    output: str
    rules: tuple[Rule, ...]
    grid_resolution: int = DEFAULT_GRID_RESOLUTION

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(names) != len(set(names)):
            raise ConfigurationError("duplicate variable names")
        if self.output not in names:
            raise ConfigurationError(f"output variable {self.output!r} not defined")
        if not self.rules:
            raise ConfigurationError("rule base is empty")
        if self.grid_resolution < 2:
            raise ConfigurationError("grid_resolution must be >= 2")

    def variable(self, name: str) -> LinguisticVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ConfigurationError(f"no variable {name!r}")

    @property
    def input_names(self) -> list[str]:
        return [v.name for v in self.variables if v.name != self.output]

    @property
    def output_variable(self) -> LinguisticVariable:
        return self.variable(self.output)


@dataclass(frozen=True)
class AggregatedOutput:
    """Pointwise-max envelope of the output curves clipped at their weights."""

    grid: np.ndarray
    envelope: np.ndarray
    activations: dict[str, float]  # output label -> weight


@dataclass(frozen=True)
class SuspicionScore:
    value: float
    status: str = STATUS_OK
    error_detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class FuzzyEngine:
    config: EngineConfig
    error_log: ErrorLog = field(default_factory=ErrorLog)

    def __post_init__(self):
        out = self.config.output_variable
        lo, hi = out.domain
        self._grid = np.linspace(lo, hi, self.config.grid_resolution)
        # Pre-sampled consequent curves, keyed by output label.
        self._curves = {
            m.label: np.array([m.evaluate(z) for z in self._grid])
            for m in out.members
        }
        for rule in self.config.rules:
            if rule.consequent not in self._curves:
                raise ConfigurationError(
                    f"rule {rule.rule_id!r}: output variable has no label {rule.consequent!r}")
        self._inputs = [(name, self.config.variable(name)) for name in self.config.input_names]
        self._rules = [rule for rule in self.config.rules if rule.enabled]

    @property
    def grid(self) -> np.ndarray:
        return self._grid

    def fuzzify_all(self, inputs: Mapping[str, float]) -> dict[str, FuzzifiedValue]:
        env = {}
        for name, variable in self._inputs:
            if name not in inputs:
                raise InputDataError(f"missing input {name!r}")
            env[name] = variable.fuzzify(inputs[name])
        return env

    def infer(self, env: Mapping[str, FuzzifiedValue]) -> AggregatedOutput:
        """Aggregate each output label at its strongest enabled rule's weight.

        Rules with zero weight contribute nothing; a fully silent rule base
        yields an all-zero envelope.
        """
        weights: dict[str, float] = {}
        for rule in self._rules:
            w = rule.evaluate(env)
            if w > weights.get(rule.consequent, 0.0):
                weights[rule.consequent] = w
        return self.aggregate(weights)

    def aggregate(self, weights: Mapping[str, float]) -> AggregatedOutput:
        """Clip each output label's curve at its weight and take the pointwise max.

        Labels with zero weight are skipped and left out of activations.
        """
        envelope = np.zeros_like(self._grid)
        activations: dict[str, float] = {}
        for label, w in weights.items():
            if label not in self._curves:
                raise ConfigurationError(f"no output member {label!r}")
            if w <= 0.0:
                continue
            activations[label] = w
            np.maximum(envelope, np.minimum(w, self._curves[label]), out=envelope)
        return AggregatedOutput(grid=self._grid, envelope=envelope, activations=activations)

    def defuzzify(self, agg: AggregatedOutput) -> SuspicionScore:
        """Centroid of the envelope; an all-zero envelope scores 0."""
        mass = float(agg.envelope.sum())
        if mass <= 0.0:
            return SuspicionScore(value=0.0)
        value = float((agg.grid * agg.envelope).sum() / mass)
        return SuspicionScore(value=value)

    def score_object(self, inputs: Mapping[str, float], object_id: str = "") -> SuspicionScore:
        """Score one object's feature inputs on the output scale.

        Any non-finite or missing input short-circuits to status
        input-error with value exactly 0 and appends one error-log line;
        alarms are never raised from such scores.
        """
        try:
            env = self.fuzzify_all(inputs)
        except InputDataError as exc:
            self.error_log.append(object_id or "-", str(exc))
            return SuspicionScore(value=0.0, status=STATUS_INPUT_ERROR, error_detail=str(exc))
        return self.defuzzify(self.infer(env))
