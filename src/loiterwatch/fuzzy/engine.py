"""Mamdani-style inference: fuzzify, clip, aggregate, centroid.

The engine is safe to share across threads. Output member curves are
pre-sampled on a uniform grid over the output domain. Inference reduces the
rule weights to one weight per output label, the strongest premise weight
among the enabled rules that conclude it, clips each label's curve at that
weight and aggregates by pointwise maximum. Clipping per label instead of
per rule gives the same envelope, because max_i min(w_i, c) == min(max_i
w_i, c) at every grid point. Defuzzification is the centroid of that
envelope on the same grid.

``score_object`` runs a form of this compiled when the engine is built: a
flat degree list indexed by (variable, label), each enabled rule's
antecedent as nested index tuples over that list, and a bounded centroid
memo keyed on the per-label weights, so ``aggregate`` and ``defuzzify`` run
only for a weight vector not seen before. It computes the same floats as the
tree walk over ``fuzzify_all``, ``Rule.evaluate``, ``aggregate`` and
``defuzzify``, so its scores are bit-identical to that walk's.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..logs import ErrorLog
from .membership import (HOLD, ConfigurationError, FuzzifiedValue,
                         InputDataError, LinguisticVariable, MembershipFunction,
                         crisp_input)
from .rules import And, Antecedent, Atom, Rule

STATUS_OK = "ok"
STATUS_INPUT_ERROR = "input-error"

DEFAULT_GRID_RESOLUTION = 1001

# Most distinct per-label weight vectors an engine keeps centroids for. A
# full memo is emptied and refills, so it follows a drifting input mix.
# Streams need far fewer: a 30-person, 120 s crowd yields 285 vectors.
CENTROID_MEMO_CAP = 4096


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


def _compile_member(member: MembershipFunction) -> tuple:
    """Breakpoint tuples for one curve; see ``MembershipFunction.evaluate``.

    The segment differences d1 - d0 and x1 - x0 are taken once here; they
    are the same floats the per-call expression computes.
    """
    pts = member.breakpoints
    xs = tuple(x for x, _ in pts)
    ds = tuple(d for _, d in pts)
    return (
        xs[0], ds[0] if member.left_extension == HOLD else 0.0,
        xs[-1], ds[-1] if member.right_extension == HOLD else 0.0,
        xs, ds,
        tuple(d1 - d0 for d0, d1 in zip(ds, ds[1:])),
        tuple(x1 - x0 for x0, x1 in zip(xs, xs[1:])),
    )


def _compile_antecedent(node: Antecedent, slots: Mapping[tuple[str, str], int]):
    """An atom becomes its slot in the flat degree list; AND and OR become
    (min, children) and (max, children), children in tree order."""
    if isinstance(node, Atom):
        try:
            return slots[(node.variable, node.label)]
        except KeyError:
            raise ConfigurationError(
                f"antecedent references unknown input {node.variable!r} "
                f"label {node.label!r}") from None
    return (min if isinstance(node, And) else max,
            tuple(_compile_antecedent(c, slots) for c in node.children))


def _premise(node: tuple, degrees: list[float]) -> float:
    """Weight of a compiled AND or OR node."""
    op, children = node
    return op([degrees[c] if c.__class__ is int else _premise(c, degrees)
               for c in children])


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

        slots: dict[tuple[str, str], int] = {}
        plan = []
        for name, variable in self._inputs:
            for m in variable.members:
                slots[(name, m.label)] = len(slots)
            plan.append((name, variable.domain,
                         tuple(_compile_member(m) for m in variable.members)))
        self._fuzzify_plan = tuple(plan)
        premises: dict[str, list] = {label: [] for label in self._curves}
        for rule in self.config.rules:
            if rule.enabled:
                premises[rule.consequent].append(_compile_antecedent(rule.antecedent, slots))
        fired = {label: tuple(p) for label, p in premises.items() if p}
        self._weight_labels = tuple(fired)
        self._label_premises = tuple(fired.values())
        self._centroids: dict[tuple[float, ...], SuspicionScore] = {}
        self._centroids_lock = threading.Lock()

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

    def _degrees(self, inputs: Mapping[str, float]) -> list[float]:
        """Every input member's degree, in (variable, label) slot order,
        each computed as ``MembershipFunction.evaluate`` computes it."""
        degrees: list[float] = []
        append = degrees.append
        for name, domain, members in self._fuzzify_plan:
            if name not in inputs:
                raise InputDataError(f"missing input {name!r}")
            x = crisp_input(name, inputs[name], domain)
            for first_x, left, last_x, right, xs, ds, dds, dxs in members:
                if x < first_x:
                    append(left)
                elif x > last_x:
                    append(right)
                else:
                    k = bisect_right(xs, x) - 1
                    x0 = xs[k]
                    append(ds[k] if x == x0 else ds[k] + dds[k] * (x - x0) / dxs[k])
        return degrees

    def score_object(self, inputs: Mapping[str, float], object_id: str = "") -> SuspicionScore:
        """Score one object's feature inputs on the output scale.

        Any non-finite or missing input short-circuits to status
        input-error with value exactly 0 and appends one error-log line;
        alarms are never raised from such scores.
        """
        try:
            degrees = self._degrees(inputs)
        except InputDataError as exc:
            self.error_log.append(object_id or "-", str(exc))
            return SuspicionScore(value=0.0, status=STATUS_INPUT_ERROR, error_detail=str(exc))
        weights = tuple([
            max([degrees[n] if n.__class__ is int else _premise(n, degrees) for n in nodes])
            for nodes in self._label_premises])
        score = self._centroids.get(weights)
        if score is None:
            score = self.defuzzify(self.aggregate(dict(zip(self._weight_labels, weights))))
            with self._centroids_lock:
                if len(self._centroids) >= CENTROID_MEMO_CAP:
                    self._centroids.clear()
                self._centroids[weights] = score
        return score
