"""Piecewise-linear membership functions and linguistic variables.

Membership curves are breakpoint lists over a crisp domain. Outside the
breakpoint span a curve either holds its boundary degree or drops to zero,
selected per side. Crisp inputs are clamped to the variable domain before
fuzzification, so out-of-range readings saturate instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

HOLD = "hold-degree"
ZERO = "zero"
_EXTENSIONS = (HOLD, ZERO)


class ConfigurationError(ValueError):
    """Raised when a fuzzy config violates its structural contract."""


class InputDataError(ValueError):
    """Raised for non-finite or unmappable crisp inputs."""


def clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def crisp_input(name: str, x: float, domain: tuple[float, float]) -> float:
    """Validate one crisp input of a variable and clamp it to the domain.

    Non-finite x cannot be clamped meaningfully and raises InputDataError
    so the enclosing score call can take its input-error path.
    """
    if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
        raise InputDataError(f"variable {name!r}: non-finite input {x!r}")
    return clamp(float(x), *domain)


@dataclass(frozen=True)
class MembershipFunction:
    """One labelled curve: degrees in [0,1] over strictly increasing x."""

    label: str
    breakpoints: tuple[tuple[float, float], ...]
    left_extension: str = ZERO
    right_extension: str = ZERO

    def __post_init__(self):
        if len(self.breakpoints) < 2:
            raise ConfigurationError(f"member {self.label!r}: needs at least 2 breakpoints")
        xs = [x for x, _ in self.breakpoints]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ConfigurationError(f"member {self.label!r}: breakpoint x values must strictly increase")
        if any(not (0.0 <= d <= 1.0) for _, d in self.breakpoints):
            raise ConfigurationError(f"member {self.label!r}: degrees must lie in [0, 1]")
        for side in (self.left_extension, self.right_extension):
            if side not in _EXTENSIONS:
                raise ConfigurationError(f"member {self.label!r}: unknown extension {side!r}")

    def evaluate(self, x: float) -> float:
        """Degree at x: linear interpolation, exact at breakpoints."""
        pts = self.breakpoints
        if x < pts[0][0]:
            return pts[0][1] if self.left_extension == HOLD else 0.0
        if x > pts[-1][0]:
            return pts[-1][1] if self.right_extension == HOLD else 0.0
        for (x0, d0), (x1, d1) in zip(pts, pts[1:]):
            if x == x0:
                return d0
            if x0 < x < x1:
                d = d0 + (d1 - d0) * (x - x0) / (x1 - x0)
                # Rounding can carry d one ulp past 0 or 1 near a segment end.
                return d if 0.0 <= d <= 1.0 else (0.0 if d < 0.0 else 1.0)
        return pts[-1][1]

    __call__ = evaluate


@dataclass(frozen=True)
class FuzzifiedValue:
    """Result of fuzzifying one crisp input."""

    variable: str
    crisp: float  # after clamping
    degrees: dict[str, float]


@dataclass(frozen=True)
class LinguisticVariable:
    name: str
    domain: tuple[float, float]
    members: tuple[MembershipFunction, ...] = field(default_factory=tuple)

    def __post_init__(self):
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ConfigurationError(f"variable {self.name!r}: bad domain {self.domain!r}")
        labels = [m.label for m in self.members]
        if len(labels) != len(set(labels)):
            raise ConfigurationError(f"variable {self.name!r}: duplicate member labels")

    def member(self, label: str) -> MembershipFunction:
        for m in self.members:
            if m.label == label:
                return m
        raise ConfigurationError(f"variable {self.name!r}: no member {label!r}")

    def labels(self) -> list[str]:
        return [m.label for m in self.members]

    def fuzzify(self, x: float) -> FuzzifiedValue:
        """Clamp x to the domain (see ``crisp_input``), then evaluate every
        member at it."""
        crisp = crisp_input(self.name, x, self.domain)
        return FuzzifiedValue(
            variable=self.name,
            crisp=crisp,
            degrees={m.label: m.evaluate(crisp) for m in self.members},
        )
