"""Static checks on an engine config beyond structural parsing.

Construction already rejects malformed breakpoints, domains and empty rule
bases; this module checks the semantic contract: domain coverage, member
counts, single-peak output members and rule referential integrity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import EngineConfig, _linspace
from .membership import HOLD, LinguisticVariable, MembershipFunction

COVERAGE_FLOOR = 0.5
COVERAGE_SAMPLES = 10_000
INPUT_MEMBER_COUNT = 3
OUTPUT_MEMBER_COUNT = 5


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    samples_per_variable: int = COVERAGE_SAMPLES

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, subject: str, detail: str) -> None:
        self.violations.append(Violation(kind, subject, detail))


def _coverage_gaps(var: LinguisticVariable, samples: int) -> list[tuple[float, float]]:
    """Intervals of the domain where max membership drops below the floor,
    sampled at the points of ``_linspace`` over the domain."""
    xs = _linspace(*var.domain, samples)
    gaps: list[tuple[float, float]] = []
    start = None
    for x in xs:
        bad = max((m.evaluate(x) for m in var.members), default=0.0) < COVERAGE_FLOOR
        if bad and start is None:
            start = x
        elif not bad and start is not None:
            gaps.append((start, prev))
            start = None
        prev = x
    if start is not None:
        gaps.append((start, xs[-1]))
    return gaps


def _peak_extent(member: MembershipFunction, domain: tuple[float, float]) -> tuple[int, float]:
    """(number of isolated x where degree hits 1.0, total length of flat-1 regions)
    restricted to the domain."""
    lo, hi = domain
    pts = member.breakpoints
    points: set[float] = set()
    length = 0.0
    for (x0, d0), (x1, d1) in zip(pts, pts[1:]):
        if d0 == 1.0 and d1 == 1.0:
            seg_lo, seg_hi = max(x0, lo), min(x1, hi)
            if seg_hi > seg_lo:
                length += seg_hi - seg_lo
    for x, d in pts:
        if d == 1.0 and lo <= x <= hi:
            points.add(x)
    if member.left_extension == HOLD and pts[0][1] == 1.0 and pts[0][0] > lo:
        length += pts[0][0] - lo
    if member.right_extension == HOLD and pts[-1][1] == 1.0 and pts[-1][0] < hi:
        length += hi - pts[-1][0]
    return len(points), length


def validate_config(config: EngineConfig, samples: int = COVERAGE_SAMPLES) -> ValidationReport:
    """Check a parsed config; returns a report rather than raising."""
    report = ValidationReport(samples_per_variable=samples)

    for var in config.variables:
        expected = OUTPUT_MEMBER_COUNT if var.name == config.output else INPUT_MEMBER_COUNT
        if len(var.members) != expected:
            report.add("member-count", var.name,
                       f"has {len(var.members)} members, expected {expected}")
        for lo_x, hi_x in _coverage_gaps(var, samples):
            report.add("coverage", var.name,
                       f"max membership below {COVERAGE_FLOOR} over [{lo_x:.4f}, {hi_x:.4f}]")

    out = config.output_variable
    for member in out.members:
        npoints, flat = _peak_extent(member, out.domain)
        if flat > 0.0:
            report.add("output-peak", f"{out.name}.{member.label}",
                       f"degree 1.0 held over an interval of length {flat:.4f}")
        elif npoints != 1:
            report.add("output-peak", f"{out.name}.{member.label}",
                       f"degree 1.0 attained at {npoints} points, expected exactly 1")

    known = {v.name: set(v.labels()) for v in config.variables}
    out_labels = known[config.output]
    for rule in config.rules:
        for atom in rule.antecedent.atoms():
            if atom.variable not in known:
                report.add("rule-reference", rule.rule_id,
                           f"unknown variable {atom.variable!r}")
            elif atom.variable == config.output:
                report.add("rule-reference", rule.rule_id,
                           f"antecedent may not reference the output variable")
            elif atom.label not in known[atom.variable]:
                report.add("rule-reference", rule.rule_id,
                           f"variable {atom.variable!r} has no label {atom.label!r}")
        if rule.consequent not in out_labels:
            report.add("rule-reference", rule.rule_id,
                       f"output variable has no label {rule.consequent!r}")
    return report
