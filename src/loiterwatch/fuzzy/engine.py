"""Mamdani-style inference: fuzzify, clip, aggregate, centroid.

The engine is safe to share across threads. Inference reduces the rule
weights to one weight per output label, the strongest premise weight among
the enabled rules that conclude it, clips each label's curve at that weight
and aggregates by pointwise maximum. Clipping per label instead of per rule
gives the same envelope, because max_i min(w_i, c) == min(max_i w_i, c) at
every point. The score is the centroid of that envelope on a uniform grid of
``grid_resolution`` points over the output domain.

The centroid is computed in closed form, compiled when the engine is built.
The output members' breakpoints cut the domain into spans on which every
curve is one line; a grid point on a cut keeps each curve's degree there,
the degree ``MembershipFunction.evaluate`` gives. Per weight vector, the
envelope over a span is piecewise linear, so its sum and first moment over
the span's grid points are closed forms per piece (``_centroid``). It
agrees to rounding, about 1e-13 on the 0-100 scale, with the sampled
reference the tests hold: each curve evaluated at every grid point,
clipped, maxed and summed.

``score_record`` runs the rules compiled when the engine is built too: a
flat degree list with one slot per (variable, label), then one flat step
list in which each distinct AND/OR node, and each label's max over its
premises, is one (min|max, child slots) step writing the next slot. Per
record, the inputs shared by all its objects are fuzzified once. Bounded
memos skip work already done: each own input's degrees per crisp float,
each object's score per its degrees of every variable, and the centroid
per per-label weight vector. Every memo holds what the same pure
computation returned, so scores are bit-identical to the tree walk over
``LinguisticVariable.fuzzify`` and ``Rule.evaluate`` followed by
``centroid``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, Sequence

from ..logs import ErrorLog
from .membership import (HOLD, ConfigurationError, InputDataError,
                         LinguisticVariable, MembershipFunction, crisp_input)
from .rules import And, Antecedent, Atom, Rule

STATUS_OK = "ok"
STATUS_INPUT_ERROR = "input-error"

DEFAULT_GRID_RESOLUTION = 1001

# Most entries each of an engine's memos keeps: centroids per distinct
# per-label weight vector, degree tuples per own input and crisp value, and
# scores per object's degrees. A full memo is emptied and refills, so it
# follows a drifting input mix. Streams need far fewer: a 30-person, 120 s
# crowd yields 285 weight vectors.
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


def _degrees(x: float, members: tuple) -> tuple[float, ...]:
    """Every compiled member's degree at a validated, clamped x, each
    computed as ``MembershipFunction.evaluate`` computes it."""
    out = []
    append = out.append
    for first_x, left, last_x, right, xs, ds, dds, dxs in members:
        if x < first_x:
            append(left)
        elif x > last_x:
            append(right)
        else:
            k = bisect_right(xs, x) - 1
            x0 = xs[k]
            if x == x0:
                append(ds[k])
            else:
                d = ds[k] + dds[k] * (x - x0) / dxs[k]
                append(d if 0.0 <= d <= 1.0 else (0.0 if d < 0.0 else 1.0))
    return tuple(out)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n)`` bit for bit: i * step + lo, then hi last."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def _compile_centroid(members: Sequence[MembershipFunction],
                      domain: tuple[float, float], n: int) -> tuple:
    """The output curves laid out for ``_centroid``: (lo, step, points, spans).

    Every breakpoint inside the domain, and both domain ends, cut the grid
    (``_linspace``) into open spans on which each curve is one line. A grid
    point on a cut is a point (index, (member position, degree) per member
    with a degree > 0 there), each degree the one
    ``MembershipFunction.evaluate`` gives. A span with grid points is (first
    index i0, last index - i0, lines), a line being (member position, degree
    at index i0, change per grid step) for each member not 0 over the span;
    the degree at i0 is interpolated as ``MembershipFunction.evaluate``
    interpolates it.
    """
    lo, hi = domain
    grid = _linspace(lo, hi, n)
    step = (hi - lo) / (n - 1)
    compiled = [_compile_member(m) for m in members]
    cuts = sorted({lo, hi, *(x for m in members for x, _ in m.breakpoints if lo < x < hi)})
    points = []
    for cut in cuts:
        i = bisect_left(grid, cut)
        if i < n and grid[i] == cut:
            degrees = tuple((k, d) for k, d in enumerate(_degrees(cut, compiled)) if d > 0.0)
            if degrees:
                points.append((i, degrees))
    spans = []
    for start, end in zip(cuts, cuts[1:]):
        i0, i1 = bisect_right(grid, start), bisect_left(grid, end) - 1
        if i0 > i1:
            continue
        x, lines = grid[i0], []
        for k, (first_x, left, last_x, right, xs, ds, dds, dxs) in enumerate(compiled):
            if x < first_x:
                a, b = left, 0.0
            elif x > last_x:
                a, b = right, 0.0
            else:  # no breakpoint lies inside the span, so x is not one
                s = bisect_right(xs, x) - 1
                a, b = ds[s] + dds[s] * (x - xs[s]) / dxs[s], dds[s] / dxs[s] * step
            if a or b:
                lines.append((k, a, b))
        if lines:
            spans.append((i0, i1 - i0, tuple(lines)))
    return lo, step, tuple(points), tuple(spans)


def _span_sums(weights: Sequence[float], lines: tuple, last: int) -> tuple[float, float]:
    """(sum of e(j), sum of j * e(j)) over j = 0..last, where e(j) is the
    max over a span's (k, a, b) ``lines`` with weights[k] > 0 of
    min(weights[k], a + b * j).

    Each clipped line is one of two pieces at a time, its line or flat at
    its weight, and switches once, where the line crosses the weight.
    Between switches, the max of the pieces is walked from the left: stay
    on the top piece until the first steeper piece overtakes it. Over each
    stretch of j that one piece tops, the sums are closed forms.
    """
    pieces, switches = [], []  # switches: (where, piece index, the piece after)
    for k, a, b in lines:
        w = weights[k]
        if w > 0.0:
            if b and 0.0 < (t := (w - a) / b) < last:
                switches.append((t, len(pieces), (w, 0.0) if b > 0.0 else (a, b)))
            pieces.append((a, b) if a < w or (a == w and b < 0.0) else (w, 0.0))
    if not pieces:
        return 0.0, 0.0
    switches.sort()
    switches.append((last, -1, None))
    top = pieces.index(max(pieces))  # highest at j = 0, the steeper of a tie
    a, b = pieces[top]
    mass = moment = 0.0
    first = 0  # the first j not yet summed
    for end, switched, after in switches:
        while True:
            until, steeper = end, -1
            for k, (a2, b2) in enumerate(pieces):
                if b2 > b:
                    t = (a - a2) / (b2 - b)
                    if t < until:
                        until, steeper = t, k
            if steeper < 0 and 0 <= switched != top:
                break  # the top piece runs on past this switch
            stop = int(until) if until < last else last
            if stop >= first:
                # a + b * j summed over j = first..stop, and weighted by j,
                # about the stretch's middle.
                count = stop - first + 1
                middle = 0.5 * (first + stop)
                level = a + b * middle
                mass += count * level
                moment += count * (middle * level + b * (count * count - 1) / 12.0)
                first = stop + 1
            if steeper < 0:
                break
            top = steeper
            a, b = pieces[top]
        if switched >= 0:
            pieces[switched] = after
            a, b = pieces[top]
    return mass, moment


def _centroid(plan: tuple, weights: Sequence[float]) -> float:
    """The centroid of max_k min(weights[k], curve k) on the grid, from a
    ``_compile_centroid`` plan; 0 for an envelope with no mass."""
    lo, step, points, spans = plan
    mass = moment = 0.0  # sums of e(i) and i * e(i) over grid indices i
    for i, degrees in points:
        e = 0.0
        for k, d in degrees:
            v = weights[k] if weights[k] < d else d
            if v > e:
                e = v
        mass += e
        moment += i * e
    for i0, last, lines in spans:
        m, mj = _span_sums(weights, lines, last)
        mass += m
        moment += i0 * m + mj
    return lo + step * (moment / mass) if mass > 0.0 else 0.0


def _step(op, children: tuple[int, ...], steps: dict, base: int) -> int:
    """Slot of the value op(children), appending a step for a node not seen
    before; the step list starts writing at slot ``base``. A node with one
    child is that child."""
    if len(children) == 1:
        return children[0]
    return steps.setdefault((op, children), base + len(steps))


def _compile_antecedent(node: Antecedent, slots: Mapping[tuple[str, str], int],
                        steps: dict) -> int:
    """Slot of an antecedent's weight. An atom is its input slot; AND and OR
    become (min, child slots) and (max, child slots) steps, children in tree
    order, shared by every rule that repeats the node."""
    if isinstance(node, Atom):
        try:
            return slots[(node.variable, node.label)]
        except KeyError:
            raise ConfigurationError(
                f"antecedent references unknown input {node.variable!r} "
                f"label {node.label!r}") from None
    children = tuple(_compile_antecedent(c, slots, steps) for c in node.children)
    return _step(min if isinstance(node, And) else max, children, steps, len(slots))


@dataclass
class FuzzyEngine:
    config: EngineConfig
    error_log: ErrorLog = field(default_factory=ErrorLog)

    def __post_init__(self):
        out = self.config.output_variable
        labels = out.labels()
        for rule in self.config.rules:
            if rule.consequent not in labels:
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
        steps: dict[tuple, int] = {}
        premises: dict[str, list[int]] = {label: [] for label in labels}
        for rule in self.config.rules:
            if rule.enabled:
                premises[rule.consequent].append(
                    _compile_antecedent(rule.antecedent, slots, steps))
        fired = {label: tuple(p) for label, p in premises.items() if p}
        self._weight_labels = tuple(fired)
        # Each label's weight, the max over its premises, is one more step.
        self._weight_slots = tuple(_step(max, p, steps, len(slots)) for p in fired.values())
        # (op, getter of the child slots), writing slots len(slots)...
        self._steps = tuple((op, itemgetter(*children)) for op, children in steps)
        self._centroid_plan = _compile_centroid(
            [out.member(label) for label in self._weight_labels], out.domain,
            self.config.grid_resolution)
        self._degree_memos: dict[str, dict[float, tuple[float, ...]]] = {
            name: {} for name, _ in self._inputs}
        self._scores: dict[tuple, SuspicionScore] = {}
        self._centroids: dict[tuple[float, ...], SuspicionScore] = {}
        self._memo_lock = threading.Lock()

    def centroid(self, weights: Mapping[str, float]) -> SuspicionScore:
        """The centroid of the output curves clipped at ``weights`` (output
        label -> weight, missing labels 0) and maxed, as the scoring path
        computes it; an envelope with no mass scores 0."""
        out = self.config.output_variable
        labels = out.labels()
        for label in weights:
            if label not in labels:
                raise ConfigurationError(f"no output member {label!r}")
        plan, order = self._centroid_plan, self._weight_labels
        if any(w > 0.0 and label not in order for label, w in weights.items()):
            # A label no enabled rule concludes: lay out every member.
            plan, order = _compile_centroid(out.members, out.domain,
                                            self.config.grid_resolution), labels
        return SuspicionScore(value=_centroid(plan, [weights.get(label, 0.0) for label in order]))

    def _remember(self, memo: dict, key, value):
        """Store a memo entry, emptying a full memo first; returns value."""
        with self._memo_lock:
            if len(memo) >= CENTROID_MEMO_CAP:
                memo.clear()
            memo[key] = value
        return value

    def score_record(self, shared: Mapping[str, float],
                     objects: Sequence[Mapping[str, float]],
                     object_ids: Sequence[str]) -> list[SuspicionScore]:
        """Score every object of one record; equal to ``score_object`` on
        each object's inputs merged with ``shared``.

        ``shared`` holds the inputs common to all objects (a value there
        overrides an object's own); they are fuzzified once per record. An
        own input that is exactly a ``float`` takes its degrees from that
        variable's memo, and an object whose degrees were scored before
        takes that score. An object whose inputs fail, shared ones
        included, gets what ``score_object`` gives it: input-error, value
        0, the same detail, and one error-log line under its id.
        """
        if not objects:
            return []
        # Per variable, in variable order: a shared input's degrees, or None
        # where each object puts its own.
        layout, plan = [], []
        try:
            for slot, (name, domain, members) in enumerate(self._fuzzify_plan):
                if name in shared:
                    layout.append(_degrees(crisp_input(name, shared[name], domain), members))
                else:
                    layout.append(None)
                    plan.append((slot, name, domain, members, self._degree_memos[name]))
        except InputDataError:
            return [self.score_object({**inputs, **shared}, object_ids[i])
                    for i, inputs in enumerate(objects)]
        remember, known, centroids = self._remember, self._scores, self._centroids
        scores = []
        for i, inputs in enumerate(objects):
            key = layout.copy()
            try:
                for slot, name, domain, members, memo in plan:
                    if name not in inputs:
                        raise InputDataError(f"missing input {name!r}")
                    x = inputs[name]
                    # A bool, an int or a float subclass is validated on
                    # every call; NaN and inf fail and are never stored.
                    if type(x) is float:
                        own = memo.get(x)
                        if own is None:
                            own = remember(memo, x, _degrees(crisp_input(name, x, domain),
                                                             members))
                    else:
                        own = _degrees(crisp_input(name, x, domain), members)
                    key[slot] = own
            except InputDataError as exc:
                # The shared inputs are valid, so this is the first bad
                # input in variable order, as score_object would report.
                self.error_log.append(object_ids[i] or "-", str(exc))
                scores.append(SuspicionScore(value=0.0, status=STATUS_INPUT_ERROR,
                                             error_detail=str(exc)))
                continue
            key = tuple(key)
            score = known.get(key)
            if score is None:
                degrees = [d for part in key for d in part]
                append = degrees.append
                for op, children in self._steps:
                    append(op(children(degrees)))
                weights = tuple([degrees[s] for s in self._weight_slots])
                score = centroids.get(weights)
                if score is None:
                    score = remember(centroids, weights, SuspicionScore(
                        value=_centroid(self._centroid_plan, weights)))
                remember(known, key, score)
            scores.append(score)
        return scores

    def score_object(self, inputs: Mapping[str, float], object_id: str = "") -> SuspicionScore:
        """Score one object's feature inputs on the output scale.

        Any non-finite or missing input short-circuits to status
        input-error with value exactly 0 and appends one error-log line;
        alarms are never raised from such scores.
        """
        return self.score_record({}, [inputs], [object_id])[0]
