"""Span tracing around the package's layer boundaries, installed from outside.

The tracer wraps public functions and methods of ``loiterwatch`` modules in
place (module attributes and class attributes), so the package itself is
never edited. Each wrapped call is a span with a layer, a group and a
thread. Per thread the tracer keeps a stack, so a span's self time is its
duration minus the time of the spans nested directly inside it, and the
self times of one thread add up to the time its outermost spans cover.

Groups name what a metric measures. A call nested inside another call of
the same group (``DecisionLog.write`` calling ``write_csv``) is not counted
again, so a group's busy seconds never double count.

A boundary that a later version of the package no longer has is recorded
as absent; its metrics read 0 and the result file lists it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

# (layer, group, module, attribute path). Layers are the package's modules.
BOUNDARIES = [
    ("tracking", "tracking.frame", "loiterwatch.tracking", "TrackFeatureExtractor.process_frame"),
    ("fuzzy", "fuzzy.build", "loiterwatch.fuzzy.engine", "FuzzyEngine.__init__"),
    ("fuzzy", "fuzzy.score", "loiterwatch.fuzzy.engine", "FuzzyEngine.score_object"),
    ("fuzzy", "fuzzy.fuzzify", "loiterwatch.fuzzy.engine", "FuzzyEngine.fuzzify_all"),
    ("fuzzy", "fuzzy.infer", "loiterwatch.fuzzy.engine", "FuzzyEngine.infer"),
    ("fuzzy", "fuzzy.defuzzify", "loiterwatch.fuzzy.engine", "FuzzyEngine.defuzzify"),
    ("context", "context.record", "loiterwatch.context", "FogPipeline.process_record"),
    ("logs", "logs.append", "loiterwatch.logs", "DecisionLog.append"),
    ("logs", "logs.write", "loiterwatch.logs", "DecisionLog.write"),
    ("logs", "logs.write", "loiterwatch.logs", "write_csv"),
    ("logs", "logs.error", "loiterwatch.logs", "ErrorLog.append"),
    ("transport.wire", "transport.wire.encode", "loiterwatch.transport.wire", "encode_record"),
    ("transport.wire", "transport.wire.decode", "loiterwatch.transport.wire", "decode_record"),
    ("transport.session", "transport.session.seal", "loiterwatch.transport.session", "Session.seal"),
    ("transport.session", "transport.session.open", "loiterwatch.transport.session", "Session.open"),
    ("transport.session", "transport.session.seal", "loiterwatch.transport.session", "SymmetricSession.seal"),
    ("transport.session", "transport.session.open", "loiterwatch.transport.session", "SymmetricSession.open"),
    ("transport.session", "transport.session.wrap", "loiterwatch.transport.session", "wrap_session_key"),
    ("transport.session", "transport.session.unwrap", "loiterwatch.transport.session", "unwrap_session_key"),
    ("transport.net", "transport.net.send", "loiterwatch.transport.net", "FeatureSender.send_record"),
    ("transport.net", "transport.net.connect", "loiterwatch.transport.net", "FeatureSender.connect"),
    ("transport.net", "transport.net.close", "loiterwatch.transport.net", "FeatureSender.close"),
    ("transport.net", "transport.net.start", "loiterwatch.transport.net", "FogReceiver.start"),
    ("transport.net", "transport.net.stop", "loiterwatch.transport.net", "FogReceiver.stop"),
    ("harness.scenarios", "harness.scenarios.generate", "loiterwatch.harness.scenarios", "generate_scenario"),
    ("harness.scenarios", "harness.scenarios.labels", "loiterwatch.harness.scenarios", "Scenario.labels"),
    ("harness.dataset", "harness.dataset.load", "loiterwatch.harness.dataset", "load_track_dataset"),
    ("harness.dataset", "harness.dataset.group", "loiterwatch.harness.dataset", "group_frames"),
    ("harness.evaluation", "harness.evaluation.evaluate", "loiterwatch.harness.evaluation", "evaluate_scenario"),
    ("harness.evaluation", "harness.evaluation.evaluate", "loiterwatch.harness.evaluation", "emit_report"),
    ("harness.replay", "harness.replay.replay", "loiterwatch.harness.replay", "replay_scenario"),
    ("harness.suite", "harness.suite.run", "loiterwatch.harness.suite", "run_suite"),
]

LAYERS = sorted({layer for layer, *_ in BOUNDARIES})


class _ThreadState:
    def __init__(self, main: bool):
        self.main = main
        self.stack: list[list[float]] = []   # [seconds of nested spans] per open span
        self.open_groups: defaultdict = defaultdict(int)
        self.durations: defaultdict = defaultdict(lambda: array("d"))
        self.self_calls: defaultdict = defaultdict(lambda: array("d"))
        self.self_s: defaultdict = defaultdict(float)   # layer -> self seconds
        self.top: list[tuple[float, float]] = []        # outermost span intervals


class Tracer:
    """Collects spans from every thread; read the totals after the run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_ident = threading.main_thread().ident
        self.states: list[_ThreadState] = []
        self.absent: list[str] = []
        self.counters: defaultdict = defaultdict(float)
        # group -> callable(args, result), run after the span closes
        self.observers: dict = {}
        self._originals: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident() == self._main_ident)
            self._local.state = st
            with self._lock:
                self.states.append(st)
        return st

    def wrap(self, layer: str, group: str, fn):
        state = self._state
        observe = self.observers.get(group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            outer_of_group = st.open_groups[group] == 0
            st.open_groups[group] += 1
            nested = [0.0]
            st.stack.append(nested)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.open_groups[group] -= 1
                dur = t1 - t0
                own = dur - nested[0]
                st.self_s[layer] += own
                if outer_of_group:
                    st.durations[group].append(dur)
                    st.self_calls[group].append(own)
                if st.stack:
                    st.stack[-1][0] += dur
                else:
                    st.top.append((t0, t1))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> "Tracer":
        for layer, group, module_name, path in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}:{path}")
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or (owner_name and attr not in vars(owner)) \
                    or (not owner_name and not hasattr(owner, attr)):
                self.absent.append(f"{module_name}:{path}")
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(layer, group, original)
            if owner_name:
                self._set(owner, attr, wrapped)
            else:
                # A from-import binds the function in the importing module too.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("loiterwatch") \
                            and getattr(mod, attr, None) is original:
                        self._set(mod, attr, wrapped)
        return self

    def _set(self, owner, attr, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    # -- reading -----------------------------------------------------------

    def durations(self, group: str) -> list[float]:
        out: list[float] = []
        for st in self.states:
            out.extend(st.durations.get(group, ()))
        return out

    def self_calls(self, group: str) -> list[float]:
        out: list[float] = []
        for st in self.states:
            out.extend(st.self_calls.get(group, ()))
        return out

    def busy(self, group: str) -> float:
        """Seconds in the group's outermost calls."""
        return sum(self.durations(group))

    def layer_self(self, layer: str) -> float:
        return sum(st.self_s.get(layer, 0.0) for st in self.states)

    def balance(self, windows: list[tuple[float, float]]) -> list[dict]:
        """Per thread: layer self time, time outside every span, and how far
        their sum is from the wall time of the traced windows (the passes).

        The time outside spans is summed from the gaps between outermost
        spans, not taken as wall minus self, so a broken span nesting or a
        span outside the passes shows up as a nonzero error.
        """
        wall = sum(end - start for start, end in windows)
        rows = []
        for st in self.states:
            intervals = sorted(st.top)
            gaps = 0.0
            for start, end in windows:
                cursor = start
                for a, b in intervals:
                    a, b = max(a, start), min(b, end)
                    if b <= a:
                        continue
                    if a > cursor:
                        gaps += a - cursor
                    cursor = max(cursor, b)
                gaps += max(0.0, end - cursor)
            attributed = sum(st.self_s.values())
            rows.append({
                "main": st.main,
                "attributed_s": attributed,
                "unattributed_s": gaps,
                "wall_s": wall,
                "error_pct": 100.0 * abs(attributed + gaps - wall) / wall if wall > 0 else 0.0,
            })
        return rows
