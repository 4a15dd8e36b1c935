"""Per-layer tracing by wrapping the package's public functions.

``Tracer.install`` replaces each traced function with a timing wrapper at
every module that binds it (``cli.bellman_value`` and
``verify.bellman_value`` as well as ``candidate.bellman_value``), so calls
inside the package are seen too.  Each call is a span; a span's self time
is its duration minus the durations of the wrapped calls it made.
Aggregates are kept for every traced call; whole spans are kept in memory
only while ``record`` is set, and written out by the benchmark at the end.
"""

from __future__ import annotations

import copy
import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Layer -> functions traced in it.  ``DyadicSet.from_intervals`` is a
# classmethod and is wrapped on its class.
TRACED = {
    "rational": ("format_rational", "parse_rational"),
    "geometry": ("lerp",),
    "candidate": (
        "bellman_value",
        "vertex_f",
        "curve_x",
        "curve_height",
        "f_value",
        "g_value",
        "profile_slopes",
    ),
    "dyadic": (
        "step_pieces",
        "level_set_measure",
        "concat_configs",
        "carleson_constant",
        "DyadicSet.from_intervals",
    ),
    "extremal": ("interpret", "curve_vertex_config", "attainment_report"),
    "verify": ("run_suite", "iter_binary_carleson", "brute_force_sup"),
    "cli": ("main",),
}

# Level buckets of bellman_value calls: (name, highest level in it).
LEVEL_BUCKETS = (
    ("level_le_10", 10),
    ("level_le_100", 100),
    ("level_le_1000", 1000),
    ("level_gt_1000", None),
)


def level_bucket(level) -> str:
    return next(name for name, top in LEVEL_BUCKETS if top is None or level <= top)


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class _Frame:
    start: int
    span_id: int
    child_ns: int = 0
    kind: str | None = None  # bellman_value frames: "" until classify_region tags them


@dataclass
class Checkpoint:
    stats: dict
    counters: dict
    spans: int
    depth: int


@dataclass
class Tracer:
    active: bool = False
    record: bool = False
    stats: dict[str, Stat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    spans: list[tuple[int, int, str, int, int]] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _next_id: int = 0

    # -- installation -------------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced functions of ``package`` wherever they are bound."""
        modules = [package] + [getattr(package, layer) for layer in TRACED]
        for layer, names in TRACED.items():
            module = getattr(package, layer)
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr].__func__
                    setattr(cls, attr, classmethod(self._wrap(f"{layer}.{name}", original)))
                    continue
                original = getattr(module, name)
                self._rebind(modules, original, self._wrap(f"{layer}.{name}", original))
        # classify_region is not a span: it tags the enclosing bellman_value
        # call with its region kind.
        classify = package.candidate.classify_region
        self._rebind(modules, classify, self._tag_kind(classify))

    @staticmethod
    def _rebind(modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _tag_kind(self, classify):
        stack = self._stack

        @functools.wraps(classify)
        def wrapper(*args, **kwargs):
            tag = classify(*args, **kwargs)
            if self.active and stack and stack[-1].kind == "":
                stack[-1].kind = tag.kind.value
            return tag

        return wrapper

    def _wrap(self, name: str, fn):
        generator = inspect.isgeneratorfunction(fn)
        clock = time.perf_counter_ns
        stack = self._stack
        is_bellman = name == "candidate.bellman_value"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._open(clock())
            if is_bellman:
                frame.kind = ""
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = list(result)  # consume inside the span
            except BaseException:
                self._close(name, frame, clock())
                raise
            end = clock()
            self._close(name, frame, end)
            self._annotate(name, frame, end - frame.start, args, result)
            return iter(result) if generator else result

        return wrapper

    # -- spans ----------------------------------------------------------

    def _open(self, start: int) -> _Frame:
        span_id = -1
        if self.record:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(start, span_id)
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: _Frame, end: int) -> None:
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_ns += duration
        self._add(name, duration, duration - frame.child_ns)
        if frame.span_id >= 0:
            parent = stack[-1].span_id if stack else -1
            self.spans.append((frame.span_id, parent, name, frame.start, end))

    def _add(self, key: str, total_ns: int, self_ns: int) -> None:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.calls += 1
        stat.total_ns += total_ns
        stat.self_ns += self_ns

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _annotate(self, name: str, frame: _Frame, duration: int, args, result) -> None:
        self_ns = duration - frame.child_ns
        if name == "candidate.bellman_value":
            if frame.kind:
                self._add(f"{name}|kind|{frame.kind}", duration, self_ns)
            level = args[2] if len(args) > 2 else None
            if level is not None:
                self._add(f"{name}|level|{level_bucket(level)}", duration, self_ns)
        elif name == "verify.run_suite" and args:
            self._add(f"{name}|suite|{args[0]}", duration, self_ns)
        elif name == "dyadic.step_pieces":
            self.count("dyadic.step_pieces.pieces", len(result))
        elif name == "extremal.curve_vertex_config":
            self.count("extremal.curve_vertex_config.weights", len(result.seq.weights))
        elif name == "verify.iter_binary_carleson":
            self.count("verify.iter_binary_carleson.sequences", len(result))
        elif name == "verify.brute_force_sup":
            self.count("verify.brute_force_sup.configs_scanned", result.configs_scanned)
            self.count("verify.brute_force_sup.entries", len(result.entries))

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, around one operation."""
        if not self.active:
            yield
            return
        frame = self._open(time.perf_counter_ns())
        try:
            yield
        finally:
            self._close(name, frame, time.perf_counter_ns())

    # -- checkpoints ------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(
            copy.deepcopy(self.stats), dict(self.counters), len(self.spans), len(self._stack)
        )

    def restore(self, point: Checkpoint) -> None:
        """Drop everything traced since ``point`` (an operation cut off by its time limit)."""
        self.stats = point.stats
        self.counters = point.counters
        del self.spans[point.spans :]
        del self._stack[point.depth :]

