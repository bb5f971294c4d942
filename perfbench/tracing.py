"""Per-layer tracing of planrec, installed from the benchmark's own files.

:class:`Tracer` replaces public functions and methods of the package with
wrappers: in the module that defines each one and in every ``planrec``
module that imported the same object (``planrec.trees.try_fuse`` and
``planrec.slim.try_fuse`` alike). :meth:`Tracer.uninstall` puts every
original back.

Two kinds of wrapper share one call stack, so each call's self time is its
wall time minus the part its wrapped callees cover:

* boundary spans (setup, one instance's variant, an engine step, a top-down
  compile, an online query) are kept as records with a parent link;
* hot inner calls (fusion, frontier, hypothesis build, combiners, memos)
  are only aggregated: calls, total time and self time per name, plus the
  outcome counts that give accept and hit rates.
"""

from __future__ import annotations

import contextlib
import sys
import time
import weakref

from planrec.phatt import PhattEngine
from planrec.slim import SlimEngine
from planrec.trees import Hypothesis

_clock = time.perf_counter_ns

# (defining module, function name, traced name, outcome kind)
FUNCTIONS = (
    ("planrec.grammar", "parse_library", "grammar.parse_library", None),
    ("planrec.trees", "try_fuse", "trees.try_fuse", "accepted"),
    ("planrec.trees", "try_expand", "trees.try_expand", "accepted"),
    ("planrec.trees", "enabled_frontier", "trees.enabled_frontier", None),
    ("planrec.slim", "create_fragments", "slim.create_fragments", None),
    ("planrec.slim", "combine_directly", "slim.combine_directly", "out"),
    ("planrec.slim", "combine_as_child", "slim.combine_as_child", "out"),
    ("planrec.slim", "combine_as_sibling", "slim.combine_as_sibling", "out"),
    ("planrec.slim", "combine_independently", "slim.combine_independently", "out"),
    ("planrec.slim", "k_best", "topdown.k_best", None),
    ("planrec.metrics", "snapshot", "metrics.snapshot", None),
    ("planrec.runner", "emit_hypotheses", "runner.emit", None),
    ("planrec.runner", "write_metrics_csv", "runner.emit", None),
)

# (class, method name, traced name, outcome kind)
METHODS = (
    (PhattEngine, "trees_from", "phatt.leftmost", None),
    (PhattEngine, "goal_trees", "phatt.leftmost", None),
    (PhattEngine, "grafted", "phatt.grafted", "distinct"),
    (PhattEngine, "frontier", "phatt.frontier", "distinct"),
    (Hypothesis, "build", "trees.hypothesis_build", "candidates"),
)

# (class, method name, span name, what the result adds to "<span>.kept")
BOUNDARIES = (
    (PhattEngine, "step", "phatt.step", lambda r: len(r.hypotheses)),
    (SlimEngine, "step", "slim.step", len),
    (SlimEngine, "compile_top_down", "topdown.compile", lambda r: len(r[0])),
)


def _planrec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "planrec" or name.startswith("planrec."))]


def patch_targets():
    """Every (owner, attribute) pair the tracer replaces, with the object it
    holds now. Used to check that uninstalling restored all of them."""
    out = {}
    for module_name, attr, _, _ in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        for module in _planrec_modules():
            if getattr(module, attr, None) is original:
                out[(module.__name__, attr)] = original
    for cls, attr, *_ in METHODS + BOUNDARIES:
        out[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return out


class Tracer:
    def __init__(self):
        self.stack = [[0]]  # one frame per open wrapped call: [child ns]
        self.calls: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts: dict[str, int] = {}  # outcome counters, e.g. "trees.try_fuse.accepted"
        self.spans: list[dict] = []
        self._open: list[int] = []  # ids of the open boundary spans
        self._boundary = "none"  # innermost open boundary span, for candidates
        self._keys = weakref.WeakKeyDictionary()  # engine -> {name: set of key hashes}
        self._key_sets: dict[str, list[set]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _add(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A boundary span: a record with a parent link, timed on the stack."""
        stat = self.calls.setdefault(name, [0, 0, 0])
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "name": name, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        outer, self._boundary = self._boundary, name
        frame = [0]
        self.stack.append(frame)
        t0 = _clock()
        try:
            yield record
        finally:
            t1 = _clock()
            self.stack.pop()
            self.stack[-1][0] += t1 - t0
            stat[0] += 1
            stat[1] += t1 - t0
            stat[2] += t1 - t0 - frame[0]
            record["start_ns"], record["end_ns"] = t0, t1
            self._open.pop()
            self._boundary = outer

    def _hot(self, name: str, fn, after=None):
        stack = self.stack
        stat = self.calls.setdefault(name, [0, 0, 0])

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _boundary_method(self, name: str, fn, kept):
        def wrapper(engine, *args, **kwargs):
            before = engine.counter.n
            with self.span(name):
                result = fn(engine, *args, **kwargs)
            self._add(f"{name}.combinations", engine.counter.n - before)
            self._add(f"{name}.kept", kept(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _outcome(self, name: str, kind: str | None):
        if kind == "accepted":
            key = f"{name}.accepted"
            return lambda args, result: result is not None and self._add(key)
        if kind == "out":
            key = f"{name}.out"
            return lambda args, result: self._add(key, len(result) if isinstance(result, list) else 1)
        if kind == "candidates":
            return lambda args, result: self._add(f"{self._boundary}.candidates")
        if kind == "distinct":
            sets = self._key_sets.setdefault(name, [])

            def after(args, result):
                per_engine = self._keys.get(args[0])
                if per_engine is None:
                    per_engine = self._keys[args[0]] = {}
                seen = per_engine.get(name)
                if seen is None:
                    seen = per_engine[name] = set()
                    sets.append(seen)
                seen.add(hash(args[1:]))

            return after
        return None

    def distinct(self, name: str) -> int:
        return sum(len(s) for s in self._key_sets.get(name, ()))

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, kind in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._hot(name, original, self._outcome(name, kind))
            for module in _planrec_modules():
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for cls, attr, name, kind in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._hot(name, raw.__func__,
                                                              self._outcome(name, kind))))
            else:
                self._patch(cls, attr, self._hot(name, raw, self._outcome(name, kind)))
        for cls, attr, name, kept in BOUNDARIES:
            self._patch(cls, attr, self._boundary_method(name, cls.__dict__[attr], kept))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, zero_yield: dict[str, list[int]],
                  untraced_wall: float, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    def calls(name):
        return tracer.calls.get(name, [0, 0, 0])[0]

    def total(name):
        return tracer.calls.get(name, [0, 0, 0])[1] / 1e9

    def self_s(name):
        return tracer.calls.get(name, [0, 0, 0])[2] / 1e9

    def count(name):
        return tracer.counts.get(name, 0)

    out = {"grammar.parse_library.s": (total("grammar.parse_library"), "s")}
    for engine in ("phatt", "slim"):
        step = f"{engine}.step"
        out[f"{step}.s"] = (total(step), "s")
        out[f"{step}.self_s"] = (self_s(step), "s")
        out[f"{engine}.combinations"] = (count(f"{step}.combinations"), "count")
        out[f"{engine}.candidates"] = (count(f"{step}.candidates"), "count")
        out[f"{engine}.kept"] = (count(f"{step}.kept"), "count")
        out[f"{engine}.dedup_ratio"] = (
            _ratio(count(f"{step}.kept"), count(f"{step}.candidates")), "ratio")
        if engine == "phatt":
            out["phatt.leftmost.s"] = (total("phatt.leftmost"), "s")
            for memo in ("grafted", "frontier"):
                name = f"phatt.{memo}"
                out[f"{name}.calls"] = (calls(name), "count")
                out[f"{name}.hit_rate"] = (
                    1.0 - _ratio(tracer.distinct(name), calls(name)) if calls(name) else 0.0,
                    "ratio")
    out["slim.create_fragments.calls"] = (calls("slim.create_fragments"), "count")
    out["slim.create_fragments.s"] = (total("slim.create_fragments"), "s")
    for combiner in ("combine_directly", "combine_as_child", "combine_as_sibling",
                     "combine_independently"):
        name = f"slim.{combiner}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (total(name), "s")
        out[f"{name}.out"] = (count(f"{name}.out"), "count")
    out["topdown.compile.calls"] = (calls("topdown.compile"), "count")
    out["topdown.compile.s"] = (total("topdown.compile"), "s")
    out["topdown.candidates"] = (count("topdown.compile.candidates"), "count")
    out["topdown.goal_rooted"] = (count("topdown.compile.kept"), "count")
    out["topdown.dedup_ratio"] = (
        _ratio(count("topdown.compile.kept"), count("topdown.compile.candidates")), "ratio")
    out["topdown.k_best.s"] = (total("topdown.k_best"), "s")
    for tag in ("slim-100", "slim-1000"):
        zero, seen = zero_yield.get(tag, (0, 0))
        out[f"topdown.zero_yield_frac.k{tag.split('-')[1]}"] = (_ratio(zero, seen), "ratio")
    for name in ("try_fuse", "try_expand"):
        full = f"trees.{name}"
        out[f"{full}.calls"] = (calls(full), "count")
        out[f"{full}.s"] = (total(full), "s")
        out[f"{full}.accept_rate"] = (_ratio(count(f"{full}.accepted"), calls(full)), "ratio")
    out["trees.enabled_frontier.calls"] = (calls("trees.enabled_frontier"), "count")
    out["trees.enabled_frontier.s"] = (total("trees.enabled_frontier"), "s")
    out["trees.hypothesis_build.calls"] = (calls("trees.hypothesis_build"), "count")
    out["trees.hypothesis_build.s"] = (total("trees.hypothesis_build"), "s")
    out["metrics.snapshot.s"] = (total("metrics.snapshot"), "s")
    out["runner.overhead.s"] = (self_s("drive"), "s")
    out["runner.emit.s"] = (total("runner.emit"), "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.overhead_frac"] = (_ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    return out
