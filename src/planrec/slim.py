"""SLIM: semi-lazy plan recognition.

Bottom-up, each observation commits only to depth-1 fragments, which are
combined with the running local hypotheses four ways: realizing an open
terminal leaf directly, fusing a fragment into a matching open node, joining
a plan and a fragment under a freshly created common parent, or keeping the
fragment as a standalone plan. Local hypotheses never grow paths toward the
goals; on demand, the top-down compiler replays their plans (in creation
order) through a modified PHATT that grafts each plan into goal-rooted
leftmost trees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .grammar import LibraryError, PlanLibrary, Rule
from .metrics import CombinationCounter, drive
from .phatt import PhattConfig, PhattEngine, RecognitionFailure, _merge
from .trees import (
    EMPTY_HYPOTHESIS,
    Hypothesis,
    PlanNode,
    enabled_frontier,
    node_at,
    open_node,
    realized_leaf,
    try_expand,
    try_fuse,
)


@dataclass(frozen=True)
class Fragment:
    """A depth-1 leftmost tree: one rule, one attachment child, created at
    ``created_ts``. The attachment child is realized for terminal-driven
    fragments and left open (marked by position only) for the generalized
    fragments that sibling combination creates parents from."""

    root: PlanNode
    rule: Rule
    attach_pos: int
    created_ts: int


@dataclass(frozen=True)
class TopDownConfig(PhattConfig):
    """SLIM configuration: the PHATT bounds its top-down compiler runs with,
    plus ``k``, how many of the most probable local hypotheses it compiles
    (0 = bottom-up only, None = all of them)."""

    k: int | None = 0

    def __post_init__(self):
        super().__post_init__()
        if self.k is not None and self.k < 0:
            raise ValueError("k must be >= 0 (or None for all)")

    @classmethod
    def for_library(cls, lib: PlanLibrary, k: int | None = 0,
                    max_depth: int | None = None,
                    goal_prior: Mapping[int, float] | None = None) -> "TopDownConfig":
        return replace(super().for_library(lib, max_depth, goal_prior), k=k)


def create_fragments(lib: PlanLibrary, sym: int, ts: int, prune: bool = True) -> tuple[Fragment, ...]:
    """Fragments for ``sym``: one per RHS occurrence that can host it.

    For a terminal (a new observation), the occurrence position must have no
    ordering predecessor, since siblings are all unrealized at creation. For
    a nonterminal (generalized creation used by sibling combination), every
    occurrence qualifies: the attachment stays open, so no constraint can be
    violated before fusion. With ``prune``, rules whose head cannot be
    reached from any goal are dropped.
    """
    if lib.is_terminal(sym):
        out = []
        for rule, pos in lib.containing(sym):
            if rule.preds[pos]:
                continue
            if prune and rule.lhs not in lib.reachable:
                continue
            children = tuple(
                realized_leaf(lib, s, ts) if i == pos else open_node(lib, s)
                for i, s in enumerate(rule.rhs)
            )
            out.append(Fragment(try_expand(lib, rule, children), rule, pos, ts))
        return tuple(out)
    key = ("gen", sym, prune)
    skeleton = lib.tree_cache.get(key)
    if skeleton is None:
        skeleton = []
        for rule, pos in lib.containing(sym):
            if prune and rule.lhs not in lib.reachable:
                continue
            children = tuple(open_node(lib, s) for s in rule.rhs)
            skeleton.append((try_expand(lib, rule, children), rule, pos))
        skeleton = tuple(skeleton)
        lib.tree_cache[key] = skeleton
    return tuple(Fragment(root, rule, pos, ts) for root, rule, pos in skeleton)


# ---------------------------------------------------------------------------
# The four combination functions
# ---------------------------------------------------------------------------


def combine_directly(lib: PlanLibrary, h: Hypothesis, obs: int, ts: int,
                     counter: CombinationCounter | None = None,
                     frontier_cache: dict | None = None) -> list[Hypothesis]:
    """Realize enabled open terminal leaves labeled ``obs`` at ``ts``."""
    out = []
    for pi, p in enumerate(h.plans):
        for path in _frontier(p, frontier_cache):
            node = node_at(p, path)
            if node.symbol != obs:
                continue
            if counter is not None:
                counter.n += 1
            fused = try_fuse(lib, p, path, realized_leaf(lib, obs, ts))
            if fused is not None:
                out.append(h.with_replaced(pi, fused))
    return out


def combine_as_child(lib: PlanLibrary, h: Hypothesis, f: Fragment,
                     counter: CombinationCounter | None = None,
                     frontier_cache: dict | None = None) -> list[Hypothesis]:
    """Fuse the fragment into enabled open nodes matching its root symbol."""
    out = []
    sym = f.root.symbol
    for pi, p in enumerate(h.plans):
        for path in _frontier(p, frontier_cache):
            if node_at(p, path).symbol != sym:
                continue
            if counter is not None:
                counter.n += 1
            fused = try_fuse(lib, p, path, f.root)
            if fused is not None:
                out.append(h.with_replaced(pi, fused))
    return out


def combine_as_sibling(lib: PlanLibrary, h: Hypothesis, f: Fragment, ts: int,
                       prune: bool = True,
                       counter: CombinationCounter | None = None) -> list[Hypothesis]:
    """Join a plan of ``h`` and the fragment under a new common parent.

    Generalized fragments for the fragment's root symbol supply the candidate
    parent rules; the plan grafts at every other position carrying its root
    symbol. Ordering constraints are enforced on the assembled parent, which
    keeps the smallest-timestamp bookkeeping implicit (the new plan's minimum
    realized timestamp is the minimum over both constituents).
    """
    out = []
    parents = create_fragments(lib, f.root.symbol, ts, prune)
    for pi, p in enumerate(h.plans):
        psym = p.symbol
        for g in parents:
            rhs = g.rule.rhs
            j = g.attach_pos
            for i in range(len(rhs)):
                if i == j or rhs[i] != psym:
                    continue
                if counter is not None:
                    counter.n += 1
                children = tuple(
                    p if c == i else (f.root if c == j else open_node(lib, s))
                    for c, s in enumerate(rhs)
                )
                parent = try_expand(lib, g.rule, children)
                if parent is not None:
                    out.append(h.with_replaced(pi, parent))
    return out


def combine_independently(lib: PlanLibrary, h: Hypothesis, f: Fragment,
                          counter: CombinationCounter | None = None) -> Hypothesis:
    """Append the fragment to the hypothesis as a standalone plan."""
    if counter is not None:
        counter.n += 1
    return h.with_plan(f.root)


def _frontier(plan: PlanNode, cache: dict | None):
    if cache is None:
        return enabled_frontier(plan)
    paths = cache.get(plan)
    if paths is None:
        paths = enabled_frontier(plan)
        cache[plan] = paths
    return paths


def k_best(hyps: Iterable[Hypothesis], k: int | None) -> list[Hypothesis]:
    """Top ``k`` by weight, descending; ties broken by canonical form."""
    ranked = sorted(hyps, key=lambda h: (-h.weight, h.canon))
    return ranked if k is None else ranked[:k]


# ---------------------------------------------------------------------------
# Top-down compilation
# ---------------------------------------------------------------------------


def _advance_states(eng: PhattEngine, states: dict[str, Hypothesis],
                    target: PlanNode) -> dict[str, Hypothesis]:
    """One modified-PHATT step: weave ``target`` into every partial
    goal-rooted hypothesis, as a new plan or grafted at an enabled node."""
    lib = eng.lib
    prior = eng.cfg.goal_prior
    cnt = eng.counter
    nxt: dict[str, Hypothesis] = {}
    for s in states.values():
        for plan in eng.grafted(-1, target):  # new goal-rooted plan
            cnt.n += 1
            _merge(nxt, s.with_plan(plan, prior))
        for qi, q in enumerate(s.plans):  # graft into an existing plan
            for path, sym in eng.frontier(q):
                for sub in eng.grafted(sym, target):
                    cnt.n += 1
                    fused = try_fuse(lib, q, path, sub)
                    if fused is not None:
                        _merge(nxt, s.with_replaced(qi, fused, prior))
    return nxt


# ---------------------------------------------------------------------------
# Whole-sequence orchestration
# ---------------------------------------------------------------------------


class SlimEngine:
    """Bottom-up recognition over a sequence plus on-demand compilation."""

    def __init__(self, lib: PlanLibrary, cfg: TopDownConfig | None = None,
                 prune: bool = True, counter: CombinationCounter | None = None):
        self.lib = lib
        self.cfg = cfg or TopDownConfig.for_library(lib)
        self.prune = prune
        self.counter = counter or CombinationCounter()
        self._frontier_cache: dict = {}
        self._phatt = PhattEngine(lib, self.cfg, self.counter)

    def step(self, hyps: tuple[Hypothesis, ...], obs: int, ts: int) -> tuple[Hypothesis, ...]:
        """Combine observation ``obs`` (step ``ts``) with every local hypothesis
        through all four functions, deduplicating by canonical form."""
        lib = self.lib
        if not lib.is_terminal(obs):
            raise LibraryError(f"observation {lib.name(obs)!r} is not a terminal")
        prune, counter, cache = self.prune, self.counter, self._frontier_cache
        out: dict[str, Hypothesis] = {}
        fragments = create_fragments(lib, obs, ts, prune)
        for h in hyps:
            for cand in combine_directly(lib, h, obs, ts, counter, cache):
                _merge(out, cand)
            for f in fragments:
                for cand in combine_as_child(lib, h, f, counter, cache):
                    _merge(out, cand)
                for cand in combine_as_sibling(lib, h, f, ts, prune, counter):
                    _merge(out, cand)
                _merge(out, combine_independently(lib, h, f, counter))
        if not out:
            raise RecognitionFailure(ts, lib.name(obs))
        return tuple(sorted(out.values(), key=lambda h: h.canon))

    def compile_top_down(self, hyps: Iterable[Hypothesis]) -> tuple[list[Hypothesis], int]:
        """Top-down compile the k best local hypotheses; returns the merged
        goal-rooted list and the elapsed microseconds.

        Locals are compiled in ranking order but share state computation
        over common plan-sequence prefixes (the ranking is canonical, so the
        selected locals cluster on shared prefixes); the output equals
        compiling each local alone and keeping one copy of each hypothesis.
        """
        t0 = time.perf_counter_ns()
        selected = k_best(hyps, self.cfg.k)
        per_local: list[list[Hypothesis]] = [[] for _ in selected]
        initial = {EMPTY_HYPOTHESIS.canon: EMPTY_HYPOTHESIS}

        def compile_group(indices: list[int], depth: int, states: dict):
            groups: dict[str, list[int]] = {}
            order: list[PlanNode] = []
            for i in indices:
                plans = selected[i].plans
                if len(plans) == depth:
                    per_local[i] = list(states.values())
                    continue
                key = plans[depth].canon
                if key not in groups:
                    groups[key] = []
                    order.append(plans[depth])
                groups[key].append(i)
            for target in order:
                sub = _advance_states(self._phatt, states, target)
                group = groups[target.canon]
                if sub:
                    compile_group(group, depth + 1, sub)

        compile_group(list(range(len(selected))), 0, initial)

        dedup: set[str] = set()
        merged: list[Hypothesis] = []
        for outputs in per_local:
            for h in sorted(outputs, key=lambda h: (-h.weight, h.canon)):
                if h.canon not in dedup:
                    dedup.add(h.canon)
                    merged.append(h)
        merged.sort(key=lambda h: (-h.weight, h.canon))
        elapsed = (time.perf_counter_ns() - t0) // 1000
        return merged, elapsed


def slim_recognize(lib: PlanLibrary, obs_names: list[str],
                   cfg: TopDownConfig | None = None, prune: bool = True,
                   counter: CombinationCounter | None = None):
    """Bottom-up over the whole sequence, then top-down for the k best.

    Returns ``(local_hypotheses, goal_rooted, per_step_metrics)``.
    """
    engine = SlimEngine(lib, cfg, prune, counter)
    steps = []
    locals_ = drive(lib, obs_names, engine.step, engine.counter, "slim", steps)
    goal_rooted: list[Hypothesis] = []
    if obs_names and engine.cfg.k != 0:
        goal_rooted, _ = engine.compile_top_down(locals_)
    return locals_, goal_rooted, steps
