"""PHATT: incremental goal-rooted plan recognition.

Each observation is combined with every hypothesis either as a new
goal-rooted plan or by fusing a leftmost tree into an enabled open-frontier
node of an existing plan. A leftmost tree derives the observation through a
root-to-leaf path on which every position is free of unsatisfied ordering
predecessors; the degenerate depth-0 tree (the target symbol itself) covers
direct realization of open terminal leaves and direct grafting.

:meth:`PhattEngine.advance` is the one modified-PHATT step: it weaves a
target node into every hypothesis. PHATT's own step passes the observation's
realized leaf as the target; SLIM's top-down compiler replays the plans of a
local hypothesis through the same method. Its loop, :func:`weave` (append
each new plan, or replace one plan by its combinations), is also SLIM's
bottom-up step, with fragments as the new plans.

Collector policy: :meth:`PhattEngine.advance`, and with it every PHATT step
and every level of SLIM's top-down compile, runs with the cyclic garbage
collector paused (:func:`collector_paused`), and so do
:meth:`~planrec.slim.SlimEngine.step` and
:meth:`~planrec.slim.SlimEngine.compile_top_down`. The objects a call builds
(hypotheses, plan tuples, nodes, memo entries) form no reference cycles, so
the collections the allocations would trigger only rescan a growing heap and
free nothing; reference counting frees what a call drops. Each call restores
the caller's ``gc.isenabled()`` when it returns or raises, and a nested call
leaves the state to the outermost one. The outermost call collects the
youngest generation before it returns, so the one scan of what it built is
part of the call, not of whatever the caller does next.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Collection

from .grammar import PROB_TOL, ObservationError, PlanLibrary
from .metrics import CombinationCounter
from .trees import (
    EMPTY_HYPOTHESIS,
    Hypothesis,
    NodeTable,
    Path,
    PlanNode,
    enabled_frontier,
    open_node,
    realized_leaf,
    try_expand,
    try_fuse,
)


class RecognitionFailure(RuntimeError):
    """No hypothesis explains the observation at ``step``."""

    def __init__(self, step: int, obs: str):
        super().__init__(f"observation {obs!r} at step {step} cannot be explained")
        self.step = step
        self.obs = obs


def collector_paused(method):
    """Decorate ``method`` to run with the cyclic garbage collector paused,
    restoring the state the call found, also when it raises. A call nested
    in another finds the collector paused and leaves it so, at the cost of
    one check. The outermost call collects the youngest generation before it
    returns: its objects would otherwise be scanned at the caller's next
    allocation, and the caller would pay for the call's garbage check."""

    @wraps(method)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return method(*args, **kwargs)
        gc.disable()
        try:
            return method(*args, **kwargs)
        finally:
            gc.collect(0)
            gc.enable()

    return paused


def default_max_depth(lib: PlanLibrary) -> int:
    """Twice the longest acyclic derivation depth (exact headroom for
    acyclic libraries); recursive libraries fall back to twice the
    nonterminal count."""
    if lib.acyclic_depth is not None:
        return max(1, 2 * lib.acyclic_depth)
    return max(1, 2 * len(lib.nonterminals))


@dataclass(frozen=True)
class PhattConfig:
    """Engine bounds: the leftmost-tree depth cap. The library states no
    goal priors, so :meth:`PhattEngine.advance` takes them uniform."""

    max_depth: int

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    @classmethod
    def for_library(cls, lib: PlanLibrary, max_depth: int | None = None) -> "PhattConfig":
        """``max_depth`` defaults to :func:`default_max_depth`."""
        return cls(default_max_depth(lib) if max_depth is None else max_depth)


@dataclass(frozen=True)
class LeftmostTree:
    """A plan with one designated (still open) leaf at ``path``.

    ``root.weight`` is the probability product of the rules the tree
    introduces; realizing or grafting at the designated leaf never changes it.
    """

    root: PlanNode
    path: Path


def _trees_from(nodes: NodeTable, sym: int, target: int, budget: int) -> list[LeftmostTree]:
    lib = nodes.lib
    res: list[LeftmostTree] = []
    if sym == target:
        res.append(LeftmostTree(open_node(nodes, sym), ()))
    if budget > 0 and not lib.is_terminal(sym):
        for rule in lib.rules_for(sym):
            for pos, child in enumerate(rule.rhs):
                # only leftmost slots; a terminal that is not the target derives no tree
                if rule.preds[pos] or (child != target and lib.is_terminal(child)):
                    continue
                for sub in _trees_from(nodes, child, target, budget - 1):
                    children = tuple(
                        sub.root if i == pos else open_node(nodes, s)
                        for i, s in enumerate(rule.rhs)
                    )
                    node = try_expand(nodes, rule, children)
                    # fresh trees carry no realized content; always consistent
                    res.append(LeftmostTree(node, (pos,) + sub.path))
    return res


@dataclass(frozen=True)
class HypothesisSet:
    """The hypotheses explaining observations ``1..step``, in the order built."""

    step: int
    hypotheses: tuple[Hypothesis, ...]

    @staticmethod
    def initial() -> "HypothesisSet":
        return HypothesisSet(0, (EMPTY_HYPOTHESIS,))


class PhattEngine:
    """Stateful wrapper owning the engine's node table and caching leftmost
    trees, grafts, frontiers and graft walks for the engine's life.

    ``nodes``, the engine's :class:`~planrec.trees.NodeTable`, builds every
    node the engine makes, so equal structures are one object and the
    hypotheses, memos and dedup keys compare plans by identity: the caches
    key on plan nodes, and :meth:`advance` walks each plan once per target.
    The caches never affect results: :meth:`advance` and :meth:`step` are
    pure functions of their arguments, whatever the engine has seen before,
    given arguments built from ``nodes`` (its own results, or plans parsed
    with ``parse_hypothesis(engine.nodes, ...)``). ``counter`` counts its
    attempts, and a :class:`~planrec.slim.SlimEngine`'s steps count on it too.
    """

    def __init__(self, lib: PlanLibrary, cfg: PhattConfig | None = None):
        self.lib = lib
        self.cfg = cfg or PhattConfig.for_library(lib)
        self.counter = CombinationCounter()
        self.nodes = NodeTable(lib)
        self._tree_memo: dict[tuple[int, int], tuple[LeftmostTree, ...]] = {}
        self._frontier_memo: dict[PlanNode, tuple[tuple[Path, int], ...]] = {}
        self._graft_memo: dict[tuple[int, PlanNode], tuple[PlanNode, ...]] = {}
        self._fuse_memo: dict[PlanNode, dict[PlanNode, tuple[int, tuple[PlanNode, ...]]]] = {}

    def trees_from(self, root_sym: int, target: int) -> tuple[LeftmostTree, ...]:
        """All leftmost trees of depth <= ``max_depth`` deriving ``target``
        from ``root_sym``; the designated path uses only positions with no
        ordering predecessor at any level. Memoized."""
        key = (root_sym, target)
        trees = self._tree_memo.get(key)
        if trees is None:
            trees = tuple(_trees_from(self.nodes, root_sym, target, self.cfg.max_depth))
            self._tree_memo[key] = trees
        return trees

    def goal_trees(self, target: int) -> tuple[LeftmostTree, ...]:
        """The :meth:`trees_from` of every goal, in goal order."""
        return tuple(lt for g in self.lib.goals for lt in self.trees_from(g, target))

    def frontier(self, plan: PlanNode) -> tuple[tuple[Path, int], ...]:
        """:func:`~planrec.trees.enabled_frontier` of a plan, its enabled
        ``(path, symbol)`` pairs; memoized, since successive steps and
        compile levels share most of their plans."""
        entries = self._frontier_memo.get(plan)
        if entries is None:
            entries = self._frontier_memo[plan] = enabled_frontier(plan)
        return entries

    def grafted(self, root_sym: int, target: PlanNode) -> tuple[PlanNode, ...]:
        """``target`` grafted into every leftmost tree deriving its root
        symbol from ``root_sym`` (-1 selects the goal roots). Grafting into a
        fresh leftmost tree cannot fail: designated positions have no
        ordering predecessors. Memoized; SLIM's top-down compile grafts the
        same plan for many local hypotheses."""
        key = (root_sym, target)
        plans = self._graft_memo.get(key)
        if plans is None:
            if root_sym < 0:
                trees = self.goal_trees(target.symbol)
            else:
                trees = self.trees_from(root_sym, target.symbol)
            plans = tuple(
                try_fuse(self.nodes, lt.root, lt.path, target) for lt in trees
            )
            self._graft_memo[key] = plans
        return plans

    @collector_paused
    def advance(self, hyps: Collection[Hypothesis], target: PlanNode
                ) -> dict[tuple[PlanNode, ...], Hypothesis]:
        """One modified-PHATT step: weave ``target`` into every hypothesis,
        as a new goal-rooted plan or grafted at an enabled open node of one
        of its plans. Returns the results keyed by plan tuple, in the order
        first built.

        This is :func:`weave` with the goal-rooted grafts of ``target`` as
        the appends. A graft into a plan does not depend on the hypothesis
        holding it, so each distinct plan is walked once per engine and
        target: a memo keyed by target, then plan, keeps the walk's attempt
        count and fused plans for the engine's life (compile levels, slim-k
        variants and queries share walks). A walk fuses every entry of the
        plan's :meth:`frontier` with every :meth:`grafted` plan of the
        entry's symbol. Every plan built here is goal-rooted and carries the
        uniform goal prior, ``1 / len(lib.goals)``, once. The cyclic
        collector is paused during the call (:func:`collector_paused`)."""
        def walk(plan: PlanNode) -> tuple[int, tuple[PlanNode, ...]]:
            nodes = self.nodes
            tried = [try_fuse(nodes, plan, path, sub) for path, sym in self.frontier(plan)
                     for sub in self.grafted(sym, target)]
            return len(tried), tuple(f for f in tried if f is not None)

        memo = self._fuse_memo.get(target)
        if memo is None:
            memo = self._fuse_memo[target] = {}
        out, attempts = weave(hyps, self.grafted(-1, target), memo, walk,
                              1.0 / len(self.lib.goals))
        self.counter.n += attempts
        return out

    def step(self, hset: HypothesisSet, obs: int) -> HypothesisSet:
        """Extend every hypothesis with the next observation ``obs``."""
        lib = self.lib
        n = hset.step + 1
        if not lib.is_terminal(obs):
            raise ObservationError(n, lib.name(obs), "is not a terminal")
        out = self.advance(hset.hypotheses, realized_leaf(self.nodes, obs, n))
        if not out:
            raise RecognitionFailure(n, lib.name(obs))
        return HypothesisSet(n, tuple(out.values()))


def weave(hyps: Collection[Hypothesis], appends: tuple[PlanNode, ...], memo: dict,
          combine: Callable[[PlanNode], tuple[int, tuple[PlanNode, ...]]],
          prior: float = 1.0
          ) -> tuple[dict[tuple[PlanNode, ...], Hypothesis], int]:
    """Both engines' step: every hypothesis gets each plan of ``appends``
    appended, then each of its plans replaced, in turn, by every plan that
    ``memo`` gives for it. A plan missing from ``memo`` is combined once,
    ``memo[plan] = combine(plan)``, as ``(attempts, plans)``: a replacement
    does not depend on the hypothesis holding the plan. Returns the results
    keyed by plan tuple, in the order first built (for each hypothesis, its
    appends, then its replacements plan by plan), and the attempts: one per
    append, plus each plan's count for every hypothesis holding it.

    An append is stored without a dedup check, since it can equal no other
    candidate of the call: a plan of ``appends`` holds only observations no
    input hypothesis holds (the newest one, or a compiled plan's), while a
    replacement puts them into a plan that also holds older ones (every plan
    the engines build holds an observation). Two appends are equal only when
    they share the input hypothesis and the appended plan, and the input
    holds no duplicate. Replacements can collide, so they go through
    :func:`_merge`. ``prior`` is the goal prior each plan carries, 1.0 for
    SLIM's locals."""
    out: dict[tuple[PlanNode, ...], Hypothesis] = {}
    attempts = len(hyps) * len(appends)
    for h in hyps:
        for plan in appends:
            cand = h.with_plan(plan, prior)
            out[cand.plans] = cand
        for pi, p in enumerate(h.plans):
            found = memo.get(p)
            if found is None:
                found = memo[p] = combine(p)
            attempts += found[0]
            for node in found[1]:
                _merge(out, h.with_replaced(pi, node, prior))
    return out, attempts


def _merge(out: dict[tuple[PlanNode, ...], Hypothesis], cand: Hypothesis):
    """Keep one hypothesis per plan tuple; equal plans must carry equal weights."""
    prev = out.setdefault(cand.plans, cand)
    if prev is cand:
        return
    if abs(prev.weight - cand.weight) > PROB_TOL * max(1.0, abs(prev.weight)):
        raise AssertionError(
            f"duplicate hypothesis {cand.canon!r} with diverging weights "
            f"{prev.weight!r} vs {cand.weight!r}"
        )
