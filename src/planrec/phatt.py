"""PHATT: incremental goal-rooted plan recognition.

Each observation is combined with every hypothesis either as a new
goal-rooted plan or by fusing a leftmost tree into an enabled open-frontier
node of an existing plan. A leftmost tree derives the observation through a
root-to-leaf path on which every position is free of unsatisfied ordering
predecessors; the degenerate depth-0 tree (the target symbol itself) covers
direct realization of open terminal leaves and direct grafting in the
top-down compiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .grammar import PROB_TOL, LibraryError, PlanLibrary
from .metrics import CombinationCounter, drive
from .trees import (
    EMPTY_HYPOTHESIS,
    Hypothesis,
    Path,
    PlanNode,
    enabled_frontier,
    node_at,
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


def default_max_depth(lib: PlanLibrary) -> int:
    """Twice the longest acyclic derivation depth (exact headroom for
    acyclic libraries); recursive libraries fall back to twice the
    nonterminal count."""
    if lib.acyclic_depth is not None:
        return max(1, 2 * lib.acyclic_depth)
    return max(1, 2 * len(lib.nonterminals))


@dataclass(frozen=True)
class PhattConfig:
    """Engine bounds: leftmost-tree depth cap and goal priors."""

    max_depth: int
    goal_prior: Mapping[int, float]

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        total = sum(self.goal_prior.values())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"goal priors sum to {total!r}, expected 1")

    @classmethod
    def for_library(cls, lib: PlanLibrary, max_depth: int | None = None,
                    goal_prior: Mapping[int, float] | None = None) -> "PhattConfig":
        """Defaults: :func:`default_max_depth` and uniform goal priors."""
        if goal_prior is None:
            goal_prior = {g: 1.0 / len(lib.goals) for g in lib.goals}
        return cls(default_max_depth(lib) if max_depth is None else max_depth, goal_prior)


@dataclass(frozen=True)
class LeftmostTree:
    """A plan with one designated (still open) leaf at ``path``.

    ``root.weight`` is the probability product of the rules the tree
    introduces; realizing or grafting at the designated leaf never changes it.
    """

    root: PlanNode
    path: Path


def leftmost_trees(lib: PlanLibrary, target: int, roots, max_depth: int) -> tuple[LeftmostTree, ...]:
    """All leftmost trees of depth <= max_depth deriving ``target`` from a
    root in ``roots``; the designated path uses only positions with no
    ordering predecessor at any level."""
    out: list[LeftmostTree] = []
    for root in sorted(roots):
        out.extend(_trees_from(lib, root, target, max_depth))
    return tuple(out)


def _trees_from(lib: PlanLibrary, sym: int, target: int, budget: int) -> list[LeftmostTree]:
    res: list[LeftmostTree] = []
    if sym == target:
        res.append(LeftmostTree(open_node(lib, sym), ()))
    if budget > 0 and not lib.is_terminal(sym):
        for rule in lib.rules_for(sym):
            for pos in rule.free_positions:
                for sub in _trees_from(lib, rule.rhs[pos], target, budget - 1):
                    children = tuple(
                        sub.root if i == pos else open_node(lib, s)
                        for i, s in enumerate(rule.rhs)
                    )
                    node = try_expand(lib, rule, children)
                    # fresh trees carry no realized content; always consistent
                    res.append(LeftmostTree(node, (pos,) + sub.path))
    return res


@dataclass(frozen=True)
class HypothesisSet:
    """The hypotheses explaining observations ``1..step``, canonically ordered."""

    step: int
    hypotheses: tuple[Hypothesis, ...]

    @staticmethod
    def initial() -> "HypothesisSet":
        return HypothesisSet(0, (EMPTY_HYPOTHESIS,))


class PhattEngine:
    """Stateful wrapper caching leftmost trees and frontier computations.

    The caches never affect results: :meth:`step` is a pure function of its
    arguments, whatever the engine has seen before.
    """

    def __init__(self, lib: PlanLibrary, cfg: PhattConfig | None = None,
                 counter: CombinationCounter | None = None):
        self.lib = lib
        self.cfg = cfg or PhattConfig.for_library(lib)
        self.counter = counter or CombinationCounter()
        self._tree_memo: dict[tuple[int, int], tuple[LeftmostTree, ...]] = {}
        self._goal_memo: dict[int, tuple[LeftmostTree, ...]] = {}
        self._frontier_memo: dict[PlanNode, tuple[tuple[Path, int], ...]] = {}
        self._graft_memo: dict[tuple[int, PlanNode], tuple[PlanNode, ...]] = {}

    def trees_from(self, root_sym: int, target: int) -> tuple[LeftmostTree, ...]:
        key = (root_sym, target)
        trees = self._tree_memo.get(key)
        if trees is None:
            trees = tuple(_trees_from(self.lib, root_sym, target, self.cfg.max_depth))
            self._tree_memo[key] = trees
        return trees

    def goal_trees(self, target: int) -> tuple[LeftmostTree, ...]:
        trees = self._goal_memo.get(target)
        if trees is None:
            trees = leftmost_trees(self.lib, target, self.lib.goals, self.cfg.max_depth)
            self._goal_memo[target] = trees
        return trees

    def frontier(self, plan: PlanNode) -> tuple[tuple[Path, int], ...]:
        """Enabled open nodes of a plan as (path, symbol) pairs, memoized."""
        entries = self._frontier_memo.get(plan)
        if entries is None:
            entries = tuple(
                (path, node_at(plan, path).symbol) for path in enabled_frontier(plan)
            )
            self._frontier_memo[plan] = entries
        return entries

    def grafted(self, root_sym: int, target: PlanNode) -> tuple[PlanNode, ...]:
        """``target`` grafted into every leftmost tree deriving its root
        symbol from ``root_sym`` (-1 selects the goal roots). Grafting into a
        fresh leftmost tree cannot fail: designated positions have no
        ordering predecessors. Memoized; plans are shared objects, so the
        same target recurs across many local hypotheses."""
        key = (root_sym, target)
        plans = self._graft_memo.get(key)
        if plans is None:
            if root_sym < 0:
                trees = self.goal_trees(target.symbol)
            else:
                trees = self.trees_from(root_sym, target.symbol)
            plans = tuple(
                try_fuse(self.lib, lt.root, lt.path, target) for lt in trees
            )
            self._graft_memo[key] = plans
        return plans

    def step(self, hset: HypothesisSet, obs: int) -> HypothesisSet:
        """Extend every hypothesis with the next observation ``obs``."""
        lib = self.lib
        if not lib.is_terminal(obs):
            raise LibraryError(f"observation {lib.name(obs)!r} is not a terminal")
        n = hset.step + 1
        counter = self.counter
        prior = self.cfg.goal_prior
        out: dict[str, Hypothesis] = {}
        # stamping a fresh leftmost tree never fails, and the stamped trees
        # are identical for every hypothesis in this step
        leaf = realized_leaf(lib, obs, n)
        goal_plans = tuple(
            try_fuse(lib, lt.root, lt.path, leaf) for lt in self.goal_trees(obs)
        )
        stamped_cache: dict[int, tuple[PlanNode, ...]] = {}

        def stamped(sym: int) -> tuple[PlanNode, ...]:
            subs = stamped_cache.get(sym)
            if subs is None:
                subs = tuple(
                    try_fuse(lib, lt.root, lt.path, leaf)
                    for lt in self.trees_from(sym, obs)
                )
                stamped_cache[sym] = subs
            return subs

        for h in hset.hypotheses:
            for plan in goal_plans:  # mode 1: the observation starts a new plan
                counter.n += 1
                _merge(out, h.with_plan(plan, prior))
            for pi, p in enumerate(h.plans):  # mode 2: extend an existing plan
                for path, sym in self.frontier(p):
                    for sub in stamped(sym):
                        counter.n += 1
                        fused = try_fuse(lib, p, path, sub)
                        if fused is not None:
                            _merge(out, h.with_replaced(pi, fused, prior))
        if not out:
            raise RecognitionFailure(n, lib.name(obs))
        ordered = tuple(sorted(out.values(), key=lambda h: h.canon))
        return HypothesisSet(n, ordered)


def _merge(out: dict[str, Hypothesis], cand: Hypothesis):
    prev = out.get(cand.canon)
    if prev is None:
        out[cand.canon] = cand
    elif abs(prev.weight - cand.weight) > PROB_TOL * max(1.0, abs(prev.weight)):
        raise AssertionError(
            f"duplicate hypothesis {cand.canon!r} with diverging weights "
            f"{prev.weight!r} vs {cand.weight!r}"
        )


def phatt_recognize(lib: PlanLibrary, obs_names: list[str],
                    cfg: PhattConfig | None = None,
                    counter: CombinationCounter | None = None):
    """Run PHATT over a whole sequence; returns ``(hypothesis_set, steps)``."""
    engine = PhattEngine(lib, cfg, counter)
    steps = []
    hyps = drive(lib, obs_names,
                 lambda hyps, sym, ts: engine.step(HypothesisSet(ts - 1, hyps), sym).hypotheses,
                 engine.counter, "phatt", steps)
    return HypothesisSet(len(obs_names), hyps), steps


def hypothesis_probability(h: Hypothesis, lib: PlanLibrary, cfg: PhattConfig) -> float:
    """Rule-probability product over all expanded nodes in all plans, times
    the goal prior of every goal-rooted plan (fresh traversal, no caches)."""
    total = 1.0
    for plan in h.plans:
        for node in plan.walk():
            if node.rule is not None:
                total *= node.rule.prob
        total *= cfg.goal_prior.get(plan.symbol, 1.0)
    return total
