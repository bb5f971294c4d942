"""Synthetic AND/OR benchmark domains and agent simulation.

The generator builds libraries of alternating AND/OR levels below each goal:
AND nonterminals expand through a single rule with ``and_branch`` children,
OR nonterminals through ``or_branch`` single-child rules with uniform
probabilities. Nodes at distance ``depth`` from a goal are terminals drawn
(with reuse) from a fixed pool. AND rules receive a total order with
probability ``ordered_fraction``, independently per rule.

A simulated agent samples a goal and a complete plan for it, then executes
the plan the way PHATT models execution: each next action is drawn from the
plan's :func:`~planrec.trees.enabled_frontier`, the same set of enabled
actions the recognizers extend.

All randomness flows through ``random.Random`` (MT19937), so equal seeds
reproduce libraries and observation sequences bit-for-bit anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .grammar import LibraryError, PlanLibrary, build_library
from .trees import (NodeTable, PlanNode, enabled_frontier, open_node, realized_leaf,
                    try_expand, try_fuse)


@dataclass(frozen=True)
class DomainParams:
    num_goals: int = 5
    and_branch: int = 3
    or_branch: int = 2
    depth: int = 3
    num_terminals: int = 100
    ordered_fraction: float = 1.0
    seed: int = 0
    share_subtrees: bool = False

    def __post_init__(self):
        if self.num_goals < 1:
            raise ValueError("num_goals must be >= 1")
        if self.and_branch < 2 or self.or_branch < 2:
            raise ValueError("branch factors must be >= 2")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.num_terminals < 1:
            raise ValueError("num_terminals must be >= 1")
        if not 0.0 <= self.ordered_fraction <= 1.0:
            raise ValueError("ordered_fraction must be in [0, 1]")


@dataclass(frozen=True)
class DomainStats:
    num_complex_actions: int
    num_rules: int
    plan_leaf_count: int | None  # None when complete plans disagree on size


def generate_domain(params: DomainParams) -> PlanLibrary:
    """Deterministically generate a library from the parameters."""
    rng = random.Random(params.seed)
    terminals = [f"t{i}" for i in range(params.num_terminals)]
    nonterminals: list[str] = []
    goals: list[str] = []
    rule_specs: list = []
    # one reuse pool per level, only consulted when share_subtrees is on
    pools: dict[int, list[str]] = {}

    def draw_terminal() -> str:
        return terminals[rng.randrange(params.num_terminals)]

    def build(name: str, level: int) -> str:
        nonterminals.append(name)
        pools.setdefault(level, []).append(name)
        is_and = level % 2 == 0
        if is_and:
            ordered = rng.random() < params.ordered_fraction
            children = [child(f"{name}_{c + 1}", level + 1) for c in range(params.and_branch)]
            pairs = [(i, i + 1) for i in range(1, params.and_branch)] if ordered else []
            rule_specs.append((name, children, pairs, 1.0))
        else:
            # two alternatives may draw the same child (terminal reuse or a
            # shared subtree); merge them, summing the probability mass
            alternatives: dict[str, float] = {}
            for r in range(params.or_branch):
                c = child(f"{name}_{r + 1}", level + 1)
                alternatives[c] = alternatives.get(c, 0.0) + 1.0 / params.or_branch
            for c, prob in alternatives.items():
                rule_specs.append((name, [c], [], prob))
        return name

    def child(name: str, level: int) -> str:
        if level == params.depth:
            return draw_terminal()
        if params.share_subtrees:
            pool = pools.get(level, [])
            if pool and rng.randrange(2):
                return pool[rng.randrange(len(pool))]
        return build(name, level)

    for gi in range(params.num_goals):
        goals.append(build(f"g{gi}", 0))

    return build_library(terminals, nonterminals, goals, rule_specs)


def simulate_agent(lib: PlanLibrary, seed: int) -> list[str]:
    """Sample one goal and one complete plan for it, then execute the plan:
    each action is drawn uniformly from the plan's
    :func:`~planrec.trees.enabled_frontier`, the open leaves whose ordering
    predecessors are all done, and realized at the next timestamp. Returns
    the terminal names in execution order, one linear extension of the
    plan's ordering constraints. Raises :class:`LibraryError` when a sampled
    nonterminal has no rules or the plan outgrows an expansion budget (a
    heavily recursive library)."""
    rng = random.Random(seed)
    nodes = NodeTable(lib)
    goal = lib.goals[rng.randrange(len(lib.goals))]
    plan = _sample_plan(nodes, goal, rng, [8 * max(1, len(lib.nonterminals))])
    sequence: list[str] = []
    while plan.open_count:
        entries = enabled_frontier(plan)
        path, sym = entries[rng.randrange(len(entries))]
        sequence.append(lib.name(sym))
        plan = try_fuse(nodes, plan, path, realized_leaf(nodes, sym, len(sequence)))
    return sequence


def _sample_plan(nodes: NodeTable, sym: int, rng: random.Random, budget: list[int]) -> PlanNode:
    """A complete plan for ``sym`` with every leaf open, its rules drawn by
    probability in pre-order; ``budget[0]`` counts the expansions left."""
    lib = nodes.lib
    if lib.is_terminal(sym):
        return open_node(nodes, sym)
    budget[0] -= 1
    if budget[0] < 0:
        raise LibraryError("plan sampling exceeded expansion budget "
                           "(is the library heavily recursive?)")
    rules = lib.rules_for(sym)
    if not rules:
        raise LibraryError(f"nonterminal {lib.name(sym)!r} has no rules")
    r = rng.random() * sum(rule.prob for rule in rules)
    acc = 0.0
    chosen = rules[-1]
    for rule in rules:
        acc += rule.prob
        if r < acc:
            chosen = rule
            break
    # open children satisfy every ordering constraint, so this never fails
    children = tuple(_sample_plan(nodes, s, rng, budget) for s in chosen.rhs)
    return try_expand(nodes, chosen, children)


def library_stats(lib: PlanLibrary) -> DomainStats:
    """Complex-action and rule counts plus the (unique) complete-plan size."""
    return DomainStats(
        num_complex_actions=len(lib.nonterminals),
        num_rules=len(lib.rules),
        plan_leaf_count=_plan_leaf_count(lib),
    )


def _plan_leaf_count(lib: PlanLibrary) -> int | None:
    ACTIVE = object()
    memo: dict[int, object] = {}

    def count(sym: int):
        if lib.is_terminal(sym):
            return 1
        got = memo.get(sym)
        if got is ACTIVE:
            return None  # recursive: no fixed plan size
        if got is not None:
            return got
        memo[sym] = ACTIVE
        sizes = set()
        for rule in lib.rules_for(sym):
            parts = [count(s) for s in rule.rhs]
            if any(p is None for p in parts):
                memo[sym] = None
                return None
            sizes.add(sum(parts))
        if len(sizes) != 1:
            memo[sym] = None
            return None
        memo[sym] = sizes.pop()
        return memo[sym]

    sizes = {count(g) for g in lib.goals}
    if len(sizes) == 1 and None not in sizes:
        return sizes.pop()
    return None
