"""Synthetic AND/OR benchmark domains and agent simulation.

The generator builds libraries of alternating AND/OR levels below each goal:
AND nonterminals expand through a single rule with ``and_branch`` children,
OR nonterminals through ``or_branch`` single-child rules with uniform
probabilities. Nodes at distance ``depth`` from a goal are terminals drawn
(with reuse) from a fixed pool. AND rules receive a total order with
probability ``ordered_fraction``, independently per rule.

All randomness flows through ``random.Random`` (MT19937), so equal seeds
reproduce libraries and observation sequences bit-for-bit anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .grammar import LibraryError, PlanLibrary, build_library


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
    """Sample one goal, one complete plan for it, and one linear extension
    of the plan's ordering constraints; returns terminal names in order.
    Raises :class:`LibraryError` when a sampled nonterminal has no rules or
    the plan outgrows an expansion budget (a heavily recursive library)."""
    rng = random.Random(seed)
    goal = lib.goals[rng.randrange(len(lib.goals))]
    tree = _sample_tree(lib, goal, rng, budget=8 * max(1, len(lib.nonterminals)))
    sequence: list[str] = []
    pending = _leaves(tree)
    emitted: set[int] = set()
    while pending:
        enabled = [leaf for leaf in pending if _leaf_enabled(tree, leaf, emitted)]
        pick = enabled[rng.randrange(len(enabled))]
        sequence.append(lib.name(pick[0]))
        emitted.add(pick[1])
        pending.remove(pick)
    return sequence


class _SimNode:
    __slots__ = ("sym", "rule", "children", "leaf_ids")

    def __init__(self, sym, rule, children, leaf_ids):
        self.sym = sym
        self.rule = rule
        self.children = children
        self.leaf_ids = leaf_ids  # frozenset of leaf identifiers in the subtree


def _sample_tree(lib: PlanLibrary, sym: int, rng: random.Random, budget: int,
                 _counter: list[int] | None = None) -> _SimNode:
    if _counter is None:
        _counter = [0, 0]  # (expansions, leaf ids)
    if lib.is_terminal(sym):
        leaf_id = _counter[1]
        _counter[1] += 1
        return _SimNode(sym, None, (), frozenset([leaf_id]))
    _counter[0] += 1
    if _counter[0] > budget:
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
    children = tuple(_sample_tree(lib, s, rng, budget, _counter) for s in chosen.rhs)
    ids = frozenset().union(*(c.leaf_ids for c in children))
    return _SimNode(sym, chosen, children, ids)


def _leaves(tree: _SimNode) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []

    def collect(node: _SimNode):
        if node.rule is None:
            (leaf_id,) = node.leaf_ids
            out.append((node.sym, leaf_id))
            return
        for child in node.children:
            collect(child)

    collect(tree)
    return out


def _leaf_enabled(tree: _SimNode, leaf: tuple[int, int], emitted: set[int]) -> bool:
    """A leaf may be executed next iff, at every ancestor rule, every
    position ordered before the leaf's branch is fully emitted."""
    leaf_id = leaf[1]

    def enabled(node: _SimNode) -> bool:
        if node.rule is None:
            return True
        for j, child in enumerate(node.children):
            if leaf_id in child.leaf_ids:
                for i in node.rule.preds[j]:
                    if not node.children[i].leaf_ids <= emitted:
                        return False
                return enabled(child)
        raise AssertionError("leaf not under node")

    return enabled(tree)


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
