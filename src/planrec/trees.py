"""Derivation trees, hypotheses, fusion, and canonical serialization.

Nodes are immutable. Every combination operation builds new nodes along the
changed root-to-node path and shares everything else (persistent-tree
semantics), so plans can be held by many hypotheses at once. The statistics a
recognizer needs on every validity check (completeness, timestamp range,
rule-probability product, open-frontier count) are computed once per node at
construction.

Serialization grammar, also used as the canonical deduplication key::

    node := name '?' | name '@' int | name '(' node (' ' node)* ')'

``?`` marks an open-frontier node, ``@t`` a realized leaf at timestamp ``t``,
and parentheses an expanded nonterminal with children in RHS order. For the
rare library containing two rules with identical head and RHS symbols
(differing only in constraints), expanded nodes carry a ``#<rule>`` marker so
distinct structures never share a canonical form.
"""

from __future__ import annotations

from typing import Iterator

from .grammar import PlanLibrary, Rule

Path = tuple[int, ...]


class FusionError(ValueError):
    """Fusion at the requested node is not possible."""


class SymbolMismatch(FusionError):
    pass


class NotOpenFrontier(FusionError):
    pass


class OrderingViolation(FusionError):
    pass


class PlanNode:
    """One node of a plan tree; a plan is represented by its root node.

    Exactly one of three states holds: open frontier (``rule is None and
    ts is None``), realized leaf (``ts`` set, terminals only), or expanded
    (``rule`` and ``children`` set, nonterminals only).
    """

    __slots__ = (
        "symbol",
        "rule",
        "children",
        "ts",
        "complete",
        "min_ts",
        "max_ts",
        "weight",
        "height",
        "open_count",
        "realized_count",
        "canon",
        "_hash",
    )

    def __init__(self, symbol, rule, children, ts, complete, min_ts, max_ts,
                 weight, height, open_count, realized_count, canon):
        self.symbol = symbol
        self.rule = rule
        self.children = children
        self.ts = ts
        self.complete = complete
        self.min_ts = min_ts
        self.max_ts = max_ts
        self.weight = weight
        self.height = height
        self.open_count = open_count
        self.realized_count = realized_count
        self.canon = canon
        self._hash = hash(canon)

    @property
    def is_open(self) -> bool:
        return self.rule is None and self.ts is None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, PlanNode) and self.canon == other.canon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanNode({self.canon})"

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()


def open_node(lib: PlanLibrary, symbol: int) -> PlanNode:
    """The (shared) open-frontier node for a symbol."""
    cache = lib.tree_cache
    key = ("open", symbol)
    node = cache.get(key)
    if node is None:
        node = PlanNode(symbol, None, (), None, False, None, None,
                        1.0, 0, 1, 0, lib.name(symbol) + "?")
        cache[key] = node
    return node


def realized_leaf(lib: PlanLibrary, symbol: int, ts: int) -> PlanNode:
    """A realized terminal leaf observed at timestamp ``ts`` (1-based)."""
    if not lib.is_terminal(symbol):
        raise ValueError(f"{lib.name(symbol)!r} is not a terminal")
    if ts < 1:
        raise ValueError("timestamps are 1-based observation indexes")
    return PlanNode(symbol, None, (), ts, True, ts, ts,
                    1.0, 0, 0, 1, f"{lib.name(symbol)}@{ts}")


def _ordering_ok(rule: Rule, children: tuple[PlanNode, ...]) -> bool:
    # (i, j) in the closure: once j holds realized content, i must be
    # complete and strictly earlier.
    for i, j in rule.closure:
        cj = children[j]
        if cj.min_ts is not None:
            ci = children[i]
            if not ci.complete or ci.max_ts >= cj.min_ts:
                return False
    return True


def try_expand(lib: PlanLibrary, rule: Rule, children: tuple[PlanNode, ...]) -> PlanNode | None:
    """Expanded node for ``rule`` over ``children``; None if ordering fails."""
    if not _ordering_ok(rule, children):
        return None
    complete = True
    min_ts = None
    max_ts = None
    weight = rule.prob
    height = 0
    open_count = 0
    realized = 0
    for child in children:
        complete = complete and child.complete
        if child.min_ts is not None:
            min_ts = child.min_ts if min_ts is None else min(min_ts, child.min_ts)
            max_ts = child.max_ts if max_ts is None else max(max_ts, child.max_ts)
        weight *= child.weight
        height = max(height, child.height)
        open_count += child.open_count
        realized += child.realized_count
    name = lib.name(rule.lhs)
    if lib.ambiguous_rhs:
        name = f"{name}#{rule.idx}"
    canon = f"{name}({' '.join(c.canon for c in children)})"
    return PlanNode(rule.lhs, rule, children, None, complete, min_ts, max_ts,
                    weight, height + 1, open_count, realized, canon)


def expand(lib: PlanLibrary, rule: Rule, children: tuple[PlanNode, ...]) -> PlanNode:
    """Like :func:`try_expand` but raises :class:`OrderingViolation`."""
    node = try_expand(lib, rule, children)
    if node is None:
        raise OrderingViolation(
            f"children violate ordering constraints of rule {rule.idx}"
        )
    return node


def node_at(root: PlanNode, path: Path) -> PlanNode:
    node = root
    for i in path:
        node = node.children[i]
    return node


def enabled_frontier(root: PlanNode) -> tuple[Path, ...]:
    """Paths of all open nodes whose ordering predecessors are all complete.

    These are the nodes eligible to receive the next observation: at every
    ancestor rule, every position that must precede the node's branch has a
    complete subtree.
    """
    out: list[Path] = []

    def walk(node: PlanNode, path: Path):
        if node.rule is None:
            if node.ts is None:
                out.append(path)
            return
        if not node.open_count:
            return
        children = node.children
        for j, child in enumerate(children):
            if child.open_count:
                preds = node.rule.preds[j]
                if all(children[i].complete for i in preds):
                    walk(child, path + (j,))

    walk(root, ())
    return tuple(out)


def try_fuse(lib: PlanLibrary, root: PlanNode, path: Path, sub: PlanNode) -> PlanNode | None:
    """Replace the open node at ``path`` with ``sub``; None on any rejection.

    Rejections: the node is not open frontier, the symbols differ, or the
    substitution violates an ordering constraint at some ancestor. Inputs are
    never mutated.
    """

    def rebuild(node: PlanNode, depth: int) -> PlanNode | None:
        if depth == len(path):
            if not node.is_open:
                return None
            if node.symbol != sub.symbol:
                return None
            return sub
        i = path[depth]
        child = rebuild(node.children[i], depth + 1)
        if child is None:
            return None
        children = node.children[:i] + (child,) + node.children[i + 1:]
        return try_expand(lib, node.rule, children)

    return rebuild(root, 0)


def fuse(lib: PlanLibrary, root: PlanNode, path: Path, sub: PlanNode) -> PlanNode:
    """Like :func:`try_fuse` but raises a distinct :class:`FusionError` per cause."""
    target = node_at(root, path)
    if not target.is_open:
        raise NotOpenFrontier(f"node at {path} is not in the open frontier")
    if target.symbol != sub.symbol:
        raise SymbolMismatch(
            f"cannot fuse {lib.name(sub.symbol)!r} at a node labeled "
            f"{lib.name(target.symbol)!r}"
        )
    fused = try_fuse(lib, root, path, sub)
    if fused is None:
        raise OrderingViolation("fusion violates an ordering constraint")
    return fused


def check_temporal_consistency(plan: PlanNode) -> bool:
    """Full recursive check of every expanded node's ordering constraints."""
    if plan.rule is not None:
        if not _ordering_ok(plan.rule, plan.children):
            return False
        return all(check_temporal_consistency(c) for c in plan.children)
    return True


# ---------------------------------------------------------------------------
# Hypotheses
# ---------------------------------------------------------------------------


def _plan_sort_key(plan: PlanNode) -> tuple[float, str]:
    return (plan.min_ts if plan.min_ts is not None else float("inf"), plan.canon)


class Hypothesis:
    """A set of plans jointly explaining each consumed observation once.

    Plans are kept sorted by (smallest realized timestamp, canonical form),
    which makes the canonical form, the weight product order, and therefore
    the weight itself deterministic for structurally equal hypotheses.
    ``weight`` is the product of all rule probabilities over all plans, times
    the supplied per-root priors (goal priors for goal-rooted hypotheses).
    """

    __slots__ = ("plans", "weight", "canon", "n", "_hash")

    def __init__(self, plans: tuple[PlanNode, ...], weight: float, canon: str, n: int):
        self.plans = plans
        self.weight = weight
        self.canon = canon
        self.n = n
        self._hash = hash(canon)

    @staticmethod
    def build(plans: tuple[PlanNode, ...], priors=None) -> "Hypothesis":
        plans = tuple(sorted(plans, key=_plan_sort_key))
        weight = 1.0
        n = 0
        for plan in plans:
            weight *= plan.weight
            if priors is not None:
                weight *= priors.get(plan.symbol, 1.0)
            n += plan.realized_count
        return Hypothesis(plans, weight, ";".join(p.canon for p in plans), n)

    def with_plan(self, plan: PlanNode, priors=None) -> "Hypothesis":
        return Hypothesis.build(self.plans + (plan,), priors)

    def with_replaced(self, index: int, plan: PlanNode, priors=None) -> "Hypothesis":
        plans = self.plans[:index] + (plan,) + self.plans[index + 1:]
        return Hypothesis.build(plans, priors)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Hypothesis) and self.canon == other.canon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypothesis({self.canon!r}, w={self.weight})"


EMPTY_HYPOTHESIS = Hypothesis((), 1.0, "", 0)


# ---------------------------------------------------------------------------
# Parsing serialized plans (used for dump round-trips and resumption)
# ---------------------------------------------------------------------------


def parse_plan(lib: PlanLibrary, text: str) -> PlanNode:
    """Parse one plan in the serialization grammar back into nodes."""
    node, rest = _parse_node(lib, text.strip())
    if rest:
        raise ValueError(f"trailing input {rest!r} after plan")
    return node


def parse_hypothesis(lib: PlanLibrary, text: str, priors=None) -> Hypothesis:
    """Parse a ``;``-joined hypothesis serialization."""
    text = text.strip()
    if not text:
        return EMPTY_HYPOTHESIS
    plans = tuple(parse_plan(lib, part) for part in text.split(";"))
    return Hypothesis.build(plans, priors)


def _parse_node(lib: PlanLibrary, text: str) -> tuple[PlanNode, str]:
    m = _NAME_SPLIT(text)
    if m is None:
        raise ValueError(f"expected a symbol name at {text[:30]!r}")
    name, rest = m
    rule_idx = None
    if rest.startswith("#"):
        end = 1
        while end < len(rest) and rest[end].isdigit():
            end += 1
        rule_idx = int(rest[1:end])
        rest = rest[end:]
    sym = lib.sym(name)
    if rest.startswith("?"):
        return open_node(lib, sym), rest[1:]
    if rest.startswith("@"):
        end = 1
        while end < len(rest) and rest[end].isdigit():
            end += 1
        return realized_leaf(lib, sym, int(rest[1:end])), rest[end:]
    if rest.startswith("("):
        children = []
        rest = rest[1:]
        while True:
            child, rest = _parse_node(lib, rest)
            children.append(child)
            if rest.startswith(" "):
                rest = rest[1:]
                continue
            if rest.startswith(")"):
                rest = rest[1:]
                break
            raise ValueError(f"expected ' ' or ')' at {rest[:30]!r}")
        rule = _find_rule(lib, sym, tuple(c.symbol for c in children), rule_idx)
        return expand(lib, rule, tuple(children)), rest
    raise ValueError(f"expected '?', '@' or '(' at {rest[:30]!r}")


def _NAME_SPLIT(text: str) -> tuple[str, str] | None:
    i = 0
    if not text or not (text[0].isalpha() or text[0] == "_"):
        return None
    while i < len(text) and (text[i].isalnum() or text[i] == "_"):
        i += 1
    return text[:i], text[i:]


def _find_rule(lib: PlanLibrary, lhs: int, rhs: tuple[int, ...], rule_idx: int | None) -> Rule:
    if rule_idx is not None:
        rule = lib.rules[rule_idx]
        if rule.lhs != lhs or rule.rhs != rhs:
            raise ValueError(f"rule #{rule_idx} does not match serialized node")
        return rule
    matches = [r for r in lib.rules_for(lhs) if r.rhs == rhs]
    if len(matches) != 1:
        raise ValueError(
            f"{len(matches)} rules match {lib.name(lhs)} -> "
            f"{' '.join(lib.name(s) for s in rhs)}"
        )
    return matches[0]


# ---------------------------------------------------------------------------
# Brute-force verification (used by tests and the benchmark validation hook)
# ---------------------------------------------------------------------------


def verify_hypothesis(lib: PlanLibrary, h: Hypothesis, n_obs: int,
                      obs_syms: list[int] | None = None, priors=None) -> list[str]:
    """Recompute every invariant from scratch; returns violation messages.

    Checks exact observation coverage, temporal consistency (with a closure
    recomputed here from the raw constraint pairs), agreement of all cached
    node statistics with fresh recursion, and the weight product.
    """
    problems: list[str] = []
    stamps: list[tuple[int, int]] = []  # (ts, symbol)
    closures: dict[int, set] = {}

    def closure_of(rule) -> set:
        got = closures.get(rule.idx)
        if got is None:
            got = _slow_closure(rule.constraints, len(rule.rhs))
            closures[rule.idx] = got
        return got

    def recompute(node: PlanNode):
        # returns (complete, min_ts, max_ts, weight, height, opens, realized)
        if node.rule is None:
            if node.ts is None:
                return (False, None, None, 1.0, 0, 1, 0)
            stamps.append((node.ts, node.symbol))
            return (True, node.ts, node.ts, 1.0, 0, 0, 1)
        stats = [recompute(c) for c in node.children]
        closure = closure_of(node.rule)
        for i, j in closure:
            comp_i, _, max_i = stats[i][0], stats[i][1], stats[i][2]
            min_j = stats[j][1]
            if min_j is not None and (not comp_i or max_i >= min_j):
                problems.append(
                    f"ordering ({i + 1},{j + 1}) of rule {node.rule.idx} violated at {node.canon}"
                )
        complete = all(s[0] for s in stats)
        mins = [s[1] for s in stats if s[1] is not None]
        maxs = [s[2] for s in stats if s[2] is not None]
        weight = node.rule.prob
        for s in stats:
            weight *= s[3]
        result = (
            complete,
            min(mins) if mins else None,
            max(maxs) if maxs else None,
            weight,
            1 + max(s[4] for s in stats),
            sum(s[5] for s in stats),
            sum(s[6] for s in stats),
        )
        cached = (node.complete, node.min_ts, node.max_ts, node.weight,
                  node.height, node.open_count, node.realized_count)
        recomputed = result
        if cached[:3] != recomputed[:3] or cached[4:] != recomputed[4:] or \
                abs(cached[3] - recomputed[3]) > 1e-9 * max(1.0, abs(recomputed[3])):
            problems.append(f"cached statistics disagree at {node.canon}")
        return result

    weight = 1.0
    for plan in h.plans:
        stats = recompute(plan)
        weight *= stats[3]
        if priors is not None:
            weight *= priors.get(plan.symbol, 1.0)
    seen = sorted(ts for ts, _ in stamps)
    if seen != list(range(1, n_obs + 1)):
        problems.append(f"timestamps {seen} do not cover 1..{n_obs} exactly once")
    if obs_syms is not None:
        for ts, sym in stamps:
            if 1 <= ts <= len(obs_syms) and obs_syms[ts - 1] != sym:
                problems.append(f"leaf at @{ts} is {lib.name(sym)}, observed "
                                f"{lib.name(obs_syms[ts - 1])}")
    if abs(weight - h.weight) > 1e-9 * max(1.0, abs(weight)):
        problems.append(f"weight {h.weight!r} != brute-force product {weight!r}")
    return problems


def _slow_closure(pairs, width):
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure
