"""Derivation trees, hypotheses, fusion, and canonical serialization.

Nodes are immutable and hash-consed (Filliâtre & Conchon 2006, *Type-safe
modular hash-consing*): every constructor goes through a :class:`NodeTable`,
which hands back its one node of each structure. Within one table, equal
structures are the same object, so nodes compare and hash by identity, and
plan tuples, the hypotheses' deduplication key, hash and compare element by
element at C speed. Every combination operation builds new nodes along the
changed root-to-node path and shares everything else (persistent-tree
semantics), so plans can be held by many hypotheses at once. The statistics a
recognizer needs on every validity check (timestamp range, rule-probability
product, open-frontier count) are computed once per node, when its table first
builds it; a node is complete exactly when its open-frontier count is 0.

Serialization grammar, used for output and as the tie-break of every
ranking (:func:`rank_key`): :func:`ranked` sorts the distinct plans by it once
and compares hypotheses by their plans' ranks, never by joined strings. A
node's serialization is built on first read::

    node := name '?' | name '@' int | name '(' node (' ' node)* ')'

``?`` marks an open-frontier node, ``@t`` a realized leaf at timestamp ``t``,
and parentheses an expanded nonterminal with children in RHS order. For the
rare library containing two rules with identical head and RHS symbols
(differing only in constraints), expanded nodes carry a ``#<rule>`` marker so
distinct structures never share a canonical form.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterable

from .grammar import PlanLibrary, Rule

Path = tuple[int, ...]


class PlanNode:
    """One node of a plan tree; a plan is represented by its root node.

    Exactly one of three states holds: open frontier (``rule`` and
    ``min_ts`` None), realized leaf (``rule`` None, ``min_ts`` its timestamp,
    terminals only), or expanded (``rule`` and ``children`` set,
    nonterminals only). Build nodes through a :class:`NodeTable`
    (:func:`open_node`, :func:`realized_leaf`, :func:`try_expand`): equality
    is identity, which matches structure only among the nodes of one table.
    ``label`` is the serialization of an open node or a leaf, and the head
    of an expanded node's (its name, with the ``#<rule>`` marker where
    needed); ``canon`` is built from it on first read. The subtree is
    complete, every leaf realized, when ``open_count`` is 0.
    """

    __slots__ = (
        "symbol",
        "rule",
        "children",
        "min_ts",
        "max_ts",
        "weight",
        "height",
        "open_count",
        "label",
        "_canon",
    )

    def __init__(self, symbol, rule, children, min_ts, max_ts,
                 weight, height, open_count, label):
        self.symbol = symbol
        self.rule = rule
        self.children = children
        self.min_ts = min_ts
        self.max_ts = max_ts
        self.weight = weight
        self.height = height
        self.open_count = open_count
        self.label = label
        self._canon = None if children else label

    @property
    def canon(self) -> str:
        """The serialization of the subtree, built on first read."""
        canon = self._canon
        if canon is None:
            canon = self._canon = f"{self.label}({' '.join(c.canon for c in self.children)})"
        return canon

    @property
    def is_open(self) -> bool:
        return self.rule is None and self.min_ts is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanNode({self.canon})"


class NodeTable(dict):
    """One engine's hash-consing table: the dict from structural keys to the
    one node of each structure, plus the library the nodes come from.

    Keys: ``(rule.idx, children)`` for an expanded node, its children already
    interned; ``(symbol, ts)`` for a realized leaf; the bare symbol for an open
    node. The table keeps every node it built alive as long as it lives, so
    it belongs to one engine (:class:`~planrec.phatt.PhattEngine` owns it),
    never to the shared, immutable library.
    """

    __slots__ = ("lib",)

    def __init__(self, lib: PlanLibrary):
        super().__init__()
        self.lib = lib

    def adopt(self, node: PlanNode) -> PlanNode:
        """This table's node of ``node``'s structure: ``node`` itself when the
        table built it, else a copy rebuilt from the leaves up."""
        if node.rule is None:
            if node.min_ts is None:
                return open_node(self, node.symbol)
            return realized_leaf(self, node.symbol, node.min_ts)
        if self.get((node.rule.idx, node.children)) is node:
            return node
        return try_expand(self, node.rule, tuple(self.adopt(c) for c in node.children))


def open_node(nodes: NodeTable, symbol: int) -> PlanNode:
    """The open-frontier node for a symbol."""
    node = nodes.get(symbol)
    if node is None:
        node = nodes[symbol] = PlanNode(symbol, None, (), None, None,
                                        1.0, 0, 1, nodes.lib.name(symbol) + "?")
    return node


def realized_leaf(nodes: NodeTable, symbol: int, ts: int) -> PlanNode:
    """A realized terminal leaf observed at timestamp ``ts`` (1-based)."""
    key = (symbol, ts)
    node = nodes.get(key)
    if node is None:
        lib = nodes.lib
        if not lib.is_terminal(symbol):
            raise ValueError(f"{lib.name(symbol)!r} is not a terminal")
        if ts < 1:
            raise ValueError("timestamps are 1-based observation indexes")
        node = nodes[key] = PlanNode(symbol, None, (), ts, ts,
                                     1.0, 0, 0, f"{lib.name(symbol)}@{ts}")
    return node


def _ordering_ok(rule: Rule, children: tuple[PlanNode, ...]) -> bool:
    # (i, j) in the closure: once j holds realized content, i must be
    # complete and strictly earlier.
    for i, j in rule.closure:
        cj = children[j]
        if cj.min_ts is not None:
            ci = children[i]
            if ci.open_count or ci.max_ts >= cj.min_ts:
                return False
    return True


def try_expand(nodes: NodeTable, rule: Rule, children: tuple[PlanNode, ...]) -> PlanNode | None:
    """The table's expanded node for ``rule`` over ``children``, nodes of the
    same table; None if ordering fails. A node the table holds passed the
    ordering check when it was built, so a hit checks and computes nothing."""
    key = (rule.idx, children)
    node = nodes.get(key)
    if node is None:
        if not _ordering_ok(rule, children):
            return None
        node = nodes[key] = _expanded(nodes.lib, rule, children)
    return node


def _expanded(lib: PlanLibrary, rule: Rule, children: tuple[PlanNode, ...]) -> PlanNode:
    min_ts = None
    max_ts = None
    weight = rule.prob
    height = 0
    open_count = 0
    for child in children:
        if child.min_ts is not None:
            min_ts = child.min_ts if min_ts is None else min(min_ts, child.min_ts)
            max_ts = child.max_ts if max_ts is None else max(max_ts, child.max_ts)
        weight *= child.weight
        height = max(height, child.height)
        open_count += child.open_count
    label = lib.name(rule.lhs)
    if lib.ambiguous_rhs:
        label = f"{label}#{rule.idx}"
    return PlanNode(rule.lhs, rule, children, min_ts, max_ts,
                    weight, height + 1, open_count, label)


def enabled_frontier(root: PlanNode) -> tuple[tuple[Path, int], ...]:
    """``(path, symbol)`` of every open node whose ordering predecessors are
    all complete, in tree order.

    These are the nodes eligible to receive the next observation: at every
    ancestor rule, every position that must precede the node's branch has a
    complete subtree.
    """
    out: list[tuple[Path, int]] = []
    _visit_frontier(root, (), out)
    return tuple(out)


def _visit_frontier(node: PlanNode, path: Path, out: list[tuple[Path, int]]):
    # module-level recursion: a nested recursive function would hold itself
    # in a reference cycle, garbage only the cyclic collector frees
    if node.rule is None:
        if node.min_ts is None:
            out.append((path, node.symbol))
        return
    if not node.open_count:
        return
    children = node.children
    for j, child in enumerate(children):
        if child.open_count:
            preds = node.rule.preds[j]
            if not any(children[i].open_count for i in preds):
                _visit_frontier(child, path + (j,), out)


def try_fuse(nodes: NodeTable, root: PlanNode, path: Path, sub: PlanNode) -> PlanNode | None:
    """Replace the open node at ``path`` with ``sub``; None on any rejection.

    Rejections: the node is not open frontier, the symbols differ, or the
    substitution violates an ordering constraint at some ancestor. Inputs are
    never mutated; the rebuilt ancestors come from ``nodes``, deepest first.
    """
    spine = []
    node = root
    for i in path:
        spine.append(node)
        node = node.children[i]
    if not node.is_open or node.symbol != sub.symbol:
        return None
    for i, parent in zip(reversed(path), reversed(spine)):
        children = parent.children
        sub = try_expand(nodes, parent.rule, children[:i] + (sub,) + children[i + 1:])
        if sub is None:
            return None
    return sub


# ---------------------------------------------------------------------------
# Hypotheses
# ---------------------------------------------------------------------------


class Hypothesis:
    """A set of plans jointly explaining each consumed observation once.

    Plans stay in construction order, ascending smallest realized timestamp
    (the contract of :meth:`with_plan` and :meth:`with_replaced`;
    :func:`parse_hypothesis` sorts what it reads), which makes the plan
    tuple, the weight product order, and therefore the weight itself
    deterministic for structurally equal hypotheses. Equality and hashing go
    through that tuple, the deduplication key, whose nodes compare by
    identity: two hypotheses built from one :class:`NodeTable` are equal
    exactly when their plans are structurally equal. ``canon``, the ``;``-joined
    plan serializations, is built on first read, for output: written
    hypotheses are sorted by it (:func:`rank_key`), while the engines'
    rankings order by it through plan ranks (:func:`ranked`). ``weight`` is the
    product of all rule probabilities over all plans, times a prior once per
    plan: the goal prior for a goal-rooted hypothesis, 1.0 for a local, which
    leaves every product's bits as they are.
    """

    __slots__ = ("plans", "weight", "_canon")

    def __init__(self, plans: tuple[PlanNode, ...], weight: float):
        self.plans = plans
        self.weight = weight
        self._canon = None

    @property
    def canon(self) -> str:
        canon = self._canon
        if canon is None:
            canon = self._canon = ";".join(p.canon for p in self.plans)
        return canon

    @staticmethod
    def build(plans: tuple[PlanNode, ...], prior: float = 1.0) -> "Hypothesis":
        """The hypothesis over ``plans``, taken in the order given, with the
        goal ``prior`` once per plan (1.0 for a local)."""
        weight = 1.0
        for plan in plans:
            weight = weight * plan.weight * prior
        return Hypothesis(plans, weight)

    def with_plan(self, plan: PlanNode, prior: float = 1.0) -> "Hypothesis":
        """Append ``plan``, which must hold the newest observation.

        One multiplication instead of :meth:`build`'s pass over every plan.
        Precondition: ``self.weight`` is :meth:`build`'s weight of
        ``self.plans`` with the same ``prior``. Then the result's weight is
        bit-identical to ``build(self.plans + (plan,), prior)``'s, since
        :meth:`build` multiplies in the same order, left to right from 1.0.
        Every hypothesis the engines build or :func:`parse_hypothesis` reads
        meets it, and so does :data:`EMPTY_HYPOTHESIS`. A local's prior is
        1.0, and ``x * 1.0 == x`` exactly."""
        return Hypothesis(self.plans + (plan,), self.weight * plan.weight * prior)

    def with_replaced(self, index: int, plan: PlanNode, prior: float = 1.0) -> "Hypothesis":
        """Replace plan ``index`` with ``plan`` of the same smallest timestamp."""
        plans = self.plans[:index] + (plan,) + self.plans[index + 1:]
        return Hypothesis.build(plans, prior)

    def __hash__(self) -> int:
        return hash(self.plans)

    def __eq__(self, other) -> bool:
        return isinstance(other, Hypothesis) and self.plans == other.plans

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypothesis({self.canon!r}, w={self.weight})"


EMPTY_HYPOTHESIS = Hypothesis((), 1.0)

_PLANS = attrgetter("plans")
_CANON = attrgetter("canon")
_WEIGHT = attrgetter("weight")


def rank_key(h: Hypothesis) -> tuple[float, str]:
    """The order of every ranking: weight descending, then ``canon``
    ascending. It builds ``canon``, so only code that builds every ``canon``
    anyway (writing hypotheses out) sorts by it; :func:`ranked` gives the
    same order without."""
    return -h.weight, h.canon


def ranked(hyps: Iterable[Hypothesis], k: int | None = None) -> list[Hypothesis]:
    """``hyps`` in :func:`rank_key` order, the first ``k`` of them (all for
    None); equal keys keep the order given. No hypothesis's ``canon`` is
    built.

    The distinct plans are sorted once by their own ``canon``, and a
    hypothesis's tie-break is the sequence of its plans' ranks. That is the
    order of the ``;``-joined ``canon`` unless, at the first index where two
    hypotheses' plans differ, one plan's serialization is a proper prefix of
    the other's, which only realized leaves allow (``a@1``, ``a@12``). It
    cannot happen among hypotheses over one observation sequence, which every
    engine and runner call ranks: each hypothesis's plans partition the
    observations in ascending smallest timestamp, so two hypotheses equal in
    plans ``0..i-1`` have plans ``i`` holding the same smallest timestamp.

    The tie-break is a tuple of int ranks, which puts no cap on the number
    of distinct plans. Two stable sorts do the work, by the rank tuples and
    then by weight descending, which compares floats alone; a finite ``k``
    keeps the first ``k``.
    """
    hyps = list(hyps)
    plans = set(chain.from_iterable(map(_PLANS, hyps)))
    order = {canon: i for i, canon in enumerate(sorted(set(map(_CANON, plans))))}
    get = {plan: order[plan.canon] for plan in plans}.__getitem__

    def ranks(h: Hypothesis) -> tuple[int, ...]:
        return tuple(map(get, h.plans))

    hyps.sort(key=ranks)
    hyps.sort(key=_WEIGHT, reverse=True)
    return hyps if k is None else hyps[:k]


# ---------------------------------------------------------------------------
# Parsing serialized plans (used for dump round-trips and resumption)
# ---------------------------------------------------------------------------


def parse_plan(nodes: NodeTable, text: str) -> PlanNode:
    """Parse one plan in the serialization grammar back into nodes of
    ``nodes``; parse into an engine's table (``engine.nodes``) to feed the
    result to its ``step``."""
    node, rest = _parse_node(nodes, text.strip())
    if rest:
        raise ValueError(f"trailing input {rest!r} after plan")
    return node


def parse_hypothesis(nodes: NodeTable, text: str, prior: float = 1.0) -> Hypothesis:
    """Parse a ``;``-joined hypothesis serialization, its plans in any order;
    they are sorted by (smallest realized timestamp, canonical form),
    unrealized plans last, the order the engines build."""
    text = text.strip()
    if not text:
        return EMPTY_HYPOTHESIS
    plans = sorted((parse_plan(nodes, part) for part in text.split(";")),
                   key=lambda p: (float("inf") if p.min_ts is None else p.min_ts, p.canon))
    return Hypothesis.build(tuple(plans), prior)


def _parse_node(nodes: NodeTable, text: str) -> tuple[PlanNode, str]:
    lib = nodes.lib
    m = _NAME_SPLIT(text)
    if m is None:
        raise ValueError(f"expected a symbol name at {text[:30]!r}")
    name, rest = m
    rule_idx = None
    if rest.startswith("#"):
        rule_idx, rest = _number(rest, "a rule index after '#'")
        if not rest.startswith("("):
            raise ValueError(f"rule marker on a node that is not expanded at {text[:30]!r}")
    sym = lib.sym(name)
    if rest.startswith("?"):
        return open_node(nodes, sym), rest[1:]
    if rest.startswith("@"):
        ts, after = _number(rest, "a timestamp after '@'")
        if ts < 1:
            raise ValueError(f"timestamps are 1-based observation indexes at {rest[:30]!r}")
        return realized_leaf(nodes, sym, ts), after
    if rest.startswith("("):
        children = []
        rest = rest[1:]
        while True:
            child, rest = _parse_node(nodes, rest)
            children.append(child)
            if rest.startswith(" "):
                rest = rest[1:]
                continue
            if rest.startswith(")"):
                rest = rest[1:]
                break
            raise ValueError(f"expected ' ' or ')' at {rest[:30]!r}")
        rule = _find_rule(lib, sym, tuple(c.symbol for c in children), rule_idx)
        node = try_expand(nodes, rule, tuple(children))
        if node is None:
            raise ValueError(f"children violate ordering constraints of rule {rule.idx}")
        return node, rest
    raise ValueError(f"expected '?', '@' or '(' at {rest[:30]!r}")


def _NAME_SPLIT(text: str) -> tuple[str, str] | None:
    i = 0
    if not text or not (text[0].isalpha() or text[0] == "_"):
        return None
    while i < len(text) and (text[i].isalnum() or text[i] == "_"):
        i += 1
    return text[:i], text[i:]


def _number(text: str, what: str) -> tuple[int, str]:
    """The decimal digits after ``text``'s one-character marker, and the rest."""
    end = 1
    while end < len(text) and "0" <= text[end] <= "9":
        end += 1
    if end == 1:
        raise ValueError(f"expected {what} at {text[:30]!r}")
    return int(text[1:end]), text[end:]


def _find_rule(lib: PlanLibrary, lhs: int, rhs: tuple[int, ...], rule_idx: int | None) -> Rule:
    if rule_idx is not None:
        if rule_idx >= len(lib.rules):
            raise ValueError(f"rule #{rule_idx} is not in the library")
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
