"""SLIM's local hypotheses as a plan DAG, built on demand.

A bottom-up step (:meth:`~planrec.slim.SlimEngine.step`, PHATT's loop
:func:`~planrec.phatt.weave`) takes every local hypothesis and either
appends one fragment or replaces one of its plans by a combination of that
plan with the observation. So the locals of a step are a product of few
plans, and they fit in a small acyclic automaton over plans: a shared packed
forest in the sense of Billot & Lang 1989, *The structure of shared forests
in ambiguous parsing*. Each path from the root to :data:`SINK`, the one
accepting node, spells the plan tuple of one local.

The step returns its locals as a :class:`LocalSet`: a tuple, in the order
:func:`~planrec.phatt.weave` built them, plus a :class:`StepRecord` of what
the step computed anyway, its fragments and its per-plan combination memo
(one flat tuple of combinations per plan), linked to the previous step's
record. The record holds no reference to the previous tuple. A set whose
record chain starts from ``(EMPTY_HYPOTHESIS,)`` is *closed*: it is the
whole output of the engine's own bottom-up. Only closed sets are
:class:`LocalSet`; a step fed any other input returns a plain tuple.

:meth:`LocalSet.dag` builds the DAG from the records on first need, one step
at a time, and caches each step's root on its record, so a later step, or a
later query of an online run, extends it by one step. From step t-1's DAG,
step t's has, for each node u, a node n(u) with these edges:

- n(u) -p-> n(v) for each edge u -p-> v: plan p kept, one plan still to
  replace or a fragment still to append further on;
- n(u) -c-> v for each combination c of p in the step's memo: p replaced,
  the rest of the local as it was;
- n(u) -f-> SINK for each fragment f, when u is SINK: f appended.

The root is n(previous root). A node left without edges is dropped, and each
node's edges are sorted by plan ``canon``, the order :func:`best_paths` walks.

A node never gets two edges with one label, so the DAG is deterministic and
its paths are distinct plan tuples, exactly the step's locals. A kept plan
lacks the newest observation and a combination holds it. Two combinations c
of two plans out of one node cannot be equal: every expanded node the
bottom-up builds holds an observation, and every one of height above 1 has
two children holding one, so c fixes where the newest observation went (a
realized leaf beside older ones, a fragment fused into an open node, or a
fragment joined under a new parent) and with it the plan c came from. The
build checks this anyway, as the steps check equal plan tuples for equal
weights.

Each node of a step is n(u) of one old node u. After a step with a fragment
none is dropped, and n keeps path sets apart: taking the newest observation
out of n(u)'s paths (dropping the appended fragment, or mapping the
combination back to its one plan) gives exactly u's, and no old node's
paths hold it, so a minimal DAG stays minimal. A step with no fragment can
drop dead paths and leave two nodes with one path set; the DAG is then still
deterministic, all that :func:`best_paths` and ``slim._compile_paths`` need.

:func:`best_paths` is the exact top-k over the DAG that
:func:`~planrec.slim.k_best` reads for a closed set.
"""

from __future__ import annotations

from .trees import _WEIGHT, Hypothesis, PlanNode


class _Node:
    """A DAG node: its ``(plan, node)`` edges, in plan ``canon`` order (the
    order :func:`best_paths` walks them in)."""

    __slots__ = ("edges",)

    def __init__(self, edges: tuple[tuple[PlanNode, "_Node"], ...]):
        self.edges = edges


SINK = _Node(())
_UNBUILT = object()


def _edge_canon(edge: tuple[PlanNode, _Node]) -> str:
    return edge[0].canon


class StepRecord:
    """What one bottom-up step computed, for the DAG: the previous step's
    record, the step's fragments and its :func:`~planrec.phatt.weave` memo
    from each input plan to ``(attempts, plans)``, ``plans`` the flat tuple
    of the plan's combinations (empty when it has none), and ``root`` the
    step's DAG, once built."""

    __slots__ = ("prev", "fragments", "memo", "root")

    def __init__(self, prev: "StepRecord | None", fragments: tuple[PlanNode, ...], memo: dict):
        self.prev = prev
        self.fragments = fragments
        self.memo = memo
        self.root = SINK if prev is None else _UNBUILT  # None: the empty hypothesis


class LocalSet(tuple):
    """A closed bottom-up step's locals: a tuple, in the step's order, whose
    ``record`` lets :meth:`dag` build their plan DAG. Nothing reads that
    order, and the DAG does not depend on it: the record's memo and
    fragments fix the DAG's edge sets. Slices and concatenations are plain
    tuples."""

    def __new__(cls, hyps, record: StepRecord):
        self = super().__new__(cls, hyps)
        self.record = record
        return self

    def dag(self) -> _Node:
        """The root of the locals' DAG, built from the records on first
        need and cached."""
        record = self.record
        pending = []
        while record.root is _UNBUILT:
            pending.append(record)
            record = record.prev
        root = record.root
        for record in reversed(pending):
            root = record.root = _renew(root, record, {})
        return root


def _renew(u: _Node, record: StepRecord, made: dict) -> _Node | None:
    """n(u) of the module docstring, None when it has no edge; ``made``
    memoizes it per old node. Module-level recursion: a nested recursive
    function would hold itself in a reference cycle."""
    node = made.get(u, _UNBUILT)
    if node is not _UNBUILT:
        return node
    memo = record.memo
    edges: dict[tuple[PlanNode, _Node], None] = {}
    for plan, v in u.edges:
        kept = _renew(v, record, made)
        if kept is not None:
            edges[plan, kept] = None
        for combined in memo[plan][1]:
            edges[combined, v] = None
    if u is SINK:
        for f in record.fragments:
            edges[f, SINK] = None
    node = None
    if edges:
        if len({plan for plan, _ in edges}) < len(edges):
            raise AssertionError("a plan DAG node got two edges with one label")
        node = _Node(tuple(sorted(edges, key=_edge_canon)))
    made[u] = node
    return node


def _topological(root: _Node) -> list[_Node]:
    """The nodes reachable from ``root``, each before every node it has an
    edge to."""
    order: list[_Node] = []
    seen = {root}
    stack = [(root, iter(root.edges))]
    while stack:
        node, edges = stack[-1]
        for _, child in edges:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(child.edges)))
                break
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


def _truncated(weights: dict[float, int], k: int) -> dict[float, int]:
    """The largest weights of ``weights`` (weight -> number of paths) that
    hold at least ``k`` paths, the k-th among them kept whole."""
    if sum(weights.values()) <= k:
        return weights
    kept = {}
    for w in sorted(weights, reverse=True):
        kept[w] = weights[w]
        k -= weights[w]
        if k <= 0:
            break
    return kept


# a float product of at most a few thousand factors is off from the exact one
# by far less than this share, so a path whose bound falls below the threshold
# by more cannot reach it
_SLACK = 1e-9


def best_paths(root: _Node, k: int) -> list[Hypothesis]:
    """The ``k`` best paths of a DAG holding more than ``k``, as new
    hypotheses in :func:`~planrec.trees.ranked` order: weight descending,
    then plan ``canon`` tuples ascending. Equal to ``ranked(locals, k)``.

    A path's weight is the product of its plans' weights, left to right from
    1.0, the float :meth:`~planrec.trees.Hypothesis.build` makes. Positive
    float multiplication is monotone in each factor, so a forward pass that
    keeps at each node only the largest prefix weights covering ``k`` paths
    (with their path counts) finds the exact k-th weight ``t`` of all paths
    and how many lie above it. A depth-first walk, its edges in ``canon``
    order, then collects every path above ``t`` and the first paths equal to
    it, which are the first in ``canon`` order; it prunes a prefix whose
    best suffix product, from a backward pass, cannot reach ``t``."""
    order = _topological(root)
    tops: dict[_Node, dict[float, int]] = {root: {1.0: 1}}
    finals: dict[float, int] = {}
    for u in order:
        prefixes = _truncated(tops.pop(u), k)
        if u is SINK:
            finals = prefixes
            continue
        for plan, v in u.edges:
            w = plan.weight
            into = tops.get(v)
            if into is None:
                into = tops[v] = {}
            for a, n in prefixes.items():
                x = a * w
                into[x] = into.get(x, 0) + n
    above = 0
    for t in sorted(finals, reverse=True):
        if above + finals[t] >= k:
            break
        above += finals[t]
    bound: dict[_Node, float] = {SINK: 1.0}
    for u in reversed(order):
        if u is not SINK:
            bound[u] = max(plan.weight * bound[v] for plan, v in u.edges)
    walk = _Walk(t, bound, k - above, k)
    _collect(root, (), 1.0, walk)
    walk.out.sort(key=_WEIGHT, reverse=True)  # stable: ties stay in canon order
    return walk.out


class _Walk:
    """The state of :func:`best_paths`'s walk: the threshold ``t``, the
    ``floor`` a prefix's bound must reach, the ``bound`` of each node, the
    paths found, how many ``ties`` at ``t`` are still wanted, and ``k``."""

    __slots__ = ("t", "floor", "bound", "out", "ties", "k")

    def __init__(self, t: float, bound: dict, ties: int, k: int):
        self.t = t
        self.floor = t * (1 - _SLACK)
        self.bound = bound
        self.out: list[Hypothesis] = []
        self.ties = ties
        self.k = k


def _collect(node: _Node, plans: tuple, weight: float, walk: _Walk):
    if node is SINK:
        if weight > walk.t:
            walk.out.append(Hypothesis(plans, weight))
        elif weight == walk.t and walk.ties:
            walk.out.append(Hypothesis(plans, weight))
            walk.ties -= 1
        return
    floor, bound, out, k = walk.floor, walk.bound, walk.out, walk.k
    for plan, child in node.edges:
        if len(out) == k:
            return
        x = weight * plan.weight
        if x * bound[child] >= floor:
            _collect(child, plans + (plan,), x, walk)
