"""SLIM: semi-lazy plan recognition.

Bottom-up, each observation commits only to fragments: depth-1 plan nodes,
each one rule over the realized observation and open siblings. They are
combined with the running local hypotheses four ways: realizing an open
terminal leaf directly, fusing a fragment into a matching open node, joining
a plan and a fragment under a freshly created common parent, or keeping the
fragment as a standalone plan. These are PHATT's two moves (Geib & Goldman
2009): the last appends a new plan, and the first three replace one plan of
the hypothesis by a combination of it with the observation. So a step is
:func:`~planrec.phatt.weave`, the loop :meth:`PhattEngine.advance` runs
too, with the fragments as the appends. The first three do not depend on
the rest of the hypothesis, so a step works them out once for each distinct
plan of its input, as one flat tuple, and every hypothesis holding that plan
replays it. The first two are one function, :func:`combine_as_child`, since
the realized leaf is a depth-0 fragment. Local hypotheses never grow paths
toward the goals; on demand, the top-down compiler replays their plans
(in creation order) through :meth:`PhattEngine.advance`, the modified-PHATT
step that PHATT runs with a realized leaf as the target and the compiler runs
with each plan, grafted into goal-rooted leftmost trees. The compile's levels,
its slim-k variants and the queries of one engine share that engine's graft
walks, one per (plan, target). A local's plans stay in creation order,
ascending smallest timestamp, unsorted: a standalone fragment is appended
holding the newest observation, and the other three combinations keep the
smallest timestamp of the plan they replace.

A joined local, one holding a plan of height above 1, usually compiles to
nothing its split does not: the split keeps only the local's fragments, each
as a standalone plan. When the library makes that provable (see
:meth:`SlimEngine.compile_top_down`), the compiler skips every joined local
whose split it compiles too.

A step fed the engine's own previous locals, from ``(EMPTY_HYPOTHESIS,)``
on, returns them as a :class:`~planrec.forest.LocalSet`, a tuple that also
records the step's fragments and combination memo. From those records the
top-down builds the locals' plan DAG on first need (:mod:`planrec.forest`):
:func:`k_best` reads the top k off it, and the compile of all of them walks
it once per distinct prefix, with no per-local grouping and no split check.
The timed step only keeps the record.

:meth:`SlimEngine.step` and :meth:`SlimEngine.compile_top_down` run with the
cyclic garbage collector paused, as :meth:`PhattEngine.advance` does; the
policy and its reasons are in :mod:`planrec.phatt`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from typing import Iterable

from .forest import SINK, LocalSet, StepRecord, best_paths
from .grammar import ObservationError, PlanLibrary, Rule
from .metrics import CombinationCounter
from .phatt import PhattConfig, PhattEngine, RecognitionFailure, collector_paused, weave
from .trees import (
    EMPTY_HYPOTHESIS,
    Hypothesis,
    NodeTable,
    PlanNode,
    open_node,
    ranked,
    realized_leaf,
    try_expand,
    try_fuse,
)


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
                    max_depth: int | None = None) -> "TopDownConfig":
        """:meth:`PhattConfig.for_library`'s defaults, with budget ``k``."""
        return replace(super().for_library(lib, max_depth), k=k)


def create_fragments(nodes: NodeTable, obs: int, ts: int) -> tuple[PlanNode, ...]:
    """The fragments of observation ``obs`` at ``ts``: depth-1 plan nodes,
    one per RHS occurrence of ``obs`` that can host it, with ``obs``
    realized there and every sibling open. Each root carries its ``rule``.

    The occurrence must have no ordering predecessor, since its siblings are
    all unrealized at creation, and the rule's head must be reachable from
    some goal.
    """
    leaf = realized_leaf(nodes, obs, ts)
    return tuple(
        try_expand(nodes, rule, tuple(leaf if i == pos else open_node(nodes, s)
                                      for i, s in enumerate(rule.rhs)))
        for rule, pos in _hosts(nodes.lib, obs) if not rule.preds[pos]
    )


def _hosts(lib: PlanLibrary, sym: int) -> list[tuple[Rule, int]]:
    """``(rule, position)`` occurrences of ``sym`` in rules whose head some
    goal reaches."""
    return [(rule, pos) for rule, pos in lib.containing(sym) if rule.lhs in lib.reachable]


def sibling_slots(nodes: NodeTable, sym: int
                  ) -> dict[int, tuple[tuple[Rule, int, int, tuple[PlanNode, ...]], ...]]:
    """Parent slots for joining a plan with a fragment rooted at ``sym``.

    Maps a plan's root symbol to ``(rule, i, j, opens)`` for every rule
    occurrence ``j`` of ``sym`` (in rule and position order) and every
    other position ``i`` of that rule carrying the plan's symbol, in position
    order; ``opens`` holds the rule's open children.
    """
    table: dict[int, list] = {}
    for rule, j in _hosts(nodes.lib, sym):
        opens = tuple(open_node(nodes, s) for s in rule.rhs)
        for i, s in enumerate(rule.rhs):
            if i != j:
                table.setdefault(s, []).append((rule, i, j, opens))
    return {s: tuple(v) for s, v in table.items()}


# ---------------------------------------------------------------------------
# The four combination functions
#
# The first three take one plan and return the plans that replace it: they
# do not depend on the hypothesis holding the plan, so :meth:`SlimEngine.step`
# calls them once per distinct plan of a step, through :func:`weave`.
# ---------------------------------------------------------------------------


def combine_as_child(nodes: NodeTable, plan: PlanNode, f: PlanNode,
                     counter: CombinationCounter, entries) -> list[PlanNode]:
    """Fuse the fragment ``f`` into every enabled open node of ``plan`` that
    carries its root symbol; ``entries`` is :meth:`PhattEngine.frontier` of
    the plan, its enabled (path, symbol) pairs, which a step reads once per
    distinct plan for every combiner. The observation's realized leaf is a
    depth-0 fragment, so :func:`combine_directly` is this function."""
    out = []
    sym = f.symbol
    for path, open_sym in entries:
        if open_sym != sym:
            continue
        counter.n += 1
        fused = try_fuse(nodes, plan, path, f)
        if fused is not None:
            out.append(fused)
    return out


#: Realizing an open terminal leaf, :func:`combine_as_child` of the realized
#: leaf: the paper's name, under which the per-combiner trace counts it apart.
combine_directly = combine_as_child


def combine_as_sibling(nodes: NodeTable, plan: PlanNode, f: PlanNode, slots: dict,
                       counter: CombinationCounter) -> list[PlanNode]:
    """Join ``plan`` and the fragment under a new common parent.

    ``slots``, the :func:`sibling_slots` table of the fragment's root
    symbol, supplies the candidate parents; the plan grafts at every other
    position carrying its root symbol. Ordering constraints are
    enforced on the assembled parent, which keeps the smallest-timestamp
    bookkeeping implicit (the new plan's minimum realized timestamp is the
    minimum over both constituents).
    """
    out = []
    for rule, i, j, opens in slots.get(plan.symbol, ()):
        counter.n += 1
        children = list(opens)
        children[i] = plan
        children[j] = f
        parent = try_expand(nodes, rule, tuple(children))
        if parent is not None:
            out.append(parent)
    return out


def combine_independently(h: Hypothesis, f: PlanNode,
                          counter: CombinationCounter) -> Hypothesis:
    """Append the fragment to the hypothesis as a standalone plan, counting
    one attempt.

    :meth:`SlimEngine.step` builds its appends the same way, through
    :meth:`~planrec.trees.Hypothesis.with_plan`, but in
    :func:`~planrec.phatt.weave`, which counts one attempt per append in its
    sum and stores the appends without a dedup check (its docstring says why
    an append can equal no other candidate)."""
    counter.n += 1
    return h.with_plan(f)


def k_best(hyps: Iterable[Hypothesis], k: int | None) -> list[Hypothesis] | LocalSet:
    """Top ``k`` by weight, descending; ties broken by canonical form, in
    :func:`~planrec.trees.ranked` order (exact for hypotheses over one
    observation sequence), so no hypothesis's ``canon`` is built.

    For a closed :class:`~planrec.forest.LocalSet` with more than ``k``
    locals, :func:`~planrec.forest.best_paths` reads the top ``k`` off the
    set's plan DAG, as new hypotheses equal to ``ranked(hyps, k)``'s in
    plans and bit for bit in weight; anything else goes through
    :func:`~planrec.trees.ranked`. ``k=None`` keeps all of them unranked, in
    the order given: a closed set as itself, so that the compile can walk
    its DAG, anything else as a list."""
    if k is None:
        return hyps if isinstance(hyps, LocalSet) else list(hyps)
    if isinstance(hyps, LocalSet) and len(hyps) > k > 0:
        return best_paths(hyps.dag(), k)
    return ranked(hyps, k)


# ---------------------------------------------------------------------------
# Whole-sequence orchestration
# ---------------------------------------------------------------------------


class SlimEngine:
    """Bottom-up recognition over a sequence plus on-demand compilation.

    The engine builds its nodes through ``nodes``, the node table of the
    :class:`PhattEngine` its compiler runs, and counts its attempts on that
    engine's ``counter``, so the bottom-up locals and the compiled
    hypotheses share one table, and the steps and compiles one count."""

    def __init__(self, lib: PlanLibrary, cfg: TopDownConfig | None = None):
        self.lib = lib
        self.cfg = cfg or TopDownConfig.for_library(lib)
        self._phatt = PhattEngine(lib, self.cfg)
        self.nodes = self._phatt.nodes
        self.counter = self._phatt.counter

    @collector_paused
    def step(self, hyps: tuple[Hypothesis, ...], obs: int, ts: int) -> tuple[Hypothesis, ...]:
        """Combine observation ``obs`` (step ``ts``) with every local hypothesis
        through all four functions, keeping one hypothesis per plan tuple.

        The step is :func:`~planrec.phatt.weave` with the fragments as the
        appends and a memo of the step's own: each distinct plan of ``hyps``
        is combined once, with its enabled frontier read once, into one flat
        tuple (its direct combinations, then each fragment's child fusions
        and sibling joins), and every hypothesis holding the plan replaces
        it by each of them and counts its attempts. The step adds all its
        attempts to the counter at once. ``hyps`` must come from this
        engine's ``nodes`` (its own earlier steps, or parsed into
        ``nodes``), so the memo, keyed by plan, finds every hypothesis
        holding a plan.

        Candidates are built in :func:`~planrec.phatt.weave`'s order: for
        each input hypothesis, its standalone fragments, appended as
        :func:`combine_independently` does, then its replacements plan by
        plan. The result keeps the order in which the hypotheses were first
        built, which the input order fixes; nothing reads it, since
        :func:`k_best`, the top-down compile and
        :func:`~planrec.runner.emit_hypotheses` rank for themselves.

        Fed ``(EMPTY_HYPOTHESIS,)`` or a :class:`~planrec.forest.LocalSet`,
        the step returns a ``LocalSet``: the same tuple, plus a record of
        its fragments and its memo, linked to the input's record, from which
        the top-down builds the locals' plan DAG when it first needs it. Fed
        anything else, it returns a plain tuple."""
        lib, nodes = self.lib, self.nodes
        if not lib.is_terminal(obs):
            raise ObservationError(ts, lib.name(obs), "is not a terminal")
        frontier = self._phatt.frontier
        leaf = realized_leaf(nodes, obs, ts)
        fragments = create_fragments(nodes, obs, ts)
        slots = [sibling_slots(nodes, f.symbol) for f in fragments]

        def combine(plan: PlanNode) -> tuple[int, tuple[PlanNode, ...]]:
            counter = CombinationCounter()
            entries = frontier(plan)
            found = combine_directly(nodes, plan, leaf, counter, entries)
            for f, f_slots in zip(fragments, slots):
                found += combine_as_child(nodes, plan, f, counter, entries)
                found += combine_as_sibling(nodes, plan, f, f_slots, counter)
            return counter.n, tuple(found)

        memo: dict[PlanNode, tuple[int, tuple[PlanNode, ...]]] = {}
        out, attempts = weave(hyps, fragments, memo, combine)
        self.counter.n += attempts
        if not out:
            raise RecognitionFailure(ts, lib.name(obs))
        if isinstance(hyps, LocalSet):
            prev = hyps.record
        elif isinstance(hyps, tuple) and len(hyps) == 1 and hyps[0] is EMPTY_HYPOTHESIS:
            prev = StepRecord(None, (), {})
        else:
            return tuple(out.values())
        return LocalSet(out.values(), StepRecord(prev, fragments, memo))

    @cached_property
    def _skip_split_covered(self) -> bool:
        """:func:`_split_skip_sound` for this engine, worked out by the first
        compile rather than at construction."""
        return _split_skip_sound(self.lib, self.cfg.max_depth)

    @collector_paused
    def compile_top_down(self, hyps: Iterable[Hypothesis]) -> tuple[list[Hypothesis], int]:
        """Top-down compile the k best local hypotheses; returns the merged
        goal-rooted list and the elapsed microseconds.

        Each local's plans are replayed in order, so every plan a replay
        appends holds the newest observation. Locals share state computation
        over common plan-sequence prefixes, and every level, compile and
        query of this engine shares the graft walks of
        :meth:`PhattEngine.advance`, one per (plan, target) over the engine's
        life. The output equals compiling each local alone and keeping one
        copy of each hypothesis, ranked by weight and then canonical form (a
        total order on distinct hypotheses), so the order of the locals does
        not matter. The selection of the k best locals (:func:`k_best`:
        over a closed set's plan DAG, else through
        :func:`~planrec.trees.ranked`) and the final ranking
        (:func:`~planrec.trees.ranked`) are exact here, since the output,
        like the locals, explains one observation sequence; neither builds
        a hypothesis's ``canon``.

        A selected local L is skipped when some plan of L has height above 1
        and L's split is selected too. The split is L's fragments, its
        depth-1 subtrees, as standalone plans in ascending smallest
        timestamp. The skip applies only when the library is acyclic, the
        depth cap reaches its longest derivation (``max_depth >=
        acyclic_depth``), and no rule's RHS mixes terminals and nonterminals;
        the first compile checks this. Then fragments are the only nodes
        holding realized leaves, and a join never changes them: it only
        builds parents above them. Replaying L's fragments in ascending
        smallest timestamp through :meth:`PhattEngine.advance` therefore
        rebuilds every hypothesis L compiles to: the first fragment of a
        joined plan lies on a path free of ordering predecessors, each later
        one grafts below the deepest node built so far, and no leftmost tree
        needs more than ``acyclic_depth`` levels. So compile(L) is a subset
        of compile(split(L)), and as equal plan tuples carry equal weights
        (``_merge`` checks it), the output is the same for any input and any
        ``k``. Without the guard the subset can fail: under ``P -> Q c`` a
        fragment ``P(Q? c@t)`` grows past depth 1 once a plan fuses into its
        ``Q``, so its leaf ``c`` is left out of the split.

        A closed :class:`~planrec.forest.LocalSet` given whole (``k`` None,
        so :func:`k_best` hands it back as it is) is compiled by a walk over
        its plan DAG, :func:`_compile_paths`, which advances each distinct
        plan prefix once, as the grouping does. Under the guard the walk
        follows only edges whose plan has height 1, and so drops every
        joined local: by induction over the combiners, split(L) is a local
        of a closed set whenever L is (an append adds the fragment to the
        split; a child fusion or sibling join puts it in as a depth-1
        subtree; a direct realization in fragment g is also enabled in g
        standing alone), so each joined local's split is selected and the
        per-local check would skip it too. A list, or any set that is not
        closed, keeps the grouping and the per-local split check below.

        The locals may come from another engine (a fresh engine compiling
        one engine's locals). Plans from two tables that are equal in
        structure are distinct objects and would both reach the output, so
        every plan replayed is first re-interned in this engine's ``nodes``,
        once per distinct plan object
        (:meth:`~planrec.trees.NodeTable.adopt` returns an own plan as it
        is). Two plans of two tables that adopt to one target replay apart,
        and ``out``, keyed by plan tuple, keeps one copy of what both build.
        The split check compares the locals' plans as given, by identity:
        that is structural equality for locals from one table, and locals
        mixing tables can only miss a skip, never an output.
        """
        t0 = time.perf_counter_ns()
        selected = k_best(hyps, self.cfg.k)
        out: dict[tuple[PlanNode, ...], Hypothesis] = {}
        skip = self._skip_split_covered
        selected_plans: set[tuple[PlanNode, ...]] | None = None
        fragments_memo: dict[PlanNode, list[PlanNode]] = {}
        adopt = self.nodes.adopt
        own: dict[PlanNode, PlanNode] = {}  # each distinct plan, adopted once

        def split_selected(local: Hypothesis) -> bool:
            nonlocal selected_plans
            split: list[PlanNode] = []
            for plan in local.plans:
                frags = fragments_memo.get(plan)
                if frags is None:
                    frags = fragments_memo[plan] = _fragments(plan)
                if not frags:
                    return False
                split += frags
            if selected_plans is None:
                selected_plans = {h.plans for h in selected}
            split.sort(key=_MIN_TS)
            return tuple(split) in selected_plans

        def target_of(plan: PlanNode) -> PlanNode:
            target = own.get(plan)
            if target is None:
                target = own[plan] = adopt(plan)
            return target

        start = {EMPTY_HYPOTHESIS.plans: EMPTY_HYPOTHESIS}
        if isinstance(selected, LocalSet):
            _compile_paths(self._phatt.advance, target_of, skip, out, selected.dag(), start)
        else:
            _compile_group(self._phatt.advance, target_of, split_selected if skip else None,
                           out, selected, 0, start, False)
        merged = ranked(out.values())
        elapsed = (time.perf_counter_ns() - t0) // 1000
        return merged, elapsed


_MIN_TS = attrgetter("min_ts")


def _compile_group(advance, target_of, split_selected, out: dict,
                   locals_: list[Hypothesis], depth: int, states: dict, checked: bool):
    """Compile ``locals_``, which share their first ``depth`` plans, from
    ``states``, the hypotheses those plans compile to; the results go into
    ``out``. ``split_selected`` is the split check, None when the skip is off;
    ``checked``: the shared prefix holds a joined plan, so every local here
    already passed it. Module-level recursion: a nested recursive function
    would hold itself in a reference cycle."""
    by_plan: dict[PlanNode, list[Hypothesis]] = {}
    for local in locals_:
        if len(local.plans) == depth:
            out.update(states)
        else:
            by_plan.setdefault(local.plans[depth], []).append(local)
    for plan, group in by_plan.items():
        target = target_of(plan)
        joined = target.height > 1
        if split_selected is not None and joined and not checked:
            group = [local for local in group if not split_selected(local)]
            if not group:
                continue
        sub = advance(states.values(), target)
        if sub:
            _compile_group(advance, target_of, split_selected, out,
                           group, depth + 1, sub, checked or joined)


def _compile_paths(advance, target_of, height_one, out: dict, node, states: dict):
    """Compile every path of a closed set's plan DAG below ``node`` from
    ``states``, the hypotheses the path's prefix compiles to; the results go
    into ``out``. With ``height_one`` (the split skip is sound) only edges
    whose plan has height 1 are followed. The DAG is deterministic, so each
    distinct prefix is advanced once, as :func:`_compile_group` does."""
    if node is SINK:
        out.update(states)
        return
    for plan, child in node.edges:
        if height_one and plan.height > 1:
            continue
        sub = advance(states.values(), target_of(plan))
        if sub:
            _compile_paths(advance, target_of, height_one, out, child, sub)


def _fragments(plan: PlanNode) -> list[PlanNode]:
    """The plan's depth-1 subtrees in tree order; empty when one of them holds
    no observation or the plan itself is a bare node, since neither replays."""
    out: list[PlanNode] = []
    return out if plan.height and _collect_fragments(plan, out) else []


def _collect_fragments(node: PlanNode, out: list[PlanNode]) -> bool:
    if node.height == 1:
        out.append(node)
        return node.min_ts is not None
    return all(_collect_fragments(child, out) for child in node.children if child.height)


def _split_skip_sound(lib: PlanLibrary, max_depth: int) -> bool:
    """Whether :meth:`SlimEngine.compile_top_down` may skip the locals whose
    split it compiles too: the library is acyclic, ``max_depth`` reaches its
    longest derivation, and no rule's RHS mixes terminals and nonterminals."""
    if lib.acyclic_depth is None or max_depth < lib.acyclic_depth:
        return False
    return all(len({lib.is_terminal(s) for s in rule.rhs}) == 1 for rule in lib.rules)
