"""Independent brute-force oracles used to pin expected values.

Everything here works on plain tuple trees and raw grammar fields only
(``rule.rhs``, ``rule.constraints``, symbol kinds); none of the engine code
paths (cached statistics, incremental checks, frontier logic) are reused, so
agreement between an engine and these oracles is meaningful evidence.
:func:`verify_hypothesis` reads an engine hypothesis's raw node fields and
recomputes every cached statistic, the ordering checks and the weight from
them.

Tuple-tree encoding::

    ("open", sym)            open-frontier node
    ("leaf", sym, ts)        realized terminal at timestamp ts
    ("exp", sym, rule_idx, (child, ...))   expanded node
"""

from __future__ import annotations

from itertools import product


# ---------------------------------------------------------------------------
# Basic tree helpers
# ---------------------------------------------------------------------------


def closure_pairs(pairs):
    """Transitive closure by iterated squaring-free chaining."""
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c, d in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return closed


def realized(tree):
    """All (ts, symbol) stamps in the subtree."""
    kind = tree[0]
    if kind == "open":
        return []
    if kind == "leaf":
        return [(tree[2], tree[1])]
    out = []
    for child in tree[3]:
        out.extend(realized(child))
    return out


def is_complete(tree):
    kind = tree[0]
    if kind == "open":
        return False
    if kind == "leaf":
        return True
    return all(is_complete(c) for c in tree[3])


def consistent(lib, tree):
    """Temporal consistency: recomputed from raw constraint pairs."""
    if tree[0] != "exp":
        return True
    rule = lib.rules[tree[2]]
    children = tree[3]
    for i, j in closure_pairs(rule.constraints):
        stamps_j = realized(children[j])
        if stamps_j:
            if not is_complete(children[i]):
                return False
            stamps_i = realized(children[i])
            if max(ts for ts, _ in stamps_i) >= min(ts for ts, _ in stamps_j):
                return False
    return all(consistent(lib, c) for c in children)


def tree_weight(lib, tree):
    if tree[0] != "exp":
        return 1.0
    w = lib.rules[tree[2]].prob
    for child in tree[3]:
        w *= tree_weight(lib, child)
    return w


def serialize(lib, tree):
    """The serialization grammar, implemented afresh."""
    kind = tree[0]
    name = lib.name(tree[1])
    if lib.ambiguous_rhs and kind == "exp":
        name = f"{name}#{tree[2]}"
    if kind == "open":
        return name + "?"
    if kind == "leaf":
        return f"{name}@{tree[2]}"
    return f"{name}({' '.join(serialize(lib, c) for c in tree[3])})"


def forest_canon(lib, trees):
    """Canonical hypothesis form: plans sorted by (min ts, serialization)."""
    keyed = []
    for tree in trees:
        stamps = realized(tree)
        min_ts = min(ts for ts, _ in stamps) if stamps else float("inf")
        keyed.append((min_ts, serialize(lib, tree)))
    keyed.sort()
    return ";".join(text for _, text in keyed)


def append_problems(lib, appended, replaced):
    """Problems with one step's candidates, where ``appended`` holds those
    built by appending a plan and ``replaced`` those built by replacing one.
    The engines store appends without a dedup check, which is sound only
    when no two appends share a canonical form and none shares one with a
    replacement; canonical forms are rebuilt here from the raw nodes."""
    problems = []
    seen = set()
    for h in appended:
        canon = forest_canon(lib, [from_plan_node(p) for p in h.plans])
        if canon in seen:
            problems.append(f"append {canon!r} built twice")
        seen.add(canon)
    for h in replaced:
        canon = forest_canon(lib, [from_plan_node(p) for p in h.plans])
        if canon in seen:
            problems.append(f"append {canon!r} equals a replacement")
    return problems


def from_plan_node(node):
    """Convert an engine PlanNode into the tuple encoding."""
    if node.rule is not None:
        return ("exp", node.symbol, node.rule.idx,
                tuple(from_plan_node(c) for c in node.children))
    if node.min_ts is not None:
        return ("leaf", node.symbol, node.min_ts)
    return ("open", node.symbol)


def reachable_symbols(lib):
    seen = set(lib.goals)
    changed = True
    while changed:
        changed = False
        for rule in lib.rules:
            if rule.lhs in seen:
                for s in rule.rhs:
                    if s not in seen:
                        seen.add(s)
                        changed = True
    return seen


# ---------------------------------------------------------------------------
# Brute-force verification of engine hypotheses
# ---------------------------------------------------------------------------


def uniform_priors(lib):
    """The uniform goal prior of every goal, ``{goal: 1 / len(goals)}``:
    the one prior the engines apply, as the library format states none."""
    return {g: 1.0 / len(lib.goals) for g in lib.goals}


def verify_hypothesis(lib, h, n_obs, obs_syms=None, priors=None):
    """Recompute every invariant of an engine hypothesis from scratch;
    returns violation messages.

    Checks exact observation coverage, temporal consistency (with a closure
    recomputed here from the raw constraint pairs), agreement of all cached
    node statistics with fresh recursion, the weight product, and that the
    plans' smallest timestamps strictly ascend.
    """
    problems = []
    stamps = []  # (ts, symbol)
    closures = {}

    def closure_of(rule):
        got = closures.get(rule.idx)
        if got is None:
            got = closures[rule.idx] = closure_pairs(rule.constraints)
        return got

    def recompute(node):
        # returns (complete, min_ts, max_ts, weight, height, opens)
        if node.rule is None:
            if node.min_ts is None:
                return (False, None, None, 1.0, 0, 1)
            stamps.append((node.min_ts, node.symbol))
            return (True, node.min_ts, node.min_ts, 1.0, 0, 0)
        stats = [recompute(c) for c in node.children]
        for i, j in closure_of(node.rule):
            comp_i, max_i = stats[i][0], stats[i][2]
            min_j = stats[j][1]
            if min_j is not None and (not comp_i or max_i >= min_j):
                problems.append(
                    f"ordering ({i + 1},{j + 1}) of rule {node.rule.idx} violated at {node.canon}"
                )
        mins = [s[1] for s in stats if s[1] is not None]
        maxs = [s[2] for s in stats if s[2] is not None]
        weight = node.rule.prob
        for s in stats:
            weight *= s[3]
        result = (
            all(s[0] for s in stats),
            min(mins) if mins else None,
            max(maxs) if maxs else None,
            weight,
            1 + max(s[4] for s in stats),
            sum(s[5] for s in stats),
        )
        cached = (node.open_count == 0, node.min_ts, node.max_ts, node.weight,
                  node.height, node.open_count)
        if cached[:3] != result[:3] or cached[4:] != result[4:] or \
                abs(cached[3] - result[3]) > 1e-9 * max(1.0, abs(result[3])):
            problems.append(f"cached statistics disagree at {node.canon}")
        return result

    weight = 1.0
    plan_mins = []
    for plan in h.plans:
        stats = recompute(plan)
        weight *= stats[3]
        plan_mins.append(stats[1])
        if priors is not None:
            weight *= priors.get(plan.symbol, 1.0)
    if None in plan_mins or plan_mins != sorted(set(plan_mins)):
        problems.append(f"plan smallest timestamps {plan_mins} do not strictly ascend")
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


# ---------------------------------------------------------------------------
# Exhaustive goal-rooted enumeration (generate-and-filter)
# ---------------------------------------------------------------------------


def partial_trees(lib, sym, depth, obs_syms):
    """Every partial tree rooted at ``sym`` whose realized leaves are stamped
    with timestamps whose observation symbol matches."""
    out = [("open", sym)]
    if lib.is_terminal(sym):
        for ts, o in enumerate(obs_syms, start=1):
            if o == sym:
                out.append(("leaf", sym, ts))
        return out
    if depth <= 0:
        return out
    for rule in lib.rules_for(sym):
        child_options = [partial_trees(lib, s, depth - 1, obs_syms) for s in rule.rhs]
        for combo in product(*child_options):
            out.append(("exp", sym, rule.idx, tuple(combo)))
    return out


def grounded(tree):
    """True when every expanded node's subtree holds a realized leaf: the
    incremental engines never commit to a rule without an observation
    beneath it, so vacuous expansions are unreachable."""
    if tree[0] != "exp":
        return True
    return bool(realized(tree)) and all(grounded(c) for c in tree[3])


def enumerate_goal_hypotheses(lib, obs_syms, depth=None):
    """All forests of goal-rooted plans that explain ``obs_syms`` exactly
    once each, are temporally consistent, and contain no vacuous
    expansions. Returns {canon: weight} with uniform goal priors folded in."""
    if depth is None:
        depth = lib.acyclic_depth
        assert depth is not None, "oracle requires an acyclic library"
    n = len(obs_syms)
    full = frozenset(range(1, n + 1))
    candidates = []
    for goal in lib.goals:
        for tree in partial_trees(lib, goal, depth, obs_syms):
            stamps = realized(tree)
            if not stamps:
                continue
            ts_set = frozenset(ts for ts, _ in stamps)
            if len(ts_set) != len(stamps):
                continue
            if consistent(lib, tree) and grounded(tree):
                candidates.append((ts_set, tree))
    prior = 1.0 / len(lib.goals)
    out: dict[str, float] = {}

    def assemble(start, chosen, covered):
        if covered == full:
            canon = forest_canon(lib, [t for _, t in chosen])
            weight = prior ** len(chosen)
            for _, t in chosen:
                weight *= tree_weight(lib, t)
            out[canon] = weight
            return
        for i in range(start, len(candidates)):
            ts_set, tree = candidates[i]
            if ts_set & covered:
                continue
            assemble(i + 1, chosen + [(ts_set, tree)], covered | ts_set)

    assemble(0, [], frozenset())
    return out


# ---------------------------------------------------------------------------
# Naive bottom-up combinator oracle
# ---------------------------------------------------------------------------


def _substitutions(tree, match, make):
    """All single-node substitutions: replace one node satisfying ``match``
    with ``make(node)``; yields whole-tree variants."""
    kind = tree[0]
    if match(tree):
        yield make(tree)
    if kind == "exp":
        for i, child in enumerate(tree[3]):
            for sub in _substitutions(child, match, make):
                children = tree[3][:i] + (sub,) + tree[3][i + 1:]
                yield ("exp", tree[1], tree[2], children)


def oracle_fragments(lib, obs_sym, ts):
    reach = reachable_symbols(lib)
    frags = []
    for rule in lib.rules:
        if rule.lhs not in reach:
            continue
        closed = closure_pairs(rule.constraints)
        for pos, s in enumerate(rule.rhs):
            if s != obs_sym:
                continue
            if any(j == pos for _, j in closed):
                continue
            children = tuple(
                ("leaf", c, ts) if i == pos else ("open", c)
                for i, c in enumerate(rule.rhs)
            )
            frags.append(("exp", rule.lhs, rule.idx, children))
    return frags


def slim_oracle_step(lib, hypotheses, obs_sym, ts):
    """One naive bottom-up step over frozensets of tuple trees."""
    out = set()

    def keep(hyp):
        if all(consistent(lib, p) for p in hyp):
            out.add(frozenset(hyp))

    frags = oracle_fragments(lib, obs_sym, ts)
    for hyp in hypotheses:
        for p in hyp:
            # directly: realize one open terminal leaf labeled obs
            for p2 in _substitutions(
                p,
                lambda t: t[0] == "open" and t[1] == obs_sym,
                lambda t: ("leaf", obs_sym, ts),
            ):
                keep(hyp - {p} | {p2})
        for f in frags:
            root_sym = f[1]
            for p in hyp:
                # as child: fuse the fragment at a matching open node
                for p2 in _substitutions(
                    p,
                    lambda t: t[0] == "open" and t[1] == root_sym,
                    lambda t: f,
                ):
                    keep(hyp - {p} | {p2})
                # as sibling: new common parent hosting p and f
                p_sym = p[1]
                for rule in lib.rules:
                    if rule.lhs not in reachable_symbols(lib):
                        continue
                    for i, si in enumerate(rule.rhs):
                        for j, sj in enumerate(rule.rhs):
                            if i == j or si != p_sym or sj != root_sym:
                                continue
                            children = tuple(
                                p if c == i else (f if c == j else ("open", s))
                                for c, s in enumerate(rule.rhs)
                            )
                            keep(hyp - {p} | {("exp", rule.lhs, rule.idx, children)})
            # independently
            keep(hyp | {f})
    return out


def slim_oracle_run(lib, obs_names):
    """Whole-sequence naive bottom-up; returns the set of canonical forms."""
    hyps = {frozenset()}
    for ts, name in enumerate(obs_names, start=1):
        hyps = slim_oracle_step(lib, hyps, lib.sym(name), ts)
        if not hyps:
            return set()
    return {forest_canon(lib, list(h)) for h in hyps}


# ---------------------------------------------------------------------------
# Exhaustive agent behavior (all plans, all linear extensions)
# ---------------------------------------------------------------------------


def complete_plans(lib, sym):
    if lib.is_terminal(sym):
        yield ("leaf", sym, 0)
        return
    for rule in lib.rules_for(sym):
        for combo in product(*[list(complete_plans(lib, s)) for s in rule.rhs]):
            yield ("exp", sym, rule.idx, tuple(combo))


def linear_extensions(lib, tree):
    """All emission orders of the complete plan's leaves that respect every
    ordering constraint along the way."""
    leaves = []

    def collect(node, path):
        if node[0] == "leaf":
            leaves.append((path, node[1]))
        else:
            for i, child in enumerate(node[3]):
                collect(child, path + (i,))

    collect(tree, ())

    def node_at(path):
        node = tree
        for i in path:
            node = node[3][i]
        return node

    def leaf_count(path):
        stack = [node_at(path)]
        count = 0
        while stack:
            node = stack.pop()
            if node[0] == "leaf":
                count += 1
            else:
                stack.extend(node[3])
        return count

    def enabled(path, emitted):
        node = tree
        walked = ()
        for step in path:
            if node[0] == "exp":
                rule = lib.rules[node[2]]
                closed = closure_pairs(rule.constraints)
                for i, j in closed:
                    if j == step:
                        pred = walked + (i,)
                        total = leaf_count(pred)
                        done = sum(1 for q in emitted if q[: len(pred)] == pred)
                        if done < total:
                            return False
            node = node[3][step]
            walked = walked + (step,)
        return True

    sequences = []

    def emit(emitted, order):
        if len(order) == len(leaves):
            sequences.append(tuple(lib.name(s) for _, s in order))
            return
        for path, sym in leaves:
            if (path, sym) in order:
                continue
            if enabled(path, {p for p, _ in order}):
                emit(emitted | {path}, order + [(path, sym)])

    emit(set(), [])
    return sequences


def all_agent_prefixes(lib, max_len):
    """Every prefix (length 1..max_len) of every simulatable sequence."""
    prefixes = set()
    for goal in lib.goals:
        for plan in complete_plans(lib, goal):
            for seq in linear_extensions(lib, plan):
                for ln in range(1, min(max_len, len(seq)) + 1):
                    prefixes.add(seq[:ln])
    return sorted(prefixes)
