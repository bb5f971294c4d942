import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from planrec import slim, trees
from planrec.domains import DomainParams, generate_domain, simulate_agent
from planrec.grammar import LibraryError, parse_library
from planrec.metrics import CombinationCounter, drive
from planrec.phatt import PhattConfig, PhattEngine, RecognitionFailure
from planrec.runner import _run
from planrec.slim import (
    SlimEngine,
    TopDownConfig,
    _split_skip_sound,
    combine_as_child,
    combine_as_sibling,
    combine_directly,
    combine_independently,
    create_fragments,
    k_best,
    sibling_slots,
)
from planrec.trees import (
    EMPTY_HYPOTHESIS,
    Hypothesis,
    NodeTable,
    enabled_frontier,
    open_node,
    parse_hypothesis,
    parse_plan,
    realized_leaf,
    try_expand,
)

from conftest import SUITE, drive_engine
from oracles import (
    all_agent_prefixes,
    append_problems,
    forest_canon,
    reachable_symbols,
    slim_oracle_run,
    slim_oracle_step,
    verify_hypothesis,
)
from test_acceptance import BENCH_A, BENCH_B
from test_forest import libraries


def bottom_up(lib, names):
    engine = SlimEngine(lib)
    hyps = (EMPTY_HYPOTHESIS,)
    for ts, name in enumerate(names, start=1):
        hyps = engine.step(hyps, lib.sym(name), ts)
    return hyps


def canons(items):
    """Canonical forms of hypotheses or plans."""
    return {x.canon for x in items}


# ---------------------------------------------------------------------------
# Fragments
# ---------------------------------------------------------------------------


def test_terminal_fragment_for_first_action(lib, nodes):
    frags = create_fragments(nodes, lib.sym("a"), 1)
    assert [f.canon for f in frags] == ["A(a@1)"]
    # a depth-1 node of rule A -> a, attached at position 0, created at step 1
    assert frags[0].rule is lib.rules_for(lib.sym("A"))[0] and frags[0].height == 1
    assert [i for i, c in enumerate(frags[0].children) if c.min_ts is not None] == [0]
    assert frags[0].min_ts == 1


def test_terminal_fragment_exists_for_b(lib, nodes):
    # B -> b places b at an unconstrained position, so the fragment exists
    frags = create_fragments(nodes, lib.sym("b"), 5)
    assert [f.canon for f in frags] == ["B(b@5)"]


def test_no_fragment_at_position_with_predecessor():
    lib = parse_library(
        "terminals: s t\nnonterminals: M\ngoals: M\n"
        "rule: M -> s t | (1,2) | 1.0"
    )
    nodes = NodeTable(lib)
    assert create_fragments(nodes, lib.sym("s"), 1) != ()
    # t sits behind s in the only rule mentioning it
    assert create_fragments(nodes, lib.sym("t"), 1) == ()


def test_fragment_pruning_drops_unreachable_rules():
    lib = parse_library(
        "terminals: a\nnonterminals: X Z\ngoals: X\n"
        "rule: X -> a | | 1.0\nrule: Z -> a | | 1.0"
    )
    nodes = NodeTable(lib)
    pruned = create_fragments(nodes, lib.sym("a"), 1)
    assert [f.rule.lhs for f in pruned] == [lib.sym("X")]


def test_generalized_fragment_keeps_attachment_open(lib, nodes):
    # a plan rooted at a nonterminal joins a sibling through the host rule's
    # all-open children: the attachment carries no realized content yet
    def slots(name):
        return {lib.name(s): [(lib.name(rule.lhs), i, j, [o.canon for o in opens])
                              for rule, i, j, opens in v]
                for s, v in sibling_slots(nodes, lib.sym(name)).items()}

    assert slots("A") == {"B": [("X", 1, 0, ["A?", "B?", "C?"])],
                          "C": [("X", 2, 0, ["A?", "B?", "C?"])]}
    # the slots ignore ordering predecessors: B sits behind A in X -> A B C,
    # yet its occurrence is a host
    assert slots("B") == {"A": [("X", 0, 1, ["A?", "B?", "C?"])],
                          "C": [("X", 2, 1, ["A?", "B?", "C?"])]}


# ---------------------------------------------------------------------------
# The four combinators
# ---------------------------------------------------------------------------


def test_combine_directly_realizes_terminal_leaf():
    lib = parse_library(
        "terminals: a b c\nnonterminals: X A C\ngoals: X\n"
        "rule: X -> A b C | (1,2) | 1.0\nrule: A -> a | | 1.0\nrule: C -> c | | 1.0"
    )
    nodes = NodeTable(lib)
    plan = parse_plan(nodes, "X(A(a@1) b? C?)")
    out = combine_directly(nodes, plan, realized_leaf(nodes, lib.sym("b"), 2),
                           CombinationCounter(), enabled_frontier(plan))
    assert canons(out) == {"X(A(a@1) b@2 C?)"}


def test_combine_directly_no_match(lib, nodes):
    plan = parse_plan(nodes, "A(a@1)")
    assert combine_directly(nodes, plan, realized_leaf(nodes, lib.sym("c"), 2),
                            CombinationCounter(), enabled_frontier(plan)) == []


def test_combine_directly_respects_enablement():
    lib = parse_library(
        "terminals: a b\nnonterminals: X A\ngoals: X\n"
        "rule: X -> A b | (1,2) | 1.0\nrule: A -> a | | 1.0"
    )
    nodes = NodeTable(lib)
    blocked = parse_plan(nodes, "X(A? b?)")
    assert combine_directly(nodes, blocked, realized_leaf(nodes, lib.sym("b"), 1),
                            CombinationCounter(), enabled_frontier(blocked)) == []


def test_combine_as_child_fig_example(lib, nodes):
    plan = parse_plan(nodes, "X(A(a@1) B? C(c@2))")
    (frag,) = create_fragments(nodes, lib.sym("b"), 3)
    out = combine_as_child(nodes, plan, frag, CombinationCounter(), enabled_frontier(plan))
    assert canons(out) == {"X(A(a@1) B(b@3) C(c@2))"}


def test_combine_as_child_blocked_by_predecessor(lib, nodes):
    plan = parse_plan(nodes, "X(A? B? C(c@1))")
    (frag,) = create_fragments(nodes, lib.sym("b"), 2)
    assert combine_as_child(nodes, plan, frag, CombinationCounter(), enabled_frontier(plan)) == []


def test_combine_as_child_symbol_mismatch(lib, nodes):
    plan = parse_plan(nodes, "X(A? B? C?)")
    (frag,) = create_fragments(nodes, lib.sym("c"), 1)  # C-rooted
    # enabled opens are A and C; only C matches and accepts the fragment
    out = combine_as_child(nodes, plan, frag, CombinationCounter(), enabled_frontier(plan))
    assert canons(out) == {"X(A? B? C(c@1))"}


def test_trace_keeps_each_name_of_the_fusion_combiner(lib, monkeypatch):
    # combine_directly is combine_as_child under a second name; the
    # benchmark's tracer patches each name on its own, so the step's calls
    # under each name are counted apart, and uninstalling restores both
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    import planrec
    from planrec import slim

    assert slim.combine_directly is slim.combine_as_child is combine_as_child
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert slim.combine_directly is not slim.combine_as_child
        drive_engine(SlimEngine(lib), ["a", "c", "b"])
    finally:
        tracer.uninstall()
    names = ("combine_directly", "combine_as_child")
    assert [tracer.calls[f"slim.{name}"][0] for name in names] == [4, 4]
    assert [tracer.counts.get(f"slim.{name}.out", 0) for name in names] == [0, 1]
    for module in (slim, planrec):
        assert module.combine_directly is module.combine_as_child is combine_as_child


def test_combine_as_sibling_fig_example(lib, nodes):
    plan = parse_plan(nodes, "A(a@1)")
    (frag,) = create_fragments(nodes, lib.sym("c"), 2)
    out = combine_as_sibling(nodes, plan, frag, sibling_slots(nodes, frag.symbol),
                             CombinationCounter())
    assert canons(out) == {"X(A(a@1) B? C(c@2))"}


def test_combine_as_sibling_rejects_ordering_violation(lib, nodes):
    plan = parse_plan(nodes, "C(c@1)")
    (frag,) = create_fragments(nodes, lib.sym("b"), 2)
    # candidate X(A? B(b@2) C(c@1)) breaks (A before B)
    assert combine_as_sibling(nodes, plan, frag, sibling_slots(nodes, frag.symbol),
                              CombinationCounter()) == []


def test_combine_as_sibling_valid_pair(lib, nodes):
    plan = parse_plan(nodes, "A(a@1)")
    (frag,) = create_fragments(nodes, lib.sym("b"), 2)
    out = combine_as_sibling(nodes, plan, frag, sibling_slots(nodes, frag.symbol),
                             CombinationCounter())
    assert canons(out) == {"X(A(a@1) B(b@2) C?)"}


def generalized_fragments(lib, sym):
    """``(rule, attachment position)`` of every generalized fragment for the
    nonterminal ``sym``: each occurrence in a rule whose head some goal
    reaches. The attachment stays open, so no ordering predecessor rules an
    occurrence out before fusion."""
    reach = reachable_symbols(lib)
    return [(rule, j) for rule in lib.rules if rule.lhs in reach
            for j, s in enumerate(rule.rhs) if s == sym]


def sibling_reference(nodes, p, f, counter):
    """The sibling loop over generalized fragments that the slot table replaces."""
    out = []
    for rule, j in generalized_fragments(nodes.lib, f.symbol):
        rhs = rule.rhs
        for i in range(len(rhs)):
            if i == j or rhs[i] != p.symbol:
                continue
            counter.n += 1
            children = tuple(
                p if c == i else (f if c == j else open_node(nodes, s))
                for c, s in enumerate(rhs)
            )
            parent = try_expand(nodes, rule, children)
            if parent is not None:
                out.append(parent)
    return out


def assert_sibling_slots_match_reference(lib, sequences):
    checked = 0
    for names in sequences:
        hyps = (EMPTY_HYPOTHESIS,)
        engine = SlimEngine(lib)
        nodes = engine.nodes
        for ts, name in enumerate(names, start=1):
            obs = lib.sym(name)
            for f in create_fragments(nodes, obs, ts):
                for h in hyps:
                    for p in h.plans:
                        got_n, want_n = CombinationCounter(), CombinationCounter()
                        slots = sibling_slots(nodes, f.symbol)
                        got = combine_as_sibling(nodes, p, f, slots, got_n)
                        want = sibling_reference(nodes, p, f, want_n)
                        assert [(c.canon, c.weight) for c in got] == \
                            [(c.canon, c.weight) for c in want], (names, ts, h.canon)
                        assert got_n.n == want_n.n
                        checked += got_n.n
            hyps = engine.step(hyps, obs, ts)
    return checked


def assert_slot_table_matches_fragments(lib):
    nodes = NodeTable(lib)
    slots_seen = 0
    for sym in lib.nonterminals:
        fragments = generalized_fragments(lib, sym)
        slots = sibling_slots(nodes, sym)
        for psym in range(len(lib.symbols)):
            want = [(rule, i, j) for rule, j in fragments
                    for i, s in enumerate(rule.rhs) if i != j and s == psym]
            assert [slot[:3] for slot in slots.get(psym, ())] == want
            slots_seen += len(want)
    return slots_seen


def test_sibling_slots_reproduce_fragment_loop_suite(suite_lib):
    assert_slot_table_matches_fragments(suite_lib)
    assert_sibling_slots_match_reference(suite_lib, all_agent_prefixes(suite_lib, 4))


@pytest.mark.parametrize("params, seeds", [(BENCH_A, (1000, 1001, 1002)),
                                           (BENCH_B, (2001, 2021, 2055))],
                         ids=["benchmark-a", "benchmark-b"])
def test_sibling_slots_reproduce_fragment_loop_generated(params, seeds):
    lib = generate_domain(params)
    assert assert_slot_table_matches_fragments(lib) > 0
    sequences = [simulate_agent(lib, seed)[:4] for seed in seeds]
    attempts = assert_sibling_slots_match_reference(lib, sequences)
    assert attempts > 0 or params is BENCH_A  # A's prefixes make no sibling attempt


def test_combine_independently_examples(lib, nodes):
    h = parse_hypothesis(nodes, "A(a@1)")
    (frag,) = create_fragments(nodes, lib.sym("c"), 2)
    h1 = combine_independently(h, frag, CombinationCounter())
    assert h1.canon == "A(a@1);C(c@2)"
    (frag_b,) = create_fragments(nodes, lib.sym("b"), 3)
    h2 = combine_independently(h1, frag_b, CombinationCounter())
    assert h2.canon == "A(a@1);C(c@2);B(b@3)"
    first = combine_independently(EMPTY_HYPOTHESIS, create_fragments(nodes, lib.sym("a"), 1)[0],
                                  CombinationCounter())
    assert first.canon == "A(a@1)"


# ---------------------------------------------------------------------------
# Bottom-up steps
# ---------------------------------------------------------------------------


def test_bottom_up_worked_example(lib):
    h1 = bottom_up(lib, ["a"])
    assert canons(h1) == {"A(a@1)"}
    h2 = bottom_up(lib, ["a", "c"])
    assert canons(h2) == {"A(a@1);C(c@2)", "X(A(a@1) B? C(c@2))"}
    h3 = bottom_up(lib, ["a", "c", "b"])
    assert canons(h3) == {
        "X(A(a@1) B(b@3) C(c@2))",
        "A(a@1);C(c@2);B(b@3)",
        "X(A(a@1) B? C(c@2));B(b@3)",
        "X(A(a@1) B(b@3) C?);C(c@2)",
    }


def test_bottom_up_matches_naive_oracle(suite_lib):
    lib = suite_lib
    for names in all_agent_prefixes(lib, 4):
        assert canons(bottom_up(lib, list(names))) == slim_oracle_run(lib, list(names))


def test_bottom_up_matches_naive_oracle_on_random_libraries(monkeypatch):
    # random acyclic libraries draw every terminal RHS from three names, so a
    # terminal occurs in several rules and most observations get two or more
    # fragments, which the SUITE libraries never give; the counts check that
    # every combiner yields over the examples and that appends happen
    counts = dict.fromkeys(["combine_directly", "combine_as_child", "combine_as_sibling",
                            "appends", "two fragments"], 0)

    def counted(name, combine):
        def wrapper(*args):
            found = combine(*args)
            counts[name] += len(found)
            return found
        return wrapper

    for name in ("combine_directly", "combine_as_child", "combine_as_sibling"):
        monkeypatch.setattr(slim, name, counted(name, getattr(slim, name)))
    fragments, with_plan = slim.create_fragments, Hypothesis.with_plan

    def create_fragments_counted(nodes, obs, ts):
        found = fragments(nodes, obs, ts)
        counts["two fragments"] += len(found) > 1
        return found

    def with_plan_counted(h, plan, prior=1.0):
        counts["appends"] += 1
        return with_plan(h, plan, prior)

    monkeypatch.setattr(slim, "create_fragments", create_fragments_counted)
    monkeypatch.setattr(Hypothesis, "with_plan", with_plan_counted)

    @settings(max_examples=200, deadline=None)
    @given(libraries(), st.integers(0, 10_000))
    def check(lib, seed):
        try:
            names = simulate_agent(lib, seed)[:5]
        except LibraryError:  # a deep acyclic plan can outgrow the sampler's budget
            return
        engine = SlimEngine(lib)
        hyps, oracle = (EMPTY_HYPOTHESIS,), {frozenset()}
        for ts, name in enumerate(names, start=1):
            sym = lib.sym(name)
            try:
                hyps = engine.step(hyps, sym, ts)
            except RecognitionFailure:
                hyps = ()
            oracle = slim_oracle_step(lib, oracle, sym, ts)
            assert canons(hyps) == {forest_canon(lib, list(h)) for h in oracle}, ts
            if not hyps or len(hyps) > 200:  # keeps the oracle's next step cheap
                return

    check()
    assert all(counts.values()), counts


def test_bottom_up_repeated_observations_stay_alive(lib):
    # every observation spawns a fresh fragment, so repeats pile up as
    # independent plans rather than failing
    hyps = bottom_up(lib, ["a", "a", "a"])
    assert "A(a@1);A(a@2);A(a@3)" in canons(hyps)


def test_bottom_up_failure_signals_step():
    lib = parse_library(
        "terminals: s t\nnonterminals: M\ngoals: M\n"
        "rule: M -> s t | (1,2) | 1.0"
    )
    # t cannot start any rule and nothing offers an open t leaf yet
    with pytest.raises(RecognitionFailure) as err:
        bottom_up(lib, ["t"])
    assert err.value.step == 1


def test_bottom_up_every_hypothesis_verified(lib):
    for n, names in enumerate((["a"], ["a", "c"], ["a", "c", "b"]), start=1):
        for h in bottom_up(lib, names):
            assert verify_hypothesis(lib, h, n) == []


def test_fragment_timestamp_law(lib, nodes):
    # after a sibling fusion the plan's min timestamp is the min of parts
    plan = parse_plan(nodes, "A(a@1)")
    (frag,) = create_fragments(nodes, lib.sym("c"), 2)
    (out,) = combine_as_sibling(nodes, plan, frag, sibling_slots(nodes, frag.symbol),
                                CombinationCounter())
    assert out.min_ts == 1
    plan_rev = parse_plan(nodes, "C(c@1)")
    (frag_a,) = create_fragments(nodes, lib.sym("a"), 2)
    (out_rev,) = combine_as_sibling(nodes, plan_rev, frag_a,
                                    sibling_slots(nodes, frag_a.symbol), CombinationCounter())
    assert out_rev.min_ts == 1


# ---------------------------------------------------------------------------
# k-best
# ---------------------------------------------------------------------------


def by_joined_canon(hyps):
    """The reference order: weight descending, then the ``;``-joined canon."""
    return sorted(hyps, key=lambda h: (-h.weight, h.canon))


# equal-weight hypotheses over prefixes of one sequence (a@1 c@2) whose plan
# serializations share long prefixes, within a plan and across plans
EQUAL_WEIGHT_PREFIXES = [
    "X(A(a@1) B? C?);X(A? B? C(c@2))",
    "X(A(a@1) B? C(c@2))",
    "X(A(a@1) B? C?);C(c@2)",
    "X(A(a@1) B? C?)",
    "A(a@1);X(A? B? C(c@2))",
    "A(a@1);C(c@2)",
    "A(a@1);C(c@2);B?",
    "A(a@1);C?",
    "A(a@1)",
]


def assert_ranks_like_joined_canon(nodes):
    """``ranked`` and ``k_best`` at every k order the equal-weight hand
    cases as their joined serializations do, equal keys in the order given."""
    shared = [parse_hypothesis(nodes, text) for text in EQUAL_WEIGHT_PREFIXES]
    assert len({h.weight for h in shared}) == 1
    # equal serializations from two tables, and a hypothesis given twice,
    # rank as equal
    table = NodeTable(nodes.lib)
    other, short = (parse_hypothesis(table, text) for text in ("A(a@1);C(c@2)", "A(a@1)"))
    split, joined_ = shared[5], shared[1]  # A(a@1);C(c@2) and X(A(a@1) B? C(c@2))
    for given in (shared, shared[::-1], shared[1::2] + shared[::2],
                  [split, other, joined_], [other, joined_, split],
                  [joined_, other, shared[0], split], [shared[6], joined_, split, shared[6], split],
                  [split, other, split], [split, short, joined_]):
        expected = by_joined_canon(given)
        assert [id(h) for h in trees.ranked(given)] == [id(h) for h in expected]
        for k in [*range(len(given) + 1), 100]:
            assert [id(h) for h in trees.ranked(given, k)] == [id(h) for h in expected[:k]]
            assert k_best(given, k) == expected[:k]


def test_k_best_ordering_and_ties(nodes):
    hs = [
        parse_hypothesis(nodes, "A(a@1);C(c@2)"),
        parse_hypothesis(nodes, "X(A(a@1) B? C(c@2))"),
    ]
    best = k_best(hs, 1)
    assert [h.canon for h in best] == ["A(a@1);C(c@2)"]  # weights tie, canon order
    assert k_best(hs, 0) == []
    assert len(k_best(hs, 10)) == 2
    # k=None ranks nothing: every hypothesis, in the order given
    assert k_best(hs, None) == hs and k_best(hs[::-1], None) == hs[::-1]
    assert_ranks_like_joined_canon(nodes)


@pytest.mark.parametrize("case", ["running-example", "benchmark-a-1000", "benchmark-b-2071"])
def test_ranked_orders_like_the_joined_canon(lib, case):
    # every step's locals and every compile's output, ranked through plan
    # ranks, in the order of the joined serializations
    if case == "running-example":
        names = ["a", "c", "b"]
    else:
        params, seed = (BENCH_A, 1000) if case == "benchmark-a-1000" else (BENCH_B, 2071)
        lib = generate_domain(params)
        names = simulate_agent(lib, seed)
    engine = SlimEngine(lib, cfg_all(lib))
    outputs = []

    def check(ts, locals_):
        expected = by_joined_canon(locals_)
        assert trees.ranked(locals_) == expected
        for k in (1, 100):
            assert k_best(locals_, k) == expected[:k]
        assert k_best(locals_, None) is locals_  # a closed set keeps its DAG
        outputs.append(engine.compile_top_down(k_best(locals_, 1000))[0])

    locals_, _ = drive_engine(engine, names, check)
    outputs.append(engine.compile_top_down(locals_)[0])
    assert len(outputs) == len(names) + 1 and outputs[-1]
    for out in outputs:
        assert out == by_joined_canon(out)
        assert trees.ranked(out[::-1]) == out


def test_k_best_and_compile_build_no_hypothesis_canon(monkeypatch):
    # ranking reads the plans' serializations only: on benchmark B 2071,
    # selecting the 100 best locals and compiling them, or all of them, joins
    # no hypothesis's plans into a canon
    lib = generate_domain(BENCH_B)
    engine = SlimEngine(lib, cfg_all(lib))
    locals_, _ = drive_engine(engine, simulate_agent(lib, 2071))
    built = []
    canon = Hypothesis.canon

    def counted(h):
        if h._canon is None:
            built.append(h)
        return canon.fget(h)

    monkeypatch.setattr(Hypothesis, "canon", property(counted))
    best = k_best(locals_, 100)
    assert len(best) == 100
    assert len(engine.compile_top_down(best)[0]) == 94
    assert len(engine.compile_top_down(locals_)[0]) == 9660
    assert built == []
    assert k_best(locals_, 1)[0].canon and len(built) == 1  # the probe counts


def test_k_best_by_weight():
    lib = parse_library(
        "terminals: a b\nnonterminals: X A B\ngoals: X\n"
        "rule: X -> A | | 0.6\nrule: X -> B | | 0.4\n"
        "rule: A -> a | | 1.0\nrule: B -> b | | 1.0"
    )
    nodes = NodeTable(lib)
    light = Hypothesis.build((parse_plan(nodes, "X(B(b@1))"),))
    heavy = Hypothesis.build((parse_plan(nodes, "X(A(a@1))"),))
    assert [h.canon for h in k_best([light, heavy], 2)] == [heavy.canon, light.canon]
    given = [light, parse_hypothesis(nodes, "B(b@1)"), heavy, parse_hypothesis(nodes, "A(a@1)")]
    expected = by_joined_canon(given)
    assert [h.weight for h in expected] == [1.0, 1.0, 0.6, 0.4]
    for k in range(len(given) + 1):
        assert k_best(given, k) == expected[:k]


# ---------------------------------------------------------------------------
# Top-down compilation
# ---------------------------------------------------------------------------


def cfg_all(lib):
    return TopDownConfig.for_library(lib, k=None)


@pytest.mark.parametrize("case, bottom_up_n, top_down_n", [
    # the three joined locals are skipped: A(a@1);C(c@2);B(b@3), their split,
    # is compiled too (11 attempts without the skip)
    ("running-example", 8, 5),
    # no split among the input: the values the uncached compiler counted
    ("running-example-joined-only", 8, 6),
    ("benchmark-a-1000", 451, 2655),  # no joined locals; many states share plans
])
def test_top_down_counts_every_attempt(lib, case, bottom_up_n, top_down_n):
    # one count per attempted graft, memo hits included
    if case.startswith("running-example"):
        names = ["a", "c", "b"]
    else:
        lib = generate_domain(BENCH_A)
        names = simulate_agent(lib, 1000)
    engine = SlimEngine(lib, cfg_all(lib))
    local = drive(lib, names, engine.step, engine.counter, "slim", [])
    assert engine.counter.n == bottom_up_n
    if case == "running-example-joined-only":
        local = [h for h in local if h.canon != "A(a@1);C(c@2);B(b@3)"]
        assert len(local) == 3
    engine.compile_top_down(local)
    assert engine.counter.n == bottom_up_n + top_down_n


def test_recognition_leaves_the_library_unchanged():
    lib = generate_domain(BENCH_A)
    names = simulate_agent(lib, 1000)
    before = dict(vars(lib))
    sizes = {key: len(value) for key, value in before.items() if hasattr(value, "__len__")}
    drive_engine(PhattEngine(lib), names)
    engine = SlimEngine(lib, cfg_all(lib))
    local = drive(lib, names, engine.step, engine.counter, "slim", [])
    assert engine.compile_top_down(local)[0]
    after = vars(lib)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert {key: len(after[key]) for key in sizes} == sizes
    assert not hasattr(lib, "tree_cache")


def test_top_down_config_validates_like_phatt(lib):
    cfg = TopDownConfig.for_library(lib, k=7)
    assert isinstance(cfg, PhattConfig)
    assert (cfg.k, cfg.max_depth) == (7, 4)
    with pytest.raises(ValueError):
        TopDownConfig(0, None)
    with pytest.raises(ValueError):
        TopDownConfig.for_library(lib, k=None, max_depth=0)
    with pytest.raises(ValueError):
        TopDownConfig.for_library(lib, k=-1)


def top_down(lib, local):
    """Goal-rooted hypotheses compiled from one local hypothesis alone."""
    return SlimEngine(lib, cfg_all(lib)).compile_top_down([local])[0]


def test_top_down_worked_example(lib, nodes):
    local = parse_hypothesis(nodes, "A(a@1);C(c@2)")
    out = top_down(lib, local)
    assert "X(A(a@1) B? C(c@2))" in canons(out)
    assert canons(out) == {
        "X(A(a@1) B? C(c@2))",
        "X(A(a@1) B? C?);X(A? B? C(c@2))",
    }


def test_top_down_identity_on_goal_rooted_complete(lib, nodes):
    local = parse_hypothesis(nodes, "X(A(a@1) B(b@3) C(c@2))")
    out = top_down(lib, local)
    assert canons(out) == {local.canon}
    # weights gain the goal prior exactly once
    assert out[0].weight == pytest.approx(1.0)


def test_top_down_union_equals_phatt(lib):
    locals_ = bottom_up(lib, ["a", "c"])
    union = set()
    for local in locals_:
        union |= canons(top_down(lib, local))
    hyps, _ = drive_engine(PhattEngine(lib), ["a", "c"])
    assert union == canons(hyps)


def test_top_down_dead_local():
    lib = parse_library(
        "terminals: s t\nnonterminals: M N\ngoals: M\n"
        "rule: M -> s t | (1,2) | 1.0\nrule: N -> t | | 1.0"
    )
    # N is reachable from no goal position that allows t first
    nodes = NodeTable(lib)
    local = Hypothesis.build((parse_plan(nodes, "N(t@1)"),))
    assert top_down(lib, local) == []


def test_top_down_dedup_drops_duplicates(lib):
    locals_ = sorted(bottom_up(lib, ["a", "c", "b"]), key=lambda h: h.canon)
    merged, _ = SlimEngine(lib, cfg_all(lib)).compile_top_down(locals_)
    seen_with = [h.canon for h in merged]
    seen_without = []
    for local in locals_:
        seen_without.extend(canons(top_down(lib, local)))
    assert len(seen_with) == len(set(seen_with))  # no duplicates emitted
    assert set(seen_with) == set(seen_without)  # nothing but duplicates removed
    assert len(seen_without) >= len(seen_with)


def test_slim_recognize_worked_example(lib):
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=0))
    locals_, steps = drive_engine(engine, ["a", "c", "b"])
    goal_rooted, _ = engine.compile_top_down(locals_)
    assert len(locals_) == 4
    assert goal_rooted == []
    assert [s.step for s in steps] == [1, 2, 3]
    assert [s.hypotheses for s in steps] == [1, 2, 4]


def test_slim_recognize_all_matches_phatt(lib):
    engine = SlimEngine(lib, cfg_all(lib))
    goal_rooted, _ = engine.compile_top_down(drive_engine(engine, ["a", "c", "b"])[0])
    hyps, _ = drive_engine(PhattEngine(lib), ["a", "c", "b"])
    assert canons(goal_rooted) == canons(hyps)


def test_slim_recognize_empty_sequence(lib, tmp_path):
    emitted = tmp_path / "hyps.txt"
    records, failure = _run(lib, [], "slim", [0, 100, None], None, "empty",
                            emit_path=emitted)
    assert failure is None
    assert [r.algorithm for r in records] == ["slim-0", "slim-100", "slim-all"]
    # the one local is the empty hypothesis, and it explains no goal
    assert [(r.final_hypotheses, r.goal_rooted, r.steps) for r in records] == [(1, 0, ())] * 3
    assert emitted.read_text() == f"{EMPTY_HYPOTHESIS.weight!r}\t\n"
    (phatt,), failure = _run(lib, [], "phatt", [0], None, "empty")
    assert failure is None and (phatt.final_hypotheses, phatt.goal_rooted) == (1, 0)


@pytest.mark.parametrize("case", ["running-example", "benchmark-a-1000"])
def test_compile_ignores_the_order_of_the_locals(lib, case):
    if case == "running-example":
        names = ["a", "c", "b"]
    else:
        lib = generate_domain(BENCH_A)
        names = simulate_agent(lib, 1000)
    locals_ = bottom_up(lib, names)
    given, _ = SlimEngine(lib, cfg_all(lib)).compile_top_down(locals_)
    reverse, _ = SlimEngine(lib, cfg_all(lib)).compile_top_down(locals_[::-1])
    assert given
    assert [(h.canon, repr(h.weight)) for h in given] == \
        [(h.canon, repr(h.weight)) for h in reverse]


def test_batched_compile_equals_sequential(lib):
    locals_ = bottom_up(lib, ["a", "c", "b"])
    batched, _ = SlimEngine(lib, cfg_all(lib)).compile_top_down(locals_)
    seen = set()
    sequential = []
    for local in k_best(locals_, None):
        for h in top_down(lib, local):
            if h.canon not in seen:
                seen.add(h.canon)
                sequential.append(h)
    assert canons(batched) == canons(sequential)
    assert sorted(h.weight for h in batched) == sorted(h.weight for h in sequential)


# ---------------------------------------------------------------------------
# Skipping the joined locals whose split is compiled too
# ---------------------------------------------------------------------------

# rules mixing terminals and nonterminals: the skip must stay off
MIXED = {
    "terminal-beside-plans": """
terminals: a b x
nonterminals: G R A B
goals: G
rule: G -> R | | 1.0
rule: R -> A B x | | 1.0
rule: A -> a | | 1.0
rule: B -> b | | 1.0
""",
    "plan-beside-terminal": """
terminals: a b c d
nonterminals: G P Q
goals: G
rule: G -> P Q | | 1.0
rule: P -> Q c | | 1.0
rule: Q -> b a c | | 0.5
rule: Q -> d | | 0.5
""",
}
MIXED_OBSERVATIONS = {"terminal-beside-plans": ["a", "b", "x"],
                      "plan-beside-terminal": ["c", "d", "a", "c", "b"]}

# acyclic_depth 3: a depth cap of 1 reaches R from G but not A or B
CHAIN = """
terminals: a b
nonterminals: G R A B
goals: G
rule: G -> R | | 1.0
rule: R -> A B | | 1.0
rule: A -> a | | 1.0
rule: B -> b | | 1.0
"""

SHARED = DomainParams(num_goals=3, and_branch=2, or_branch=2, depth=4, num_terminals=20,
                      ordered_fraction=0.3, seed=3, share_subtrees=True)


def ranked(hyps):
    return [(h.canon, repr(h.weight)) for h in hyps]


def per_local_union(lib, locals_, max_depth=None):
    """Each local's plans replayed alone through the modified-PHATT step, the
    compile without the skip, and merged by canonical form (the locals may
    come from another engine's node table)."""
    phatt = PhattEngine(lib, PhattConfig.for_library(lib, max_depth))
    merged = {}
    for local in locals_:
        states = {EMPTY_HYPOTHESIS.plans: EMPTY_HYPOTHESIS}
        for plan in local.plans:
            states = phatt.advance(states.values(), plan)
        for h in states.values():
            merged.setdefault(h.canon, h)
    return ranked(sorted(merged.values(), key=lambda h: (-h.weight, h.canon)))


def joined(locals_):
    return [h for h in locals_ if any(p.height > 1 for p in h.plans)]


def assert_skip_keeps_output(lib, names, ks=(None,), max_depth=None):
    """The batched compile of the bottom-up locals at each k, and of the
    joined locals alone (no split among them), equals the per-local union."""
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None, max_depth=max_depth))
    locals_, _ = drive_engine(engine, names)
    for k, given in [(k, locals_) for k in ks] + [(None, joined(locals_))]:
        batched = SlimEngine(lib, TopDownConfig.for_library(lib, k=k, max_depth=max_depth))
        assert ranked(batched.compile_top_down(given)[0]) == \
            per_local_union(lib, k_best(given, k), max_depth), (names, k)
    return locals_


@pytest.mark.parametrize("case", sorted(SUITE))
def test_split_skip_keeps_output_suite(case):
    lib = parse_library(SUITE[case])
    assert _split_skip_sound(lib, TopDownConfig.for_library(lib).max_depth)
    for names in all_agent_prefixes(lib, 4):
        try:
            assert_skip_keeps_output(lib, names, ks=(None, 1, 3))
        except RecognitionFailure:
            pass


@pytest.mark.parametrize("case", ["benchmark-a-1000", "share-subtrees"])
def test_split_skip_keeps_output_generated(case):
    if case == "benchmark-a-1000":
        lib = generate_domain(BENCH_A)
        names = simulate_agent(lib, 1000)
    else:
        lib = generate_domain(SHARED)
        names = simulate_agent(lib, 1)
    assert _split_skip_sound(lib, TopDownConfig.for_library(lib).max_depth)
    locals_ = assert_skip_keeps_output(lib, names, ks=(None, 3))
    # benchmark A joins nothing; the shared-subtree domain joins most locals
    assert (len(joined(locals_)) > 0) == (case == "share-subtrees")


def test_split_skip_matches_phatt_on_benchmark_b_2071():
    lib = generate_domain(BENCH_B)
    names = simulate_agent(lib, 2071)
    engine = SlimEngine(lib, cfg_all(lib))
    locals_, _ = drive_engine(engine, names)
    assert joined(locals_) and _split_skip_sound(lib, engine.cfg.max_depth)
    goal_rooted, _ = engine.compile_top_down(locals_)
    hyps, _ = drive_engine(PhattEngine(lib), names)
    phatt_ranked = sorted(hyps, key=lambda h: (-h.weight, h.canon))
    assert [h.canon for h in goal_rooted] == [h.canon for h in phatt_ranked]
    assert [h.weight for h in goal_rooted] == pytest.approx([h.weight for h in phatt_ranked])


def test_split_skip_off_below_the_longest_derivation(lib):
    # a depth cap below acyclic_depth turns the skip off; the compile still
    # equals the per-local union
    shared = generate_domain(SHARED)
    chain = parse_library(CHAIN)
    for library, names, max_depth in [(lib, ["a", "c", "b"], 1),
                                      (shared, simulate_agent(shared, 1), shared.acyclic_depth - 1),
                                      (chain, ["a", "b"], 1)]:
        assert not _split_skip_sound(library, max_depth)
        assert joined(assert_skip_keeps_output(library, names, max_depth=max_depth))


def test_split_skip_keeps_locals_with_plans_that_replay_nowhere(lib, nodes):
    # a bare open plan and a depth-1 node without an observation are no
    # fragments: dropping them from the split would lose what they compile to
    split = parse_hypothesis(nodes, "A(a@1);C(c@2)")
    locals_ = [split, parse_hypothesis(nodes, "X(A(a@1) B? C(c@2));C?"),
               parse_hypothesis(nodes, "X(A? B(b?) C(c@1))"), parse_hypothesis(nodes, "C(c@1)")]
    batched, _ = SlimEngine(lib, cfg_all(lib)).compile_top_down(locals_)
    assert ranked(batched) == per_local_union(lib, locals_)
    assert "X(A(a@1) B? C(c@2));X(A? B? C?)" in canons(batched)


@pytest.mark.parametrize("case", sorted(MIXED))
def test_split_skip_off_for_mixed_rules(case):
    lib = parse_library(MIXED[case])
    assert not _split_skip_sound(lib, TopDownConfig.for_library(lib).max_depth)
    assert joined(assert_skip_keeps_output(lib, MIXED_OBSERVATIONS[case], ks=(None, 3)))


@pytest.mark.parametrize("case, names, max_depth, lost", [
    # under P -> Q c a fusion into the fragment P(Q? c@t) hides its leaf c
    # from the split
    ("plan-beside-terminal", ["c", "d", "a", "c", "b"], None, 37),
    # a cap of 1 reaches R(A(a@1) B(b@2)) from G but not its fragments
    ("chain", ["a", "b"], 1, 1),
])
def test_split_skip_without_the_guard_loses_hypotheses(case, names, max_depth, lost):
    lib = parse_library(CHAIN if case == "chain" else MIXED[case])
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None, max_depth=max_depth))
    locals_, _ = drive_engine(engine, names)
    engine._skip_split_covered = True  # force the skip past the guard
    # a list takes the per-local split check; the closed set's DAG walk,
    # which drops every joined local, since under the guard each one's
    # split is a local too, loses at least as much
    forced = {h.canon for h in engine.compile_top_down(list(locals_))[0]}
    union = {canon for canon, _ in per_local_union(lib, locals_, max_depth)}
    assert forced < union and len(union - forced) == lost
    assert {h.canon for h in engine.compile_top_down(locals_)[0]} <= forced


@pytest.mark.xfail(strict=True, reason="no combiner fuses an earlier plan into a "
                                       "later fragment's open slot")
def test_slim_all_misses_an_earlier_plan_under_a_later_fragment():
    lib = parse_library(
        "terminals: a x\nnonterminals: G R A\ngoals: G\n"
        "rule: G -> R | | 1.0\nrule: R -> A x | | 1.0\nrule: A -> a | | 1.0"
    )
    engine = SlimEngine(lib, cfg_all(lib))
    goal_rooted, _ = engine.compile_top_down(drive_engine(engine, ["a", "x"])[0])
    hyps, _ = drive_engine(PhattEngine(lib), ["a", "x"])
    assert "G(R(A(a@1) x@2))" in canons(hyps)
    assert canons(goal_rooted) == canons(hyps)


# ---------------------------------------------------------------------------
# Plan order: every engine builds plans in ascending smallest timestamp
# ---------------------------------------------------------------------------


def plans_ascend(h):
    mins = [p.min_ts for p in h.plans]
    return None not in mins and all(a < b for a, b in zip(mins, mins[1:]))


@pytest.mark.parametrize("case", sorted(SUITE) + ["benchmark-a-1000"])
def test_engines_build_plans_in_ascending_timestamp_order(case):
    # Hypothesis.build keeps the order it is given, so PHATT, SLIM's bottom-up
    # step and the slim-all compile must each construct their plan tuples in order
    if case in SUITE:
        lib = parse_library(SUITE[case])
        sequences = all_agent_prefixes(lib, 4)
    else:
        lib = generate_domain(BENCH_A)
        sequences = [simulate_agent(lib, 1000)]
    checked = 0
    for names in sequences:
        built = []

        def hook(ts, hyps):
            built.extend(hyps)

        try:
            drive_engine(PhattEngine(lib), names, hook)
        except RecognitionFailure:
            pass
        engine = SlimEngine(lib, cfg_all(lib))
        locals_, _ = drive_engine(engine, names, hook)
        built.extend(engine.compile_top_down(locals_)[0])
        assert all(plans_ascend(h) for h in built), \
            (names, [h.canon for h in built if not plans_ascend(h)][:3])
        checked += len(built)
    assert checked > len(sequences)


# ---------------------------------------------------------------------------
# The bottom-up step combines each distinct plan once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params, seed, prefix", [(BENCH_A, 1000, None), (BENCH_B, 2055, 8)],
                         ids=["benchmark-a-1000", "benchmark-b-2055-prefix"])
def test_bottom_up_combines_each_distinct_plan_once(monkeypatch, params, seed, prefix):
    # a plan's direct, child and sibling results are worked out once per step,
    # however many input hypotheses hold it: its frontier is read once, in the
    # order the plans are first seen, and feeding every hypothesis twice makes
    # no further try_expand call while it doubles the attempts counted
    lib = generate_domain(params)
    names = simulate_agent(lib, seed)[:prefix]
    read = []
    frontier = PhattEngine.frontier

    def counted_frontier(self, plan):
        read.append(plan)
        return frontier(self, plan)

    expands = [0]

    def counted_expand(*args):
        expands[0] += 1
        return try_expand(*args)

    monkeypatch.setattr(PhattEngine, "frontier", counted_frontier)
    monkeypatch.setattr("planrec.trees.try_expand", counted_expand)
    monkeypatch.setattr("planrec.slim.try_expand", counted_expand)
    engine = SlimEngine(lib)
    hyps = (EMPTY_HYPOTHESIS,)
    fragments_seen = checked_expands = 0
    for ts, name in enumerate(names, start=1):
        obs = lib.sym(name)
        fragments_seen = max(fragments_seen, len(create_fragments(engine.nodes, obs, ts)))
        distinct = list({id(p): p for h in hyps for p in h.plans}.values())
        runs = []
        for step_in in (hyps, hyps + hyps):
            read.clear()
            expands[0] = 0
            before = engine.counter.n
            step_out = engine.step(step_in, obs, ts)
            runs.append((step_out, engine.counter.n - before, expands[0]))
            assert [id(p) for p in read] == [id(p) for p in distinct], ts
        (once, n_once, expands_once), (twice, n_twice, expands_twice) = runs
        assert [h.canon for h in twice] == [h.canon for h in once], ts
        assert n_twice == 2 * n_once, ts
        assert expands_twice == expands_once, ts
        checked_expands += expands_once
        hyps = once
    assert fragments_seen > 1  # a step with several fragments was checked
    assert checked_expands > 0


# Per bottom-up step: the attempts counted, a digest of the ordered
# (canon, repr(weight)) list of the locals it returns and a digest of the
# same list sorted. The attempts and the sorted digests were recorded from
# the per-hypothesis loop the per-plan memo replaced, and again from the step
# that built each fragment's candidates in groups (direct combinations over
# all plans, then per fragment its child fusions, sibling joins and append),
# so every step still returns the same locals with the same weights. The
# ordered digests pin weave's order: for each input hypothesis, its appends,
# then its replacements plan by plan.
BOTTOM_UP_STEPS = {
    "benchmark-a-1000": [
        (2, "ba384a889f37ac69", "ba384a889f37ac69"), (4, "55d1aa085452e3fb", "55d1aa085452e3fb"),
        (4, "ea080a1e7a3a0352", "ea080a1e7a3a0352"), (6, "1adb0d2eb540a512", "33cea1a8f524445f"),
        (15, "36ffa59d598c2d11", "2b11bcafe165a007"), (35, "1d694cb359b23523", "6e89f9c706b6f6cc"),
        (105, "c318c294f1c24d47", "c0967e3d1071a931"), (210, "ebbed0c0772c6f7d", "6d8e261189a17b99"),
        (70, "55ad3737b1fcda37", "c18376cc3d998518"),
    ],
    "benchmark-b-2055-prefix": [
        (2, "4eab08369d8aba2f", "4eab08369d8aba2f"), (5, "5d19634dc1d99054", "aadb33ec9459c60d"),
        (30, "b0b493bf2de178f5", "f0242284f3dfa402"), (60, "fd9a02ec8a90a544", "172583e12bc8ad22"),
        (220, "0dbb0d91ea2a31e1", "72a83edc88e051fc"), (1355, "8b7f08b9969d4163", "397df2f0d34e13e1"),
        (6600, "3e1937b85d29761c", "60e48105f35d3cee"), (28820, "87071be65eaf122c", "914c47ce9350d359"),
    ],
    # from step 5 on, some local takes both a child fusion and a sibling
    # join of one fragment, so these digests pin the order of the two
    "benchmark-b-2071": [
        (2, "2ef244a1828b98bf", "2ef244a1828b98bf"), (7, "05b4b4b0884fa8bb", "dc5bd98792a068a3"),
        (16, "4fd93f4c4b8c4b45", "8acbaa999e9c381a"), (23, "e51983a6612962b5", "5271017187171ad5"),
        (61, "28f1668ee1ff62c6", "24d128646401375e"), (170, "23a27d8ff3f57600", "2fda2969f12bc713"),
        (258, "5055e422044c113f", "6650fc0945888c9a"), (1984, "a7a0969682e13920", "dd8ef107419f38c3"),
        (3003, "481480f20e7b6e30", "47ff1169c3ce3b04"),
    ],
}


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("params, seed, prefix, case",
                         [(BENCH_A, 1000, None, "benchmark-a-1000"),
                          (BENCH_B, 2055, 8, "benchmark-b-2055-prefix"),
                          (BENCH_B, 2071, None, "benchmark-b-2071")],
                         ids=["benchmark-a-1000", "benchmark-b-2055-prefix", "benchmark-b-2071"])
def test_bottom_up_keeps_candidate_order_and_counts(params, seed, prefix, case):
    lib = generate_domain(params)
    names = simulate_agent(lib, seed)[:prefix]
    engine = SlimEngine(lib)
    hyps = (EMPTY_HYPOTHESIS,)
    steps = []
    for ts, name in enumerate(names, start=1):
        before = engine.counter.n
        hyps = engine.step(hyps, lib.sym(name), ts)
        listing = [f"{h.canon} {h.weight!r}" for h in hyps]
        steps.append((engine.counter.n - before, digest(listing), digest(sorted(listing))))
    assert steps == BOTTOM_UP_STEPS[case]


# Per top-down compile of the locals the bottom-up pass ends with: the
# attempts counted, the hypotheses returned and a digest of their ordered
# (canon, repr(weight)) list; the digest moves with any bit of any weight.
COMPILES = {
    "slim-all-benchmark-a-1000": (2655, 1724, "cf82a5378afafe54"),
    "slim-all-benchmark-b-2071": (12498, 9660, "6231377656a7721b"),
    "slim-100-benchmark-b-2071": (203, 94, "466d58b878a16f12"),
}


@pytest.mark.parametrize("params, seed, k, case",
                         [(BENCH_A, 1000, None, "slim-all-benchmark-a-1000"),
                          (BENCH_B, 2071, None, "slim-all-benchmark-b-2071"),
                          (BENCH_B, 2071, 100, "slim-100-benchmark-b-2071")],
                         ids=["slim-all-benchmark-a-1000", "slim-all-benchmark-b-2071",
                              "slim-100-benchmark-b-2071"])
def test_compile_keeps_output_and_counts(params, seed, k, case):
    lib = generate_domain(params)
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=k))
    locals_, _ = drive_engine(engine, simulate_agent(lib, seed))
    before = engine.counter.n
    goal_rooted, _ = engine.compile_top_down(locals_)
    listing = "\n".join(f"{h.canon} {h.weight!r}" for h in goal_rooted)
    assert (engine.counter.n - before, len(goal_rooted),
            hashlib.sha256(listing.encode()).hexdigest()[:16]) == COMPILES[case]


# ---------------------------------------------------------------------------
# Appends skip the dedup check
# ---------------------------------------------------------------------------


def check_appends(monkeypatch, lib):
    """Check :func:`oracles.append_problems` after every PHATT advance (a
    PHATT step or one level of the top-down compile) and every SLIM bottom-up
    step; returns the ``[appends, replacements]`` counted over the checks,
    by engine call: ``"advance"`` and ``"slim-step"``."""
    frames = []
    totals = {"advance": [0, 0], "slim-step": [0, 0]}
    with_plan, with_replaced = Hypothesis.with_plan, Hypothesis.with_replaced

    def appended(self, *args):
        h = with_plan(self, *args)
        if frames:
            frames[-1][0].append(h)
        return h

    def replaced(self, *args):
        h = with_replaced(self, *args)
        if frames:
            frames[-1][1].append(h)
        return h

    def checked(method, name, expected_appends):
        def wrapper(*args):
            frames.append(([], []))
            try:
                result = method(*args)
            finally:
                appends, replacements = frames.pop()
            problems = append_problems(lib, appends, replacements)
            assert problems == [], problems[:3]
            # one append per input hypothesis and appended plan, every one
            # of them built through with_plan
            assert len(appends) == expected_appends(*args), name
            totals[name][0] += len(appends)
            totals[name][1] += len(replacements)
            return result
        return wrapper

    monkeypatch.setattr(Hypothesis, "with_plan", appended)
    monkeypatch.setattr(Hypothesis, "with_replaced", replaced)
    monkeypatch.setattr(PhattEngine, "advance", checked(
        PhattEngine.advance, "advance",
        lambda engine, hyps, target: len(hyps) * len(engine.grafted(-1, target))))
    monkeypatch.setattr(SlimEngine, "step", checked(
        SlimEngine.step, "slim-step",
        lambda engine, hyps, obs, ts: len(hyps) * len(create_fragments(engine.nodes, obs, ts))))
    return totals


@pytest.mark.parametrize("case", ["running-example", "benchmark-a-1000", "benchmark-b-2071"])
def test_appends_equal_no_other_candidate(monkeypatch, lib, case):
    if case == "running-example":
        sequences = all_agent_prefixes(lib, 4)
    else:
        params, seed = (BENCH_A, 1000) if case == "benchmark-a-1000" else (BENCH_B, 2071)
        lib = generate_domain(params)
        sequences = [simulate_agent(lib, seed)]
    totals = check_appends(monkeypatch, lib)
    for names in sequences:  # every step of a sequence checks one prefix
        try:
            drive_engine(PhattEngine(lib), names)
        except RecognitionFailure:
            pass
        engine = SlimEngine(lib, cfg_all(lib))
        engine.compile_top_down(drive_engine(engine, names)[0])
    # both engines' calls were checked, on appends and on replacements
    assert all(appends > 0 and replacements > 0
               for appends, replacements in totals.values()), totals


# ---------------------------------------------------------------------------
# Compiling another engine's locals
# ---------------------------------------------------------------------------

# a goal-rooted local and its split: replaying G(X(a@1 B?) Y?) whole and
# grafting the fragment X(a@1 B?) into the leftmost tree G(X? Y?) build the
# same hypothesis (X -> a B mixes a terminal and a nonterminal, so the split
# skip is off and both locals compile)
GOAL_ROOTED_BESIDE_SPLIT = """
terminals: a b y
nonterminals: G X Y B
goals: G
rule: G -> X Y | | 1.0
rule: X -> a B | | 1.0
rule: B -> b | | 1.0
rule: Y -> y | | 1.0
"""


@pytest.mark.parametrize("case", ["running-example", "benchmark-a-1000", "benchmark-b-2071",
                                  "goal-rooted-beside-its-split", "mixed-tables"])
def test_fresh_engine_compiles_another_engines_locals(lib, case):
    # the locals' plans belong to the node table of the engine that built
    # them; a fresh engine adopts them into its own before it compiles
    if case == "mixed-tables":
        # two engines' locals over one sequence: every plan comes in two
        # tables, and compiled together they give what one engine's give
        lib = generate_domain(BENCH_B)
        names = simulate_agent(lib, 2071)
        owner = SlimEngine(lib, cfg_all(lib))
        locals_, _ = drive_engine(owner, names)
        built = ranked(owner.compile_top_down(locals_)[0])
        other, _ = drive_engine(SlimEngine(lib, cfg_all(lib)), names)
        fresh = SlimEngine(lib, cfg_all(lib))
        assert ranked(fresh.compile_top_down(locals_ + other)[0]) == built
        assert len(built) == 9660
        return
    if case == "goal-rooted-beside-its-split":
        lib = parse_library(GOAL_ROOTED_BESIDE_SPLIT)
        owner = SlimEngine(lib, cfg_all(lib))
        locals_ = [parse_hypothesis(owner.nodes, text)
                   for text in ("G(X(a@1 B?) Y?)", "X(a@1 B?)")]
    else:
        if case == "running-example":
            names = ["a", "c", "b"]
        else:
            params, seed = (BENCH_A, 1000) if case == "benchmark-a-1000" else (BENCH_B, 2071)
            lib = generate_domain(params)
            names = simulate_agent(lib, seed)
        owner = SlimEngine(lib, cfg_all(lib))
        locals_, _ = drive_engine(owner, names)
    built = ranked(owner.compile_top_down(locals_)[0])
    fresh = SlimEngine(lib, cfg_all(lib))
    assert ranked(fresh.compile_top_down(locals_)[0]) == built
    assert built
    if case == "goal-rooted-beside-its-split":
        assert built == [("G(X(a@1 B?) Y?)", "1.0")]


@pytest.mark.parametrize("params, seed", [(BENCH_A, 1000), (BENCH_B, 2071)],
                         ids=["benchmark-a-1000", "benchmark-b-2071"])
def test_online_queries_equal_fresh_engine_queries(params, seed):
    # an engine's memos never change what a query returns or counts: after
    # every observation, one engine's compile of its k=1000 best locals, its
    # memos warm from every earlier query, equals a fresh engine's compile of
    # the same locals, in order and in attempts
    lib = generate_domain(params)
    cfg = TopDownConfig.for_library(lib, k=1000)
    engine = SlimEngine(lib, cfg)
    queries = []

    def query(ts, locals_):
        before = engine.counter.n
        online = ranked(engine.compile_top_down(locals_)[0])
        fresh = SlimEngine(lib, cfg)
        assert ranked(fresh.compile_top_down(locals_)[0]) == online
        assert engine.counter.n - before == fresh.counter.n
        queries.append(len(online))

    names = simulate_agent(lib, seed)
    drive_engine(engine, names, query)
    assert len(queries) == len(names) and queries[-1]


# ---------------------------------------------------------------------------
# Completeness across the suite (the cross-engine equivalence law)
# ---------------------------------------------------------------------------


def test_completeness_suite(suite_lib):
    lib = suite_lib
    cfg = cfg_all(lib)
    phatt_cfg = PhattConfig.for_library(lib)
    for names in all_agent_prefixes(lib, 4):
        try:
            hyps, _ = drive_engine(PhattEngine(lib, phatt_cfg), names)
            phatt_ranked = sorted(hyps, key=lambda h: (-h.weight, h.canon))
        except RecognitionFailure:
            phatt_ranked = []
        engine = SlimEngine(lib, cfg)
        goal_rooted, _ = engine.compile_top_down(drive_engine(engine, names)[0])
        assert [h.canon for h in goal_rooted] == [h.canon for h in phatt_ranked], names
        for ours, theirs in zip(goal_rooted, phatt_ranked):
            assert ours.weight == pytest.approx(theirs.weight)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4))
def test_random_sequences_preserve_invariants(names):
    from conftest import RUNNING_EXAMPLE

    lib = parse_library(RUNNING_EXAMPLE)
    try:
        hyps = bottom_up(lib, names)
    except RecognitionFailure:
        return
    obs = [lib.sym(n) for n in names]
    for h in hyps:
        assert verify_hypothesis(lib, h, len(names), obs_syms=obs) == []
