import pytest
from hypothesis import given, strategies as st

from planrec.grammar import parse_library
from planrec.trees import (
    EMPTY_HYPOTHESIS,
    Hypothesis,
    NodeTable,
    PlanNode,
    enabled_frontier,
    open_node,
    parse_hypothesis,
    parse_plan,
    realized_leaf,
    try_expand,
    try_fuse,
)

from oracles import consistent, from_plan_node, verify_hypothesis


def build(nodes, text):
    return parse_plan(nodes, text)


def x_rule(lib):
    return lib.rules_for(lib.sym("X"))[0]


def test_parse_plan_round_trips(nodes):
    for text in [
        "X(A(a@1) B? C?)",
        "X(A? B? C(c@2))",
        "X(A(a@1) B(b@3) C(c@2))",
        "A(a@1)",
        "B?",
    ]:
        assert build(nodes, text).canon == text


@pytest.mark.parametrize("text, fault", [
    ("X#99(A? B? C?)", "#99"),
    ("X#-1(A? B? C?)", "#-1"),
    ("X#(A? B? C?)", "#("),
    ("a#3@1", "a#3@1"),
    ("a#0?", "a#0?"),
    ("a@", "@"),
    ("a@x", "@x"),
    ("X(A(a@) B? C?)", "@)"),
    ("a@0", "@0"),
    ("X(A(a@0) B? C?)", "@0)"),
])
def test_parse_plan_names_a_bad_marker_or_timestamp(nodes, text, fault):
    with pytest.raises(ValueError) as raised:
        parse_plan(nodes, text)
    assert fault in str(raised.value)


def test_node_states_and_caches(nodes):
    plan = build(nodes, "X(A(a@1) B? C(c@2))")
    assert plan.min_ts == 1 and plan.max_ts == 2
    assert plan.open_count == 1  # not complete
    assert plan.height == 2
    assert plan.weight == 1.0
    done = build(nodes, "X(A(a@1) B(b@3) C(c@2))")
    assert done.open_count == 0  # complete


def test_enabled_frontier_examples(lib, nodes):
    # A realized; both B and C may receive the next action
    A, B, C = (lib.sym(n) for n in "ABC")
    plan1 = build(nodes, "X(A(a@1) B? C?)")
    assert enabled_frontier(plan1) == (((1,), B), ((2,), C))
    # C realized; only A is eligible (B waits on A)
    plan2 = build(nodes, "X(A? B? C(c@1))")
    assert enabled_frontier(plan2) == (((0,), A),)
    complete = build(nodes, "X(A(a@1) B(b@3) C(c@2))")
    assert enabled_frontier(complete) == ()


def test_enabled_frontier_skips_blocked_subtrees(lib, nodes):
    plan = build(nodes, "X(A? B? C?)")
    # B is blocked until A completes; A and C are enabled
    assert enabled_frontier(plan) == (((0,), lib.sym("A")), ((2,), lib.sym("C")))


def test_fuse_running_example(nodes):
    hyp2_plan = build(nodes, "X(A(a@1) B? C(c@2))")
    fragment = build(nodes, "B(b@3)")
    fused = try_fuse(nodes, hyp2_plan, (1,), fragment)
    assert fused.canon == "X(A(a@1) B(b@3) C(c@2))"
    assert fused.open_count == 0  # complete
    # inputs unchanged (persistent semantics)
    assert hyp2_plan.canon == "X(A(a@1) B? C(c@2))"
    assert fragment.canon == "B(b@3)"


def test_fuse_rejections(nodes):
    plan = build(nodes, "X(A(a@1) B? C?)")
    # the symbols differ
    assert try_fuse(nodes, plan, (1,), build(nodes, "C(c@2)")) is None
    # the node is not in the open frontier
    assert try_fuse(nodes, plan, (0,), build(nodes, "A(a@2)")) is None
    # fusing old content behind an incomplete predecessor violates ordering
    partial = build(nodes, "X(A? B? C?)")
    assert try_fuse(nodes, partial, (1,), build(nodes, "B(b@1)")) is None


def test_fuse_is_pure(nodes):
    plan = build(nodes, "X(A(a@1) B? C(c@2))")
    sub = build(nodes, "B(b@3)")
    first = try_fuse(nodes, plan, (1,), sub)
    second = try_fuse(nodes, plan, (1,), sub)
    assert first is second and first.canon == "X(A(a@1) B(b@3) C(c@2))"


def test_expand_rejects_ordering_violation(lib, nodes):
    # B holds realized content while its predecessor A is still open
    children = (
        open_node(nodes, lib.sym("A")),
        build(nodes, "B(b@1)"),
        open_node(nodes, lib.sym("C")),
    )
    assert try_expand(nodes, x_rule(lib), children) is None
    # the plan parser reports the same violation
    message = f"children violate ordering constraints of rule {x_rule(lib).idx}$"
    with pytest.raises(ValueError, match=message):
        parse_plan(nodes, "X(A? B(b@1) C?)")


def test_check_temporal_consistency(lib, nodes):
    for text in ["X(A(a@1) B? C?)", "X(A? B? C(c@1))", "X(A(a@1) B(b@3) C(c@2))"]:
        assert consistent(lib, from_plan_node(build(nodes, text)))
    assert consistent(lib, from_plan_node(open_node(nodes, lib.sym("X"))))
    # assemble an inconsistent node bypassing the validating constructors
    bad = PlanNode(
        lib.sym("X"), x_rule(lib),
        (open_node(nodes, lib.sym("A")), build(nodes, "B(b@1)"), open_node(nodes, lib.sym("C"))),
        1, 1, 1.0, 2, 2, "X",
    )
    assert bad.canon == "X(A? B(b@1) C?)"
    assert not consistent(lib, from_plan_node(bad))


def test_ordering_made_vacuous_by_empty_successor(lib, nodes):
    # content under C only: the (A before B) constraint is untouched
    plan = try_expand(
        nodes, x_rule(lib),
        (open_node(nodes, lib.sym("A")), open_node(nodes, lib.sym("B")), build(nodes, "C(c@1)")),
    )
    assert plan is not None
    assert consistent(lib, from_plan_node(plan))


def test_canonical_form_examples(nodes):
    h3 = Hypothesis.build((build(nodes, "X(A(a@1) B(b@3) C(c@2))"),))
    assert h3.canon == "X(A(a@1) B(b@3) C(c@2))"
    # the serialized plan order does not matter
    assert parse_hypothesis(nodes, "A(a@1);C(c@2)").canon == \
        parse_hypothesis(nodes, "C(c@2);A(a@1)").canon
    # differing rule choice yields a different string
    other = Hypothesis.build((build(nodes, "X(A(a@1) B? C(c@2))"),))
    assert other.canon != h3.canon


def test_dedup_key_is_the_plan_tuple(lib, nodes):
    # one table builds each structure once, so two parses of one hypothesis
    # hold the same plan objects and the plan tuples compare by identity
    from planrec.phatt import _merge

    first = parse_hypothesis(nodes, "A(a@1);C(c@2)")
    second = parse_hypothesis(nodes, "C(c@2);A(a@1)")
    assert first is not second
    assert all(p is q for p, q in zip(first.plans, second.plans))
    assert first == second and hash(first) == hash(second)
    assert first.plans == second.plans and hash(first.plans) == hash(second.plans)
    out = {}
    _merge(out, first)
    _merge(out, second)
    assert list(out.values()) == [first] and out[second.plans] is first
    assert first != Hypothesis.build((build(nodes, "A(a@1)"),))
    forged = Hypothesis(second.plans, first.weight / 2)
    assert forged == first and forged.canon == first.canon == "A(a@1);C(c@2)"
    with pytest.raises(AssertionError, match="diverging weights"):
        _merge(out, forged)
    # the nodes of two tables never compare equal, whatever their structure
    other = parse_hypothesis(NodeTable(lib), "A(a@1);C(c@2)")
    assert other.canon == first.canon and other != first
    assert all(p is not q and p != q for p, q in zip(first.plans, other.plans))


def test_hypothesis_sorting_by_min_ts(nodes):
    early = build(nodes, "C(c@1)")
    late = build(nodes, "A(a@2)")
    h = parse_hypothesis(nodes, "A(a@2);C(c@1)")
    assert h.plans == (early, late)
    assert h.canon == "C(c@1);A(a@2)"
    # a plan with no realized timestamp sorts last
    assert parse_hypothesis(nodes, "B?;A(a@2)").canon == "A(a@2);B?"
    # build keeps the order it is given; the engines construct it ascending
    assert Hypothesis.build((late, early)).plans == (late, early)


def test_hypothesis_weight_with_priors(lib, nodes):
    h = Hypothesis.build((build(nodes, "X(A(a@1) B? C?)"),), 0.25)
    assert h.weight == pytest.approx(0.25)
    local = Hypothesis.build((build(nodes, "A(a@1)"),))
    assert local.weight == pytest.approx(1.0)


def test_empty_hypothesis():
    assert EMPTY_HYPOTHESIS.plans == ()
    assert EMPTY_HYPOTHESIS.weight == 1.0
    assert EMPTY_HYPOTHESIS.canon == ""


def weighted_plan(weight):
    # a bare plan whose weight is all with_plan and build read
    return PlanNode(0, None, (), 1, 1, weight, 0, 0, "a@1")


WEIGHTS = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(st.lists(WEIGHTS, max_size=4), st.lists(WEIGHTS, min_size=1, max_size=12),
       st.just(1.0) | st.floats(min_value=1e-6, max_value=1.0))
def test_with_plan_weight_is_bit_identical_to_build(start, chain, prior):
    # with_plan multiplies once; from a hypothesis whose weight build gave
    # (the empty one or any built one), every append in a chain carries
    # exactly build's float, not merely a close one
    h = Hypothesis.build(tuple(map(weighted_plan, start)), prior) if start else EMPTY_HYPOTHESIS
    for weight in chain:
        plan = weighted_plan(weight)
        appended = h.with_plan(plan, prior)
        assert appended.plans == h.plans + (plan,)
        assert appended.weight == Hypothesis.build(appended.plans, prior).weight
        h = appended


def test_parse_hypothesis_round_trip(nodes):
    text = "A(a@1);C(c@2)"
    h = parse_hypothesis(nodes, text)
    assert h.canon == text
    assert parse_hypothesis(nodes, "").canon == ""


def test_verify_hypothesis_accepts_valid(lib, nodes):
    h = parse_hypothesis(nodes, "X(A(a@1) B? C(c@2))")
    assert verify_hypothesis(lib, h, 2) == []
    obs = [lib.sym("a"), lib.sym("c")]
    assert verify_hypothesis(lib, h, 2, obs_syms=obs) == []


def test_verify_hypothesis_flags_problems(lib, nodes):
    h = parse_hypothesis(nodes, "X(A(a@1) B? C(c@2))")
    assert verify_hypothesis(lib, h, 3)  # timestamp 3 missing
    wrong_obs = [lib.sym("c"), lib.sym("c")]
    assert verify_hypothesis(lib, h, 2, obs_syms=wrong_obs)
    forged = Hypothesis(h.plans, 0.5)
    assert any("weight" in p for p in verify_hypothesis(lib, forged, 2))


def test_cached_fields_agree_with_recomputation(lib, nodes):
    for text in [
        "X(A(a@1) B? C?)",
        "X(A(a@1) B(b@3) C(c@2))",
        "X(A? B? C(c@1))",
        "A(a@1);C(c@2);B(b@3)",
    ]:
        h = parse_hypothesis(nodes, text)
        n = max((p.max_ts for p in h.plans if p.max_ts), default=0)
        assert verify_hypothesis(lib, h, n) == []


def test_realized_leaf_validation(lib, nodes):
    with pytest.raises(ValueError):
        realized_leaf(nodes, lib.sym("X"), 1)
    with pytest.raises(ValueError):
        realized_leaf(nodes, lib.sym("a"), 0)


def test_canonical_form_injective_over_exhaustive_runs(suite_lib):
    # every hypothesis reachable by either engine in short runs maps to a
    # distinct structure: equal canonical strings imply equal tuple trees
    from planrec.phatt import PhattEngine, RecognitionFailure
    from planrec.slim import SlimEngine, TopDownConfig

    from conftest import drive_engine
    from oracles import all_agent_prefixes

    lib = suite_lib
    seen: dict[str, tuple] = {}
    for names in all_agent_prefixes(lib, 3):
        collected = []
        try:
            collected.extend(drive_engine(PhattEngine(lib), names)[0])
        except RecognitionFailure:
            pass
        engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None))
        locals_, _ = drive_engine(engine, names)
        collected.extend(locals_)
        collected.extend(engine.compile_top_down(locals_)[0])
        for h in collected:
            structure = tuple(sorted(from_plan_node(p) for p in h.plans))
            if h.canon in seen:
                assert seen[h.canon] == structure
            else:
                seen[h.canon] = structure
    assert len(seen) > 1


def test_canonical_form_disambiguates_equal_rhs_rules():
    # two rules share head and RHS and differ only in constraints; the
    # canonical form must keep their expansions distinct
    lib = parse_library(
        "terminals: a b\nnonterminals: X\ngoals: X\n"
        "rule: X -> a b | | 0.5\nrule: X -> a b | (1,2) | 0.5"
    )
    assert lib.ambiguous_rhs
    nodes = NodeTable(lib)
    free, ordered = lib.rules
    children = (realized_leaf(nodes, lib.sym("a"), 1), open_node(nodes, lib.sym("b")))
    n_free = try_expand(nodes, free, children)
    n_ordered = try_expand(nodes, ordered, children)
    assert n_free.canon != n_ordered.canon
    assert parse_plan(nodes, n_free.canon).rule is free
    assert parse_plan(nodes, n_ordered.canon).rule is ordered


# ---------------------------------------------------------------------------
# Hash-consing: one node per structure and table
# ---------------------------------------------------------------------------


def test_table_builds_each_structure_once(lib, nodes):
    a, b = lib.sym("a"), lib.sym("B")
    assert open_node(nodes, b) is open_node(nodes, b)
    assert realized_leaf(nodes, a, 1) is realized_leaf(nodes, a, 1)
    assert realized_leaf(nodes, a, 1) is not realized_leaf(nodes, a, 2)
    text = "X(A(a@1) B? C(c@2))"
    plan = build(nodes, text)
    assert build(nodes, text) is plan
    # fusion and expansion return the node the parser built
    assert try_fuse(nodes, build(nodes, "X(A(a@1) B? C?)"), (2,), build(nodes, "C(c@2)")) is plan
    children = (build(nodes, "A(a@1)"), open_node(nodes, b), build(nodes, "C(c@2)"))
    assert try_expand(nodes, x_rule(lib), children) is plan
    assert len({node.canon for node in nodes.values()}) == len(nodes)


def test_adopt_rebuilds_foreign_nodes_once(lib, nodes):
    text = "X(A(a@1) B? C(c@2))"
    own = build(nodes, text)
    assert nodes.adopt(own) is own
    foreign = parse_plan(NodeTable(lib), text)
    assert foreign is not own
    assert nodes.adopt(foreign) is own
    size = len(nodes)
    other = parse_plan(NodeTable(lib), "X(A(a@1) B(b@3) C(c@2))")
    adopted = nodes.adopt(other)
    assert adopted is not other and adopted.canon == other.canon
    assert (adopted.weight, adopted.min_ts, adopted.max_ts, adopted.open_count) == \
        (other.weight, other.min_ts, other.max_ts, other.open_count)
    assert adopted.children[0] is own.children[0] and adopted.children[2] is own.children[2]
    assert len(nodes) == size + 3  # b@3, B(b@3) and the root
    assert nodes.adopt(other) is adopted


def _engine_tables(lib, names):
    from planrec.phatt import PhattEngine
    from planrec.slim import SlimEngine, TopDownConfig

    from conftest import drive_engine

    phatt = PhattEngine(lib)
    drive_engine(phatt, names)
    slim = SlimEngine(lib, TopDownConfig.for_library(lib, k=None))
    assert slim.nodes is slim._phatt.nodes  # one table per engine
    slim.compile_top_down(drive_engine(slim, names)[0])
    return phatt.nodes, slim.nodes


def test_every_engine_node_is_its_tables_one_node(lib):
    # re-parsing any node an engine built into the engine's table returns it
    for nodes in _engine_tables(lib, ["a", "c", "b"]):
        assert len(nodes) > 10
        for node in nodes.values():
            assert parse_plan(nodes, node.canon) is node


def test_two_engines_share_no_node():
    from planrec.domains import generate_domain, simulate_agent

    from test_acceptance import BENCH_A

    lib = generate_domain(BENCH_A)
    names = simulate_agent(lib, 1000)
    first, second = _engine_tables(lib, names), _engine_tables(lib, names)
    ids = [{id(node) for table in tables for node in table.values()}
           for tables in (first, second)]
    assert ids[0] and not ids[0] & ids[1]
    for ours, theirs in zip(first, second):
        assert sorted(n.canon for n in ours.values()) == sorted(n.canon for n in theirs.values())
