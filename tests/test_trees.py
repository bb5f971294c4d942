import pytest

from planrec.grammar import parse_library
from planrec.trees import (
    EMPTY_HYPOTHESIS,
    Hypothesis,
    NotOpenFrontier,
    OrderingViolation,
    PlanNode,
    SymbolMismatch,
    check_temporal_consistency,
    enabled_frontier,
    expand,
    fuse,
    node_at,
    open_node,
    parse_hypothesis,
    parse_plan,
    realized_leaf,
    try_expand,
    try_fuse,
    verify_hypothesis,
)

from oracles import consistent, from_plan_node


def build(lib, text):
    return parse_plan(lib, text)


def x_rule(lib):
    return lib.rules_for(lib.sym("X"))[0]


def test_parse_plan_round_trips(lib):
    for text in [
        "X(A(a@1) B? C?)",
        "X(A? B? C(c@2))",
        "X(A(a@1) B(b@3) C(c@2))",
        "A(a@1)",
        "B?",
    ]:
        assert build(lib, text).canon == text


def test_node_states_and_caches(lib):
    plan = build(lib, "X(A(a@1) B? C(c@2))")
    assert plan.min_ts == 1 and plan.max_ts == 2
    assert not plan.complete
    assert plan.open_count == 1
    assert plan.realized_count == 2
    assert plan.height == 2
    assert plan.weight == 1.0
    done = build(lib, "X(A(a@1) B(b@3) C(c@2))")
    assert done.complete and done.open_count == 0


def test_enabled_frontier_examples(lib):
    # A realized; both B and C may receive the next action
    plan1 = build(lib, "X(A(a@1) B? C?)")
    assert enabled_frontier(plan1) == ((1,), (2,))
    # C realized; only A is eligible (B waits on A)
    plan2 = build(lib, "X(A? B? C(c@1))")
    assert enabled_frontier(plan2) == ((0,),)
    complete = build(lib, "X(A(a@1) B(b@3) C(c@2))")
    assert enabled_frontier(complete) == ()


def test_enabled_frontier_skips_blocked_subtrees(lib):
    plan = build(lib, "X(A? B? C?)")
    # B is blocked until A completes; A and C are enabled
    assert enabled_frontier(plan) == ((0,), (2,))


def test_fuse_running_example(lib):
    hyp2_plan = build(lib, "X(A(a@1) B? C(c@2))")
    fragment = build(lib, "B(b@3)")
    fused = fuse(lib, hyp2_plan, (1,), fragment)
    assert fused.canon == "X(A(a@1) B(b@3) C(c@2))"
    assert fused.complete
    # inputs unchanged (persistent semantics)
    assert hyp2_plan.canon == "X(A(a@1) B? C(c@2))"
    assert fragment.canon == "B(b@3)"


def test_fuse_rejections_are_distinct(lib):
    plan = build(lib, "X(A(a@1) B? C?)")
    with pytest.raises(SymbolMismatch):
        fuse(lib, plan, (1,), build(lib, "C(c@2)"))
    with pytest.raises(NotOpenFrontier):
        fuse(lib, plan, (0,), build(lib, "A(a@2)"))
    # fusing old content behind an incomplete predecessor violates ordering
    partial = build(lib, "X(A? B? C?)")
    with pytest.raises(OrderingViolation):
        fuse(lib, partial, (1,), build(lib, "B(b@1)"))
    assert try_fuse(lib, partial, (1,), build(lib, "B(b@1)")) is None


def test_fuse_is_pure(lib):
    plan = build(lib, "X(A(a@1) B? C(c@2))")
    sub = build(lib, "B(b@3)")
    first = fuse(lib, plan, (1,), sub)
    second = fuse(lib, plan, (1,), sub)
    assert first == second and first.canon == second.canon


def test_expand_rejects_ordering_violation(lib):
    # B holds realized content while its predecessor A is still open
    children = (
        open_node(lib, lib.sym("A")),
        build(lib, "B(b@1)"),
        open_node(lib, lib.sym("C")),
    )
    assert try_expand(lib, x_rule(lib), children) is None
    with pytest.raises(OrderingViolation):
        expand(lib, x_rule(lib), children)


def test_check_temporal_consistency(lib):
    for text in ["X(A(a@1) B? C?)", "X(A? B? C(c@1))", "X(A(a@1) B(b@3) C(c@2))"]:
        assert check_temporal_consistency(build(lib, text))
    assert check_temporal_consistency(open_node(lib, lib.sym("X")))
    # assemble an inconsistent node bypassing the validating constructors
    bad = PlanNode(
        lib.sym("X"), x_rule(lib),
        (open_node(lib, lib.sym("A")), build(lib, "B(b@1)"), open_node(lib, lib.sym("C"))),
        None, False, 1, 1, 1.0, 2, 2, 1, "X(A? B(b@1) C?)",
    )
    assert not check_temporal_consistency(bad)
    assert not consistent(lib, from_plan_node(bad))


def test_ordering_made_vacuous_by_empty_successor(lib):
    # content under C only: the (A before B) constraint is untouched
    plan = try_expand(
        lib, x_rule(lib),
        (open_node(lib, lib.sym("A")), open_node(lib, lib.sym("B")), build(lib, "C(c@1)")),
    )
    assert plan is not None
    assert check_temporal_consistency(plan)


def test_canonical_form_examples(lib):
    h3 = Hypothesis.build((build(lib, "X(A(a@1) B(b@3) C(c@2))"),))
    assert h3.canon == "X(A(a@1) B(b@3) C(c@2))"
    # plan list order does not matter
    p1 = build(lib, "A(a@1)")
    p2 = build(lib, "C(c@2)")
    assert Hypothesis.build((p1, p2)).canon == Hypothesis.build((p2, p1)).canon
    # differing rule choice yields a different string
    other = Hypothesis.build((build(lib, "X(A(a@1) B? C(c@2))"),))
    assert other.canon != h3.canon


def test_hypothesis_sorting_by_min_ts(lib):
    early = build(lib, "C(c@1)")
    late = build(lib, "A(a@2)")
    h = Hypothesis.build((late, early))
    assert h.plans == (early, late)
    assert h.canon == "C(c@1);A(a@2)"
    assert h.n == 2


def test_hypothesis_weight_with_priors(lib):
    prior = {lib.sym("X"): 0.25}
    h = Hypothesis.build((build(lib, "X(A(a@1) B? C?)"),), prior)
    assert h.weight == pytest.approx(0.25)
    local = Hypothesis.build((build(lib, "A(a@1)"),))
    assert local.weight == pytest.approx(1.0)


def test_empty_hypothesis():
    assert EMPTY_HYPOTHESIS.plans == ()
    assert EMPTY_HYPOTHESIS.weight == 1.0
    assert EMPTY_HYPOTHESIS.canon == ""
    assert EMPTY_HYPOTHESIS.n == 0


def test_parse_hypothesis_round_trip(lib):
    text = "A(a@1);C(c@2)"
    h = parse_hypothesis(lib, text)
    assert h.canon == text
    assert parse_hypothesis(lib, "").canon == ""


def test_verify_hypothesis_accepts_valid(lib):
    h = parse_hypothesis(lib, "X(A(a@1) B? C(c@2))")
    assert verify_hypothesis(lib, h, 2) == []
    obs = [lib.sym("a"), lib.sym("c")]
    assert verify_hypothesis(lib, h, 2, obs_syms=obs) == []


def test_verify_hypothesis_flags_problems(lib):
    h = parse_hypothesis(lib, "X(A(a@1) B? C(c@2))")
    assert verify_hypothesis(lib, h, 3)  # timestamp 3 missing
    wrong_obs = [lib.sym("c"), lib.sym("c")]
    assert verify_hypothesis(lib, h, 2, obs_syms=wrong_obs)
    forged = Hypothesis(h.plans, 0.5, h.canon, h.n)
    assert any("weight" in p for p in verify_hypothesis(lib, forged, 2))


def test_cached_fields_agree_with_recomputation(lib):
    for text in [
        "X(A(a@1) B? C?)",
        "X(A(a@1) B(b@3) C(c@2))",
        "X(A? B? C(c@1))",
        "A(a@1);C(c@2);B(b@3)",
    ]:
        h = parse_hypothesis(lib, text)
        n = max((p.max_ts for p in h.plans if p.max_ts), default=0)
        assert verify_hypothesis(lib, h, n) == []


def test_node_at_and_leaf_validation(lib):
    plan = build(lib, "X(A(a@1) B? C?)")
    assert node_at(plan, (0, 0)).canon == "a@1"
    with pytest.raises(ValueError):
        realized_leaf(lib, lib.sym("X"), 1)
    with pytest.raises(ValueError):
        realized_leaf(lib, lib.sym("a"), 0)


def test_canonical_form_injective_over_exhaustive_runs(suite_lib):
    # every hypothesis reachable by either engine in short runs maps to a
    # distinct structure: equal canonical strings imply equal tuple trees
    from planrec.phatt import RecognitionFailure, phatt_recognize
    from planrec.slim import TopDownConfig, slim_recognize

    from oracles import all_agent_prefixes, from_plan_node

    lib = suite_lib
    seen: dict[str, tuple] = {}
    for names in all_agent_prefixes(lib, 3):
        collected = []
        try:
            hset, _ = phatt_recognize(lib, list(names))
            collected.extend(hset.hypotheses)
        except RecognitionFailure:
            pass
        locals_, goal_rooted, _ = slim_recognize(
            lib, list(names), TopDownConfig.for_library(lib, k=None)
        )
        collected.extend(locals_)
        collected.extend(goal_rooted)
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
    free, ordered = lib.rules
    children = (realized_leaf(lib, lib.sym("a"), 1), open_node(lib, lib.sym("b")))
    n_free = expand(lib, free, children)
    n_ordered = expand(lib, ordered, children)
    assert n_free.canon != n_ordered.canon
    assert parse_plan(lib, n_free.canon).rule is free
    assert parse_plan(lib, n_ordered.canon).rule is ordered
