import pytest
from hypothesis import given, settings, strategies as st

from planrec.grammar import parse_library
from planrec.phatt import PhattConfig, PhattEngine, RecognitionFailure, phatt_recognize
from planrec.slim import (
    SlimEngine,
    TopDownConfig,
    combine_as_child,
    combine_as_sibling,
    combine_directly,
    combine_independently,
    create_fragments,
    k_best,
    slim_recognize,
)
from planrec.trees import EMPTY_HYPOTHESIS, Hypothesis, parse_hypothesis, parse_plan, verify_hypothesis

from oracles import all_agent_prefixes, slim_oracle_run


def bottom_up(lib, names, prune=True):
    engine = SlimEngine(lib, prune=prune)
    hyps = (EMPTY_HYPOTHESIS,)
    for ts, name in enumerate(names, start=1):
        hyps = engine.step(hyps, lib.sym(name), ts)
    return hyps


def canons(hyps):
    return {h.canon for h in hyps}


# ---------------------------------------------------------------------------
# Fragments
# ---------------------------------------------------------------------------


def test_terminal_fragment_for_first_action(lib):
    frags = create_fragments(lib, lib.sym("a"), 1)
    assert [f.root.canon for f in frags] == ["A(a@1)"]
    assert frags[0].attach_pos == 0 and frags[0].created_ts == 1


def test_terminal_fragment_exists_for_b(lib):
    # B -> b places b at an unconstrained position, so the fragment exists
    frags = create_fragments(lib, lib.sym("b"), 5)
    assert [f.root.canon for f in frags] == ["B(b@5)"]


def test_no_fragment_at_position_with_predecessor():
    lib = parse_library(
        "terminals: s t\nnonterminals: M\ngoals: M\n"
        "rule: M -> s t | (1,2) | 1.0"
    )
    assert create_fragments(lib, lib.sym("s"), 1) != ()
    # t sits behind s in the only rule mentioning it
    assert create_fragments(lib, lib.sym("t"), 1) == ()


def test_generalized_fragment_keeps_attachment_open(lib):
    frags = create_fragments(lib, lib.sym("A"), 2)
    assert [(f.root.canon, f.attach_pos) for f in frags] == [("X(A? B? C?)", 0)]
    # generalized creation ignores ordering predecessors: the attachment
    # carries no realized content yet
    frags_b = create_fragments(lib, lib.sym("B"), 2)
    assert [(f.root.canon, f.attach_pos) for f in frags_b] == [("X(A? B? C?)", 1)]


def test_fragment_pruning_drops_unreachable_rules():
    lib = parse_library(
        "terminals: a\nnonterminals: X Z\ngoals: X\n"
        "rule: X -> a | | 1.0\nrule: Z -> a | | 1.0"
    )
    pruned = create_fragments(lib, lib.sym("a"), 1)
    assert [f.rule.lhs for f in pruned] == [lib.sym("X")]
    unpruned = create_fragments(lib, lib.sym("a"), 1, prune=False)
    assert {lib.name(f.rule.lhs) for f in unpruned} == {"X", "Z"}


# ---------------------------------------------------------------------------
# The four combinators
# ---------------------------------------------------------------------------


def test_combine_directly_realizes_terminal_leaf():
    lib = parse_library(
        "terminals: a b c\nnonterminals: X A C\ngoals: X\n"
        "rule: X -> A b C | (1,2) | 1.0\nrule: A -> a | | 1.0\nrule: C -> c | | 1.0"
    )
    h = Hypothesis.build((parse_plan(lib, "X(A(a@1) b? C?)"),))
    out = combine_directly(lib, h, lib.sym("b"), 2)
    assert canons(out) == {"X(A(a@1) b@2 C?)"}


def test_combine_directly_no_match(lib):
    h = Hypothesis.build((parse_plan(lib, "A(a@1)"),))
    assert combine_directly(lib, h, lib.sym("c"), 2) == []


def test_combine_directly_respects_enablement():
    lib = parse_library(
        "terminals: a b\nnonterminals: X A\ngoals: X\n"
        "rule: X -> A b | (1,2) | 1.0\nrule: A -> a | | 1.0"
    )
    blocked = Hypothesis.build((parse_plan(lib, "X(A? b?)"),))
    assert combine_directly(lib, blocked, lib.sym("b"), 1) == []


def test_combine_as_child_fig_example(lib):
    h2 = parse_hypothesis(lib, "X(A(a@1) B? C(c@2))")
    (frag,) = create_fragments(lib, lib.sym("b"), 3)
    out = combine_as_child(lib, h2, frag)
    assert canons(out) == {"X(A(a@1) B(b@3) C(c@2))"}


def test_combine_as_child_blocked_by_predecessor(lib):
    h = parse_hypothesis(lib, "X(A? B? C(c@1))")
    (frag,) = create_fragments(lib, lib.sym("b"), 2)
    assert combine_as_child(lib, h, frag) == []


def test_combine_as_child_symbol_mismatch(lib):
    h = parse_hypothesis(lib, "X(A? B? C?)")
    (frag,) = create_fragments(lib, lib.sym("c"), 1)  # C-rooted
    # enabled opens are A and C; only C matches and accepts the fragment
    out = combine_as_child(lib, h, frag)
    assert canons(out) == {"X(A? B? C(c@1))"}


def test_combine_as_sibling_fig_example(lib):
    h = parse_hypothesis(lib, "A(a@1)")
    (frag,) = create_fragments(lib, lib.sym("c"), 2)
    out = combine_as_sibling(lib, h, frag, 2)
    assert canons(out) == {"X(A(a@1) B? C(c@2))"}


def test_combine_as_sibling_rejects_ordering_violation(lib):
    h = parse_hypothesis(lib, "C(c@1)")
    (frag,) = create_fragments(lib, lib.sym("b"), 2)
    # candidate X(A? B(b@2) C(c@1)) breaks (A before B)
    assert combine_as_sibling(lib, h, frag, 2) == []


def test_combine_as_sibling_valid_pair(lib):
    h = parse_hypothesis(lib, "A(a@1)")
    (frag,) = create_fragments(lib, lib.sym("b"), 2)
    out = combine_as_sibling(lib, h, frag, 2)
    assert canons(out) == {"X(A(a@1) B(b@2) C?)"}


def test_combine_independently_examples(lib):
    h = parse_hypothesis(lib, "A(a@1)")
    (frag,) = create_fragments(lib, lib.sym("c"), 2)
    h1 = combine_independently(lib, h, frag)
    assert h1.canon == "A(a@1);C(c@2)"
    (frag_b,) = create_fragments(lib, lib.sym("b"), 3)
    h2 = combine_independently(lib, h1, frag_b)
    assert h2.canon == "A(a@1);C(c@2);B(b@3)"
    first = combine_independently(lib, EMPTY_HYPOTHESIS, create_fragments(lib, lib.sym("a"), 1)[0])
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


def test_fragment_timestamp_law(lib):
    # after a sibling fusion the plan's min timestamp is the min of parts
    h = parse_hypothesis(lib, "A(a@1)")
    (frag,) = create_fragments(lib, lib.sym("c"), 2)
    (out,) = combine_as_sibling(lib, h, frag, 2)
    assert out.plans[0].min_ts == 1
    h_rev = parse_hypothesis(lib, "C(c@1)")
    (frag_a,) = create_fragments(lib, lib.sym("a"), 2)
    (out_rev,) = combine_as_sibling(lib, h_rev, frag_a, 2)
    assert out_rev.plans[0].min_ts == 1


# ---------------------------------------------------------------------------
# k-best
# ---------------------------------------------------------------------------


def test_k_best_ordering_and_ties(lib):
    hs = [
        parse_hypothesis(lib, "A(a@1);C(c@2)"),
        parse_hypothesis(lib, "X(A(a@1) B? C(c@2))"),
    ]
    best = k_best(hs, 1)
    assert [h.canon for h in best] == ["A(a@1);C(c@2)"]  # weights tie, canon order
    assert k_best(hs, 0) == []
    assert len(k_best(hs, 10)) == 2
    assert len(k_best(hs, None)) == 2


def test_k_best_by_weight():
    lib = parse_library(
        "terminals: a b\nnonterminals: X A B\ngoals: X\n"
        "rule: X -> A | | 0.6\nrule: X -> B | | 0.4\n"
        "rule: A -> a | | 1.0\nrule: B -> b | | 1.0"
    )
    light = Hypothesis.build((parse_plan(lib, "X(B(b@1))"),))
    heavy = Hypothesis.build((parse_plan(lib, "X(A(a@1))"),))
    assert [h.canon for h in k_best([light, heavy], 2)] == [heavy.canon, light.canon]


# ---------------------------------------------------------------------------
# Top-down compilation
# ---------------------------------------------------------------------------


def cfg_all(lib):
    return TopDownConfig.for_library(lib, k=None)


def test_top_down_config_validates_like_phatt(lib):
    x = lib.sym("X")
    cfg = TopDownConfig.for_library(lib, k=7)
    assert isinstance(cfg, PhattConfig)
    assert (cfg.k, cfg.max_depth, cfg.goal_prior) == (7, 4, {x: 1.0})
    with pytest.raises(ValueError):
        TopDownConfig(4, {x: 0.5}, None)  # priors must sum to 1
    with pytest.raises(ValueError):
        TopDownConfig(0, {x: 1.0}, None)
    with pytest.raises(ValueError):
        TopDownConfig.for_library(lib, k=None, max_depth=0)
    with pytest.raises(ValueError):
        TopDownConfig.for_library(lib, k=-1)


def top_down(lib, local):
    """Goal-rooted hypotheses compiled from one local hypothesis alone."""
    return SlimEngine(lib, cfg_all(lib)).compile_top_down([local])[0]


def test_top_down_worked_example(lib):
    local = parse_hypothesis(lib, "A(a@1);C(c@2)")
    out = top_down(lib, local)
    assert "X(A(a@1) B? C(c@2))" in canons(out)
    assert canons(out) == {
        "X(A(a@1) B? C(c@2))",
        "X(A(a@1) B? C?);X(A? B? C(c@2))",
    }


def test_top_down_identity_on_goal_rooted_complete(lib):
    local = parse_hypothesis(lib, "X(A(a@1) B(b@3) C(c@2))")
    out = top_down(lib, local)
    assert canons(out) == {local.canon}
    # weights gain the goal prior exactly once
    assert out[0].weight == pytest.approx(1.0)


def test_top_down_union_equals_phatt(lib):
    locals_ = bottom_up(lib, ["a", "c"])
    union = set()
    for local in locals_:
        union |= canons(top_down(lib, local))
    hset, _ = phatt_recognize(lib, ["a", "c"])
    assert union == {h.canon for h in hset.hypotheses}


def test_top_down_dead_local():
    lib = parse_library(
        "terminals: s t\nnonterminals: M N\ngoals: M\n"
        "rule: M -> s t | (1,2) | 1.0\nrule: N -> t | | 1.0"
    )
    # N is reachable from no goal position that allows t first
    local = Hypothesis.build((parse_plan(lib, "N(t@1)"),))
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
    locals_, goal_rooted, steps = slim_recognize(lib, ["a", "c", "b"],
                                                 TopDownConfig.for_library(lib, k=0))
    assert len(locals_) == 4
    assert goal_rooted == []
    assert [s.step for s in steps] == [1, 2, 3]
    assert [s.hypotheses for s in steps] == [1, 2, 4]


def test_slim_recognize_all_matches_phatt(lib):
    locals_, goal_rooted, _ = slim_recognize(lib, ["a", "c", "b"], cfg_all(lib))
    hset, _ = phatt_recognize(lib, ["a", "c", "b"])
    assert canons(goal_rooted) == {h.canon for h in hset.hypotheses}


def test_slim_recognize_empty_sequence(lib):
    locals_, goal_rooted, steps = slim_recognize(lib, [], cfg_all(lib))
    assert locals_ == (EMPTY_HYPOTHESIS,)
    assert goal_rooted == [] and steps == []


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
# Completeness across the suite (the cross-engine equivalence law)
# ---------------------------------------------------------------------------


def test_completeness_suite(suite_lib):
    lib = suite_lib
    cfg = cfg_all(lib)
    phatt_cfg = PhattConfig.for_library(lib)
    for names in all_agent_prefixes(lib, 4):
        engine = PhattEngine(lib, phatt_cfg)
        try:
            hset, _ = phatt_recognize(lib, list(names), phatt_cfg)
            phatt_ranked = sorted(hset.hypotheses, key=lambda h: (-h.weight, h.canon))
        except RecognitionFailure:
            phatt_ranked = []
        locals_, goal_rooted, _ = slim_recognize(lib, list(names), cfg)
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
