import pytest
from hypothesis import given, settings, strategies as st

from planrec.domains import generate_domain, simulate_agent
from planrec.grammar import parse_library
from planrec.metrics import CombinationCounter
from planrec.phatt import (
    HypothesisSet,
    PhattConfig,
    PhattEngine,
    RecognitionFailure,
    default_max_depth,
)
from planrec.trees import Hypothesis, NodeTable, parse_hypothesis, parse_plan

from conftest import drive_engine
from oracles import (
    all_agent_prefixes,
    enumerate_goal_hypotheses,
    from_plan_node,
    tree_weight,
    verify_hypothesis,
)
from test_acceptance import BENCH_A


def run(lib, names, **kw):
    engine = PhattEngine(lib, PhattConfig.for_library(lib, **kw))
    hset = HypothesisSet.initial()
    for name in names:
        hset = engine.step(hset, lib.sym(name))
    return hset


def canons(hset):
    return {h.canon for h in hset.hypotheses}


def trees_from(lib, root, target, max_depth):
    return PhattEngine(lib, PhattConfig.for_library(lib, max_depth)).trees_from(root, target)


def hypothesis_probability(h, lib, cfg):
    """The oracle's rule-probability product of every plan, times the goal
    prior of every goal-rooted plan (fresh traversal, no caches)."""
    total = 1.0
    for plan in h.plans:
        total *= tree_weight(lib, from_plan_node(plan)) * cfg.goal_prior.get(plan.symbol, 1.0)
    return total


# ---------------------------------------------------------------------------
# Leftmost trees
# ---------------------------------------------------------------------------


def test_leftmost_trees_for_first_observation(lib):
    trees = trees_from(lib, lib.sym("X"), lib.sym("a"), 3)
    assert len(trees) == 1
    assert trees[0].root.canon == "X(A(a?) B? C?)"
    assert trees[0].path == (0, 0)


def test_leftmost_trees_blocked_position(lib):
    # (1,2) makes B's branch wait on A, so nothing derives b from X leftmost
    assert trees_from(lib, lib.sym("X"), lib.sym("b"), 3) == ()


def test_leftmost_trees_underivable_target(lib):
    iso = parse_library(
        "terminals: a z\nnonterminals: X\ngoals: X\nrule: X -> a | | 1.0"
    )
    assert trees_from(iso, iso.sym("X"), iso.sym("z"), 4) == ()


def test_leftmost_trees_depth_zero_case(lib):
    trees = trees_from(lib, lib.sym("B"), lib.sym("B"), 3)
    assert any(t.path == () for t in trees)


def test_leftmost_trees_respect_depth_bound():
    lib = parse_library(
        "terminals: a\nnonterminals: R\ngoals: R\n"
        "rule: R -> a | | 0.5\nrule: R -> a R | | 0.5"
    )
    shallow = trees_from(lib, lib.sym("R"), lib.sym("a"), 1)
    deeper = trees_from(lib, lib.sym("R"), lib.sym("a"), 3)
    assert {t.path for t in shallow} == {(0,)}
    assert len(deeper) > len(shallow)
    assert all(len(t.path) <= 3 for t in deeper)


def test_default_max_depth(lib):
    assert default_max_depth(lib) == 4
    recursive = parse_library(
        "terminals: a\nnonterminals: R\ngoals: R\n"
        "rule: R -> a | | 0.5\nrule: R -> a R | | 0.5"
    )
    assert default_max_depth(recursive) == 2 * len(recursive.nonterminals)


# ---------------------------------------------------------------------------
# Incremental step
# ---------------------------------------------------------------------------


def test_step_single_observation(lib):
    hset = run(lib, ["a"])
    assert canons(hset) == {"X(A(a@1) B? C?)"}


def test_step_two_observations(lib):
    hset = run(lib, ["a", "c"])
    assert canons(hset) == {
        "X(A(a@1) B? C(c@2))",
        "X(A(a@1) B? C?);X(A? B? C(c@2))",
    }


def test_step_unexplainable_observation(lib):
    with pytest.raises(RecognitionFailure) as err:
        run(lib, ["b"])
    assert err.value.step == 1


def test_step_rejects_nonterminal_observation(lib):
    with pytest.raises(Exception):
        run(lib, ["X"])


def test_each_step_extends_by_one_timestamp(lib):
    cfg = PhattConfig.for_library(lib)
    engine = PhattEngine(lib, cfg)
    hset = HypothesisSet.initial()
    for n, name in enumerate(["a", "c", "b"], start=1):
        hset = engine.step(hset, lib.sym(name))
        assert hset.step == n
        for h in hset.hypotheses:
            assert max(p.max_ts for p in h.plans) == n
            assert verify_hypothesis(lib, h, n, priors=cfg.goal_prior) == []


def test_resumption_from_serialized_intermediate(lib):
    cfg = PhattConfig.for_library(lib)
    straight = run(lib, ["a", "c", "b"])
    # serialize the step-2 state, rebuild it, and continue
    mid = run(lib, ["a", "c"])
    # parsed into the resuming engine's node table, as its step requires
    engine = PhattEngine(lib, cfg)
    rebuilt = tuple(
        parse_hypothesis(engine.nodes, h.canon, priors=cfg.goal_prior) for h in mid.hypotheses
    )
    resumed = engine.step(HypothesisSet(2, rebuilt), lib.sym("b"))
    assert canons(resumed) == canons(straight)
    assert [h.weight for h in resumed.hypotheses] == [
        h.weight for h in straight.hypotheses
    ]


# ---------------------------------------------------------------------------
# Probability
# ---------------------------------------------------------------------------


def test_probability_all_unit_rules(lib):
    cfg = PhattConfig.for_library(lib)
    hset = run(lib, ["a", "c", "b"])
    for h in hset.hypotheses:
        # single goal, uniform prior: every factor is 1
        assert hypothesis_probability(h, lib, cfg) == pytest.approx(1.0 * 1.0)


def test_probability_single_non_unit_rule():
    lib = parse_library(
        "terminals: a b\nnonterminals: X A\ngoals: X\n"
        "rule: X -> A | | 0.4\nrule: X -> b | | 0.6\nrule: A -> a | | 1.0"
    )
    cfg = PhattConfig.for_library(lib)
    h = Hypothesis.build((parse_plan(NodeTable(lib), "X(A(a@1))"),), cfg.goal_prior)
    assert hypothesis_probability(h, lib, cfg) == pytest.approx(0.4)
    assert h.weight == pytest.approx(0.4)


def test_probability_two_plans_with_priors():
    lib = parse_library(
        "terminals: a b\nnonterminals: X Y A\ngoals: X Y\n"
        "rule: X -> A | | 0.4\nrule: X -> b | | 0.6\n"
        "rule: Y -> b | | 1.0\nrule: A -> a | | 1.0"
    )
    cfg = PhattConfig.for_library(lib)  # uniform prior 0.5 per goal
    nodes = NodeTable(lib)
    plans = (parse_plan(nodes, "X(A(a@1))"), parse_plan(nodes, "X(A(a@2))"))
    h = Hypothesis.build(plans, cfg.goal_prior)
    assert hypothesis_probability(h, lib, cfg) == pytest.approx(0.4 * 0.5 * 0.4 * 0.5)
    assert h.weight == pytest.approx(0.04)


def test_weight_matches_fresh_traversal(lib):
    cfg = PhattConfig.for_library(lib)
    for h in run(lib, ["a", "c", "b"]).hypotheses:
        assert h.weight == pytest.approx(hypothesis_probability(h, lib, cfg))


def test_goal_prior_validation(lib):
    with pytest.raises(ValueError):
        PhattConfig(4, {lib.sym("X"): 0.5})
    with pytest.raises(ValueError):
        PhattConfig(0, {lib.sym("X"): 1.0})


def test_for_library_rejects_zero_depth(lib):
    with pytest.raises(ValueError):
        PhattConfig.for_library(lib, 0)
    with pytest.raises(ValueError):
        PhattConfig.for_library(lib, -1)
    assert PhattConfig.for_library(lib).max_depth == default_max_depth(lib)


# ---------------------------------------------------------------------------
# Exhaustiveness against the generate-and-filter oracle
# ---------------------------------------------------------------------------


def test_exhaustive_oracle_running_example(lib):
    for names in [["a"], ["a", "c"], ["a", "c", "b"], ["a", "b"], ["a", "b", "c"]]:
        expected = enumerate_goal_hypotheses(lib, [lib.sym(n) for n in names])
        got = run(lib, names)
        assert canons(got) == set(expected), names
        for h in got.hypotheses:
            assert h.weight == pytest.approx(expected[h.canon]), (names, h.canon)


def test_exhaustive_oracle_full_suite(suite_lib):
    lib = suite_lib
    for names in all_agent_prefixes(lib, 4):
        expected = enumerate_goal_hypotheses(lib, [lib.sym(n) for n in names])
        got = run(lib, list(names))
        assert canons(got) == set(expected), names
        for h in got.hypotheses:
            assert h.weight == pytest.approx(expected[h.canon])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4))
def test_any_sequence_agrees_with_oracle(seq):
    lib = parse_library(
        "terminals: a b c\nnonterminals: X A B C\ngoals: X\n"
        "rule: A -> a | | 1.0\nrule: B -> b | | 1.0\nrule: C -> c | | 1.0\n"
        "rule: X -> A B C | (1,2) | 1.0"
    )
    expected = enumerate_goal_hypotheses(lib, [lib.sym(n) for n in seq])
    try:
        got = run(lib, seq)
    except RecognitionFailure:
        assert expected == {}
        return
    assert canons(got) == set(expected)


def test_engine_counts_combinations(lib):
    engine = PhattEngine(lib)
    hset = HypothesisSet.initial()
    hset = engine.step(hset, lib.sym("a"))
    assert engine.counter.n >= len(hset.hypotheses)


@pytest.mark.parametrize("case, attempts, kept", [
    ("running-example", 5, 2),
    ("benchmark-a-1000", 11330, 1724),  # many hypotheses share plans: memo hits
])
def test_step_counts_every_attempt(lib, case, attempts, kept):
    # the values the unmemoized step counted, one per attempted graft
    if case == "running-example":
        names = ["a", "c", "b"]
    else:
        lib = generate_domain(BENCH_A)
        names = simulate_agent(lib, 1000)
    counter = CombinationCounter()
    hyps, _ = drive_engine(PhattEngine(lib, counter=counter), names)
    assert (counter.n, len(hyps)) == (attempts, kept)


def test_recognize_returns_metrics(lib):
    hyps, steps = drive_engine(PhattEngine(lib), ["a", "c", "b"])
    assert [s.step for s in steps] == [1, 2, 3]
    assert steps[-1].hypotheses == len(hyps)
    # frontier metric equals a brute-force recount over the final set
    def open_nodes(tree):
        if tree[0] == "exp":
            return sum(open_nodes(c) for c in tree[3])
        return int(tree[0] == "open")

    assert steps[-1].frontier == sum(
        open_nodes(from_plan_node(p)) for h in hyps for p in h.plans
    )
