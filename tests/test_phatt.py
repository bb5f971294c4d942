import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from planrec.domains import generate_domain, simulate_agent
from planrec.grammar import parse_library
from planrec.phatt import (
    HypothesisSet,
    PhattConfig,
    PhattEngine,
    RecognitionFailure,
    default_max_depth,
)
from planrec.slim import SlimEngine, TopDownConfig, k_best
from planrec.trees import Hypothesis, NodeTable, parse_hypothesis, parse_plan, try_fuse

from conftest import drive_engine
from oracles import (
    all_agent_prefixes,
    enumerate_goal_hypotheses,
    from_plan_node,
    tree_weight,
    uniform_priors,
    verify_hypothesis,
)
from test_acceptance import BENCH_A, BENCH_B


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


def hypothesis_probability(h, lib):
    """The oracle's rule-probability product of every plan, times the goal
    prior of every goal-rooted plan (fresh traversal, no caches)."""
    priors = uniform_priors(lib)
    total = 1.0
    for plan in h.plans:
        total *= tree_weight(lib, from_plan_node(plan)) * priors.get(plan.symbol, 1.0)
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
            assert verify_hypothesis(lib, h, n, priors=uniform_priors(lib)) == []


def test_resumption_from_serialized_intermediate(lib):
    cfg = PhattConfig.for_library(lib)
    straight = run(lib, ["a", "c", "b"])
    # serialize the step-2 state, rebuild it, and continue
    mid = run(lib, ["a", "c"])
    # parsed into the resuming engine's node table, as its step requires
    engine = PhattEngine(lib, cfg)
    rebuilt = tuple(
        parse_hypothesis(engine.nodes, h.canon, prior=1.0 / len(lib.goals))
        for h in mid.hypotheses
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
    hset = run(lib, ["a", "c", "b"])
    for h in hset.hypotheses:
        # single goal, uniform prior: every factor is 1
        assert hypothesis_probability(h, lib) == pytest.approx(1.0 * 1.0)


def test_probability_single_non_unit_rule():
    lib = parse_library(
        "terminals: a b\nnonterminals: X A\ngoals: X\n"
        "rule: X -> A | | 0.4\nrule: X -> b | | 0.6\nrule: A -> a | | 1.0"
    )
    h = Hypothesis.build((parse_plan(NodeTable(lib), "X(A(a@1))"),), 1.0)  # the one goal's prior
    assert hypothesis_probability(h, lib) == pytest.approx(0.4)
    assert h.weight == pytest.approx(0.4)


def test_probability_two_plans_with_priors():
    lib = parse_library(
        "terminals: a b\nnonterminals: X Y A\ngoals: X Y\n"
        "rule: X -> A | | 0.4\nrule: X -> b | | 0.6\n"
        "rule: Y -> b | | 1.0\nrule: A -> a | | 1.0"
    )
    nodes = NodeTable(lib)
    plans = (parse_plan(nodes, "X(A(a@1))"), parse_plan(nodes, "X(A(a@2))"))
    h = Hypothesis.build(plans, 0.5)  # uniform prior 0.5 per goal
    assert hypothesis_probability(h, lib) == pytest.approx(0.4 * 0.5 * 0.4 * 0.5)
    assert h.weight == pytest.approx(0.04)


def test_weight_matches_fresh_traversal(lib):
    for h in run(lib, ["a", "c", "b"]).hypotheses:
        assert h.weight == pytest.approx(hypothesis_probability(h, lib))


def test_config_rejects_zero_depth():
    with pytest.raises(ValueError):
        PhattConfig(0)


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
    engine = PhattEngine(lib)
    hyps, _ = drive_engine(engine, names)
    assert (engine.counter.n, len(hyps)) == (attempts, kept)


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


# ---------------------------------------------------------------------------
# An engine walks each (plan, target) once
# ---------------------------------------------------------------------------


def run_phatt_steps(lib, names):
    drive_engine(PhattEngine(lib), names)


def run_online(lib, names):
    # one engine compiles its k=1000 best locals after every observation
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=1000))
    drive_engine(engine, names, lambda ts, hyps: engine.compile_top_down(hyps))


def run_slim_100_then_all(lib, names):
    # the runner's slim-k variants: one engine compiles its 100 best locals,
    # then all of them
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None))
    locals_, _ = drive_engine(engine, names)
    engine.compile_top_down(k_best(locals_, 100))
    assert engine.compile_top_down(locals_)[0]


@pytest.mark.parametrize("run_engine", [run_phatt_steps, run_online, run_slim_100_then_all],
                         ids=["phatt-steps", "online", "slim-100-then-all"])
@pytest.mark.parametrize("params, seed, prefix", [(BENCH_A, 1000, None), (BENCH_B, 2055, 8)],
                         ids=["benchmark-a-1000", "benchmark-b-2055-prefix"])
def test_advance_walks_each_plan_once_per_engine_and_target(monkeypatch, params, seed, prefix,
                                                            run_engine):
    # a plan's grafts of one target are worked out once over the engine's
    # life, however many hypotheses, advances, compile levels and queries
    # hold the plan: its frontier is read and its try_fuse walk made at most
    # once per distinct (plan, target), and repeating an advance makes no
    # try_fuse call while it counts the same attempts and returns the same
    # hypotheses in the same order; feeding every hypothesis twice doubles
    # the attempts counted
    lib = generate_domain(params)
    names = simulate_agent(lib, seed)[:prefix]
    walked: dict[PhattEngine, set] = {}  # the (plan, target) pairs walked
    fused: dict[PhattEngine, set] = {}  # the (target, plan, path, graft) fusions walked
    current = []  # (engine, target) of the advance in progress
    grafting = [0]  # try_fuse calls inside grafted build leftmost grafts, not walks
    fuses = [0]
    checked = {"calls": 0, "walks": 0, "fuses": 0, "shared": 0}
    frontier, grafted, advance = PhattEngine.frontier, PhattEngine.grafted, PhattEngine.advance

    def counted_frontier(self, plan):
        if current:  # SLIM's bottom-up reads frontiers too; only walks count
            engine, target = current[-1]
            assert engine is self
            pairs = walked.setdefault(self, set())
            assert (plan, target) not in pairs, "a (plan, target) walked twice"
            pairs.add((plan, target))
            checked["walks"] += 1
        return frontier(self, plan)

    def counted_grafted(self, root_sym, target):
        grafting[0] += 1
        try:
            return grafted(self, root_sym, target)
        finally:
            grafting[0] -= 1

    def counted_fuse(nodes, plan, path, sub):
        fuses[0] += 1
        if current and not grafting[0]:
            engine, target = current[-1]
            seen = fused.setdefault(engine, set())
            assert (target, plan, path, sub) not in seen, "a walk's fusion made twice"
            seen.add((target, plan, path, sub))
            checked["fuses"] += 1
        return try_fuse(nodes, plan, path, sub)

    def checked_advance(self, hyps, target):
        hyps = list(hyps)
        pairs = walked.setdefault(self, set())
        checked["shared"] += sum((p, target) in pairs for h in hyps for p in h.plans)
        current.append((self, target))
        try:
            before = self.counter.n
            out = advance(self, hyps, target)
            n_first = self.counter.n - before
            runs = []
            for advance_in in (hyps, hyps + hyps):  # every walk is memoized now
                fuses[0] = 0
                before = self.counter.n
                again = advance(self, advance_in, target)
                runs.append(([h.canon for h in again.values()], self.counter.n - before,
                             fuses[0]))
        finally:
            current.pop()
        (once, n_once, fuses_once), (twice, n_twice, fuses_twice) = runs
        assert once == twice == [h.canon for h in out.values()]
        assert n_once == n_first and n_twice == 2 * n_first
        assert fuses_once == fuses_twice == 0
        checked["calls"] += 1
        return out

    monkeypatch.setattr(PhattEngine, "frontier", counted_frontier)
    monkeypatch.setattr(PhattEngine, "grafted", counted_grafted)
    monkeypatch.setattr(PhattEngine, "advance", checked_advance)
    monkeypatch.setattr("planrec.phatt.try_fuse", counted_fuse)
    run_engine(lib, names)
    assert checked["calls"] and checked["walks"] and checked["fuses"]
    if run_engine is not run_phatt_steps:
        # some walk was shared across compile levels, prefix groups or
        # queries; each PHATT step's target is a new realized leaf
        assert checked["shared"] > 0


# Per PHATT step: the attempts counted and a digest of the ordered
# (canon, repr(weight)) list of the hypotheses it returns, recorded from the
# advance that memoized each fusion by (plan, path, graft).
PHATT_STEPS = {
    "benchmark-a-1000": [
        (2, "79ebae17bab13806"), (6, "ba53f3f48bf21055"), (11, "94480be7ad4af81c"),
        (29, "9b18d2b5695173d4"), (121, "bec0ec4133124bfd"), (429, "82623923482f196b"),
        (1670, "8300358f953430cc"), (7338, "6ef2ba5a1a056ad2"), (1724, "1e82df4b8f5be335"),
    ],
    "benchmark-b-2071": [
        (2, "3ab232b7f2d2ed8b"), (8, "813949c7f4206b18"), (11, "959450f0636fb812"),
        (21, "a761f6336761b898"), (60, "f1d5a003d643ca7a"), (80, "717b002a3b8a8c89"),
        (348, "85188bc2126a70fb"), (2308, "a6444aae482b4e28"), (9660, "736b021e32f9930d"),
    ],
}


@pytest.mark.parametrize("params, seed, case", [(BENCH_A, 1000, "benchmark-a-1000"),
                                                (BENCH_B, 2071, "benchmark-b-2071")],
                         ids=["benchmark-a-1000", "benchmark-b-2071"])
def test_steps_keep_candidate_order_and_counts(params, seed, case):
    lib = generate_domain(params)
    engine = PhattEngine(lib)
    hset = HypothesisSet.initial()
    steps = []
    for name in simulate_agent(lib, seed):
        before = engine.counter.n
        hset = engine.step(hset, lib.sym(name))
        listing = "\n".join(f"{h.canon} {h.weight!r}" for h in hset.hypotheses)
        steps.append((engine.counter.n - before,
                      hashlib.sha256(listing.encode()).hexdigest()[:16]))
    assert steps == PHATT_STEPS[case]
