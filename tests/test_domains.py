import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from planrec.domains import DomainParams, DomainStats, generate_domain, library_stats, simulate_agent
from planrec.grammar import LibraryError, parse_library, serialize_library, validate_library
from planrec.phatt import PhattEngine, HypothesisSet
from planrec.slim import SlimEngine
from planrec.trees import EMPTY_HYPOTHESIS

from conftest import SUITE
from oracles import complete_plans, linear_extensions
from test_acceptance import BENCH_A, BENCH_A_INSTANCE_SEEDS, BENCH_B, BENCH_B_INSTANCE_SEEDS


SMALL = DomainParams(num_goals=2, and_branch=2, or_branch=2, depth=2,
                     num_terminals=6, ordered_fraction=1.0, seed=3)

# two goals; X's rule orders its second child before its first
BACKWARD = """
terminals: a b c d
nonterminals: X Y A B
goals: X Y
rule: X -> A B c | (2,1) | 1.0
rule: Y -> B d A | (1,3) | 0.5
rule: Y -> d | | 0.5
rule: A -> a b | | 0.7
rule: A -> a | | 0.3
rule: B -> b | | 1.0
"""

RECURSIVE = """
terminals: a c
nonterminals: G N
goals: G
rule: G -> N c | | 1.0
rule: N -> N a | | 0.5
rule: N -> a | | 0.5
"""


def test_params_validation():
    with pytest.raises(ValueError):
        DomainParams(num_goals=0)
    with pytest.raises(ValueError):
        DomainParams(and_branch=1)
    with pytest.raises(ValueError):
        DomainParams(depth=0)
    with pytest.raises(ValueError):
        DomainParams(ordered_fraction=1.5)


def test_default_profile_shape():
    lib = generate_domain(DomainParams(seed=7))
    stats = library_stats(lib)
    # goals expand through AND(3) -> OR -> AND(3) -> terminals
    assert stats.plan_leaf_count == 9
    assert stats.num_complex_actions == 5 * (1 + 3 + 6)
    assert len(lib.goals) == 5
    assert len(lib.terminals) == 100
    assert validate_library(lib).issues == tuple(
        i for i in validate_library(lib).issues if i.kind in ("unused-terminal", "unreachable-symbol")
    )


def test_generate_determinism():
    a = serialize_library(generate_domain(DomainParams(seed=42)))
    b = serialize_library(generate_domain(DomainParams(seed=42)))
    assert a == b
    c = serialize_library(generate_domain(DomainParams(seed=43)))
    assert a != c


def test_or_rules_split_uniformly():
    lib = generate_domain(DomainParams(seed=5))
    or_heads = [
        head for head, rules in lib.rules_by_head.items() if len(rules) == 2
    ]
    assert or_heads
    for head in or_heads:
        for rule in lib.rules_for(head):
            assert rule.prob == pytest.approx(0.5)
            assert len(rule.rhs) == 1


def test_ordered_fraction_extremes():
    full = generate_domain(DomainParams(seed=1, ordered_fraction=1.0))
    for rule in full.rules:
        if len(rule.rhs) > 1:
            assert rule.constraints == frozenset(
                (i, i + 1) for i in range(len(rule.rhs) - 1)
            )
    free = generate_domain(DomainParams(seed=1, ordered_fraction=0.0))
    assert all(not rule.constraints for rule in free.rules)


def test_depth_four_variant_matches_reported_scale():
    lib = generate_domain(DomainParams(depth=4, ordered_fraction=0.3, seed=7))
    stats = library_stats(lib)
    assert stats.num_complex_actions == 140
    assert stats.plan_leaf_count == 9
    # two OR alternatives drawing the same terminal merge their mass,
    # so the rule count sits just below 5 * 49
    assert 235 <= stats.num_rules <= 245


def test_share_subtrees_reduces_complex_actions():
    base = library_stats(generate_domain(DomainParams(seed=9)))
    shared = library_stats(generate_domain(DomainParams(seed=9, share_subtrees=True)))
    assert shared.num_complex_actions < base.num_complex_actions


def test_library_stats_running_example(lib):
    stats = library_stats(lib)
    assert stats == DomainStats(4, 4, 3)


def test_library_stats_single_rule():
    lib = parse_library(
        "terminals: a\nnonterminals: X\ngoals: X\nrule: X -> a | | 1.0"
    )
    assert library_stats(lib) == DomainStats(1, 1, 1)


def test_library_stats_irregular_reports_absent():
    lib = parse_library(
        "terminals: a b\nnonterminals: X\ngoals: X\n"
        "rule: X -> a | | 0.5\nrule: X -> a b | | 0.5"
    )
    assert library_stats(lib).plan_leaf_count is None
    recursive = parse_library(
        "terminals: a\nnonterminals: R\ngoals: R\n"
        "rule: R -> a | | 0.5\nrule: R -> a R | | 0.5"
    )
    assert library_stats(recursive).plan_leaf_count is None


# ---------------------------------------------------------------------------
# Agent simulation
# ---------------------------------------------------------------------------


def test_simulate_running_example_orders(lib):
    seen = {tuple(simulate_agent(lib, seed)) for seed in range(60)}
    legal = {("a", "c", "b"), ("a", "b", "c"), ("c", "a", "b")}
    assert seen <= legal
    assert seen == legal  # all linear extensions appear across seeds


def test_simulate_fully_ordered_unique_extension():
    lib = parse_library(
        "terminals: s t u\nnonterminals: M\ngoals: M\n"
        "rule: M -> s t u | (1,2),(2,3) | 1.0"
    )
    for seed in range(10):
        assert simulate_agent(lib, seed) == ["s", "t", "u"]


def test_simulate_determinism():
    lib = generate_domain(SMALL)
    assert simulate_agent(lib, 123) == simulate_agent(lib, 123)


def test_simulated_sequences_have_plan_size():
    lib = generate_domain(DomainParams(seed=2))
    for seed in range(5):
        assert len(simulate_agent(lib, seed)) == 9


def test_simulated_sequence_is_linear_extension():
    # replay the sequence against a fully ordered library: every prefix must
    # keep all constraints satisfiable, which the recognizer itself checks
    lib = generate_domain(DomainParams(seed=8, ordered_fraction=1.0))
    seq = simulate_agent(lib, 77)
    engine = PhattEngine(lib)
    hset = HypothesisSet.initial()
    for name in seq:
        hset = engine.step(hset, lib.sym(name))
    assert hset.hypotheses


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_simulated_sequences_recognized_by_both_engines(seed):
    lib = generate_domain(SMALL)
    seq = simulate_agent(lib, seed)
    phatt = PhattEngine(lib)
    hset = HypothesisSet.initial()
    for name in seq:
        hset = phatt.step(hset, lib.sym(name))
        assert hset.hypotheses
    slim = SlimEngine(lib)
    hyps = (EMPTY_HYPOTHESIS,)
    for ts, name in enumerate(seq, start=1):
        hyps = slim.step(hyps, lib.sym(name), ts)
        assert hyps


def test_simulation_rejects_rule_less_nonterminal():
    lib = parse_library("terminals: a\nnonterminals: X\ngoals: X\n")
    with pytest.raises(ValueError):
        simulate_agent(lib, 0)


@pytest.mark.parametrize("text", [SUITE[name] for name in sorted(SUITE)] + [BACKWARD],
                         ids=sorted(SUITE) + ["backward"])
def test_simulated_sequences_are_oracle_linear_extensions(text):
    # the oracle enumerates every complete plan and every emission order its
    # constraint closures allow, sharing no code with the simulator; 200
    # seeds draw each of them on these small libraries
    lib = parse_library(text)
    legal = {seq for goal in lib.goals for plan in complete_plans(lib, goal)
             for seq in linear_extensions(lib, plan)}
    seen = {tuple(simulate_agent(lib, seed)) for seed in range(200)}
    assert seen == legal


def test_simulation_stops_at_the_expansion_budget():
    lib = parse_library(RECURSIVE)
    # seed 149 draws N's recursive rule more often than the budget of
    # 8 expansions per nonterminal allows
    with pytest.raises(LibraryError, match="expansion budget"):
        simulate_agent(lib, 149)
    seq = simulate_agent(lib, 0)
    assert sorted(seq) == ["a"] * (len(seq) - 1) + ["c"]


@pytest.mark.parametrize("params, seeds, digest", [
    (BENCH_A, BENCH_A_INSTANCE_SEEDS, "ccd83c09f7bd473d"),
    (BENCH_B, BENCH_B_INSTANCE_SEEDS, "dbe86d358cb9a909"),
], ids=["benchmark-a", "benchmark-b"])
def test_benchmark_inputs_are_pinned(params, seeds, digest):
    # the serialized library and the simulated observation sequences every
    # benchmark run and acceptance test starts from
    lib = generate_domain(params)
    text = serialize_library(lib) + "".join(" ".join(simulate_agent(lib, seed)) + "\n"
                                            for seed in seeds)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
