import pytest

from planrec.grammar import (
    LibraryError,
    LibraryParseError,
    parse_library,
    serialize_library,
    validate_library,
)

RUNNING_EXAMPLE = """
# three basic actions, one goal
terminals: a b c
nonterminals: X A B C
goals: X
rule: A -> a | | 1.0
rule: B -> b | | 1.0
rule: C -> c | | 1.0
rule: X -> A B C | (1,2) | 1.0
"""


@pytest.fixture
def lib():
    return parse_library(RUNNING_EXAMPLE)


def test_parse_running_example(lib):
    assert [s.name for s in lib.symbols] == ["a", "b", "c", "X", "A", "B", "C"]
    assert [s.idx for s in lib.symbols] == list(range(7))
    assert len(lib.rules) == 4
    assert [lib.name(g) for g in lib.goals] == ["X"]
    x_rules = lib.rules_for(lib.sym("X"))
    assert len(x_rules) == 1
    assert x_rules[0].constraints == frozenset({(0, 1)})
    assert x_rules[0].closure == frozenset({(0, 1)})
    assert x_rules[0].preds == ((), (0,), ())
    assert x_rules[0].free_positions == (0, 2)


def test_parse_comments_and_blank_lines(lib):
    assert lib.sym("a") == 0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("terminals a b", "expected 'directive"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: X -> a | 1.0", "LHS -> RHS"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: X = a | | 1.0", "missing '->'"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: X -> q | | 1.0", "undeclared symbol 'q'"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: X -> a | (1,3) | 1.0", "out of range"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: X -> a | (1,1) | 1.0", "itself"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: X -> a | | 0.5", "sum to 0.5"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: X -> a | | 1.5", "outside (0, 1]"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: X -> a | | one", "invalid probability"),
        ("terminals: a\nnonterminals: X\nrule: X -> a | | 1.0", "empty goal set"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: X ->  | | 1.0", "empty right-hand side"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: X -> a | bogus | 1.0", "malformed constraint"),
        ("terminals: a\nnonterminals: X\ngoals: Y\nrule: X -> a | | 1.0", "not a declared nonterminal"),
        ("terminals: a a\nnonterminals: X\ngoals: X\nrule: X -> a | | 1.0", "duplicate symbol"),
        ("terminals: a\nnonterminals: X\ngoals: X\nrule: a -> a | | 1.0", "not a nonterminal"),
    ],
)
def test_parse_errors_have_distinct_diagnostics(text, fragment):
    with pytest.raises(LibraryError) as err:
        parse_library(text)
    assert fragment in str(err.value)


def test_constraint_cycle_rejected():
    text = (
        "terminals: a b\nnonterminals: X A B\ngoals: X\n"
        "rule: A -> a | | 1.0\nrule: B -> b | | 1.0\n"
        "rule: X -> A B | (1,2),(2,1) | 1.0"
    )
    with pytest.raises(LibraryParseError) as err:
        parse_library(text)
    assert "cycle" in str(err.value)
    assert err.value.line == 6


@pytest.mark.parametrize("goal_lines", ["goals: X X", "goals: X\ngoals: X"],
                         ids=["one-line", "two-lines"])
def test_duplicate_goal_rejected(goal_lines):
    # a repeated goal would weigh every goal-rooted plan by a wrong prior
    # and walk its goal trees twice
    text = f"terminals: a\nnonterminals: X\n{goal_lines}\nrule: X -> a | | 1.0"
    with pytest.raises(LibraryError) as err:
        parse_library(text)
    assert str(err.value) == "duplicate goal 'X'"


def test_duplicate_rule_rejected():
    text = (
        "terminals: a\nnonterminals: X\ngoals: X\n"
        "rule: X -> a | | 0.5\nrule: X -> a | | 0.5"
    )
    with pytest.raises(LibraryError) as err:
        parse_library(text)
    assert "duplicate rule" in str(err.value)


def test_probability_split_across_two_rules_ok():
    text = (
        "terminals: a b\nnonterminals: X\ngoals: X\n"
        "rule: X -> a | | 0.5\nrule: X -> b | | 0.5"
    )
    lib = parse_library(text)
    assert len(lib.rules) == 2
    assert lib.max_or_branching == 2


def test_validate_running_example_clean(lib):
    assert validate_library(lib).ok


def test_validate_reports_unused_terminal():
    text = (
        "terminals: a d\nnonterminals: X\ngoals: X\n"
        "rule: X -> a | | 1.0"
    )
    report = validate_library(parse_library(text))
    kinds = {issue.kind for issue in report.issues}
    assert "unused-terminal" in kinds
    assert "unreachable-symbol" in kinds  # d is also unreachable


def test_validate_reports_underivable_goal():
    text = "terminals: a\nnonterminals: X\ngoals: X\n"
    report = validate_library(parse_library(text))
    assert any(issue.kind == "underivable-goal" for issue in report.issues)


def test_rules_containing_examples(lib):
    occ_a = lib.containing(lib.sym("a"))
    assert [(lib.name(r.lhs), pos) for r, pos in occ_a] == [("A", 0)]
    occ_A = lib.containing(lib.sym("A"))
    assert [(lib.name(r.lhs), pos) for r, pos in occ_A] == [("X", 0)]
    assert lib.containing(lib.sym("X")) == ()


def test_rules_containing_unknown_symbol(lib):
    with pytest.raises(LibraryError):
        lib.containing(99)


def test_rules_containing_matches_brute_force(lib):
    for sym in range(len(lib.symbols)):
        expected = [
            (rule, pos)
            for rule in lib.rules
            for pos, s in enumerate(rule.rhs)
            if s == sym
        ]
        assert list(lib.containing(sym)) == expected


def test_reachable_running_example(lib):
    assert {lib.name(s) for s in lib.reachable} == {
        "X", "A", "B", "C", "a", "b", "c"
    }


def test_reachable_excludes_isolated_nonterminal():
    text = (
        "terminals: a z\nnonterminals: X Z\ngoals: X\n"
        "rule: X -> a | | 1.0\nrule: Z -> z | | 1.0"
    )
    lib = parse_library(text)
    names = {lib.name(s) for s in lib.reachable}
    assert "Z" not in names and "z" not in names


def test_reachable_goal_only_library():
    lib = parse_library("terminals:\nnonterminals: X\ngoals: X\n")
    assert {lib.name(s) for s in lib.reachable} == {"X"}


def test_round_trip_serialization(lib):
    text = serialize_library(lib)
    again = parse_library(text)
    assert serialize_library(again) == text
    assert [s.name for s in again.symbols] == [s.name for s in lib.symbols]
    assert [(r.lhs, r.rhs, r.constraints, r.prob) for r in again.rules] == [
        (r.lhs, r.rhs, r.constraints, r.prob) for r in lib.rules
    ]


def test_acyclic_depth_and_branching(lib):
    assert lib.acyclic_depth == 2
    assert lib.max_or_branching == 1


def test_recursive_library_depth_none():
    text = (
        "terminals: a\nnonterminals: R\ngoals: R\n"
        "rule: R -> a | | 0.5\nrule: R -> a R | | 0.5"
    )
    lib = parse_library(text)
    assert lib.acyclic_depth is None
    assert lib.max_or_branching == 2
