import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from planrec.grammar import parse_library
from planrec.metrics import drive
from planrec.phatt import HypothesisSet, PhattEngine
from planrec.trees import NodeTable

RUNNING_EXAMPLE = """
terminals: a b c
nonterminals: X A B C
goals: X
rule: A -> a | | 1.0
rule: B -> b | | 1.0
rule: C -> c | | 1.0
rule: X -> A B C | (1,2) | 1.0
"""

# small hand-written grammars exercised by the cross-engine equivalence
# tests: an ordered chain, a fully unordered rule, a two-level hierarchy
# with terminal siblings, a probabilistic choice, two goals sharing
# subactions, and a three-way partial order
SUITE = {
    "ordered": RUNNING_EXAMPLE,
    "unordered": """
terminals: a b c
nonterminals: X A B C
goals: X
rule: A -> a | | 1.0
rule: B -> b | | 1.0
rule: C -> c | | 1.0
rule: X -> A B C | | 1.0
""",
    "two-level": """
terminals: a1 a2 b
nonterminals: X A B
goals: X
rule: X -> A B | (1,2) | 1.0
rule: A -> a1 a2 | (1,2) | 1.0
rule: B -> b | | 1.0
""",
    "choice": """
terminals: a1 a2 b
nonterminals: X A B
goals: X
rule: X -> A | | 0.6
rule: X -> B | | 0.4
rule: A -> a1 a2 | | 1.0
rule: B -> b | | 1.0
""",
    "two-goals": """
terminals: a b
nonterminals: X Y A B
goals: X Y
rule: X -> A B | (1,2) | 1.0
rule: Y -> B A | (1,2) | 1.0
rule: A -> a | | 1.0
rule: B -> b | | 1.0
""",
    "partial-order": """
terminals: a b c
nonterminals: X A B C
goals: X
rule: A -> a | | 1.0
rule: B -> b | | 1.0
rule: C -> c | | 1.0
rule: X -> A B C | (1,3),(2,3) | 1.0
""",
}


def drive_engine(engine, names, hook=None):
    """Feed ``names`` through a PHATT or SLIM ``engine`` with
    :func:`planrec.metrics.drive`, calling ``hook(ts, hyps)`` after each
    step; returns ``(final hypotheses, step rows)``."""
    if isinstance(engine, PhattEngine):
        def step(hyps, sym, ts):
            return engine.step(HypothesisSet(ts - 1, hyps), sym).hypotheses
        algorithm = "phatt"
    else:
        step, algorithm = engine.step, "slim"
    steps = []
    return drive(engine.lib, list(names), step, engine.counter, algorithm, steps, hook), steps


@pytest.fixture
def lib():
    return parse_library(RUNNING_EXAMPLE)


@pytest.fixture
def nodes(lib):
    """A node table over the running example: a test builds its nodes from one
    table, so equal structures are one object."""
    return NodeTable(lib)


@pytest.fixture(params=sorted(SUITE), ids=sorted(SUITE))
def suite_lib(request):
    return parse_library(SUITE[request.param])
