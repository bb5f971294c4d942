"""The locals' plan DAG (``planrec.forest``) and the top-down paths that read
it: the DAG holds exactly the step's locals, its top-k equals ``ranked``'s,
and the compile's walk over it equals the per-local compile of a list."""

import gc
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from planrec.domains import generate_domain, simulate_agent
from planrec.forest import SINK, LocalSet, _topological
from planrec.grammar import LibraryError, parse_library
from planrec.phatt import RecognitionFailure
from planrec.slim import SlimEngine, TopDownConfig, _split_skip_sound, k_best
from planrec.trees import EMPTY_HYPOTHESIS, ranked

from conftest import drive_engine
from test_acceptance import BENCH_B


def dag_paths(root):
    """Every root-to-SINK label sequence; asserts that each node's edges are
    in plan ``canon`` order, no two with one label."""
    out = []

    def walk(node, prefix):
        if node is SINK:
            out.append(prefix)
            return
        labels = [plan for plan, _ in node.edges]
        assert len(set(labels)) == len(labels)
        canons = [plan.canon for plan in labels]
        assert canons == sorted(canons)
        for plan, child in node.edges:
            walk(child, prefix + (plan,))

    walk(root, ())
    return out


def dag_size(root):
    """(nodes, edges) reachable from ``root``, SINK included."""
    seen = {root}
    stack = [root]
    edges = 0
    while stack:
        node = stack.pop()
        edges += len(node.edges)
        for _, child in node.edges:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return len(seen), edges


def merges(root):
    """How many reachable nodes hash-consing by edge set would merge into an
    earlier one, children first: the register the DAG build once kept."""
    register, canonical = {}, {}
    merged = 0
    for node in reversed(_topological(root)):
        key = frozenset((plan, canonical[child]) for plan, child in node.edges)
        canonical[node] = register.setdefault(key, node)
        merged += canonical[node] is not node
    return merged


def every_step_has_a_fragment(hyps):
    record = hyps.record
    while record.prev is not None:
        if not record.fragments:
            return False
        record = record.prev
    return True


def split_of(local):
    """The local's depth-1 subtrees as standalone plans, ascending smallest
    timestamp."""
    out = []

    def collect(node):
        if node.height == 1:
            out.append(node)
        else:
            for child in node.children:
                if child.height:
                    collect(child)

    for plan in local.plans:
        collect(plan)
    return tuple(sorted(out, key=lambda p: p.min_ts))


def listing(hyps):
    return [(h.plans, repr(h.weight)) for h in hyps]


def compiled(engine, hyps):
    before = engine.counter.n
    out, _ = engine.compile_top_down(hyps)
    return [(h.canon, repr(h.weight)) for h in out], engine.counter.n - before


@st.composite
def libraries(draw, mixed=False):
    """A small library: 3 terminals, 2 to 4 nonterminals, each the head of 1
    or 2 rules of width 1 to 3, 40% of the wider ones ordered. Each RHS is
    all terminals or all nonterminals named after its head, so the library
    is acyclic; with ``mixed``, each RHS symbol is drawn from all symbols, so
    a RHS may mix terminals and nonterminals and name its own head or an
    earlier one."""
    n = draw(st.integers(2, 4))
    names = [f"N{i}" for i in range(n)]
    lines = ["terminals: a b c", f"nonterminals: {' '.join(names)}",
             f"goals: {' '.join(names[:draw(st.integers(1, min(2, n - 1)))])}"]
    for i, head in enumerate(names):
        probs = draw(st.sampled_from([[1.0], [0.5, 0.5], [0.25, 0.75]]))
        rules = set()
        for prob in probs:
            width = draw(st.integers(1, 3))
            below = names[i + 1:]
            if mixed:
                pool = names + ["a", "b", "c"]
            else:
                pool = below if below and draw(st.booleans()) else ["a", "b", "c"]
            rhs = draw(st.lists(st.sampled_from(pool), min_size=width, max_size=width))
            pairs = ""
            if width > 1 and draw(st.integers(0, 9)) < 4:
                first = draw(st.integers(1, width - 1))
                pairs = f"({first},{draw(st.integers(first + 1, width))})"
            assume((tuple(rhs), pairs) not in rules)  # the library rejects a rule twice
            rules.add((tuple(rhs), pairs))
            lines.append(f"rule: {head} -> {' '.join(rhs)} | {pairs} | {prob}")
    return parse_library("\n".join(lines))


@settings(max_examples=200, deadline=None)
@given(libraries(), st.integers(0, 10_000))
def test_dag_equals_the_locals_on_random_libraries(lib, seed):
    names = simulate_agent(lib, seed)[:5]
    cfg = TopDownConfig.for_library(lib, k=None)
    guard = _split_skip_sound(lib, cfg.max_depth)
    engine = SlimEngine(lib, cfg)
    hyps = (EMPTY_HYPOTHESIS,)
    for ts, name in enumerate(names, start=1):
        try:
            hyps = engine.step(hyps, lib.sym(name), ts)
        except RecognitionFailure:
            return
        if len(hyps) > 2000:  # keeps each example's reference ranking cheap
            return
        assert isinstance(hyps, LocalSet)
        paths = dag_paths(hyps.dag())
        assert len(paths) == len(hyps) and set(paths) == {h.plans for h in hyps}
        if every_step_has_a_fragment(hyps):  # the module docstring's injectivity
            assert merges(hyps.dag()) == 0
        if guard:  # the closure the walk's height-1 restriction relies on
            joined = [h for h in hyps if any(p.height > 1 for p in h.plans)]
            assert {split_of(h) for h in joined} <= set(paths)
        for k in {1, 2, 3, len(hyps) // 2, len(hyps) - 1, len(hyps) + 1}:
            assert listing(k_best(hyps, k)) == listing(ranked(list(hyps), k)), (ts, k)
        if len(hyps) <= 64:  # bigger sets can compile to millions of hypotheses
            walk = compiled(SlimEngine(lib, cfg), hyps)
            assert walk == compiled(SlimEngine(lib, cfg), list(hyps))


@settings(max_examples=150, deadline=None)
@given(libraries(mixed=True), st.integers(0, 10_000))
def test_dag_equals_the_locals_on_mixed_and_recursive_libraries(lib, seed):
    # k_best reads the DAG of every closed set, whether or not the split-skip
    # guard holds; the closure claim is left out, as the guard is off here
    try:
        names = simulate_agent(lib, seed)[:5]
    except LibraryError:  # a plan of a recursive library outgrew the sampler
        terminals = sorted(lib.name(s) for s in lib.reachable if lib.is_terminal(s))
        names = random.Random(seed).choices(terminals, k=5) if terminals else []
    engine = SlimEngine(lib)
    hyps = (EMPTY_HYPOTHESIS,)
    for ts, name in enumerate(names, start=1):
        try:
            hyps = engine.step(hyps, lib.sym(name), ts)
        except RecognitionFailure:
            return
        if len(hyps) > 2000:  # keeps each example's reference ranking cheap
            return
        paths = dag_paths(hyps.dag())
        assert len(paths) == len(hyps) and set(paths) == {h.plans for h in hyps}
        if every_step_has_a_fragment(hyps):  # the module docstring's injectivity
            assert merges(hyps.dag()) == 0
        for k in {1, 2, 3, len(hyps) // 2, len(hyps) - 1, len(hyps) + 1}:
            assert listing(k_best(hyps, k)) == listing(ranked(list(hyps), k)), (ts, k)


@settings(max_examples=100, deadline=None)
@given(libraries(), st.integers(0, 10_000))
def test_finite_k_split_skip_keeps_output_on_random_libraries(lib, seed):
    # a finite k compiles the k best locals as a list, through the per-local
    # split check, and random libraries give many equal weights, so the cut
    # often falls between tied locals; skipping must change no output
    names = simulate_agent(lib, seed)[:5]
    cfgs = {k: TopDownConfig.for_library(lib, k=k) for k in (1, 3)}
    if not _split_skip_sound(lib, cfgs[1].max_depth):
        return
    engine = SlimEngine(lib)
    hyps = (EMPTY_HYPOTHESIS,)
    for ts, name in enumerate(names, start=1):
        try:
            hyps = engine.step(hyps, lib.sym(name), ts)
        except RecognitionFailure:
            return
        if len(hyps) > 64:  # bigger sets can compile to millions of hypotheses
            return
        for k, cfg in cfgs.items():
            unchecked = SlimEngine(lib, cfg)
            unchecked._skip_split_covered = False
            assert compiled(SlimEngine(lib, cfg), hyps)[0] == compiled(unchecked, hyps)[0], \
                (ts, k)


def test_k_best_breaks_ties_by_canon_on_the_dag():
    # four equal-weight plans per step: every top-k cuts through ties
    lib = parse_library("terminals: a b\nnonterminals: G X Y\ngoals: G\n"
                        "rule: G -> X Y | | 1.0\nrule: X -> a | | 0.5\nrule: X -> b | | 0.5\n"
                        "rule: Y -> a | | 0.5\nrule: Y -> b | | 0.5")
    hyps, _ = drive_engine(SlimEngine(lib), ["a", "b", "a", "b"])
    assert len({h.weight for h in hyps}) < len(hyps) // 4
    for k in range(1, len(hyps) + 2):
        assert listing(k_best(hyps, k)) == listing(ranked(list(hyps), k)), k


def running_example_locals(lib):
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None))
    hyps, _ = drive_engine(engine, ["a", "c", "b"])
    return hyps


@pytest.mark.parametrize("case", ["running-example", "benchmark-b-2071"])
def test_closed_set_compiles_without_the_split_check(monkeypatch, lib, case):
    if case == "benchmark-b-2071":
        lib = generate_domain(BENCH_B)
        engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None))
        hyps, _ = drive_engine(engine, simulate_agent(lib, 2071))
        assert dag_size(hyps.dag()) == (31, 96)
    else:
        hyps = running_example_locals(lib)
    assert any(p.height > 1 for h in hyps for p in h.plans)
    checked = []
    fragments = sys.modules["planrec.slim"]._fragments

    def counted(plan):
        checked.append(plan)
        return fragments(plan)

    monkeypatch.setattr("planrec.slim._fragments", counted)
    cfg = TopDownConfig.for_library(lib, k=None)
    walk = compiled(SlimEngine(lib, cfg), hyps)
    assert checked == []
    assert compiled(SlimEngine(lib, cfg), list(hyps)) == walk
    assert checked
    assert k_best(hyps, None) is hyps


def test_only_the_engines_own_chain_is_closed(lib):
    engine = SlimEngine(lib)
    a = lib.sym("a")
    first = engine.step((EMPTY_HYPOTHESIS,), a, 1)
    assert isinstance(first, LocalSet)
    assert isinstance(engine.step(first, lib.sym("c"), 2), LocalSet)
    for given in (first + first, first[:], list(first), [EMPTY_HYPOTHESIS]):
        out = engine.step(given, lib.sym("c"), 2)
        assert type(out) is tuple
        assert type(engine.step(out, lib.sym("b"), 3)) is tuple


def test_local_set_does_not_keep_the_previous_tuple(lib):
    # a tuple subclass takes no weak reference, so the check follows the
    # references instead: nothing reachable from the next step's set is the
    # previous set, and the step leaves no reference to it behind
    engine = SlimEngine(lib)
    prev = engine.step((EMPTY_HYPOTHESIS,), lib.sym("a"), 1)
    refs = sys.getrefcount(prev)
    cur = engine.step(prev, lib.sym("c"), 2)
    cur.dag()
    assert sys.getrefcount(prev) == refs
    seen = set()
    stack = [cur]
    while stack:
        obj = stack.pop()
        assert obj is not prev
        if id(obj) not in seen:
            seen.add(id(obj))
            stack.extend(gc.get_referents(obj))
