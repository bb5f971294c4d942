"""The engines' collector policy: every engine call pauses the cyclic garbage
collector and leaves ``gc.isenabled()`` as it found it, and the calls build
no reference cycles, so nothing piles up while the collector is paused."""

import gc

import pytest

from planrec.domains import generate_domain, simulate_agent
from planrec.grammar import ObservationError, parse_library
from planrec.phatt import HypothesisSet, PhattEngine, RecognitionFailure
from planrec.slim import SlimEngine, TopDownConfig
from planrec.trees import EMPTY_HYPOTHESIS, Hypothesis, realized_leaf

from conftest import RUNNING_EXAMPLE, drive_engine
from test_acceptance import BENCH_B


@pytest.fixture
def collector():
    """Restore the collector's state after the test, whatever it does."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_engine_calls_leave_no_cyclic_garbage(collector):
    # with the collector off, only reference counting frees memory, so a
    # cycle an engine call left behind would stay until gc.collect()
    lib = generate_domain(BENCH_B)
    names = simulate_agent(lib, 2071)
    gc.collect()
    gc.disable()
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None))
    locals_, _ = drive_engine(engine, names)
    assert gc.collect() == 0  # the bottom-up
    assert len(engine.compile_top_down(locals_)[0]) == 9660
    assert gc.collect() == 0  # the slim-all compile
    drive_engine(PhattEngine(lib), names)
    assert gc.collect() == 0  # PHATT


def test_engine_calls_collect_their_young_objects(collector):
    # the outermost call collects the youngest generation before it returns,
    # so its caller's next allocation does not scan what the call built
    lib = generate_domain(BENCH_B)
    names = simulate_agent(lib, 2071)
    gc.enable()
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None))
    hyps = (EMPTY_HYPOTHESIS,)
    for ts, name in enumerate(names, start=1):
        hyps = engine.step(hyps, lib.sym(name), ts)
        assert gc.get_count()[0] < 10, ts
    engine.compile_top_down(hyps)
    assert gc.get_count()[0] < 10
    phatt, hset = PhattEngine(lib), HypothesisSet.initial()
    for name in names:
        hset = phatt.step(hset, lib.sym(name))
        assert gc.get_count()[0] < 10


def phatt_step(lib, obs="a"):
    return PhattEngine(lib).step(HypothesisSet.initial(), lib.sym(obs))


def phatt_advance(lib):
    engine = PhattEngine(lib)
    return engine.advance((EMPTY_HYPOTHESIS,), realized_leaf(engine.nodes, lib.sym("a"), 1))


def slim_step(lib, obs="a"):
    return SlimEngine(lib).step((EMPTY_HYPOTHESIS,), lib.sym(obs), 1)


# SLIM's bottom-up cannot explain "a x" here: x has an ordering predecessor
# in its one host rule, so it gets no fragment, and no plan has an open x
NO_FRAGMENT_FOR_X = """
terminals: a x
nonterminals: G R A
goals: G
rule: G -> R | | 1.0
rule: R -> A x | (1,2) | 1.0
rule: A -> a | | 1.0
"""


def slim_step_unexplained(_):
    lib = parse_library(NO_FRAGMENT_FOR_X)
    engine = SlimEngine(lib)
    hyps = engine.step((EMPTY_HYPOTHESIS,), lib.sym("a"), 1)
    return engine.step(hyps, lib.sym("x"), 2)


def compile_all(lib):
    # compile_top_down calls advance once per level: a nested pause
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None))
    locals_, _ = drive_engine(engine, ["a", "c", "b"])
    return engine.compile_top_down(locals_)


def compile_failing_in_advance(lib, monkeypatch):
    # an error raised inside the nested call passes through both pauses
    def failing(*args):
        raise RecognitionFailure(1, "a")

    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None))
    locals_, _ = drive_engine(engine, ["a"])
    monkeypatch.setattr(PhattEngine, "grafted", failing)
    return engine.compile_top_down(locals_)


CALLS = {
    "phatt-step": (phatt_step, None),
    "phatt-advance": (phatt_advance, None),
    "slim-step": (slim_step, None),
    "compile-then-advance": (compile_all, None),
    # "b" has an ordering predecessor in X -> A B C, so no goal tree starts
    # with it
    "phatt-step-unexplained": (lambda lib: phatt_step(lib, "b"), RecognitionFailure),
    "phatt-step-not-a-terminal": (lambda lib: phatt_step(lib, "X"), ObservationError),
    "slim-step-unexplained": (slim_step_unexplained, RecognitionFailure),
    "slim-step-not-a-terminal": (lambda lib: slim_step(lib, "X"), ObservationError),
    "compile-fails-in-advance": (compile_failing_in_advance, RecognitionFailure),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", list(CALLS))
def test_engine_calls_restore_the_collector_state(collector, monkeypatch, case, enabled):
    call, error = CALLS[case]
    lib = parse_library(RUNNING_EXAMPLE)
    inside = []  # the collector's state at each append built in a call
    with_plan = Hypothesis.with_plan

    def appended(self, *args):
        inside.append(gc.isenabled())
        return with_plan(self, *args)

    monkeypatch.setattr(Hypothesis, "with_plan", appended)
    args = (lib, monkeypatch) if case == "compile-fails-in-advance" else (lib,)
    (gc.enable if enabled else gc.disable)()
    if error is None:
        call(*args)
        assert inside and not any(inside)  # paused inside every call
    else:
        with pytest.raises(error):
            call(*args)
    assert gc.isenabled() is enabled
