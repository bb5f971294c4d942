"""Plan libraries: probabilistic grammars over basic and complex actions.

A library declares terminal symbols (observable basic actions), nonterminal
symbols (complex actions), a nonempty subset of nonterminals acting as goals,
and production rules ``lhs -> rhs`` annotated with ordering constraints over
RHS positions and a rule probability. A constraint pair ``(i, j)`` means the
i-th constituent must be fully executed before the j-th may begin.

Libraries never change once built and are safe to share across
recognizers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

PROB_TOL = 1e-9

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


class LibraryError(ValueError):
    """Invalid plan-library content (structure or probability model)."""


class LibraryParseError(LibraryError):
    """Text-format violation, carrying the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ObservationError(LibraryError):
    """An observation token that is unknown or not a terminal, at 1-based
    ``step``; the runner sets ``source`` to the observation file's name."""

    def __init__(self, step: int, token: str, problem: str):
        super().__init__(f"observation {token!r} at step {step} {problem}")
        self.step = step
        self.token = token
        self.source = ""

    def __str__(self) -> str:
        message = super().__str__()
        return f"{self.source}: {message}" if self.source else message


@dataclass(frozen=True)
class Symbol:
    """A terminal or nonterminal action symbol."""

    idx: int
    name: str
    terminal: bool

    @property
    def kind(self) -> str:
        return "terminal" if self.terminal else "nonterminal"


@dataclass(frozen=True)
class Rule:
    """One production rule with ordering constraints and a probability.

    ``constraints`` holds the pairs exactly as declared (0-based positions);
    ``closure`` is their transitive closure and ``preds`` lists, per RHS
    position, the closed set of positions that must complete first.
    """

    idx: int
    lhs: int
    rhs: tuple[int, ...]
    constraints: frozenset[tuple[int, int]]
    prob: float
    closure: frozenset[tuple[int, int]]
    preds: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"rule#{self.idx}"


def _close_constraints(
    pairs: frozenset[tuple[int, int]], width: int
) -> tuple[frozenset[tuple[int, int]], tuple[tuple[int, ...], ...]] | None:
    """Transitive closure and per-position predecessor lists.

    Returns None when the constraint graph is cyclic.
    """
    reach = [[False] * width for _ in range(width)]
    for i, j in pairs:
        reach[i][j] = True
    for k in range(width):
        rk = reach[k]
        for i in range(width):
            if reach[i][k]:
                ri = reach[i]
                for j in range(width):
                    if rk[j]:
                        ri[j] = True
    if any(reach[i][i] for i in range(width)):
        return None
    closure = frozenset(
        (i, j) for i in range(width) for j in range(width) if reach[i][j]
    )
    preds = tuple(
        tuple(i for i in range(width) if reach[i][j]) for j in range(width)
    )
    return closure, preds


class PlanLibrary:
    """A fully indexed plan library.

    Use :func:`parse_library` or :func:`build_library` instead of calling the
    constructor directly; they perform all validation. A library never
    changes once built: recognizers keep their memos on themselves.
    """

    def __init__(self, symbols: tuple[Symbol, ...], goals: tuple[int, ...], rules: tuple[Rule, ...]):
        self.symbols = symbols
        self.by_name = {s.name: s.idx for s in symbols}
        self.goals = goals
        self.rules = rules
        by_head: dict[int, list[Rule]] = {}
        containing: dict[int, list[tuple[Rule, int]]] = {}
        for rule in rules:
            by_head.setdefault(rule.lhs, []).append(rule)
            for pos, sym in enumerate(rule.rhs):
                containing.setdefault(sym, []).append((rule, pos))
        self.rules_by_head = {h: tuple(rs) for h, rs in by_head.items()}
        self._containing = {s: tuple(occ) for s, occ in containing.items()}
        self.reachable = self._compute_reachable()
        self.max_or_branching = max(
            (len(rs) for rs in self.rules_by_head.values()), default=1
        )
        self.acyclic_depth = self._compute_depth()
        self.ambiguous_rhs = len({(r.lhs, r.rhs) for r in rules}) < len(rules)

    # -- lookups ---------------------------------------------------------

    def sym(self, name: str) -> int:
        try:
            return self.by_name[name]
        except KeyError:
            raise LibraryError(f"unknown symbol {name!r}") from None

    def name(self, idx: int) -> str:
        return self.symbols[idx].name

    def is_terminal(self, idx: int) -> bool:
        return self.symbols[idx].terminal

    def rules_for(self, head: int) -> tuple[Rule, ...]:
        return self.rules_by_head.get(head, ())

    def containing(self, sym: int) -> tuple[tuple[Rule, int], ...]:
        """All (rule, position) pairs whose RHS mentions ``sym`` (0-based positions)."""
        if not 0 <= sym < len(self.symbols):
            raise LibraryError(f"unknown symbol id {sym}")
        return self._containing.get(sym, ())

    @property
    def terminals(self) -> tuple[int, ...]:
        return tuple(s.idx for s in self.symbols if s.terminal)

    @property
    def nonterminals(self) -> tuple[int, ...]:
        return tuple(s.idx for s in self.symbols if not s.terminal)

    # -- derived sets ------------------------------------------------------

    def _compute_reachable(self) -> frozenset[int]:
        seen = set(self.goals)
        work = list(self.goals)
        while work:
            head = work.pop()
            for rule in self.rules_for(head):
                for sym in rule.rhs:
                    if sym not in seen:
                        seen.add(sym)
                        work.append(sym)
        return frozenset(seen)

    def _compute_depth(self) -> int | None:
        """Longest derivation depth over all symbols; None if recursive."""
        ACTIVE, DONE = 0, 1
        state: dict[int, int] = {}
        depth: dict[int, int] = {}

        def visit(sym: int) -> int | None:
            if self.symbols[sym].terminal:
                return 0
            if state.get(sym) == ACTIVE:
                return None
            if state.get(sym) == DONE:
                return depth[sym]
            state[sym] = ACTIVE
            best = 0
            for rule in self.rules_for(sym):
                for child in rule.rhs:
                    d = visit(child)
                    if d is None:
                        return None
                    best = max(best, d + 1)
            state[sym] = DONE
            depth[sym] = best
            return best

        total = 0
        for s in self.symbols:
            d = visit(s.idx)
            if d is None:
                return None
            total = max(total, d)
        return total


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

RuleSpec = tuple[str, "list[str] | tuple[str, ...]", "list[tuple[int, int]]", float]


def build_library(
    terminals: list[str] | tuple[str, ...],
    nonterminals: list[str] | tuple[str, ...],
    goals: list[str] | tuple[str, ...],
    rule_specs: list[RuleSpec],
    rule_lines: list[int] | None = None,
) -> PlanLibrary:
    """Validate and assemble a library from symbol names and rule specs.

    ``rule_specs`` entries are ``(lhs, rhs_names, constraint_pairs, prob)``
    with 1-based constraint positions as written in the text format.
    ``rule_lines`` optionally maps each spec to a source line for diagnostics.
    """

    def fail(message: str, rule_index: int | None = None):
        if rule_lines is not None and rule_index is not None:
            raise LibraryParseError(rule_lines[rule_index], message)
        raise LibraryError(message)

    symbols: list[Symbol] = []
    seen_names: set[str] = set()
    for i, name in enumerate(goals):
        if name not in set(nonterminals):
            fail(f"goal {name!r} is not a declared nonterminal")
        if name in goals[:i]:
            fail(f"duplicate goal {name!r}")
    if not goals:
        fail("empty goal set")
    for name, terminal in [(n, True) for n in terminals] + [(n, False) for n in nonterminals]:
        if not _NAME_RE.match(name):
            fail(f"invalid symbol name {name!r}")
        if name in seen_names:
            fail(f"duplicate symbol name {name!r}")
        seen_names.add(name)
        symbols.append(Symbol(len(symbols), name, terminal))

    by_name = {s.name: s.idx for s in symbols}
    rules: list[Rule] = []
    seen_rules: set[tuple[int, tuple[int, ...], frozenset[tuple[int, int]]]] = set()
    for ri, (lhs_name, rhs_names, pairs, prob) in enumerate(rule_specs):
        if lhs_name not in by_name:
            fail(f"undeclared symbol {lhs_name!r}", ri)
        lhs = by_name[lhs_name]
        if symbols[lhs].terminal:
            fail(f"rule head {lhs_name!r} is not a nonterminal", ri)
        if not rhs_names:
            fail("empty right-hand side", ri)
        rhs = []
        for name in rhs_names:
            if name not in by_name:
                fail(f"undeclared symbol {name!r}", ri)
            rhs.append(by_name[name])
        width = len(rhs)
        zero_based = set()
        for i, j in pairs:
            if not (1 <= i <= width and 1 <= j <= width):
                fail(f"constraint index out of range in ({i},{j})", ri)
            if i == j:
                fail(f"constraint ({i},{j}) relates a position to itself", ri)
            zero_based.add((i - 1, j - 1))
        closed = _close_constraints(frozenset(zero_based), width)
        if closed is None:
            fail("ordering constraints form a cycle", ri)
        closure, preds = closed
        if not 0.0 < prob <= 1.0:
            fail(f"rule probability {prob} outside (0, 1]", ri)
        key = (lhs, tuple(rhs), frozenset(zero_based))
        if key in seen_rules:
            fail(f"duplicate rule for {lhs_name!r}", ri)
        seen_rules.add(key)
        rules.append(Rule(ri, lhs, tuple(rhs), frozenset(zero_based), prob, closure, preds))

    sums: dict[int, float] = {}
    for rule in rules:
        sums[rule.lhs] = sums.get(rule.lhs, 0.0) + rule.prob
    for head, total in sums.items():
        if abs(total - 1.0) > PROB_TOL:
            fail(f"probabilities for {symbols[head].name!r} sum to {total!r}, expected 1")

    goal_ids = tuple(sorted(by_name[g] for g in goals))
    return PlanLibrary(tuple(symbols), goal_ids, tuple(rules))


def parse_library(text: str) -> PlanLibrary:
    """Parse the line-oriented library text format.

    Raises :class:`LibraryParseError` with a line number on any violation.
    """
    terminals: list[str] = []
    nonterminals: list[str] = []
    goals: list[str] = []
    rule_specs: list[RuleSpec] = []
    rule_lines: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise LibraryParseError(lineno, f"expected 'directive: ...', got {line!r}")
        directive, rest = line.split(":", 1)
        directive = directive.strip()
        rest = rest.strip()
        if directive == "terminals":
            terminals.extend(rest.split())
        elif directive == "nonterminals":
            nonterminals.extend(rest.split())
        elif directive == "goals":
            goals.extend(rest.split())
        elif directive == "rule":
            fields = rest.split("|")
            if len(fields) != 3:
                raise LibraryParseError(
                    lineno, "expected 'LHS -> RHS | constraints | probability'"
                )
            head_part, constraint_part, prob_part = fields
            if "->" not in head_part:
                raise LibraryParseError(lineno, "missing '->' in rule")
            lhs_name, rhs_part = head_part.split("->", 1)
            lhs_name = lhs_name.strip()
            rhs_names = rhs_part.split()
            pairs = _parse_constraints(constraint_part, lineno)
            try:
                prob = float(prob_part.strip())
            except ValueError:
                raise LibraryParseError(
                    lineno, f"invalid probability {prob_part.strip()!r}"
                ) from None
            rule_specs.append((lhs_name, rhs_names, pairs, prob))
            rule_lines.append(lineno)
        else:
            raise LibraryParseError(lineno, f"unknown directive {directive!r}")

    if not goals:
        raise LibraryParseError(len(text.splitlines()) or 1, "empty goal set")
    return build_library(terminals, nonterminals, goals, rule_specs, rule_lines)


def _parse_constraints(field: str, lineno: int) -> list[tuple[int, int]]:
    stripped = field.strip()
    if not stripped:
        return []
    pairs = [(int(i), int(j)) for i, j in _PAIR_RE.findall(stripped)]
    # reject garbage the pair pattern did not consume
    leftover = _PAIR_RE.sub("", stripped).replace(",", "").strip()
    if leftover or not pairs:
        raise LibraryParseError(lineno, f"malformed constraint list {stripped!r}")
    return pairs


def serialize_library(lib: PlanLibrary) -> str:
    """Render a library back into the text format (round-trips exactly)."""
    lines = [
        "terminals: " + " ".join(lib.name(s) for s in lib.terminals),
        "nonterminals: " + " ".join(lib.name(s) for s in lib.nonterminals),
        "goals: " + " ".join(lib.name(g) for g in lib.goals),
    ]
    for rule in lib.rules:
        rhs = " ".join(lib.name(s) for s in rule.rhs)
        pairs = ",".join(f"({i + 1},{j + 1})" for i, j in sorted(rule.constraints))
        lines.append(f"rule: {lib.name(rule.lhs)} -> {rhs} | {pairs} | {rule.prob!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report-style validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_library(lib: PlanLibrary) -> ValidationReport:
    """Report-only validation: reachability hygiene. Per-head probability
    sums need no check here, since :func:`build_library`, which builds every
    library, rejects a head whose probabilities do not sum to 1."""
    issues: list[ValidationIssue] = []
    for goal in lib.goals:
        if not lib.rules_for(goal):
            issues.append(
                ValidationIssue(
                    "underivable-goal", f"goal {lib.name(goal)!r} has no rules"
                )
            )
    for s in lib.symbols:
        if s.idx not in lib.reachable:
            issues.append(
                ValidationIssue(
                    "unreachable-symbol",
                    f"{s.kind} {s.name!r} is not reachable from any goal",
                )
            )
        if s.terminal and not lib.containing(s.idx):
            issues.append(
                ValidationIssue(
                    "unused-terminal", f"terminal {s.name!r} occurs in no rule"
                )
            )
    return ValidationReport(tuple(issues))
