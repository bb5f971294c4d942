"""The package carries only the code the program runs.

Every public top-level function and class in ``src/planrec`` must be
referenced somewhere other than its own definition and ``__init__.py``:
elsewhere in ``src/planrec``, in ``scripts/`` or in ``perfbench/``. Code that
only tests use belongs in ``tests/`` (the brute-force checkers live in
``tests/oracles.py``). A reference is a name, an attribute, or a string equal
to the name (``perfbench/tracing.py`` wraps functions by name).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planrec"

# public API that no program code calls, each kept for a stated reason
ALLOWED = {
    # reads back the plan serialization of `--emit-hypotheses` dumps, so a
    # dumped state can be resumed
    "parse_hypothesis",
    # lints a hand-written library (goals without rules, unreachable
    # symbols, unused terminals) into a ValidationReport of its report-only
    # findings
    "validate_library",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions():
    """``{name: module file}`` of every public top-level function and class."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, _DEFINITIONS) and not stmt.name.startswith("_"):
                out[stmt.name] = path.name
    return out


def referenced_names():
    """Names referenced by the program, each definition's own body aside."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in _parse(path).body:
            owner = stmt.name if isinstance(stmt, _DEFINITIONS) else None
            used.update(name for name in _names(stmt) if name != owner)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used.update(_names(_parse(path)))
    return used


def test_every_public_definition_is_used_by_the_program():
    used = referenced_names()
    unused = sorted(f"{module}:{name}" for name, module in public_definitions().items()
                    if name not in used and name not in ALLOWED)
    assert unused == [], "only tests use these; move them to tests/ or delete them"


def test_allow_list_is_tight():
    defined = public_definitions()
    assert ALLOWED <= defined.keys()
    assert ALLOWED.isdisjoint(referenced_names())
