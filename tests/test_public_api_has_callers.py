"""Every public top-level name in src/framelat is used somewhere in src/.

A function that only tests call is dead code that its own tests keep alive.
A name without a caller in src/ must be on ALLOWED_WITHOUT_CALLER, with the
reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "framelat"

ALLOWED_WITHOUT_CALLER = {
    "circulant_inverse": "benchmark tracer target; the tests' reference for N^{-1}",
}


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _references(stmt) -> Counter:
    """Names read in stmt, as a bare name or as an attribute (module.name)."""
    refs = Counter()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def public_names_without_caller() -> list[str]:
    statements = [stmt for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    counts = [_references(stmt) for stmt in statements]
    total = sum(counts, Counter())
    return sorted(name
                  for stmt, own in zip(statements, counts)
                  for name in _defined_names(stmt)
                  if not name.startswith("_") and total[name] == own[name])


def test_every_public_name_has_a_caller_in_src():
    assert public_names_without_caller() == sorted(ALLOWED_WITHOUT_CALLER)
