"""Dead-code guard: every function and method that qdp4 defines is used.

Occurrences of a name are its definitions in `src/qdp4` plus its references
(a bare name, an attribute, an `__init__` export) in `src/qdp4` and
`perfbench/`.  A function or method passes when its name occurs more often
than `src/qdp4` defines it, so a name defined twice and never referenced
fails.  Dunder methods are exempt.  Tests do not count: an oracle that only
a test calls belongs in that test.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdp4"

# Public API that only the tests reach, kept on purpose.  An entry that
# becomes referenced, or whose definition goes, must leave this table.
TEST_ONLY = {
    "identity": "SignedPerm.identity and Moebius.identity, the tests' reference elements",
    "degenerate_points": "the per-point records of a pencil, checked against "
                         "simultaneous diagonalization",
}


def _counts():
    defined = collections.Counter()
    occurs = collections.Counter()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if path.parent == PACKAGE and not node.name.startswith("__"):
                    defined[node.name] += 1
                    occurs[node.name] += 1
            elif isinstance(node, ast.Name):
                occurs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                occurs[node.attr] += 1
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                occurs.update(alias.name for alias in node.names)
    return defined, occurs


def test_every_function_is_referenced():
    defined, occurs = _counts()
    dead = sorted(name for name, n in defined.items()
                  if occurs[name] <= n and name not in TEST_ONLY)
    assert dead == [], f"defined in src/qdp4 but never referenced: {dead}"


def test_test_only_table_is_current():
    defined, occurs = _counts()
    stale = sorted(name for name in TEST_ONLY
                   if not defined[name] or occurs[name] > defined[name])
    assert stale == [], f"no longer test-only: {stale}"
