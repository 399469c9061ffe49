"""The import graph of qdp4's modules, read from every import statement of
each module, those inside functions too: every module imports only the
modules below it.  The pencil layer is imported by the package, the CLI,
the self-test and the samplers only; `linalg` imports no qdp4 module, and
`fields` imports only `linalg`."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qdp4"

# module: the qdp4 modules its imports may name
ALLOWED = {
    "linalg": set(),
    "_accel": set(),
    "fields": {"linalg"},
    "hyperoct": {"fields"},
    "wpline": {"fields"},
    "groupoids": {"fields"},
    "picard": {"hyperoct"},
    "kgroups": {"fields", "hyperoct", "linalg", "picard"},
    "pencil": {"_accel", "fields", "hyperoct", "linalg", "wpline"},
    "sampling": {"fields", "groupoids", "linalg", "pencil", "wpline"},
    "selftest": {"fields", "groupoids", "hyperoct", "kgroups", "linalg", "pencil", "picard",
                 "sampling", "wpline"},
    "cli": {"fields", "groupoids", "hyperoct", "kgroups", "pencil", "selftest", "wpline"},
    "__init__": {"fields", "hyperoct", "kgroups", "pencil", "picard", "wpline"},
}


def imports(module: str) -> set:
    """The qdp4 modules named by the module's import statements, wherever
    they stand."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qdp4"):
            out.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            out |= {a.name.partition(".")[2] or "__init__" for a in node.names
                    if a.name.split(".")[0] == "qdp4"}
    return out


def test_every_module_has_a_place_in_the_graph():
    assert set(ALLOWED) == {path.stem for path in PACKAGE.glob("*.py")}


def test_each_module_imports_only_the_modules_below_it():
    for module, allowed in ALLOWED.items():
        assert imports(module) <= allowed, module


def test_the_pencil_layer_is_imported_from_the_top_only():
    importers = {m for m in ALLOWED if "pencil" in imports(m)}
    assert importers == {"__init__", "cli", "selftest", "sampling"}
    assert imports("linalg") == set()
    assert imports("fields") == {"linalg"}
