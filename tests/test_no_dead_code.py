"""Dead-code guard: every function and method that qdp4 defines is used.

A function's references are resolved to the module that defines it, so a
name that happens to match something elsewhere does not keep it alive:

- a bare name in the defining module itself;
- a bare name in another module bound by `from .m import f` (or
  `from qdp4.m import f`, or through the package's `from qdp4 import f`);
- an attribute `m.f` (or `qdp4.m.f`, `qdp4.f`) whose object is named after
  the module;
- an export in `__init__`, the public API.

Methods cannot be resolved without types, so a method counts as used when
any attribute access in `src/qdp4` or `perfbench/` bears its name (bare
names do not count).  Dunder methods are exempt.  Tests do not count: an
oracle that only a test calls belongs in that test.

The same holds for a parameter's default: some call in `src/qdp4` or
`perfbench/` must pass the parameter, by position or keyword, a value other
than the default's literal, or the parameter is a constant in disguise.
Calls resolve by name (`f(...)`, `x.f(...)`, and `C(...)` for `C.__init__`),
so a same-named call counts as passing, except one qualified by another
class's name: `Moebius.identity(field)` passes nothing to `SignedPerm.identity`.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdp4"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# Public API that only the tests reach, kept on purpose.  An entry that
# becomes referenced, or whose definition goes, must leave this table.
TEST_ONLY = {
    "identity": "SignedPerm.identity and Moebius.identity, the tests' reference elements",
    "elements": "FiniteField.elements, the element list the tests enumerate",
}


# Defaults that no call passes, kept on purpose as public API.  An entry
# whose parameter becomes passed, or goes, must leave this table.
DEFAULTS_KEPT = {}


def _sources():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, True, ast.parse(path.read_text(), str(path))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        yield "perfbench." + path.stem, False, ast.parse(path.read_text(), str(path))


def _imported_module(node, in_package):
    """The qdp4 module an ImportFrom reads from, or None."""
    if in_package and node.level == 1:
        return node.module or "__init__"
    if node.level == 0 and node.module and node.module.split(".")[0] == "qdp4":
        parts = node.module.split(".")
        return parts[1] if len(parts) > 1 else "__init__"
    return None


def _definitions(tree, module):
    """{key: count} with key (module, name) for functions, ("method", name)
    for methods; dunders are skipped."""
    out = collections.Counter()

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("__"):
                    out[("method", child.name) if in_class else (module, child.name)] += 1
                visit(child, False)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def _counts():
    trees = list(_sources())
    defined = collections.Counter()
    for module, in_package, tree in trees:
        if in_package:
            defined.update(_definitions(tree, module))
    exports = {}  # name bound in __init__ -> (module, name)
    for module, _, tree in trees:
        if module == "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and _imported_module(node, True):
                    for alias in node.names:
                        exports[alias.asname or alias.name] = (node.module, alias.name)

    def resolve(module, name):
        return exports.get(name, (module, name)) if module == "__init__" else (module, name)

    refs = collections.Counter()
    for module, in_package, tree in trees:
        bindings = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                src = _imported_module(node, in_package)
                if src is None:
                    continue
                for alias in node.names:
                    if alias.name not in MODULES:
                        bindings[alias.asname or alias.name] = resolve(src, alias.name)
                if module == "__init__":
                    refs.update(resolve(src, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id in bindings:
                    refs[bindings[node.id]] += 1
                elif in_package:
                    refs[(module, node.id)] += 1
            elif isinstance(node, ast.Attribute):
                value = node.value
                owner = (value.id if isinstance(value, ast.Name) else
                         value.attr if isinstance(value, ast.Attribute) else None)
                if owner == "qdp4":
                    refs[resolve("__init__", node.attr)] += 1
                elif owner in MODULES:
                    refs[(owner, node.attr)] += 1
                else:
                    refs[("method", node.attr)] += 1
    return defined, refs


def _unreferenced():
    defined, refs = _counts()
    return {key for key in defined if refs[key] == 0}


def test_every_function_is_referenced():
    dead = sorted(".".join(key) for key in _unreferenced() if key[1] not in TEST_ONLY)
    assert dead == [], f"defined in src/qdp4 but never referenced: {dead}"


def test_test_only_table_is_current():
    unreferenced = {name for _, name in _unreferenced()}
    stale = sorted(name for name in TEST_ONLY if name not in unreferenced)
    assert stale == [], f"no longer test-only: {stale}"


def _defaults_and_calls(tree):
    """The defaulted parameters a tree defines, as (class or None, function,
    parameter, position, default node) with the position counted without
    self or cls (None for keyword-only parameters), and its calls, as (call
    node, enclosing function's key or None, its defaults by parameter)."""
    params, calls = [], []

    def visit(node, cls, enclosing, defaults):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, enclosing, defaults)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                decorators = {d.id for d in child.decorator_list if isinstance(d, ast.Name)}
                bound = cls is not None and "staticmethod" not in decorators
                positional = args.posonlyargs + args.args
                own = {}
                first = len(positional) - len(args.defaults)
                for i, default in enumerate(args.defaults, first):
                    own[positional[i].arg] = (i - bound, default)
                for param, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        own[param.arg] = (None, default)
                params.extend((cls, child.name, p, pos, d) for p, (pos, d) in own.items())
                visit(child, None, (cls, child.name), {p: d for p, (_, d) in own.items()})
            else:
                if isinstance(child, ast.Call):
                    calls.append((child, enclosing, defaults))
                visit(child, cls, enclosing, defaults)

    visit(tree, None, None, {})
    return params, calls


def _same_literal(a, b):
    return isinstance(a, ast.Constant) and isinstance(b, ast.Constant) and a.value == b.value


def _supplied(call, param, position):
    """The argument node a call gives param, True when a * or ** argument may
    give it, or None."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return True
    if position is not None and position < len(call.args):
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == param), None)


def test_every_default_is_passed():
    """A call passes a default when it gives the parameter a value other than
    the default's literal; handing on the caller's own parameter with the same
    default counts only once the caller's parameter is passed."""
    params, calls, classes = [], [], set()
    for _, in_package, tree in _sources():
        p, c = _defaults_and_calls(tree)
        calls += c
        if in_package:
            params += p
            classes.update(n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef))

    def callers(cls, name):
        """Calls by the name a definition is called under: a call qualified
        by another class's name (Moebius.identity) calls that class."""
        called = cls if name == "__init__" else name
        for call, enclosing, defaults in calls:
            func = call.func
            owner = func.value.id if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) else None
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) \
                    == called and (owner not in classes or owner == cls):
                yield call, enclosing, defaults

    passed = set()
    while True:
        grown = set()
        for cls, name, param, position, default in params:
            if (cls, name, param) in passed:
                continue
            for call, enclosing, defaults in callers(cls, name):
                value = _supplied(call, param, position)
                if value is None or _same_literal(value, default):
                    continue
                if isinstance(value, ast.Name) and _same_literal(defaults.get(value.id), default):
                    if enclosing + (value.id,) not in passed:
                        continue
                grown.add((cls, name, param))
                break
        if not grown:
            break
        passed |= grown
    unpassed = {(name, param) for cls, name, param, _, _ in params
                if (cls, name, param) not in passed}
    stale = sorted(key for key in DEFAULTS_KEPT if key not in unpassed)
    assert stale == [], f"no longer unpassed defaults: {stale}"
    never = sorted(f"{name}({param}=...)" for name, param in unpassed - set(DEFAULTS_KEPT))
    assert never == [], f"defaults that no call in src/qdp4 or perfbench passes: {never}"
