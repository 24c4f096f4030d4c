"""Every name a package module imports is used, and every name it defines is read.

Read from the source with `ast` alone, for each module of the package but
`__init__.py`, whose imports are the public names it re-exports:
- an imported name that no expression of its module reads is dead weight;
- a private (one leading underscore) module-level function, class or
  constant that no module of the package refers to is dead code, which the
  tests alone keep alive;
- a public module-level name, or a public method, property or field of a
  public class, must be read somewhere in the package outside its own
  definition, or by the acceptance tests (tests/test_acceptance.py), or by
  the benchmark (perfbench/), or be listed in KEPT_PUBLIC with its reason.
  The re-exports of `__init__.py` do not count as reads. A benchmark string
  that parses as Python counts as code: the names its tracer patches by
  string and the set-up snippets it runs.

- a defaulted parameter of a `def` anywhere in the package must be set by
  some call in the package, the acceptance tests or the benchmark, by
  position or by keyword, to anything but a literal equal to its default,
  or be listed in KEPT_DEFAULTS with its reason: a mode that only the tests
  select is a second code path that the program never runs.

Reads are matched by name alone, not by what they resolve to. A member whose
name is also that of a numpy, str, struct or module attribute, such as
`copy`, `split`, `tail_mask` or `unpack`, is read wherever that one is, so
it passes this check unchecked. Calls are matched the same way: by the name
called (a class's name for its `__init__`), not by what it resolves to.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bitflip_bnn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
PERFBENCH = ROOT / "perfbench"

# Public names that nothing but the tests reads, kept on purpose; "module.name": reason.
KEPT_PUBLIC = {
    "mnist_io.load_idx_images": (
        "the byte-per-pixel reference that tests/test_format_properties.py holds the packed "
        "loader to, error text included; both read the header through _image_header"
    ),
}

# Defaulted parameters that no call sets, kept on purpose; "module.def.parameter": reason.
KEPT_DEFAULTS = {
    "cli.main.argv": (
        "None reads sys.argv, as the console script runs it; perfbench passes argv through "
        "tracer.call(spans.ROOT, cli.main, argv), which is no call by name"
    ),
    "cli._NonNegative.__call__.option_string": "argparse.Action.__call__'s signature",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _read_counts(tree: ast.AST) -> Counter:
    """How often an expression reads each name, bare (`x`) or as an attribute (`m.x`).

    Assignments read none.
    """
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
    return names


def _read_names(tree: ast.AST) -> set[str]:
    return set(_read_counts(tree))


def _from_imports(tree: ast.AST) -> set[str]:
    """The names that `from m import ...` statements take, anywhere in the module."""
    return {
        a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names
    }


def _imported_names(tree: ast.Module) -> list[str]:
    """The names an import statement binds, anywhere in the module."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return bound


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a statement of a module or class body defines: a def, a class or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants named with one leading underscore."""
    names = [name for node in tree.body for name in _bound_names(node)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _public_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, defining statement) of each public module-level name and of each
    public method, property and field of a public class, named `Class.member`."""
    found = []
    for node in tree.body:
        found += [(name, node) for name in _bound_names(node) if not name.startswith("_")]
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [
                (f"{node.name}.{name}", member)
                for member in node.body
                for name in _bound_names(member)
                if not name.startswith("_")
            ]
    return found


def _outside_trees() -> list[ast.Module]:
    """The acceptance tests, the benchmark, and each benchmark string that parses as Python."""
    trees = []
    for path in [ACCEPTANCE, *sorted(PERFBENCH.glob("*.py"))]:
        tree = _tree(path)
        trees.append(tree)
        if path.parent == PERFBENCH:
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    try:
                        trees.append(ast.parse(node.value))
                    except SyntaxError:  # prose, not code
                        pass
    return trees


def _outside_reads() -> set[str]:
    """Names the acceptance tests import or read, and names the benchmark reads."""
    names = set()
    for tree in _outside_trees():
        names |= _read_names(tree) | _from_imports(tree)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    unused = sorted(set(_imported_names(tree)) - _read_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_top_level_name_is_referenced(path):
    referenced = set()
    for module in PACKAGE.glob("*.py"):
        tree = _tree(module)
        referenced |= _read_names(tree)
        # `from .m import _name` in another module refers to _name too
        if module != path:
            referenced |= _from_imports(tree)
    dead = sorted(set(_private_definitions(_tree(path))) - referenced)
    assert not dead, f"{path.name} defines private names the package never uses: {dead}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_is_used(path):
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ is not in this checkout")
    package_reads = sum((_read_counts(_tree(module)) for module in MODULES), Counter())
    outside = _outside_reads()
    unused = set()
    for qualified, node in _public_definitions(_tree(path)):
        name = qualified.rsplit(".", 1)[-1]
        # reads within the definition itself, a recursive call say, do not count
        if package_reads[name] > _read_counts(node)[name] or name in outside:
            continue
        unused.add(f"{path.stem}.{qualified}")
    kept = {key for key in KEPT_PUBLIC if key.split(".")[0] == path.stem}
    assert unused <= kept, f"public names that only the tests use: {sorted(unused - kept)}"
    assert kept <= unused, f"KEPT_PUBLIC lists names now read, or gone: {sorted(kept - unused)}"


def _defaulted_parameters(path: Path):
    """(qualified name, called name, positional offset, {parameter: (index, default)})
    of each def of a module that has defaulted parameters.

    A method's first parameter is bound, so its call's positional arguments
    start at offset 1; `__init__` is called by its class's name.
    """
    tree = _tree(path)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaults = {
            a.arg: (first + k, d) for k, (a, d) in enumerate(zip(positional[first:], args.defaults))
        }
        defaults |= {
            a.arg: (None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        }
        if not defaults:
            continue
        scope, owner = [node.name], parents[node]
        while not isinstance(owner, ast.Module):
            if isinstance(owner, (ast.ClassDef, ast.FunctionDef)):
                scope.insert(0, owner.name)
            owner = parents[owner]
        enclosing = parents[node]
        method = isinstance(enclosing, ast.ClassDef) and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        called = enclosing.name if method and node.name == "__init__" else node.name
        found.append((f"{path.stem}.{'.'.join(scope)}", called, int(method), defaults))
    return found


def _sets(value: ast.expr, default: ast.expr) -> bool:
    """Whether passing `value` may set a parameter whose default is `default`:
    anything but a literal equal to a literal default does."""
    try:
        given, fallback = ast.literal_eval(value), ast.literal_eval(default)
    except ValueError:
        return True
    return type(given) is not type(fallback) or given != fallback


def _set_parameters(call: ast.Call, offset: int, defaults: dict) -> set[str]:
    """The defaulted parameters a call may set, by position or by keyword.

    A `*args` or `**kwargs` argument may set every parameter it can reach."""
    reached = set()
    for name, (index, default) in defaults.items():
        if index is not None:
            for k, arg in enumerate(call.args[: index - offset + 1]):
                if isinstance(arg, ast.Starred) or (k == index - offset and _sets(arg, default)):
                    reached.add(name)
        for kw in call.keywords:
            if kw.arg is None or (kw.arg == name and _sets(kw.value, default)):
                reached.add(name)
    return reached


def _called_name(call: ast.Call) -> str | None:
    """The name a call is made by: `f` for `f(...)` and for `m.f(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_defaulted_parameter_is_set():
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ is not in this checkout")
    calls = [
        node
        for tree in [*(_tree(p) for p in PACKAGE.glob("*.py")), *_outside_trees()]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    unset = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, called, offset, defaults in _defaulted_parameters(path):
            reached = set()
            for call in calls:
                if _called_name(call) == called:
                    reached |= _set_parameters(call, offset, defaults)
            unset |= {f"{qualified}.{name}" for name in defaults.keys() - reached}
    kept = set(KEPT_DEFAULTS)
    assert unset <= kept, f"defaulted parameters that no call sets: {sorted(unset - kept)}"
    assert kept <= unset, f"KEPT_DEFAULTS lists parameters now set, or gone: {sorted(kept - unset)}"
