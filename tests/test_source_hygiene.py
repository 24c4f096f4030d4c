"""Every name a package module imports is used, and every private top-level name is referenced.

Read from the source with `ast` alone, for each module of the package but
`__init__.py`, whose imports are the public names it re-exports:
- an imported name that no expression of its module reads is dead weight;
- a private (one leading underscore) module-level function, class or
  constant that no module of the package refers to is dead code, which the
  tests alone keep alive.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bitflip_bnn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(tree: ast.AST) -> set[str]:
    """Names an expression reads, bare (`x`) or as an attribute (`m.x`); assignments read none."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _imported_names(tree: ast.Module) -> list[str]:
    """The names an import statement binds, anywhere in the module."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return bound


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants named with one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


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
            referenced |= {
                a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names
            }
    dead = sorted(set(_private_definitions(_tree(path))) - referenced)
    assert not dead, f"{path.name} defines private names the package never uses: {dead}"
