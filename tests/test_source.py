"""Checks on the package source itself, read with ``ast``."""

import ast
from pathlib import Path

import musicking_lab

PACKAGE = Path(musicking_lab.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree: ast.Module):
    """Each private module-level function, class and assigned name, and
    each private method, as (name, the node that defines it)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield method.name, method


def _references(tree: ast.Module):
    """Each name the module reads, as (name, the node that reads it): a
    name, an attribute, or a name imported from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def test_every_private_name_is_used():
    # A reference inside the definition itself (a recursive call, a method
    # naming its own class) does not count.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    references = [(name, id(node)) for tree in trees.values()
                  for name, node in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            inside = {id(child) for child in ast.walk(node)}
            if _private(name) and not any(ref == name and where not in inside
                                          for ref, where in references):
                unused.append(f"{module}:{node.lineno}: {name}")
    assert unused == []


# numpy's quantile family and a plain ``np.unique`` import ``numpy.ma`` on
# first use; ``_series`` computes the same bits without it.  ``np.isin`` calls
# ``np.unique`` on an empty array; ``model._isin`` compares label by label.
_ORDER_STATISTICS = {"percentile": "percentile", "quantile": "percentile",
                     "nanpercentile": "percentile", "median": "median",
                     "nanmedian": "median"}


def test_order_statistics_come_from_series():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
                continue
            name = node.func.attr
            counts = any(keyword.arg == "return_counts" and isinstance(keyword.value, ast.Constant)
                         and keyword.value.value is True for keyword in node.keywords)
            if name in _ORDER_STATISTICS:
                found.append(f"{path.name}:{node.lineno}: np.{name}; "
                             f"use _series.{_ORDER_STATISTICS[name]}")
            elif name == "unique" and not counts:
                found.append(f"{path.name}:{node.lineno}: np.unique without "
                             "return_counts=True; use _series.runs on the sorted values")
            elif name == "isin":
                found.append(f"{path.name}:{node.lineno}: np.isin; use model._isin")
    assert found == []
