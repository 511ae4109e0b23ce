"""Checks on the package source itself, read with ``ast``."""

import ast
from pathlib import Path

import musicking_lab
from musicking_lab import errors

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


def _cli_calls_outside(*functions: str):
    """Each call in ``cli.py`` outside the named module-level functions."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(), "cli.py")
    inside = {id(node) for function in tree.body
              if isinstance(function, ast.FunctionDef) and function.name in functions
              for node in ast.walk(function)}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside]


def test_only_main_reports_errors():
    # Commands raise; ``cli.main`` turns each refusal into its one ERROR line.
    found = [f"cli.py:{node.lineno}: log.error outside main"
             for node in _cli_calls_outside("main") if isinstance(node.func, ast.Attribute)
             and node.func.attr == "error" and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "log"]
    assert found == []


def test_only_the_writer_writes_files():
    # Each command computes its files and hands them to ``cli._write`` last,
    # so a refused run creates nothing under --out.  The writer names the
    # encoding of each text file, so its bytes do not depend on the locale.
    found = []
    outside = _cli_calls_outside("_write", "write_json", "write_csv")
    for node in outside:
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("write_json", "write_csv") or (
                isinstance(node.func, ast.Attribute) and name in ("write_text", "open", "mkdir")):
            found.append(f"cli.py:{node.lineno}: {name} outside the writer")
    outside = {id(node) for node in outside}
    for node in _cli_calls_outside():
        name = getattr(node.func, "attr", None)
        mode = node.args[0].value if name == "open" and node.args else "r"
        if (id(node) not in outside and name in ("write_text", "open") and "b" not in mode
                and not any(keyword.arg == "encoding" for keyword in node.keywords)):
            found.append(f"cli.py:{node.lineno}: {name} without encoding= in the writer")
    assert found == []


# One overflow policy: ``_series.refusing`` turns numpy's floating-point
# errors into refusals.  ``_pearson_rows`` keeps its NaN for zero variance as
# the intended result, and ``_check_spread`` bounds sums of squares that no
# single numpy operation overflows.
_ERRSTATE_ALLOWED = {("_series.py", "refusing"), ("analytics.py", "_pearson_rows"),
                     ("cluster.py", "_check_spread")}


def test_errstate_only_in_the_overflow_policy():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text(), str(path)).body:
            where = (path.name, getattr(statement, "name", None))
            found += [f"{path.name}:{node.lineno}: np.errstate; use _series.refusing"
                      for node in ast.walk(statement) if isinstance(node, ast.Attribute)
                      and node.attr == "errstate" and where not in _ERRSTATE_ALLOWED]
    assert found == []


def test_only_finite_refuses_an_infinite_value():
    # ``_series.finite`` is the one policy for an infinite input, so every
    # statistic refuses one in the same words.
    found = [f"{path.name}:{lineno}: an infinite-value refusal; use _series.finite"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "_series.py"
             for lineno, line in enumerate(path.read_text().splitlines(), start=1)
             if "of an infinite value" in line]
    assert found == []


def test_cli_catches_insufficient_data_as_one_family():
    # ``analyze`` and ``compare`` turn every ``errors.InsufficientData`` into
    # a section's marker; naming a subclass in ``cli.py`` would bring back a
    # per-site list with gaps.
    family = {name for name, value in vars(errors).items() if isinstance(value, type)
              and issubclass(value, errors.InsufficientData)
              and value is not errors.InsufficientData}
    tree = ast.parse((PACKAGE / "cli.py").read_text(), "cli.py")
    found = [f"cli.py:{node.lineno}: {name}; catch InsufficientData"
             for name, node in _references(tree) if name in family]
    assert found == []


def test_only_or_insufficient_builds_a_marker():
    # Every insufficient-data marker in ``cli.py`` comes from
    # ``_or_insufficient``, so its reason is the message of the error.
    tree = ast.parse((PACKAGE / "cli.py").read_text(), "cli.py")
    inside = {id(node) for function in tree.body if isinstance(function, ast.FunctionDef)
              and function.name == "_or_insufficient" for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id == "INSUFFICIENT":
            found.append(f"cli.py:{node.lineno}: INSUFFICIENT; use _or_insufficient")
        elif isinstance(node, ast.Dict) and any(isinstance(key, ast.Constant)
                                                and key.value == "status" for key in node.keys):
            found.append(f"cli.py:{node.lineno}: a status dict; use _or_insufficient")
    assert found == []


def test_no_warning_filters():
    # A numpy overflow is refused through ``_series.refusing``; a warning
    # filter would hide it instead.
    found = [f"{path.name}:{node.lineno}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for name, node in _references(ast.parse(path.read_text(), str(path)))
             if name in ("catch_warnings", "simplefilter")]
    assert found == []


# ``model`` alone decides each session convention: which records are the
# performance (``_in_performance``), each column's on-disk key (``_COLUMNS``)
# and how a null leaves the package (``_as_list``).
_CHORUS_RULE = {"CHORUS_IDS", "NONPERFORMANCE_CHORUS_IDS", "_isin"}


def test_only_model_reads_the_chorus_ids():
    found = [f"{path.name}:{node.lineno}: {name}; use model._in_performance"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "model.py"
             for name, node in _references(ast.parse(path.read_text(), str(path)))
             if name in _CHORUS_RULE]
    assert found == []


def test_only_model_spells_an_on_disk_key():
    # An f-string's literal parts are string constants too.
    found = [f"{path.name}:{node.lineno}: {node.value!r}; use model._COLUMNS"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "model.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "hardware_" in node.value]
    assert found == []


def test_only_as_list_nulls_a_nan():
    # ``v != v`` is the NaN test of a Python value; ``model._as_list`` is the
    # one place that turns NaN into None.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text(), str(path)).body:
            if (path.name, getattr(statement, "name", None)) == ("model.py", "_as_list"):
                continue
            found += [f"{path.name}:{node.lineno}: {node.left.id} != {node.left.id}; "
                      "use model._as_list"
                      for node in ast.walk(statement) if isinstance(node, ast.Compare)
                      and isinstance(node.left, ast.Name)
                      and any(isinstance(op, ast.NotEq) and isinstance(right, ast.Name)
                              and right.id == node.left.id
                              for op, right in zip(node.ops, node.comparators))]
    assert found == []
