"""Every module-level function and class in ``src/mdslab``, and every method
of its classes, is named by other code in ``src/``: no helper is reached
only by its own tests.

The scan reads the syntax trees, not the text. A definition in module M
counts as named when M names it outside its own body, when another module
imports it from M, or when another module reads an attribute of that name
(as in ``res.check_fe`` after ``from . import residue as res``). A method
counts as named when any ``src/`` code outside its own body reads an
attribute of its name (``self.m``, ``obj.m``, ``Class.m``); a plain name,
such as a local variable or the builtin ``pow``, does not count. The
method scan goes by attribute name only, so it cannot see a dead method
whose name another class's attribute uses: a dead ``MultiSeries.mul``
would pass because ``Fq.mul`` is called.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mdslab"

ENTRY = ("cli", "main")  # the console entry point

# The public API that no other src/ code calls, each with the reason it stays.
ALLOWED = {
    ("accel", "backend_name"): "perfbench/child.py records it on every run",
    ("globalweights", "global_coeff_sum"): "BENCHMARK.json names its span",
    ("lfunctions", "check_l_fe"): "the documented L-function API",
    ("lfunctions", "check_rh"): "the documented L-function API",
}


def unnamed_definitions(src: Path) -> set[tuple[str, str]]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    imported = set()  # (module, name) pulled in by a relative import
    attributes = {}  # module -> attribute names read in it
    for mod, tree in trees.items():
        attributes[mod] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes[mod].add(node.attr)
    unnamed = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            named_here = any(
                isinstance(sub, ast.Name) and sub.id == node.name
                for other in tree.body
                if other is not node
                for sub in ast.walk(other)
            )
            named_elsewhere = (mod, node.name) in imported or any(
                node.name in attrs for other, attrs in attributes.items() if other != mod
            )
            if not (named_here or named_elsewhere):
                unnamed.add((mod, node.name))
    return unnamed


def test_every_definition_is_named_by_other_src_code():
    assert unnamed_definitions(SRC) - {ENTRY} == set(ALLOWED)


def test_scan_flags_a_helper_only_its_test_reaches(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def lonely():\n    return lonely()\n\n"
        "class Kept:\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import used\nfrom . import a\n\ndef top():\n    return used(), a.Kept\n"
    )
    # a recursive call inside its own body does not count
    assert unnamed_definitions(tmp_path) == {("a", "lonely"), ("b", "top")}


# The methods that no other src/ code reads, each with the reason it stays.
ALLOWED_METHODS = {
    ("series", "MultiSeries.inverse"): "perfbench/spans.py wraps it by name",
}


def unnamed_methods(src: Path) -> set[tuple[str, str]]:
    """(module, "Class.method") for each non-dunder method whose name no
    ``src/`` code reads as an attribute outside the method's own body."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = [
        (id(node), node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    ]
    unnamed = set()
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                own = {id(sub) for sub in ast.walk(node)}
                if not any(name == node.name and at not in own for at, name in uses):
                    unnamed.add((mod, f"{cls.name}.{node.name}"))
    return unnamed


def test_every_method_is_named_by_other_src_code():
    assert unnamed_methods(SRC) == set(ALLOWED_METHODS)


def test_method_scan_flags_a_method_only_its_test_reaches(tmp_path):
    (tmp_path / "a.py").write_text(
        "class K:\n"
        "    def __init__(self):\n        self.used()\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def lonely(self):\n        return self.lonely()\n\n"
        "    @staticmethod\n    def made():\n        return K()\n"
    )
    (tmp_path / "b.py").write_text("from .a import K\n\ndef top():\n    return K.made()\n")
    # a recursive call inside its own body does not count, a dunder is skipped
    assert unnamed_methods(tmp_path) == {("a", "K.lonely")}


def test_method_scan_ignores_a_local_of_the_same_name(tmp_path):
    # a local variable and an argument named like the method, as the
    # inverse dict of series.factorize_product_form once named
    # MultiSeries.inverse, are not uses of it
    (tmp_path / "a.py").write_text(
        "class K:\n"
        "    def inverse(self):\n        return 1\n\n"
        "def f(inverse):\n    return inverse\n\n"
        "def g():\n    inverse = {}\n    return inverse\n"
    )
    assert unnamed_methods(tmp_path) == {("a", "K.inverse")}


def relative_imports(src: Path) -> dict[str, set[str]]:
    """For each module, the modules of ``src`` it imports, also inside a
    function body."""
    modules = {path.stem for path in src.glob("*.py")}
    graph = {}
    for path in sorted(src.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module)
                else:  # from . import residue as res
                    deps.update(alias.name for alias in node.names if alias.name in modules)
        graph[path.stem] = deps
    return graph


def test_relative_imports_form_no_cycle():
    graph = relative_imports(SRC)
    # the partition counts need the series engine, not the residue product
    assert graph["partitions"] == {"series"}
    tuple(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_import_scan_sees_a_cycle_through_a_function_body(tmp_path):
    (tmp_path / "a.py").write_text("from .b import g\n")
    (tmp_path / "b.py").write_text("def g():\n    from . import a\n    return a\n")
    graph = relative_imports(tmp_path)
    assert graph == {"a": {"b"}, "b": {"a"}}
    with pytest.raises(CycleError):
        tuple(TopologicalSorter(graph).static_order())
