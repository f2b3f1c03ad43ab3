"""The package's internal imports form a DAG and all sit at module level."""

import ast
import graphlib
from pathlib import Path

# Read from the source tree, not imported: a cycle may make the import fail.
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "enchilada"


def _relative_imports():
    """(importer, imported, inside a function) for every relative import."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(tree, False)]
        while stack:
            node, in_function = stack.pop()
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    targets = [node.module]
                else:  # `from . import name`: a submodule, else the package
                    targets = [
                        n.name if (PACKAGE / f"{n.name}.py").is_file() else "__init__"
                        for n in node.names
                    ]
                out.extend((path.stem, t, in_function) for t in targets)
            inner = in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    return out


def test_relative_imports_are_acyclic():
    graph = {}
    for importer, imported, _ in _relative_imports():
        graph.setdefault(importer, set()).add(imported)
    assert {"checks", "exactness", "quirks", "cli"} <= set(graph)
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_no_function_local_relative_imports():
    local = [(a, b) for a, b, in_function in _relative_imports() if in_function]
    assert local == []


def _bound_names(tree):
    """Names bound at module level by a definition, assignment or import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_all_names_are_defined():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exported = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ]
        bound = _bound_names(tree)
        stale.extend((path.stem, name) for names in exported for name in names if name not in bound)
    assert stale == []


def test_small_float_literals_are_named():
    # A threshold written inline cannot be reported or pinned; it must be the
    # value of a module-level constant such as VANISH_TOL.
    inline = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        named = {
            id(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and all(isinstance(t, ast.Name) for t in node.targets)
            and isinstance(node.value, ast.Constant)
        }
        inline.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) is float
            and 0.0 < node.value < 1e-3
            and id(node) not in named
        )
    assert inline == []
