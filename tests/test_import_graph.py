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
