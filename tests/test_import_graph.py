"""The package's internal imports form a DAG and all sit at module level."""

import ast
import graphlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
    # Each module's literal __all__ names only what the module binds.  The
    # package's __all__ is built from those when it is imported, so its names
    # are looked up at runtime.
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        exported = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ]
        bound = _bound_names(tree)
        stale.extend((path.stem, name) for names in exported for name in names if name not in bound)
    import enchilada

    stale.extend(("__init__", name) for name in enchilada.__all__ if not hasattr(enchilada, name))
    assert stale == []


# The package's public names: every module's __all__, the package adding none.
PUBLIC_NAMES = {
    "AxiomCheck", "CLASSIFY_TOL", "ConcreteCorr", "ConcreteModule", "Condition", "CorrClass",
    "DEFAULT_BOUNDS", "DEFAULT_COUNTS", "ExactnessReport", "FdCStarAlgebra", "GALLERY_NAMES",
    "GRAM_NULL_TOL", "GalleryStep", "GalleryTranscript", "INF", "IdealRef", "InteriorTensor",
    "MAX_ACTION_ENTRIES", "NodeVerdict", "RandomCheckReport", "SequenceSpec", "SuiteResult",
    "VALIDATE_TOL", "VANISH_TOL", "ValidationError", "ValidationReport", "ZERO_ALGEBRA",
    "algebras_isomorphic", "card", "check_sequence", "check_short_exact", "classify",
    "cokernel", "compacts_span_defect", "compose", "direct_sum", "dual", "enumerate_algebras",
    "enumerate_chains", "enumerate_corrs", "epi_finite_rank_test", "exact_at",
    "factor_through_quotient", "finite_rank_tests", "gallery", "ideal_inclusion_corr",
    "identity_corr", "interior_tensor", "interior_tensor_norm", "is_full",
    "is_hilbert_bimodule", "is_invertible", "is_isomorphic", "is_left_full_hilbert_bimodule",
    "is_split_epi", "is_split_mono", "kernel", "left_inverse", "left_kernel", "make_algebra",
    "make_ideal", "mono_finite_rank_test", "phi_injective", "quotient", "quotient_corr",
    "random_algebra", "random_corr", "rank_one", "realize", "restrict_right", "right_inverse",
    "right_support", "run_random_checks", "run_suite", "schubert_coimage", "schubert_image",
    "suite_short_exact_theorem", "tensor_is_zero",
    "validate", "zero_corr",
}


def test_package_exports_each_public_name_once():
    import enchilada

    names = enchilada.__all__
    assert len(names) == len(set(names)) == 80
    assert set(names) == PUBLIC_NAMES
    for name in names:
        getattr(enchilada, name)


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


# Imports the package, then binds each lazy module's names through the
# package and through `import *`, and prints what it found.
LAZY_NAMES_SCRIPT = (
    "import json, sys\n"
    "import enchilada\n"
    "numeric = ('numpy', 'enchilada.concrete', 'enchilada.checks', 'enchilada.quirks')\n"
    "loaded = [m for m in numeric if m in sys.modules]\n"
    "modules = [enchilada.concrete, enchilada.checks, enchilada.quirks]\n"
    "same = all(getattr(enchilada, n) is getattr(m, n) for m in modules for n in m.__all__)\n"
    "star = {}\n"
    "exec('from enchilada import *', star)\n"
    "print(json.dumps([loaded, same, sorted(set(star) - {'__builtins__'})]))\n"
)


def test_numeric_names_load_on_first_use():
    # A fresh process: `import enchilada` loads no numpy module; each name of
    # concrete, checks and quirks resolves to that module's own object, and
    # `import *` binds every public name.
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", LAZY_NAMES_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded, same, star = json.loads(done.stdout)
    assert loaded == []
    assert same
    assert set(star) == PUBLIC_NAMES and len(star) == 80


def test_unknown_names_fail_as_on_any_module_and_dir_lists_public_names():
    import enchilada

    with pytest.raises(AttributeError) as lazy:
        enchilada.no_such_name
    with pytest.raises(AttributeError) as plain:
        types.ModuleType("enchilada").no_such_name
    assert str(lazy.value) == str(plain.value)
    assert str(plain.value) == "module 'enchilada' has no attribute 'no_such_name'"
    assert set(enchilada.__all__) <= set(dir(enchilada))
