"""The public API, the README tour, the functions the benchmark's tracer wraps,
and the package's imports."""

import ast
import importlib
import importlib.util
import pathlib
import re
import sys

import cnpkit

PUBLIC = {
    "Ball", "BallEmbedding", "Bergman", "CnpCertificate", "CnpkitError", "DEFAULT_TOL",
    "Dirichlet", "DomainError", "EquivalenceReport", "ExplicitGram", "ExtensionDisk",
    "HermitianMatrix", "Inertia", "InfeasibleExtensionError", "Kernel", "MatrixBall",
    "NotPsdError", "Partition", "PickProblem", "PsdReport", "ReducibleKernelError",
    "SampleSet", "Sobolev", "SolvabilityReport", "Szego",
    "Tolerances", "VectorCompleteReport", "as_hermitian", "certificate_equivalence_suite",
    "certify_cnp", "evaluate_interpolant", "extend_one_point_matrix",
    "extend_one_point_scalar", "f_form", "f_matrix", "find_non_cnp_triple", "gram",
    "gram_factor", "h_matrix", "inertia", "irreducible_partition", "is_psd",
    "kernel_from_json", "norm_pick_equivalence_suite", "pick_matrix", "reconstruct",
    "rep_operator_norm", "solvable", "universal_embedding", "vector_complete_suite",
    "vector_vs_complete_check",
}

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cnpkit"
TRACING = ROOT / "perfbench" / "tracing.py"


def test_public_names_are_pinned_and_resolve():
    assert len(cnpkit.__all__) == len(set(cnpkit.__all__)) == 51
    assert set(cnpkit.__all__) == PUBLIC
    for name in cnpkit.__all__:
        assert getattr(cnpkit, name) is not None


def test_every_traced_function_is_a_module_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, function, *_ in tracing.TARGETS:
        mod = importlib.import_module(f"cnpkit.{module}")
        assert callable(getattr(mod, function, None)), f"cnpkit.{module}.{function}"


def test_readme_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_an_unused_name():
    source = "import os\nfrom a import b, c as d\n__all__ = ['b']\nprint(os)\n"
    assert _unused_imports(source) == ["line 2: d"]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {m.name: _unused_imports(m.read_text("utf-8")) for m in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules a source imports beyond the standard library, numpy
    and the package itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "cnpkit"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] not in allowed]
    return found


def test_foreign_import_check_sees_a_third_party_module():
    source = "import json\nimport scipy.linalg\nfrom . import kernels\nfrom mpmath import mp\n"
    assert _foreign_imports(source) == ["line 2: scipy.linalg", "line 4: mpmath"]


def test_runtime_imports_are_stdlib_numpy_or_the_package():
    # pyproject.toml declares numpy as the only runtime dependency
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = {m.name: _foreign_imports(m.read_text("utf-8")) for m in modules}
    assert {name: found for name, found in foreign.items() if found} == {}
