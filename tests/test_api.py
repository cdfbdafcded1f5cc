"""The public API and the functions the benchmark's tracer wraps."""

import importlib
import importlib.util
import pathlib

import cnpkit

PUBLIC = {
    "Ball", "BallEmbedding", "Bergman", "CnpCertificate", "CnpkitError", "DEFAULT_TOL",
    "Dirichlet", "DomainError", "EquivalenceReport", "ExplicitGram", "ExtensionDisk",
    "HermitianMatrix", "Inertia", "InfeasibleExtensionError", "Kernel", "MatrixBall",
    "NotPsdError", "Partition", "PickProblem", "PsdReport", "ReducibleKernelError",
    "SampleSet", "SingularBlockError", "Sobolev", "SolvabilityReport", "Szego",
    "Tolerances", "VectorCompleteReport", "as_hermitian", "certificate_equivalence_suite",
    "certify_cnp", "evaluate_interpolant", "extend_one_point_matrix",
    "extend_one_point_scalar", "f_form", "f_matrix", "find_non_cnp_triple", "gram",
    "gram_factor", "h_matrix", "inertia", "irreducible_partition", "is_psd",
    "kernel_from_json", "norm_pick_equivalence_suite", "pick_matrix_block",
    "pick_matrix_scalar", "reconstruct", "rep_operator_norm", "solvable",
    "universal_embedding", "vector_complete_suite", "vector_vs_complete_check",
}

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_public_names_are_pinned_and_resolve():
    assert len(cnpkit.__all__) == len(set(cnpkit.__all__)) == 53
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
