"""cnpkit: complete Nevanlinna-Pick kernels on finite samples.

Certification of the complete Nevanlinna-Pick property of a reproducing
kernel restricted to a finite sample, the universal embedding of certified
kernels into the unit-ball kernel, and scalar/matrix Pick interpolation by
semidefinite feasibility and norm-preserving one-point extension.
"""

from .certify import (
    CnpCertificate,
    certify_cnp,
    f_form,
    f_matrix,
    find_non_cnp_triple,
    h_matrix,
)
from .embed import BallEmbedding, reconstruct, universal_embedding
from .errors import (
    CnpkitError,
    DomainError,
    InfeasibleExtensionError,
    NotPsdError,
    ReducibleKernelError,
)
from .hermitian import (
    DEFAULT_TOL,
    HermitianMatrix,
    Inertia,
    PsdReport,
    Tolerances,
    as_hermitian,
    gram_factor,
    inertia,
    is_psd,
)
from .interpolate import (
    ExtensionDisk,
    MatrixBall,
    PickProblem,
    SolvabilityReport,
    VectorCompleteReport,
    evaluate_interpolant,
    extend_one_point_matrix,
    extend_one_point_scalar,
    pick_matrix,
    rep_operator_norm,
    solvable,
    vector_vs_complete_check,
)
from .kernels import (
    Ball,
    Bergman,
    Dirichlet,
    ExplicitGram,
    Kernel,
    Partition,
    SampleSet,
    Sobolev,
    Szego,
    gram,
    irreducible_partition,
    kernel_from_json,
)
from .suites import (
    EquivalenceReport,
    certificate_equivalence_suite,
    norm_pick_equivalence_suite,
    vector_complete_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BallEmbedding",
    "Bergman",
    "CnpCertificate",
    "CnpkitError",
    "DEFAULT_TOL",
    "Dirichlet",
    "DomainError",
    "EquivalenceReport",
    "ExplicitGram",
    "ExtensionDisk",
    "HermitianMatrix",
    "Inertia",
    "InfeasibleExtensionError",
    "Kernel",
    "MatrixBall",
    "NotPsdError",
    "Partition",
    "PickProblem",
    "PsdReport",
    "ReducibleKernelError",
    "SampleSet",
    "Sobolev",
    "SolvabilityReport",
    "Szego",
    "Tolerances",
    "VectorCompleteReport",
    "as_hermitian",
    "certify_cnp",
    "certificate_equivalence_suite",
    "evaluate_interpolant",
    "extend_one_point_matrix",
    "extend_one_point_scalar",
    "f_form",
    "f_matrix",
    "find_non_cnp_triple",
    "gram",
    "gram_factor",
    "h_matrix",
    "inertia",
    "irreducible_partition",
    "is_psd",
    "kernel_from_json",
    "norm_pick_equivalence_suite",
    "pick_matrix",
    "reconstruct",
    "rep_operator_norm",
    "solvable",
    "universal_embedding",
    "vector_complete_suite",
    "vector_vs_complete_check",
]
