"""Finite matroids from coverings of a ground set.

Covering matroids (unions of k-rank matroids), transversal / partition /
partition-circuit matroids, duality, classification predicates, and the
second type of covering-based rough approximation operators in both direct
and matroidal form — every construction checkable against brute-force
oracles on small universes.
"""

from .core import (
    DEFAULT_ENUM_CAP,
    GroundSet,
    SetFamily,
    SizeLimitError,
    SubsetMask,
    ValidationError,
    format_set,
)
from .matroid import (
    AxiomCertificate,
    Matroid,
    are_isomorphic,
    check_independence_axioms,
)
from .constructions import (
    CapacitatedCovering,
    IndexedFamily,
    PartitionWitness,
    covering_as_transversal,
    covering_matroid,
    covering_matroid_slice,
    is_partial_transversal,
    k_rank_matroid,
    naive_covering_family,
    partition_circuit_matroid,
    partition_dual_params,
    partition_matroid,
    transversal_as_covering,
    transversal_matroid,
    union_matroids,
)
from .rough import (
    ApproximationSpace,
    Finding,
    MatroidalSpace,
    approximation_findings,
    lower_approx,
    matroidal_block,
    matroidal_lower,
    matroidal_membership,
    matroidal_neighborhood,
    matroidal_upper,
    neighborhood,
    upper_approx,
)
from .oracle import (
    bf_dual_family,
    bf_matching,
    bf_rank,
    bf_union_independent,
)
from .classify import (
    ClassificationReport,
    VerificationError,
    classify,
    is_2_circuit,
    is_double_circuit,
    is_partition_circuit,
    recover_partition_from_2circuit,
)

__all__ = [
    "DEFAULT_ENUM_CAP",
    "GroundSet",
    "SetFamily",
    "SizeLimitError",
    "SubsetMask",
    "ValidationError",
    "format_set",
    "AxiomCertificate",
    "Matroid",
    "are_isomorphic",
    "check_independence_axioms",
    "CapacitatedCovering",
    "IndexedFamily",
    "PartitionWitness",
    "covering_as_transversal",
    "covering_matroid",
    "covering_matroid_slice",
    "is_partial_transversal",
    "k_rank_matroid",
    "naive_covering_family",
    "partition_circuit_matroid",
    "partition_dual_params",
    "partition_matroid",
    "transversal_as_covering",
    "transversal_matroid",
    "union_matroids",
    "ApproximationSpace",
    "Finding",
    "MatroidalSpace",
    "approximation_findings",
    "lower_approx",
    "matroidal_block",
    "matroidal_lower",
    "matroidal_membership",
    "matroidal_neighborhood",
    "matroidal_upper",
    "neighborhood",
    "upper_approx",
    "bf_dual_family",
    "bf_matching",
    "bf_rank",
    "bf_union_independent",
    "ClassificationReport",
    "VerificationError",
    "classify",
    "is_2_circuit",
    "is_double_circuit",
    "is_partition_circuit",
    "recover_partition_from_2circuit",
]

__version__ = "0.1.0"
