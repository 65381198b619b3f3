"""Finite matroids from coverings of a ground set.

Covering matroids (unions of k-rank matroids), transversal / partition /
partition-circuit matroids, duality, classification predicates, and the
second type of covering-based rough approximation operators in both direct
and matroidal form — every construction checkable against brute-force
oracles on small universes.

The names of ``rough`` and ``oracle`` resolve on first use (PEP 562), so a
caller that needs neither, such as most CLI commands, never loads them.
``classify`` is loaded at once: importing the submodule ``covmatroid.classify``
would otherwise leave the module, not the function, under that name.
"""

import importlib

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
from .classify import (
    ClassificationReport,
    VerificationError,
    classify,
    is_2_circuit,
    is_double_circuit,
    is_partition_circuit,
    recover_partition_from_2circuit,
)

# Each name exported from a module loaded on first use, with that module.
_LAZY = {
    **dict.fromkeys((
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
    ), "rough"),
    **dict.fromkeys((
        "bf_dual_family",
        "bf_matching",
        "bf_rank",
        "bf_union_independent",
    ), "oracle"),
}

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
    "ClassificationReport",
    "VerificationError",
    "classify",
    "is_2_circuit",
    "is_double_circuit",
    "is_partition_circuit",
    "recover_partition_from_2circuit",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module("." + home, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
