"""Classification predicates for the special-matroid taxonomy: 2-circuit,
partition-circuit, double-circuit and identically self-dual matroids, with
witness partitions that regenerate the classified matroid.

Both witnesses, the parallel classes of a 2-circuit matroid and the circuits
of a partition-circuit one, are built and checked by one helper,
``_witness``, which regenerates the matroid through the given construction
and diffs the two walks' powerset bitmaps of the independent sets.  So
``classify`` decodes only the circuits, and the independent sets only when
it needs the bases (2·r(U) = n)."""

from __future__ import annotations

from collections.abc import Callable

from .core import Record, SubsetMask, ValidationError
from .constructions import (
    CapacitatedCovering,
    PartitionWitness,
    partition_circuit_matroid,
    partition_matroid,
)
from .matroid import Matroid, _decode


class VerificationError(RuntimeError):
    """A recovered witness failed to regenerate the classified matroid."""

    def __init__(self, message: str, differing: SubsetMask | None = None):
        super().__init__(message)
        self.differing = differing


class ClassificationReport(Record):
    """Flags and witnesses for one matroid.

    Any attached witness, fed back through its construction, reproduces the
    classified matroid's independent family exactly.  A matroid with no
    circuits is vacuously 2-circuit; ``circuit_size_multiset`` lets callers
    tell the vacuous case apart.
    """

    is_2_circuit: bool
    is_partition_circuit: bool
    is_double_circuit: bool
    is_identically_self_dual: bool
    circuit_size_multiset: tuple[int, ...]
    two_circuit_witness: PartitionWitness | None
    partition_circuit_witness: PartitionWitness | None
    _fields = ("is_2_circuit", "is_partition_circuit", "is_double_circuit",
               "is_identically_self_dual", "circuit_size_multiset",
               "two_circuit_witness", "partition_circuit_witness")

    def __init__(
        self,
        is_2_circuit: bool,
        is_partition_circuit: bool,
        is_double_circuit: bool,
        is_identically_self_dual: bool,
        circuit_size_multiset: tuple[int, ...],
        two_circuit_witness: PartitionWitness | None = None,
        partition_circuit_witness: PartitionWitness | None = None,
    ):
        if is_double_circuit and not (is_2_circuit and is_identically_self_dual):
            raise VerificationError(
                "double-circuit matroid must be 2-circuit and identically self-dual"
            )
        super().__init__(is_2_circuit, is_partition_circuit, is_double_circuit,
                         is_identically_self_dual, circuit_size_multiset,
                         two_circuit_witness, partition_circuit_witness)


def is_2_circuit(m: Matroid) -> bool:
    """True iff every circuit has cardinality 2 (vacuously true when there
    are no circuits)."""
    return all(c.cardinality == 2 for c in m.circuits())


def _witness(m: Matroid, blocks: list[int], k: int,
             construction: Callable[[PartitionWitness], Matroid]) -> PartitionWitness:
    """The witness of ``blocks``, in this order and each of capacity ``k``,
    checked to regenerate M through ``construction``: the XOR of the two
    walks' bitmaps of the independent sets is the bitmap of the sets they
    differ on, and only it is decoded, to name the first in canonical
    order: the first of the smallest size, as a decoded list is canonical
    within each size only.  Neither independent family is listed."""
    ground = m.ground
    witness = PartitionWitness(CapacitatedCovering(
        ground, tuple(ground.mask(b) for b in blocks), (k,) * len(blocks)))
    indep, _, low, high = m._walk()
    diff = indep ^ construction(witness)._walk()[0]
    if diff:
        raise VerificationError(
            "witness does not regenerate the matroid",
            SubsetMask(ground, min(_decode(diff, ground.n, low, high),
                                   key=int.bit_count)),
        )
    return witness


def recover_partition_from_2circuit(m: Matroid) -> PartitionWitness:
    """Recover the partition whose all-ones partition matroid equals M: the
    parallel classes, each an element and its 2-circuits (parallelism is
    transitive), in ascending mask order.

    Circuit-free elements become singleton classes.  The recovered witness
    is verified by regenerating the matroid and diffing the bitmaps of the
    independent sets; a mismatch raises :class:`VerificationError` carrying
    the first differing subset in canonical order.
    """
    circuits = m.circuits()
    if any(c.cardinality != 2 for c in circuits):
        raise ValidationError("matroid has a circuit of size ≠ 2")
    classes = [1 << e for e in range(m.ground.n)]
    for c in circuits:
        for e in c.indices():
            classes[e] |= c.bits
    return _witness(m, sorted(set(classes)), 1, partition_matroid)


def is_partition_circuit(m: Matroid) -> tuple[bool, PartitionWitness | None]:
    """True iff the circuits are pairwise disjoint and cover the universe,
    i.e. their sizes sum to n and they union to U; on success returns the
    circuit family as a verified partition witness."""
    circuits = m.circuits()
    if (sum(map(int.bit_count, circuits._ordered)) != m.ground.n
            or circuits.union_mask().bits != m.ground.full_mask):
        return False, None
    return True, _witness(m, circuits._ordered, 0, partition_circuit_matroid)


def is_double_circuit(m: Matroid) -> bool:
    """True iff all circuits of M and of its dual have cardinality 2: M is
    2-circuit and M = M* (see :func:`classify`), so the dual is not
    walked."""
    return is_2_circuit(m) and m.is_identically_self_dual()


def classify(m: Matroid) -> ClassificationReport:
    """Run all taxonomy predicates and collect witnesses from one walk of
    M: its circuits, and its bitmap of independent sets to verify a
    witness."""
    # Canonical order lists the circuits by size, so the sizes come sorted.
    sizes = tuple(map(int.bit_count, m.circuits()._ordered))
    two_circuit = all(s == 2 for s in sizes)
    two_witness = recover_partition_from_2circuit(m) if two_circuit else None
    partition_circuit, pc_witness = is_partition_circuit(m)
    self_dual = m.is_identically_self_dual()
    # A 2-circuit M is the direct sum of its parallel classes U(1,p); each has
    # dual U(p-1,p), 2-circuit iff p = 2 iff U(1,p) is its own dual.  So M* is
    # 2-circuit iff M = M*, and the dual's circuits need no enumeration.
    return ClassificationReport(
        is_2_circuit=two_circuit,
        is_partition_circuit=partition_circuit,
        is_double_circuit=two_circuit and self_dual,
        is_identically_self_dual=self_dual,
        circuit_size_multiset=sizes,
        two_circuit_witness=two_witness,
        partition_circuit_witness=pc_witness,
    )
