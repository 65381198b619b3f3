"""Second-type covering-based rough approximations, computed directly from
the covering and, separately, through the k-rank matroids its blocks induce.

The direct and matroidal operators are deliberately distinct entry points so
they can be diffed: their agreement (or any counterexample) is surfaced by
:func:`approximation_findings` rather than patched over.
"""

from __future__ import annotations

from functools import cached_property

from .core import GroundSet, Record, SetFamily, SubsetMask, ValidationError
from .core import _bits_on, _check_covering
from .constructions import (
    CapacitatedCovering,
    _check_block_index,
    covering_matroid_slice,
    k_rank_matroid,
)
from .matroid import Matroid


class ApproximationSpace(Record):
    """A universe together with a covering of it."""

    ground: GroundSet
    covering: SetFamily
    _fields = ("ground", "covering")

    def __init__(self, ground: GroundSet, covering: SetFamily):
        if covering.ground != ground:
            raise ValidationError("covering must live on the space's ground set")
        _check_covering(ground, covering._ordered)
        super().__init__(ground, covering)


def neighborhood(space: ApproximationSpace, x: str) -> SubsetMask:
    """Intersection of all covering blocks containing x; nonempty since the
    covering covers the universe."""
    bit = 1 << space.ground.index(x)
    out = space.ground.full_mask
    for block in space.covering:
        if block.bits & bit:
            out &= block.bits
    return SubsetMask(space.ground, out)


def lower_approx(space: ApproximationSpace, x: SubsetMask) -> SubsetMask:
    """Union of covering blocks contained in X."""
    bits = _bits_on(space.ground, x)
    out = 0
    for block in space.covering:
        if block.bits & ~bits == 0:
            out |= block.bits
    return SubsetMask(space.ground, out)


def upper_approx(space: ApproximationSpace, x: SubsetMask) -> SubsetMask:
    """Union of covering blocks meeting X."""
    bits = _bits_on(space.ground, x)
    out = 0
    for block in space.covering:
        if block.bits & bits:
            out |= block.bits
    return SubsetMask(space.ground, out)


class MatroidalSpace(Record):
    """A covering with positive capacities plus one matroid per block, the
    slices the matroidal forms of the approximation operators read.

    The space picks its slices once, when it is built: the k-rank matroids
    M(K_i, k_i), or with ``via_covering`` the covering matroid with every
    capacity but the i-th set to 0, which the paper shows is the same
    matroid.  The operators take no other slices.  Each block is recovered
    once, from its slice, and the covering's :class:`ApproximationSpace`,
    which :meth:`space` returns, is built with the space.  A k-rank space
    builds its via-covering twin once, on first use, and keeps it outside
    its fields.

    Capacities must all be at least 1: the matroidal representations are
    stated only for positive integers, and a zero capacity would silently
    degrade them.
    """

    covering: CapacitatedCovering
    via_covering: bool
    slices: tuple[Matroid, ...]
    recovered: tuple[SubsetMask, ...]
    # The slices, recovered blocks and space follow from the two fields.
    _fields = ("covering", "via_covering")

    def __init__(self, covering: CapacitatedCovering, via_covering: bool = False):
        c = covering
        if any(k < 1 for k in c.capacities):
            raise ValidationError("matroidal operators require all capacities ≥ 1")
        if via_covering:
            slices = tuple(covering_matroid_slice(c, i) for i in range(c.m))
        else:
            slices = tuple(k_rank_matroid(c.ground, b, k)
                           for b, k in zip(c.blocks, c.capacities))
        empty = c.ground.empty()
        super().__init__(covering, via_covering)
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "recovered",
                           tuple(s.closure(empty).complement() for s in slices))
        object.__setattr__(self, "_space",
                           ApproximationSpace(c.ground, c.block_family()))

    @property
    def ground(self) -> GroundSet:
        return self.covering.ground

    def space(self) -> ApproximationSpace:
        """The covering as an :class:`ApproximationSpace`."""
        return self._space

    @cached_property
    def _twin(self) -> MatroidalSpace:
        """This covering's space on covering slices, built on first use."""
        return MatroidalSpace(self.covering, via_covering=True)


def matroidal_block(ms: MatroidalSpace, i: int) -> SubsetMask:
    """Block K_i recovered as the complement of the i-th slice's closure of
    the empty set (the slice's non-loops), as the space recovered it."""
    _check_block_index(ms.covering, i)
    return ms.recovered[i]


def matroidal_membership(
    ms: MatroidalSpace, x: str, i: int
) -> tuple[bool, bool, bool]:
    """The equivalent membership conditions for x against block i:
    (x ∈ K_i, {x} independent in slice i, slice-i rank of {x} is 1)."""
    _check_block_index(ms.covering, i)
    bit = 1 << ms.ground.index(x)
    slc = ms.slices[i]
    return (
        bool(ms.covering.blocks[i].bits & bit),
        slc.indep_bits(bit),
        slc.rank_bits(bit) == 1,
    )


def matroidal_neighborhood(ms: MatroidalSpace, x: str) -> SubsetMask:
    """Neighborhood of x as an intersection of recovered blocks over the
    slices giving {x} rank 1."""
    bit = 1 << ms.ground.index(x)
    out = ms.ground.full_mask
    for i, slc in enumerate(ms.slices):
        if slc.rank_bits(bit) == 1:
            out &= ms.recovered[i].bits
    return SubsetMask(ms.ground, out)


def matroidal_lower(ms: MatroidalSpace, x: SubsetMask) -> SubsetMask:
    """Matroidal form of the lower approximation: union of recovered blocks
    over slices whose rank of X equals their rank of K_i.

    This evaluates the published formula exactly as stated; see
    :func:`approximation_findings` for where it can differ from the direct
    lower approximation.
    """
    bits = _bits_on(ms.ground, x)
    out = 0
    for i, slc in enumerate(ms.slices):
        if slc.rank_bits(bits) == slc.rank_bits(ms.covering.blocks[i].bits):
            out |= ms.recovered[i].bits
    return SubsetMask(ms.ground, out)


def matroidal_upper(ms: MatroidalSpace, x: SubsetMask) -> SubsetMask:
    """Matroidal form of the upper approximation: union of recovered blocks
    over slices giving X positive rank."""
    bits = _bits_on(ms.ground, x)
    out = 0
    for i, slc in enumerate(ms.slices):
        if slc.rank_bits(bits) > 0:
            out |= ms.recovered[i].bits
    return SubsetMask(ms.ground, out)


class Finding(Record):
    """A subset X on which a matroidal operator disagrees with its direct
    counterpart."""

    operator: str
    subset: SubsetMask
    direct: SubsetMask
    matroidal: SubsetMask
    _fields = ("operator", "subset", "direct", "matroidal")

    def __init__(self, operator: str, subset: SubsetMask, direct: SubsetMask,
                 matroidal: SubsetMask):
        super().__init__(operator, subset, direct, matroidal)

    def __str__(self) -> str:
        return (
            f"{self.operator} mismatch at X={self.subset}: "
            f"direct={self.direct} matroidal={self.matroidal}"
        )


def approximation_findings(
    ms: MatroidalSpace, x: SubsetMask, via_covering: bool = False
) -> list[Finding]:
    """Diff the matroidal operators against the direct ones on X.

    The operators read the slices of ``ms``, except that with
    ``via_covering`` a k-rank space reads those of its twin
    ``MatroidalSpace(ms.covering, via_covering=True)``, whose slices are
    zeroed covering matroids; the twin is built on the first such call and
    kept with ``ms``.  An empty list means full agreement.
    """
    if via_covering and not ms.via_covering:
        ms = ms._twin
    space = ms.space()
    findings = []
    sl = lower_approx(space, x)
    msl = matroidal_lower(ms, x)
    if sl.bits != msl.bits:
        findings.append(Finding("lower", x, sl, msl))
    sh = upper_approx(space, x)
    msh = matroidal_upper(ms, x)
    if sh.bits != msh.bits:
        findings.append(Finding("upper", x, sh, msh))
    return findings
