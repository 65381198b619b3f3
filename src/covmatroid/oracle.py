"""Brute-force reference implementations.

These are deliberately naive transcriptions of the defining conditions,
sharing no code with the efficient paths; tests and the CLI's --verify mode
hold the fast algorithms to them on small instances.  Covering and
transversal matroids are both unions of k-rank matroids, so one builder,
:func:`bf_union_family`, lists either's independent sets block by block,
under one cap, n ≤ 12 (at most 4,096 masks, whatever the number of
blocks).  From such a family, :func:`bf_circuits` and :func:`bf_bases`
read the circuits Min(Opp(I)) and the bases Max(I) by one-element moves.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import permutations

from .core import GroundSet, SetFamily, SizeLimitError, SubsetMask
from .constructions import CapacitatedCovering, IndexedFamily
from .matroid import Matroid

_BF_UNION_ELEMS = 12
_BF_RANK_ELEMS = 20
_BF_MATCHING_ELEMS = 8
_BF_DUAL_CAP = 16


def bf_union_family(blocks: Sequence[int], caps: Sequence[int]) -> frozenset[int]:
    """The masks I_1 ∪ … ∪ I_m with I_i ⊆ K_i and |I_i| ≤ k_i: the union of
    the k-rank matroids M(K_i, k_i), built block by block from {∅}.  Block i
    runs min(k_i, |K_i|) rounds, each adding at most one element of K_i to
    every member; only the members a round first reached can grow anew in
    the next.  A transversal matroid is this union with capacity-1 members.
    """
    fam = {0}
    for block, k in zip(blocks, caps):
        elems = [1 << i for i in range(block.bit_length()) if block >> i & 1]
        fresh = fam
        for _ in range(min(k, len(elems))):
            fresh = {s | e for s in fresh for e in elems if not s & e} - fam
            fam |= fresh
    return frozenset(fam)


def _capped_union_family(ground: GroundSet, blocks: Sequence[int],
                 caps: Sequence[int]) -> frozenset[int]:
    """:func:`bf_union_family` on ``ground``, capped at n ≤ 12."""
    if ground.n > _BF_UNION_ELEMS:
        raise SizeLimitError(f"brute-force union is capped at n ≤ {_BF_UNION_ELEMS}")
    return bf_union_family(blocks, caps)


def bf_covering_family(c: CapacitatedCovering) -> frozenset[int]:
    """The covering matroid's independent masks, as the union family of its
    blocks."""
    return _capped_union_family(c.ground, [b.bits for b in c.blocks], c.capacities)


def bf_transversal_family(f: IndexedFamily) -> frozenset[int]:
    """The family's partial transversals, as the union family of its members
    with capacity 1, duplicate and empty ones included."""
    return _capped_union_family(f.ground, [s.bits for s in f.members], [1] * len(f.members))


def bf_union_independent(
    c: CapacitatedCovering,
) -> Callable[[SubsetMask], bool]:
    """The union of the k-rank matroids M(K_i, k_i) of the covering's
    blocks, as a predicate: is X = I_1 ∪ … ∪ I_m with each I_i ⊆ K_i and
    |I_i| ≤ k_i?  :func:`bf_covering_family` is built here, once, and every
    call is a lookup in it.
    """
    family = bf_covering_family(c)
    return lambda x: x.bits in family


def bf_circuits(indep: frozenset[int], n: int) -> frozenset[int]:
    """Min(Opp(I)): the minimal masks over n elements outside ``indep``.

    Precondition: ``indep`` is subset-closed, as every brute-force family is
    by its definition (a union family, a base-complement family).  So a
    non-member is minimal iff dropping any one element gives a member."""
    return frozenset(
        bits
        for bits in range(1 << n)
        if bits not in indep
        and all(bits & ~(1 << i) in indep for i in range(n) if bits >> i & 1)
    )


def bf_bases(indep: frozenset[int], n: int) -> frozenset[int]:
    """Max(I): the maximal members of ``indep``, masks over n elements.

    Precondition: ``indep`` is subset-closed, as for :func:`bf_circuits`.
    So a member is maximal iff adding any one element gives a non-member."""
    return frozenset(
        bits
        for bits in indep
        if all(bits | (1 << i) not in indep for i in range(n) if not bits >> i & 1)
    )


def bf_rank(m: Matroid, x: SubsetMask) -> int:
    """Exact rank by maximizing |I| over all independent subsets of X; no
    greedy assumption."""
    if x.cardinality > _BF_RANK_ELEMS:
        raise SizeLimitError(f"brute-force rank is capped at |X| ≤ {_BF_RANK_ELEMS}")
    best = 0
    sub = x.bits
    while True:
        if m.indep_bits(sub):
            c = sub.bit_count()
            if c > best:
                best = c
        if sub == 0:
            break
        sub = (sub - 1) & x.bits
    return best


def bf_matching(f: IndexedFamily, t: SubsetMask) -> bool:
    """Is T matchable injectively into the family's index set?  Enumerates
    injections T → J directly."""
    if t.cardinality > _BF_MATCHING_ELEMS:
        raise SizeLimitError(
            f"brute-force matching is capped at |T| ≤ {_BF_MATCHING_ELEMS}")
    elems = t.indices()
    if len(elems) > len(f.members):
        return False
    for perm in permutations(range(len(f.members)), len(elems)):
        if all(f.members[j].bits >> e & 1 for e, j in zip(elems, perm)):
            return True
    return False


def bf_dual_family(m: Matroid) -> SetFamily:
    """Independent family of the dual, materialized as all subsets of
    base-complements.  The bases are the largest independent sets of a
    plain scan over every subset, not ``m.bases()``."""
    n = m.ground.n
    if n > _BF_DUAL_CAP:
        raise SizeLimitError(f"brute-force dual is capped at n ≤ {_BF_DUAL_CAP}")
    indep = [bits for bits in range(1 << n) if m.indep_bits(bits)]
    r = max(bits.bit_count() for bits in indep)
    full = m.ground.full_mask
    complements = [full ^ bits for bits in indep if bits.bit_count() == r]
    members = set()
    for comp in complements:
        sub = comp
        while True:
            members.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & comp
    return SetFamily(m.ground, members)
