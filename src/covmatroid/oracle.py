"""Brute-force reference implementations.

These are deliberately naive transcriptions of the defining conditions,
sharing no code with the efficient paths; tests and the CLI's --verify mode
hold the fast algorithms to them on small instances.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable

from .core import SetFamily, SizeLimitError, SubsetMask
from .constructions import CapacitatedCovering, IndexedFamily
from .matroid import Matroid

_BF_UNION_ELEMS = 12
_BF_UNION_PARTS = 4
_BF_UNION_CAPS = (
    f"brute-force union is capped at |X| ≤ {_BF_UNION_ELEMS}, "
    f"m ≤ {_BF_UNION_PARTS}"
)
_BF_RANK_ELEMS = 20
_BF_MATCHING_ELEMS = 8
_BF_DUAL_CAP = 16


def _assign_krank(bits, blocks, caps, counts, m):
    """Backtracking over assignments of the lowest element of ``bits`` to a
    block with spare capacity."""
    if not bits:
        return True
    low = bits & -bits
    rest = bits ^ low
    for i in range(m):
        if low & blocks[i] and counts[i] < caps[i]:
            counts[i] += 1
            if _assign_krank(rest, blocks, caps, counts, m):
                counts[i] -= 1
                return True
            counts[i] -= 1
    return False


def bf_union_independent(
    c: CapacitatedCovering,
) -> Callable[[SubsetMask], bool]:
    """The union of the k-rank matroids M(K_i, k_i) of the covering's
    blocks, as a predicate: is X = I_1 ∪ … ∪ I_m with each I_i ⊆ K_i and
    |I_i| ≤ k_i?

    Blocks and capacities are read once, here; the predicate tries every
    assignment of X's elements to blocks, element by element, placing each
    only in a block that contains it and has capacity to spare.
    """
    m = c.m
    if m > _BF_UNION_PARTS:
        raise SizeLimitError(_BF_UNION_CAPS)
    blocks = [b.bits for b in c.blocks]
    caps = list(c.capacities)
    allowed = 0
    total = 0
    for bb, k in zip(blocks, caps):
        if k:
            allowed |= bb
            total += k

    def independent(x: SubsetMask) -> bool:
        bits = x.bits
        card = bits.bit_count()
        if card > _BF_UNION_ELEMS:
            raise SizeLimitError(_BF_UNION_CAPS)
        # Two sound pre-rejects before searching: an element admissible to
        # no block under its capacity can never be assigned, and more
        # elements than total capacity cannot all be placed.
        if bits & ~allowed or card > total:
            return False
        return _assign_krank(bits, blocks, caps, [0] * m, m)

    return independent


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
            f"brute-force matching is capped at |T| ≤ {_BF_MATCHING_ELEMS}"
        )
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
