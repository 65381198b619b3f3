"""Brute-force reference implementations.

These are deliberately naive transcriptions of the defining conditions,
sharing no code with the efficient paths; tests and the CLI's --verify mode
hold the fast algorithms to them on small instances.  Covering and
transversal matroids are both unions of k-rank matroids, so one builder,
:func:`bf_union_family`, lists either's independent sets block by block.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import permutations
from typing import Callable, Sequence

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
_BF_MATCHING_CAP = f"brute-force matching is capped at |T| ≤ {_BF_MATCHING_ELEMS}"
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


def _check_union_caps(c: CapacitatedCovering) -> None:
    if c.m > _BF_UNION_PARTS or c.ground.n > _BF_UNION_ELEMS:
        raise SizeLimitError(_BF_UNION_CAPS)


def bf_covering_family(c: CapacitatedCovering) -> frozenset[int]:
    """The covering matroid's independent masks, as the union family of its
    blocks; capped at m ≤ 4, n ≤ 12, so it holds at most 4,096 masks."""
    _check_union_caps(c)
    return bf_union_family([b.bits for b in c.blocks], c.capacities)


def bf_transversal_family(f: IndexedFamily) -> frozenset[int]:
    """The family's partial transversals, as the union family of its members
    with capacity 1, duplicate and empty ones included; capped at n ≤ 8."""
    if f.ground.n > _BF_MATCHING_ELEMS:
        raise SizeLimitError(_BF_MATCHING_CAP)
    return bf_union_family([s.bits for s in f.members], [1] * len(f.members))


def bf_union_independent(
    c: CapacitatedCovering,
) -> Callable[[SubsetMask], bool]:
    """The union of the k-rank matroids M(K_i, k_i) of the covering's
    blocks, as a predicate: is X = I_1 ∪ … ∪ I_m with each I_i ⊆ K_i and
    |I_i| ≤ k_i?  The caps are checked here; :func:`bf_covering_family` is
    built on the first call, and every call is a lookup in it.
    """
    _check_union_caps(c)
    family = cache(partial(bf_covering_family, c))
    return lambda x: x.bits in family()


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
        raise SizeLimitError(_BF_MATCHING_CAP)
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
