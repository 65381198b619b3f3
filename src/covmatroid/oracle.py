"""Brute-force reference implementations.

These are deliberately naive transcriptions of the defining conditions,
sharing no code with the efficient paths; tests and the CLI's --verify mode
hold the fast algorithms to them on small instances.
"""

from __future__ import annotations

from itertools import permutations
from typing import Optional, Sequence

from .core import SetFamily, SizeLimitError, SubsetMask
from .constructions import IndexedFamily
from .matroid import Matroid

_BF_UNION_ELEMS = 12
_BF_UNION_PARTS = 4
_BF_RANK_ELEMS = 20
_BF_MATCHING_ELEMS = 8
_BF_DUAL_CAP = 16


def _assign_krank(bits, blocks, caps, counts, m):
    """Backtracking over assignments of the lowest element of ``bits`` to a
    block with spare capacity; specialized to k-rank components."""
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


def _assign_generic(bits, ms, parts, m):
    """Backtracking over assignments of the lowest element of ``bits``,
    consulting each component's own independence oracle."""
    if not bits:
        return True
    low = bits & -bits
    rest = bits ^ low
    for i in range(m):
        cand = parts[i] | low
        if ms[i].indep_bits(cand):
            parts[i] = cand
            if _assign_generic(rest, ms, parts, m):
                parts[i] = cand ^ low
                return True
            parts[i] = cand ^ low
    return False


# One-slot cache of the parsed k-rank parameters for the components last
# queried; queries typically scan many subsets against one fixed list, and
# re-parsing per subset would dominate the search itself.  Only argument
# parsing is cached, never results.
_last_key: Optional[tuple] = None
_last_parsed: Optional[tuple] = None


def _parse_krank(ms):
    """(blocks, caps, allowed-union, total-capacity) if every component is a
    k-rank matroid, else None."""
    blocks = []
    caps = []
    allowed = 0
    total = 0
    for mat in ms:
        if mat.provenance != "k-rank":
            return None
        block, k = mat.source
        bb = block.bits
        blocks.append(bb)
        caps.append(k)
        if k:
            allowed |= bb
            total += k
    return blocks, caps, allowed, total


def bf_union_independent(ms: Sequence[Matroid], x: SubsetMask) -> bool:
    """Is X a union I_1 ∪ … ∪ I_m of per-component independent sets?

    Tries every assignment of X's elements to component indices,
    element by element; a branch is abandoned as soon as its part becomes
    dependent, which loses nothing because independence is subset-closed
    in a matroid.
    """
    global _last_key, _last_parsed
    bits = x.bits
    m = len(ms)
    card = bits.bit_count()
    if card > _BF_UNION_ELEMS or m > _BF_UNION_PARTS:
        raise SizeLimitError(
            f"brute-force union is capped at |X| ≤ {_BF_UNION_ELEMS}, "
            f"m ≤ {_BF_UNION_PARTS}"
        )
    # k-rank components admit a direct transcription of their definition
    # (part within the block, size below the capacity); anything else goes
    # through the component's own oracle.
    key = tuple(ms)
    if key == _last_key:
        parsed = _last_parsed
    else:
        parsed = _parse_krank(ms)
        _last_key = key
        _last_parsed = parsed
    if parsed is None:
        return _assign_generic(bits, ms, [0] * m, m)
    blocks, caps, allowed, total = parsed
    # Two sound pre-rejects before searching: an element admissible to no
    # block under its capacity can never be assigned, and more elements than
    # total capacity cannot all be placed.
    if bits & ~allowed or card > total:
        return False
    return _assign_krank(bits, blocks, caps, [0] * m, m)


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


def bf_dual_family(m: Matroid, cap: int = _BF_DUAL_CAP) -> SetFamily:
    """Independent family of the dual, materialized as all subsets of
    base-complements.  The bases are the largest independent sets of a
    plain scan over every subset, not ``m.bases()``."""
    n = m.ground.n
    if n > cap:
        raise SizeLimitError(f"brute-force dual is capped at n ≤ {cap}")
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
