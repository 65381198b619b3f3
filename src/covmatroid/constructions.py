"""Concrete matroid constructions: k-rank, partition, union, covering,
transversal and partition-circuit matroids, plus the conversions between
the covering and transversal presentations and the dual-parameter formula
for partition matroids.

Every handle comes from one of two private builders.  ``_cut_matroid``
checks a table of (elements, capacity) cuts: partition, partition-circuit
and k-rank matroids (M(K, k) is the partition matroid of {K, U - K} with
capacities (k, 0)), and the min-cut table of a covering or transversal
with few live blocks.  ``_placement_matroid`` places a set's elements one
at a time: by augmenting paths for larger coverings and transversals, and
by matroid partitioning for :func:`union_matroids`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import partial

from .core import (
    GroundSet,
    Record,
    SetFamily,
    SubsetMask,
    ValidationError,
    check_enum_cap,
)
from .matroid import Matroid

#: With at most this many live (positive-capacity) blocks the maximum flow
#: is evaluated as the minimum cut over block subsets instead of by
#: augmenting paths; at this size the pruned cut table stays short.
_CUT_CAP = 10


class CapacitatedCovering(Record):
    """Covering blocks K_1..K_m paired with nonnegative integer capacities.

    Blocks are kept in the given order (capacities are aligned by position);
    they must be nonempty, pairwise distinct, and union to the universe.
    """

    ground: GroundSet
    blocks: tuple[SubsetMask, ...]
    capacities: tuple[int, ...]
    _fields = ("ground", "blocks", "capacities")

    def __init__(self, ground: GroundSet, blocks: tuple[SubsetMask, ...],
                 capacities: tuple[int, ...]):
        if len(blocks) != len(capacities):
            raise ValidationError("capacities must align with blocks")
        if not blocks:
            raise ValidationError("a covering needs at least one block")
        union = 0
        seen = set()
        for b in blocks:
            if b.ground != ground:
                raise ValidationError("blocks must share the covering's ground set")
            if not b.bits:
                raise ValidationError("covering blocks must be nonempty")
            if b.bits in seen:
                raise ValidationError("duplicate covering blocks are not allowed")
            seen.add(b.bits)
            union |= b.bits
        if union != ground.full_mask:
            raise ValidationError("covering blocks must union to the universe")
        for k in capacities:
            if type(k) is not int:
                raise ValidationError("capacities must be integers")
            if k < 0:
                raise ValidationError("capacities must be nonnegative")
        super().__init__(ground, blocks, capacities)

    @classmethod
    def from_labels(
        cls,
        ground: GroundSet,
        blocks: Iterable[Iterable[str]],
        capacities: Iterable[int],
    ) -> CapacitatedCovering:
        return cls(
            ground,
            tuple(ground.subset(b) for b in blocks),
            tuple(capacities),
        )

    @property
    def m(self) -> int:
        return len(self.blocks)

    def is_partition(self) -> bool:
        total = 0
        for b in self.blocks:
            if total & b.bits:
                return False
            total |= b.bits
        return True

    def block_family(self) -> SetFamily:
        return SetFamily(self.ground, self.blocks)

    def with_capacities(self, capacities: Sequence[int]) -> CapacitatedCovering:
        return CapacitatedCovering(self.ground, self.blocks, tuple(capacities))


class PartitionWitness(Record):
    """A capacitated covering whose blocks are pairwise disjoint."""

    covering: CapacitatedCovering
    _fields = ("covering",)

    def __init__(self, covering: CapacitatedCovering):
        if not covering.is_partition():
            raise ValidationError("partition blocks must be pairwise disjoint")
        super().__init__(covering)

    @classmethod
    def from_labels(
        cls,
        ground: GroundSet,
        blocks: Iterable[Iterable[str]],
        capacities: Iterable[int],
    ) -> PartitionWitness:
        return cls(CapacitatedCovering.from_labels(ground, blocks, capacities))

    @property
    def blocks(self) -> tuple[SubsetMask, ...]:
        return self.covering.blocks

    @property
    def capacities(self) -> tuple[int, ...]:
        return self.covering.capacities


class IndexedFamily(Record):
    """An ordered family F_1..F_|J| of subsets; duplicates are permitted
    because transversal independence counts indices, not distinct sets."""

    ground: GroundSet
    members: tuple[SubsetMask, ...]
    _fields = ("ground", "members")

    def __init__(self, ground: GroundSet, members: tuple[SubsetMask, ...]):
        for m in members:
            if m.ground != ground:
                raise ValidationError("family members must share one ground set")
        super().__init__(ground, members)

    @classmethod
    def from_labels(
        cls, ground: GroundSet, members: Iterable[Iterable[str]]
    ) -> IndexedFamily:
        return cls(ground, tuple(ground.subset(m) for m in members))

    def union_bits(self) -> int:
        u = 0
        for m in self.members:
            u |= m.bits
        return u


def _augmenter(caps: Sequence[int], adj: Sequence[Sequence[int]]) -> Callable[[int], bool]:
    """A fresh ``place`` for bipartite matching: element u is admitted by
    the blocks ``adj[u]``, block i holds up to ``caps[i]`` elements, and u
    goes in along an augmenting path if there is one; a call without
    ``seen`` starts a new search.  Each block keeps the list of the
    elements it holds."""
    held: list[list[int]] = [[] for _ in caps]

    def place(u: int, seen: set[int] | None = None) -> bool:
        if seen is None:
            seen = set()
        for i in adj[u]:
            if i in seen:
                continue
            seen.add(i)
            holders = held[i]
            if len(holders) < caps[i]:
                holders.append(u)
                return True
            # Block i is in ``seen``, so the recursion never touches
            # ``holders`` while it is being scanned.
            for j, y in enumerate(holders):
                if place(y, seen):
                    holders[j] = u
                    return True
        return False

    return place


def _cut_hook(cuts: Sequence[tuple[int, int]], n: int) -> Callable[[int, int], int]:
    """The walk's extension hook from (elements, capacity) cuts, each of
    which ``bits`` meets within capacity: a candidate e extends it iff no
    cut holding e is full.  For I ≠ ∅ only the cuts holding max I need a
    count: the walk hands in only candidates e with (I - max I) + e
    independent, so no cut full on I - max I holds one, and a cut without
    max I is as full on I as on I - max I.  So the hook reads slot
    ``bits.bit_length()`` of an index built here, once per walk: slot 0
    holds every cut (for I = ∅), slot e + 1 the cuts holding e that can be
    full on a set with maximum e and meet its candidates.  Those are the
    cuts that also hold an element above e (the candidates lie above max I)
    and hold at least ``capsum`` elements up to e (I has no others).  Each
    slot lists its cuts in ascending capacity, in table order among equal
    capacities, and the hook stops at the first capacity above |I|: no
    larger cut can be full on I."""
    by_top = [sorted(cuts, key=lambda cut: cut[1])] + [[] for _ in range(n)]
    for cut in by_top[0]:
        only, capsum = cut
        held = 0
        rest = only
        while rest:
            low = rest & -rest
            rest ^= low
            held += 1
            if rest and held >= capsum:
                by_top[low.bit_length()].append(cut)

    def extend(bits: int, cand: int) -> int:
        k = bits.bit_count()
        for only, capsum in by_top[bits.bit_length()]:
            if capsum > k:
                break
            if only & cand and (bits & only).bit_count() == capsum:
                cand &= ~only
        return cand

    return extend


def _cut_matroid(ground: GroundSet, cuts: Sequence[tuple[int, int]],
                 rank: Callable[[int], int], provenance: str) -> Matroid:
    """The handle whose independent sets meet every (elements, capacity)
    cut within capacity; the cuts also fill the walk's extension hook."""

    def indep(bits: int) -> bool:
        for only, capsum in cuts:
            if (bits & only).bit_count() > capsum:
                return False
        return True

    m = Matroid(ground, indep, rank_hint=rank, provenance=provenance)
    m._extend = partial(_cut_hook, cuts, ground.n)
    return m


def _placement_matroid(ground: GroundSet, placer: Callable[[], Callable[[int], bool]],
                       provenance: str) -> Matroid:
    """The handle that hands the elements of a set, in ascending order, by
    index to ``place`` of one fresh ``placer()``, which says whether each
    one joins those placed.  A set is independent iff none is missed (the
    query stops at the first miss); its rank is its size less the misses."""

    def unplaced(bits: int, first_only: bool) -> int:
        place = placer()
        missed = 0
        while bits:
            low = bits & -bits
            bits ^= low
            if not place(low.bit_length() - 1):
                missed += 1
                if first_only:
                    break
        return missed

    return Matroid(ground, lambda bits: not unplaced(bits, True),
                   rank_hint=lambda bits: bits.bit_count() - unplaced(bits, False),
                   provenance=provenance)


def _matching_matroid(ground: GroundSet, block_bits: Sequence[int],
                      caps: Sequence[int], provenance: str) -> Matroid:
    """A handle on the maximum bipartite flow between elements and
    capacitated blocks: block i accepts up to caps[i] of its own elements,
    a set is independent iff a full assignment exists, and its rank is the
    flow value.

    Zero-capacity blocks are dropped first: such a block takes no element,
    so it can never improve a cut or an assignment.  The path is chosen once,
    by the number of live blocks left:

    * at most ``_CUT_CAP``: a cut handle.  The flow value is the minimum
      cut over block subsets B (max-flow min-cut).  The elements whose
      every admissible block lies in B must fit within B's total capacity,
      and the flow equals |X| minus the worst deficiency.  The table keeps
      the cuts in the order the block subsets are met, unsorted.
    * more: a placement handle, by augmenting paths from an empty
      assignment on every query.

    Neither path keeps per-handle state that grows with queries.
    """
    live = [(bb, k) for bb, k in zip(block_bits, caps) if k > 0]
    if len(live) <= _CUT_CAP:
        # Union and total capacity of each subset of the live blocks.
        unions = [0]
        capsums = [0]
        for bb, k in live:
            unions += [u | bb for u in unions]
            capsums += [c + k for c in capsums]
        # Drop never-deficient cuts; of equal cuts, keep the least capacity.
        full = ground.full_mask
        least: dict[int, int] = {}
        for outside, capsum in zip(reversed(unions), capsums):
            only = full & ~outside
            if only.bit_count() > capsum and least.get(only, capsum) >= capsum:
                least[only] = capsum
        cuts = tuple(least.items())

        def rank(bits: int) -> int:
            deficiency = 0
            for only, capsum in cuts:
                d = (bits & only).bit_count() - capsum
                if d > deficiency:
                    deficiency = d
            return bits.bit_count() - deficiency

        return _cut_matroid(ground, cuts, rank, provenance)
    caps = tuple(k for _, k in live)
    adj = tuple(
        tuple(i for i, (bb, _) in enumerate(live) if bb >> e & 1)
        for e in range(ground.n)
    )
    return _placement_matroid(ground, partial(_augmenter, caps, adj), provenance)


def _partition_rank(pairs: Sequence[tuple[int, int]], bits: int) -> int:
    r = 0
    for bb, k in pairs:
        c = (bits & bb).bit_count()
        r += c if c < k else k
    return r


def k_rank_matroid(ground: GroundSet, block: SubsetMask, k: int) -> Matroid:
    """M(K, k), whose independent sets are the subsets of ``block`` of size
    at most ``k``: the partition matroid of {K, U - K} with capacities
    (k, 0), so its loops are exactly U minus the block."""
    if type(k) is not int:
        raise ValidationError("k must be an integer")
    if k < 0:
        raise ValidationError("k must be nonnegative")
    if block.ground != ground:
        raise ValidationError("the block must share the matroid's ground set")
    pairs = ((block.bits, k),)
    rest = ground.full_mask & ~block.bits
    # The cut of loops U - K adds nothing to the rank, so only K is summed.
    cuts = pairs + ((rest, 0),) if rest else pairs
    return _cut_matroid(ground, cuts, partial(_partition_rank, pairs), "k-rank")


def partition_matroid(p: PartitionWitness) -> Matroid:
    """Independent sets meet each partition block in at most its capacity."""
    pairs = tuple((b.bits, k) for b, k in zip(p.blocks, p.capacities))
    return _cut_matroid(p.covering.ground, pairs,
                        partial(_partition_rank, pairs), "partition")


def _partitioner(oracles: Sequence[Callable[[int], bool]]) -> Callable[[int], bool]:
    """A fresh ``place`` for matroid partitioning (Edmonds 1968; Cunningham,
    SIAM J. Comput. 15(4), 1986) into disjoint parts, part i independent
    under ``oracles[i]``.  Each element s goes in along a shortest exchange
    path, found breadth-first from s, where x reaches the y of a part i not
    holding x if part i - y + x stays independent, and x ends the path if
    part i + x does.  On a shortest path all the exchanges hold at once.
    With no path the parts plus s are dependent in the union, so the parts
    stay a basis of the elements met."""
    parts = [0] * len(oracles)

    def place(e: int) -> bool:
        s = 1 << e
        came: dict[int, tuple[int, int] | None] = {s: None}  # y: (x, i)
        queue = [s]
        for x in queue:
            for i, indep in enumerate(oracles):
                part = parts[i]
                if part & x:
                    continue
                if indep(part | x):
                    parts[i] |= x
                    while came[x] is not None:
                        y, (x, j) = x, came[x]
                        parts[j] ^= x | y
                    return True
                held = part
                while held:
                    y = held & -held
                    held ^= y
                    if y not in came and indep(part ^ y | x):
                        came[y] = (x, i)
                        queue.append(y)
        return False

    return place


def union_matroids(ms: Sequence[Matroid]) -> Matroid:
    """Union of matroids on one ground set: X is independent iff it splits
    into parts, part i independent in ``ms[i]``.  Independence and rank
    come from one partitioning routine over the components' oracles."""
    if not ms:
        raise ValidationError("union of zero matroids is undefined")
    ground = ms[0].ground
    for m in ms[1:]:
        if m.ground != ground:
            raise ValidationError("union components must share a ground set")
    oracles = tuple(m.indep_bits for m in ms)
    return _placement_matroid(ground, partial(_partitioner, oracles), "union")


def covering_matroid(c: CapacitatedCovering) -> Matroid:
    """The union of the k-rank matroids of the covering's blocks.

    Independence is decided by capacitated bipartite matching feasibility
    (polynomial; no powerset scan), which is equivalent to
    :func:`union_matroids` of the k-rank slices and cross-checked against it
    in the test suite.  The closed-form rank is the maximum matching size.
    """
    return _matching_matroid(c.ground, [b.bits for b in c.blocks],
                             c.capacities, "covering")


def _check_block_index(c: CapacitatedCovering, i: int) -> None:
    """Reject an ``i`` that names no block of ``c``, a negative one too."""
    if not 0 <= i < c.m:
        raise IndexError(f"block index {i} out of range for {c.m} blocks")


def covering_matroid_slice(c: CapacitatedCovering, i: int) -> Matroid:
    """Covering matroid with every capacity zeroed except the i-th; equal,
    as a family, to the k-rank matroid of block i."""
    _check_block_index(c, i)
    caps = [0] * c.m
    caps[i] = c.capacities[i]
    return _matching_matroid(c.ground, [b.bits for b in c.blocks], caps,
                             "covering")


def naive_covering_family(c: CapacitatedCovering) -> SetFamily:
    """The explicit family {X : |X ∩ K_i| ≤ k_i for all i}.

    Not a matroid in general; feed it to ``check_independence_axioms``.
    """
    check_enum_cap(c.ground.n)
    pairs = tuple((b.bits, k) for b, k in zip(c.blocks, c.capacities))
    members = []
    for bits in range(1 << c.ground.n):
        if all((bits & bb).bit_count() <= k for bb, k in pairs):
            members.append(bits)
    return SetFamily(c.ground, members)


def is_partial_transversal(f: IndexedFamily, t: SubsetMask) -> bool:
    """True iff some injection maps each element of T to a distinct index j
    with the element inside F_j; decided by bipartite matching."""
    return transversal_matroid(f).independent(t)


def transversal_matroid(f: IndexedFamily) -> Matroid:
    """The matroid of partial transversals of the indexed family."""
    return _matching_matroid(f.ground, [m.bits for m in f.members],
                             [1] * len(f.members), "transversal")


def transversal_as_covering(f: IndexedFamily) -> CapacitatedCovering:
    """Present a transversal matroid as a covering matroid.

    Each family member becomes a capacity-1 block; duplicate members merge
    into one block whose capacity is the multiplicity (the union of equal
    capacity-1 k-rank matroids saturates to a single higher capacity).
    Elements outside the family's union form one extra capacity-0 block,
    emitted only when such elements exist so all blocks stay nonempty.
    Empty family members contribute nothing and are dropped.
    """
    counts: dict[int, int] = {}
    for m in f.members:
        if m.bits:
            counts[m.bits] = counts.get(m.bits, 0) + 1
    blocks = list(counts)
    caps = [counts[b] for b in blocks]
    uncovered = f.ground.full_mask & ~f.union_bits()
    if uncovered:
        blocks.append(uncovered)
        caps.append(0)
    return CapacitatedCovering(
        f.ground, tuple(SubsetMask(f.ground, b) for b in blocks), tuple(caps)
    )


def covering_as_transversal(c: CapacitatedCovering) -> IndexedFamily | None:
    """Blocks as an indexed family when all capacities are 1, yielding the
    same matroid; ``None`` when some capacity differs.  Only the all-ones
    case is handled here, although M(K, k) is the transversal matroid of
    the blocks with each K_i repeated k_i times for any capacities."""
    if any(k != 1 for k in c.capacities):
        return None
    return IndexedFamily(c.ground, c.blocks)


def partition_circuit_matroid(p: PartitionWitness) -> Matroid:
    """The matroid whose circuits are exactly the partition blocks:
    independent sets meet each block P in at most |P| - 1 elements.
    Stated capacities on the witness are ignored."""
    pairs = tuple((b.bits, b.cardinality - 1) for b in p.blocks)
    return _cut_matroid(p.covering.ground, pairs,
                        partial(_partition_rank, pairs), "partition-circuit")


def partition_dual_params(p: PartitionWitness) -> tuple[int, ...]:
    """Capacities (|P_i| - min(|P_i|, k_i)) such that the partition matroid
    with these parameters is the dual of the one induced by ``p``."""
    return tuple(
        b.cardinality - min(b.cardinality, k)
        for b, k in zip(p.blocks, p.capacities)
    )
