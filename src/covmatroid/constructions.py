"""Concrete matroid constructions: k-rank, partition, union, covering,
transversal and partition-circuit matroids, plus the conversions between
the covering and transversal presentations and the dual-parameter formula
for partition matroids.

Every handle built from (block, capacity) pairs comes from
``_matching_matroid``: coverings, transversal families and slices, and
partition, partition-circuit and k-rank matroids (M(K, k) is the single
pair (K, k)).  Its live blocks pick how queries are answered: by the
partition sum when they are pairwise disjoint, by a min-cut table when
they overlap and are few, and otherwise by ``_placement_matroid``, which
places a set's elements one at a time along augmenting paths; it places
them by matroid partitioning for :func:`union_matroids`.

Each pair-built handle is the union of the k-rank matroids M(K, k) of its
pairs, and gets ``_union_bitmap`` over them as the private factory from
which its walk reads the independent sets, circuits and bases as one
powerset bitmap of 2^n bits (see :class:`~covmatroid.matroid.Matroid`),
with no oracle call.  A union of arbitrary matroids has no pairs, so its
walk fills the bitmap from its oracle.

Blocks, family members and k-rank blocks are read through
``core._bits_on``, and a covering's blocks are held to
``core._check_covering``: the ground-set and covering checks every module
shares.
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
    _bits_on,
    _check_covering,
    _indices,
    check_enum_cap,
)
from .matroid import Matroid

#: With at most this many overlapping live (positive-capacity) blocks the
#: maximum flow is evaluated as the minimum cut over block subsets instead
#: of by augmenting paths; at this size the pruned cut table stays short.
_CUT_CAP = 10


class CapacitatedCovering(Record):
    """Covering blocks K_1..K_m paired with nonnegative integer capacities.

    Blocks are kept in the given order (capacities are aligned by position);
    they must be nonempty, pairwise distinct, and union to the universe.
    Both are copied into tuples before they are checked, so a caller's
    lists cannot change the covering afterwards.
    """

    ground: GroundSet
    blocks: tuple[SubsetMask, ...]
    capacities: tuple[int, ...]
    _fields = ("ground", "blocks", "capacities")

    def __init__(self, ground: GroundSet, blocks: tuple[SubsetMask, ...],
                 capacities: tuple[int, ...]):
        blocks, capacities = tuple(blocks), tuple(capacities)
        if len(blocks) != len(capacities):
            raise ValidationError("capacities must align with blocks")
        if not blocks:
            raise ValidationError("a covering needs at least one block")
        _check_covering(ground, (_bits_on(ground, b) for b in blocks))
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
        return cls(ground, [ground.subset(b) for b in blocks], capacities)

    @property
    def m(self) -> int:
        return len(self.blocks)

    def is_partition(self) -> bool:
        # The blocks union to U, so they are disjoint iff their sizes sum to n.
        return sum(len(b) for b in self.blocks) == self.ground.n

    def block_family(self) -> SetFamily:
        return SetFamily(self.ground, self.blocks)

    def with_capacities(self, capacities: Sequence[int]) -> CapacitatedCovering:
        return CapacitatedCovering(self.ground, self.blocks, capacities)


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
    because transversal independence counts indices, not distinct sets.
    The members are copied into a tuple before they are checked."""

    ground: GroundSet
    members: tuple[SubsetMask, ...]
    _fields = ("ground", "members")

    def __init__(self, ground: GroundSet, members: tuple[SubsetMask, ...]):
        members = tuple(members)
        for m in members:
            _bits_on(ground, m)
        super().__init__(ground, members)

    @classmethod
    def from_labels(
        cls, ground: GroundSet, members: Iterable[Iterable[str]]
    ) -> IndexedFamily:
        return cls(ground, [ground.subset(m) for m in members])

    def union_bits(self) -> int:
        u = 0
        for m in self.members:
            u |= m.bits
        return u


def _augmenter(caps: Sequence[int], adj: Sequence[Sequence[int]]) -> Callable[[int], bool]:
    """A fresh ``place`` for bipartite matching: element u is admitted by
    the blocks ``adj[u]``, block i holds up to ``caps[i]`` elements, and u
    goes in along a shortest augmenting path if there is one (Edmonds and
    Karp, J. ACM 19(2), 1972).  A block of u's own with room takes u at
    once; otherwise the search runs breadth-first from u, where x reaches
    every y held in a block of x not yet met, and x ends the path in a
    block with room.  Each y met records the x that would take its place,
    and in which block, so the holders shift back one step along the path.
    Each block keeps the list of the elements it holds."""
    held: list[list[int]] = [[] for _ in caps]

    def place(u: int) -> bool:
        for i in adj[u]:
            if len(held[i]) < caps[i]:
                held[i].append(u)
                return True
        came: dict[int, tuple[int, int] | None] = {u: None}  # y: (x, i)
        met: set[int] = set()
        queue = [u]
        for x in queue:
            for i in adj[x]:
                if i in met:
                    continue
                met.add(i)
                holders = held[i]
                if len(holders) < caps[i]:
                    holders.append(x)
                    while came[x] is not None:
                        y, (x, i) = x, came[x]
                        holders = held[i]
                        holders[holders.index(y)] = x
                    return True
                # An element is held by one block, so each y is met once.
                for y in holders:
                    came[y] = (x, i)
                queue += holders
        return False

    return place


def _union_bitmap(pairs: Sequence[tuple[int, int]], lacks: Sequence[int]) -> int:
    """The powerset bitmap (see :class:`~covmatroid.matroid.Matroid`) of the
    union of the k-rank matroids M(K, k) of the (block, capacity)
    ``pairs``: the sets X_1 ∪ … ∪ X_m with X_i ⊆ K_i and |X_i| ≤ k_i.
    From {∅}, block i runs min(k_i, |K_i|) rounds, each adding at most one
    element of K_i to every member: (B & lacks[e]) << 2^(n-1-e) moves each
    member without e to the member with e, every term from the round's
    start."""
    n = len(lacks)
    family = 1
    for bits, k in pairs:
        steps = [(lacks[e], 1 << (n - 1 - e)) for e in _indices(bits)]
        for _ in range(min(k, len(steps))):
            grown = family
            for lack, shift in steps:
                grown |= (family & lack) << shift
            family = grown
    return family


def _placement_matroid(ground: GroundSet, placer: Callable[[], Callable[[int], bool]],
                       provenance: str) -> Matroid:
    """The handle that hands the elements of a set, in ascending order, by
    index to ``place`` of one fresh ``placer()``, which says whether each
    one joins those placed.  A set is independent iff none is missed (the
    query stops at the first miss); its rank is its size less the misses.
    Both placers, ``_augmenter`` and ``_partitioner``, search breadth-first
    with parent pointers, so a path of any length is placed."""

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


def _partition_rank(pairs: Sequence[tuple[int, int]], bits: int) -> int:
    r = 0
    for bb, k in pairs:
        c = (bits & bb).bit_count()
        r += c if c < k else k
    return r


def _matching_matroid(ground: GroundSet, block_bits: Sequence[int],
                      caps: Sequence[int], provenance: str) -> Matroid:
    """A handle on the maximum bipartite flow between elements and
    capacitated blocks: block i accepts up to caps[i] of its own elements,
    a set is independent iff a full assignment exists, and its rank is the
    flow value.

    Zero-capacity blocks are dropped first: such a block takes no element,
    so it can never improve a cut or an assignment.  The path is chosen once,
    from the live blocks left:

    * pairwise disjoint, however many: a cut handle whose cuts are the live
      blocks, plus U minus their union with capacity 0.  The flow is the
      partition sum of min(|X ∩ K|, k) (Edmonds and Fulkerson, J. Res. NBS
      69B, 1965), and cl(X) is X plus every cut K with |X ∩ K| ≥ k.
    * overlapping, at most ``_CUT_CAP``: a cut handle on the minimum cut
      over block subsets B (max-flow min-cut).  The elements whose every
      admissible block lies in B must fit within B's total capacity, and
      the flow equals |X| minus the worst deficiency D (0 when no cut is
      deficient), so cl(X) is X plus every cut of deficiency D; a dropped
      cut is full on X only inside X.  The table keeps the cuts in the
      order the block subsets are met, unsorted.
    * more: a placement handle, by augmenting paths from an empty
      assignment on every query.

    A set is independent on a cut handle iff it meets every cut within
    capacity, and gets closure, one pass over the cuts, as the private
    ``_closure`` hook.  No path keeps per-handle state that grows with
    queries, and each gets the walk's bitmap factory over the live pairs.
    """
    live = tuple((bb, k) for bb, k in zip(block_bits, caps) if k > 0)
    covered = 0
    for bb, _ in live:
        covered |= bb
    if sum(bb.bit_count() for bb, _ in live) == covered.bit_count():
        rest = ground.full_mask & ~covered
        cuts = live + ((rest, 0),) if rest else live
        rank = partial(_partition_rank, live)

        def closure(bits: int) -> int:
            out = bits
            for bb, k in cuts:
                if (bits & bb).bit_count() >= k:
                    out |= bb
            return out
    elif len(live) <= _CUT_CAP:
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

        def closure(bits: int) -> int:
            worst, out = 0, bits
            for only, capsum in cuts:
                d = (bits & only).bit_count() - capsum
                if d > worst:
                    worst, out = d, bits | only
                elif d == worst:
                    out |= only
            return out
    else:
        adj = tuple(
            tuple(i for i, (bb, _) in enumerate(live) if bb >> e & 1)
            for e in range(ground.n)
        )
        placer = partial(_augmenter, tuple(k for _, k in live), adj)
        m = _placement_matroid(ground, placer, provenance)
        m._bitmap = partial(_union_bitmap, live)
        return m

    def indep(bits: int) -> bool:
        for only, capsum in cuts:
            if (bits & only).bit_count() > capsum:
                return False
        return True

    m = Matroid(ground, indep, rank_hint=rank, provenance=provenance)
    m._bitmap = partial(_union_bitmap, live)
    m._closure = closure
    return m


def k_rank_matroid(ground: GroundSet, block: SubsetMask, k: int) -> Matroid:
    """M(K, k), whose independent sets are the subsets of ``block`` of size
    at most ``k``: the partition matroid of {K, U - K} with capacities
    (k, 0), so its loops are exactly U minus the block."""
    if type(k) is not int:
        raise ValidationError("k must be an integer")
    if k < 0:
        raise ValidationError("k must be nonnegative")
    return _matching_matroid(ground, [_bits_on(ground, block)], [k], "k-rank")


def partition_matroid(p: PartitionWitness) -> Matroid:
    """Independent sets meet each partition block in at most its capacity."""
    return _matching_matroid(p.covering.ground, [b.bits for b in p.blocks],
                             p.capacities, "partition")


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
    """Covering matroid with every capacity zeroed except the i-th: the
    matching handle of block i alone, as zero-capacity blocks take no
    element, so equal to the k-rank matroid of block i."""
    _check_block_index(c, i)
    return _matching_matroid(c.ground, [c.blocks[i].bits], [c.capacities[i]],
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
    return CapacitatedCovering(f.ground, [f.ground.mask(b) for b in blocks], caps)


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
    return _matching_matroid(p.covering.ground, [b.bits for b in p.blocks],
                             [b.cardinality - 1 for b in p.blocks],
                             "partition-circuit")


def partition_dual_params(p: PartitionWitness) -> tuple[int, ...]:
    """Capacities (|P_i| - min(|P_i|, k_i)) such that the partition matroid
    with these parameters is the dual of the one induced by ``p``."""
    return tuple(
        b.cardinality - min(b.cardinality, k)
        for b, k in zip(p.blocks, p.capacities)
    )
