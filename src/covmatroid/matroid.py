"""Generic matroid over an independence oracle.

Rank and the dual are derived from the oracle, and so is closure (n + 1
rank calls) unless the handle carries its own, as the partition-sum and
cut-table handles of ``constructions`` do.  Independent sets, circuits and
bases are read off powerset bitmaps of the independent sets and of the
circuits, each family on first use, and sorted by size only when their
order is read; the bases are the rank level of the first bitmap.  A
handle built from (block, capacity) pairs computes the first bitmap from
its pairs and any other handle fills it from its oracle.
Greedy rank is correct only because the oracle satisfies the independence
axioms; handles are therefore produced by the construction functions or by
:func:`check_independence_axioms`-vetted families.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations, compress, permutations

from .core import (
    GroundSet,
    Record,
    SetFamily,
    SizeLimitError,
    SubsetMask,
    ValidationError,
    _bits_on,
    _canonical_sort_key,
    check_enum_cap,
)

DEFAULT_ISO_CAP = 8

MATROID = "matroid"
VIOLATES_I1 = "violates_I1"
VIOLATES_I2 = "violates_I2"
VIOLATES_I3 = "violates_I3"


class AxiomCertificate(Record):
    """Verdict of an independence-axiom check, with witnesses on failure.

    * ``violates_I2`` carries (I, I') with I' ⊆ I, I independent, I' not.
    * ``violates_I3`` carries (I1, I2) with |I1| < |I2| such that no element
      of I2 - I1 extends I1 inside the family.
    """

    verdict: str
    witnesses: tuple[SubsetMask, ...]
    _fields = ("verdict", "witnesses")

    def __init__(self, verdict: str, witnesses: tuple[SubsetMask, ...] = ()):
        super().__init__(verdict, witnesses)

    @property
    def is_matroid(self) -> bool:
        return self.verdict == MATROID

    def __str__(self) -> str:
        if self.is_matroid:
            return "matroid"
        if self.verdict == VIOLATES_I1:
            return "violates I1: ∅ ∉ I"
        if self.verdict == VIOLATES_I2:
            i, sub = self.witnesses
            return f"violates I2: I={i}, I'={sub}"
        i1, i2 = self.witnesses
        return f"violates I3: I1={i1}, I2={i2}"


# -- powerset bitmaps ---------------------------------------------------------
#
# A powerset bitmap of an n-element ground set is an integer of 2^n bits,
# one per subset: bit p stands for the set whose mask is the n-bit reversal
# of p, so element e is bit n - 1 - e of p and adding e to a set that lacks
# it adds 2^(n-1-e) to p.  Within one size, canonical order (smallest
# differing element first) is then descending p.

#: Maps the digits of a binary string to the 0/1 bytes ``compress`` reads.
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _lacks(n: int) -> list[int]:
    """Entry e is the powerset bitmap of the sets that do not hold element
    e: runs of 2^(n-1-e) ones and as many zeros, built by doubling one
    entry at a time, so building them holds little more than the result
    (2^n / 8 bytes an entry)."""
    size = 1 << n
    lacks = []
    for e in range(n):
        run = 1 << (n - 1 - e)
        bits = (1 << run) - 1
        width = run << 1
        while width < size:
            bits |= bits << width
            width <<= 1
        lacks.append(bits)
    return lacks


def _mask_tables(n: int) -> tuple[list[int], list[int]]:
    """The ``low`` and ``high`` tables :func:`_decode` reads masks from:
    entry j of each is the complement of the reversal of j, the ``low``
    one over the last min(n, ⌈n/2⌉ + 1) elements and the ``high`` one over
    the others.  Each table starts from its full mask; doubling it for
    bit i of j XORs that bit's element out of the copy."""
    low_bits = min(n, (n + 3) // 2)
    tables = []
    for bottom, top in ((n - low_bits, n), (0, n - low_bits)):
        table = [(1 << top) - (1 << bottom)]
        for e in range(top - 1, bottom - 1, -1):
            bit = 1 << e
            table += [t ^ bit for t in table]
        tables.append(table)
    return tables[0], tables[1]


def _level(n: int, r: int) -> int:
    """The powerset bitmap of every r-subset of an n-element ground set:
    the bits p < 2^n with r ones.  Row m holds those bitmaps for m elements
    and sizes 0..r; a bit p of m + 1 elements lacks its top bit (p, same
    size) or holds it (p + 2^m, one larger), so each row is the last one
    ORed with itself shifted one size up: O(n·r) big-int steps."""
    row = [1] + [0] * r
    for m in range(n):
        for k in range(r, 0, -1):
            row[k] |= row[k - 1] << (1 << m)
    return row[r]


def _decode(bitmap: int, n: int, low: list[int], high: list[int]) -> list[int]:
    """The masks of a powerset bitmap's sets, in canonical order within
    each size but not sorted by size.  Its binary string holds bit
    p = 2^n - 1 - j at position j, so it lists the sets of each size in
    canonical order; the mask at j is the complement of the n-bit reversal
    of j, read as ``high[j // w] | low[j % w]`` from two tables of about
    2^(n/2) entries, w = ``len(low)``.  The flags are read a chunk of w at
    a time, skipping empty chunks: ``compress`` picks a chunk's members off
    ``low`` and the chunk's high mask is ORed into each."""
    flags = format(bitmap, f"0{1 << n}b").encode().translate(_DIGITS)
    width = len(low)
    masks: list[int] = []
    j = flags.find(1)
    while j >= 0:
        start = j - j % width
        end = start + width
        h = high[start // width]
        masks += [h | x for x in compress(low, flags[start:end])]
        j = flags.find(1, end)
    return masks


def _deletions_in(bitmap: int, lacks: list[int]) -> int:
    """The powerset bitmap of the sets S such that, for each element e of
    S, S - e is in ``bitmap``: (``bitmap`` & lacks[e]) << 2^(n-1-e) is the
    bitmap of the sets T + e with T in it.  ∅ is always one of them."""
    n = len(lacks)
    out = (1 << (1 << n)) - 1
    for e, lack in enumerate(lacks):
        out &= lack | (bitmap & lack) << (1 << (n - 1 - e))
    return out


def _family_bitmaps(n: int, family_bitmap: Callable[[list[int]], int]
                    ) -> tuple[int, int]:
    """The powerset bitmaps of the independent sets, B =
    ``family_bitmap(_lacks(n))``, and of the circuits: the sets not in B
    whose one-element deletions all are.  The ``lacks`` bitmaps (2^n / 8
    bytes each) are dropped on return."""
    lacks = _lacks(n)
    indep = family_bitmap(lacks)
    return indep, _deletions_in(indep, lacks) & ~indep


class Matroid:
    """A ground set plus an independence oracle over index bitmasks.

    ``indep_bits`` decides independence of an integer bitmask; ``rank_hint``
    is an optional closed-form rank function.  ``provenance`` is a label for
    ``repr`` and tracing only.

    Precondition: the oracle is hereditary (I2: every subset of an
    independent set is independent).  The level fill asks only about sets
    whose every one-element deletion is independent, so on an oracle that
    breaks I2 it misses sets; every handle the package builds satisfies it.

    A handle is immutable (its oracle is fixed at construction), so one walk
    on first use serves every enumeration and is kept for its lifetime.  It
    checks the fixed enumeration cap, n ≤ ``DEFAULT_ENUM_CAP`` = 22, first.
    It keeps two *powerset bitmaps*, of the independent sets and of the
    circuits: integers of 2^n bits whose bit p stands for the set whose mask
    is the n-bit reversal of p.  The independent sets' bitmap comes from a
    factory that takes the ``_lacks`` bitmaps of the ground set:

    * a handle that ``constructions`` builds from (block, capacity) pairs
      fills the private ``_bitmap`` with one that computes it from the
      pairs and asks no oracle;
    * every other handle (duals, unions, and handles built from an oracle
      alone) fills it level by level from ``indep_bits``, one call per
      non-empty independent set and one per circuit (see :meth:`_fill`).

    :meth:`independent_family` and :meth:`circuits` each decode their own
    bitmap on first use and keep the family: near the cap, millions of
    masks, so a family no one asks for is never listed.  A decoded family
    is sorted by size only when its order is read, so a caller of
    ``bitset()``, ``len`` or ``in`` never pays the sort.  A warm
    :meth:`bases` decodes only the rank level of the independent sets'
    bitmap; dual bases are the complements of the primal's.
    """

    __slots__ = ("ground", "indep_bits", "rank_hint", "provenance", "_bitmap",
                 "_closure", "_dual_of", "_walked", "_families")

    def __init__(
        self,
        ground: GroundSet,
        indep_bits: Callable[[int], bool],
        rank_hint: Callable[[int], int] | None = None,
        provenance: str = "oracle",
    ):
        if not indep_bits(0):
            raise ValidationError("independence oracle rejects ∅ (axiom I1)")
        self.ground = ground
        self.indep_bits = indep_bits
        self.rank_hint = rank_hint
        self.provenance = provenance
        self._bitmap: Callable[[list[int]], int] | None = None
        self._closure: Callable[[int], int] | None = None
        self._dual_of: Matroid | None = None
        self._walked: tuple[int, int, list[int], list[int]] | None = None
        self._families: list[SetFamily | None] | None = None

    # -- basic queries ----------------------------------------------------

    def independent(self, x: SubsetMask) -> bool:
        return self.indep_bits(_bits_on(self.ground, x))

    def greedy_rank_bits(self, bits: int) -> int:
        """Greedy rank: scan in index order, keep elements preserving
        independence."""
        kept = 0
        rest = bits
        while rest:
            low = rest & -rest
            rest ^= low
            if self.indep_bits(kept | low):
                kept |= low
        return kept.bit_count()

    def rank_bits(self, bits: int) -> int:
        if self.rank_hint is not None:
            return self.rank_hint(bits)
        return self.greedy_rank_bits(bits)

    def rank(self, x: SubsetMask) -> int:
        return self.rank_bits(_bits_on(self.ground, x))

    def closure(self, x: SubsetMask) -> SubsetMask:
        """All elements whose addition leaves the rank unchanged, read off
        the private ``_closure`` hook when the handle has one."""
        bits = _bits_on(self.ground, x)
        if self._closure is not None:
            return SubsetMask(self.ground, self._closure(bits))
        r = self.rank_bits(bits)
        out = bits
        rest = self.ground.full_mask & ~bits
        while rest:
            low = rest & -rest
            rest ^= low
            if self.rank_bits(bits | low) == r:
                out |= low
        return SubsetMask(self.ground, out)

    def loops(self) -> SubsetMask:
        return self.closure(self.ground.empty())

    # -- enumerations -----------------------------------------------------

    def _fill(self, lacks: list[int], low: list[int], high: list[int]) -> int:
        """The independent family's powerset bitmap, filled level by level
        from the oracle.  The candidates of level k + 1 are the non-empty
        sets whose one-element deletions are all in level k.  The oracle is
        asked once per candidate, each rejected one is cleared from the
        binary string, and the rest are level k + 1.  By I2 every non-empty
        independent set and every circuit is a candidate, and nothing else
        is, so a walk makes |I| - 1 + |C| calls.  ``indep_bits`` is read
        here, at walk time; a candidate's mask is read from the walk's
        ``low`` and ``high`` tables."""
        n = self.ground.n
        indep = self.indep_bits
        shift = len(low).bit_length() - 1
        below = len(low) - 1
        family = level = 1
        while level:
            cand = _deletions_in(level, lacks) ^ 1
            flags = bytearray(format(cand, f"0{1 << n}b").encode())
            j = flags.find(b"1")
            while j >= 0:
                if not indep(high[j >> shift] | low[j & below]):
                    flags[j] = ord("0")
                j = flags.find(b"1", j + 1)
            level = int(flags, 2)
            family |= level
        return family

    def _walk(self) -> tuple[int, int, list[int], list[int]]:
        """The powerset bitmaps of the independent sets and of the circuits,
        from the handle's bitmap factory or else its oracle's fill, and the
        ``low`` and ``high`` tables :func:`_decode` reads them with; built on
        first use and kept."""
        if self._walked is None:
            n = self.ground.n
            check_enum_cap(n)
            tables = _mask_tables(n)
            bitmap = self._bitmap or (lambda lacks: self._fill(lacks, *tables))
            self._walked = (*_family_bitmaps(n, bitmap), *tables)
            self._families = [None, None, None]
        return self._walked

    def _read(self, which: int) -> SetFamily:
        """The family of the walk's bitmap ``which`` (0 the independent
        sets, 1 the circuits), decoded on first use and kept; it is sorted
        by size when its order is first read."""
        walked = self._walk()
        fam = self._families[which]
        if fam is None:
            fam = self._families[which] = SetFamily._decoded(
                self.ground, _decode(walked[which], self.ground.n, *walked[2:]))
        return fam

    def independent_family(self) -> SetFamily:
        return self._read(0)

    def circuits(self) -> SetFamily:
        """Minimal dependent sets: the sets outside the independent family
        whose one-element deletions are all in it."""
        return self._read(1)

    def bases(self) -> SetFamily:
        """Maximal independent sets in canonical order: on a walked handle,
        the independent sets' bitmap ANDed with the bitmap of every
        r(U)-subset, decoded (one size needs no sort); a dual handle's
        primal bases complemented (which reverses canonical order within one
        size); else the independent r(U)-subsets, so a cold handle near the
        cap keeps no 2^n masks."""
        if self._walked is not None:
            if self._families[2] is None:
                n = self.ground.n
                indep, _, low, high = self._walked
                top = indep & _level(n, self.rank_bits(self.ground.full_mask))
                self._families[2] = SetFamily._canonical(
                    self.ground, _decode(top, n, low, high))
            return self._families[2]
        check_enum_cap(self.ground.n)
        full = self.ground.full_mask
        if self._dual_of is not None:
            primal = self._dual_of.bases()._ordered
            return SetFamily._canonical(self.ground,
                                        [full ^ b for b in reversed(primal)])
        r = self.rank_bits(full)
        indep = self.indep_bits
        singles = [1 << e for e in range(self.ground.n)]
        return SetFamily._canonical(
            self.ground,
            [b for b in map(sum, combinations(singles, r)) if indep(b)],
        )

    # -- duality ----------------------------------------------------------

    def dual(self) -> Matroid:
        """Dual matroid via the rank identity r*(X) = |X| + r(U-X) - r(U).

        Equivalently: X is dual-independent iff X avoids some base, i.e.
        iff r(U-X) = r(U).
        """
        full = self.ground.full_mask
        rank_bits = self.rank_bits
        r_full = rank_bits(full)

        def dual_indep(bits: int) -> bool:
            # U − ∅ = U, so ∅ needs no rank call (the I1 check asks for it).
            return not bits or rank_bits(full & ~bits) == r_full

        def dual_rank(bits: int) -> int:
            return bits.bit_count() + rank_bits(full & ~bits) - r_full

        dual = Matroid(self.ground, dual_indep, rank_hint=dual_rank,
                       provenance=f"dual({self.provenance})")
        dual._dual_of = self
        return dual

    def is_identically_self_dual(self) -> bool:
        """True iff M = M* (not merely isomorphic): as B(M*) = {U−B : B ∈ B(M)},
        iff the base family is closed under complement in U."""
        check_enum_cap(self.ground.n)
        # A base complement has n − r(U) elements, so it can be a base only
        # when 2·r(U) = n.
        if 2 * self.rank_bits(self.ground.full_mask) != self.ground.n:
            return False
        bases = self.bases().bitset()
        return all(self.ground.full_mask & ~b in bases for b in bases)

    def __repr__(self) -> str:
        return f"Matroid(n={self.ground.n}, provenance={self.provenance!r})"


def check_independence_axioms(family: SetFamily) -> AxiomCertificate:
    """Check I1, I2, I3 in order, reporting the first violated axiom with
    witnesses that are minimal in canonical order."""
    ground = family.ground
    check_enum_cap(ground.n)
    bitset = family.bitset()
    if 0 not in bitset:
        return AxiomCertificate(VIOLATES_I1)
    # The scans read the family's masks in canonical order; only the
    # reported witnesses become SubsetMask objects.
    ordered = family._ordered
    # I2: every subset of a member is a member.  The first member with a
    # missing subset reports the missing subset first in canonical order.
    for bits in ordered:
        sub = (bits - 1) & bits
        missing = []
        while sub:
            if sub not in bitset:
                missing.append(sub)
            sub = (sub - 1) & bits
        if missing:
            worst = min(missing, key=_canonical_sort_key(ground.n))
            return AxiomCertificate(
                VIOLATES_I2, (ground.mask(bits), ground.mask(worst))
            )
    # I3: exchange property, pairs scanned in canonical order.  Once I2
    # holds, a larger member that i1 cannot borrow from has a subset of size
    # |i1|+1 that is a member, fails too and comes earlier in canonical
    # order.  So only pairs whose sizes differ by one need checking, and the
    # first failing pair is the same as over all pairs.
    by_size: list[list[int]] = [[] for _ in range(ground.n + 2)]
    for bits in ordered:
        by_size[bits.bit_count()].append(bits)
    for i1 in ordered:
        for i2 in by_size[i1.bit_count() + 1]:
            rest = i2 & ~i1
            while rest:
                low = rest & -rest
                rest ^= low
                if (i1 | low) in bitset:
                    break
            else:
                return AxiomCertificate(
                    VIOLATES_I3, (ground.mask(i1), ground.mask(i2))
                )
    return AxiomCertificate(MATROID)


def are_isomorphic(
    m1: Matroid, m2: Matroid
) -> tuple[bool, dict[str, str] | None]:
    """Search for a label bijection mapping one independent family onto the
    other.  Cheap invariants (size, rank, circuit-size multiset) prune the
    factorial search."""
    if m1.ground.n > DEFAULT_ISO_CAP or m2.ground.n > DEFAULT_ISO_CAP:
        raise SizeLimitError(
            f"isomorphism search is capped at n ≤ {DEFAULT_ISO_CAP}"
        )
    if m1.ground.n != m2.ground.n:
        return False, None
    fam1 = m1.independent_family()
    fam2 = m2.independent_family()
    if len(fam1) != len(fam2):
        return False, None
    if m1.rank_bits(m1.ground.full_mask) != m2.rank_bits(m2.ground.full_mask):
        return False, None
    sizes1 = sorted(c.cardinality for c in m1.circuits())
    sizes2 = sorted(c.cardinality for c in m2.circuits())
    if sizes1 != sizes2:
        return False, None
    n = m1.ground.n
    bits1 = sorted(fam1.bitset())
    target = fam2.bitset()
    for perm in permutations(range(n)):
        ok = True
        for b in bits1:
            image = 0
            rest = b
            while rest:
                low = rest & -rest
                rest ^= low
                image |= 1 << perm[low.bit_length() - 1]
            if image not in target:
                ok = False
                break
        if ok:
            witness = {
                m1.ground.labels[i]: m2.ground.labels[perm[i]] for i in range(n)
            }
            return True, witness
    return False, None
