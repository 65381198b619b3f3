"""Generic matroid over an independence oracle.

Rank, closure, circuits, bases and the dual are all derived from the
oracle.  Greedy rank is correct only because the oracle satisfies the
independence axioms; handles are therefore produced by the construction
functions or by :func:`check_independence_axioms`-vetted families.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations, permutations

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


class Matroid:
    """A ground set plus an independence oracle over index bitmasks.

    ``indep_bits`` decides independence of an integer bitmask; ``rank_hint``
    is an optional closed-form rank function.  ``provenance`` is a label for
    ``repr`` and tracing only.

    Precondition: the oracle is hereditary (I2: every subset of an
    independent set is independent).  The enumerations extend independent
    sets only, so on an oracle that breaks I2 they miss sets; every handle
    the package builds satisfies it.

    A handle is immutable (its oracle is fixed at construction), so its
    independent, circuit and base families come from one walk on first use
    and are kept for its lifetime: near the fixed enumeration cap, n ≤
    ``DEFAULT_ENUM_CAP`` = 22, which the walk checks first, millions of
    masks.  The walk asks an extension hook ``extend(I, cand)`` for the
    candidates e in ``cand`` with I + e independent, where I is independent
    and ``cand`` holds only elements e above max I with (I - max I) + e
    independent (any elements for I = ∅).  By default the hook asks
    ``indep_bits`` per candidate; the package's constructions instead fill
    the private ``_extend``, a factory the walk calls once for a hook that
    may rely on that precondition (the cut hook indexes its cuts by element
    there, so handles that never walk never build the index).  A warm
    :meth:`bases` reads the walk; dual bases are the complements of the
    primal's.
    """

    __slots__ = ("ground", "indep_bits", "rank_hint", "provenance", "_extend",
                 "_dual_of", "_families")

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
        self._extend: Callable[[], Callable[[int, int], int]] | None = None
        self._dual_of: Matroid | None = None
        self._families: tuple[SetFamily, SetFamily, SetFamily] | None = None

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
        """All elements whose addition leaves the rank unchanged."""
        bits = _bits_on(self.ground, x)
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

    def _scan_extensions(self, bits: int, cand: int) -> int:
        """The default extension hook: one oracle call per candidate."""
        indep = self.indep_bits
        out = 0
        while cand:
            e = cand & -cand
            cand ^= e
            if indep(bits | e):
                out |= e
        return out

    def _walk(self) -> tuple[SetFamily, SetFamily, SetFamily]:
        """The independent, circuit and base families in canonical order,
        from one level-wise walk on first use.  Each member I of level k
        carries cand(I), the elements above max I that its parent's hook
        accepted (all of U for ∅); level k+1 extends each I, in order, by
        each element e the hook accepts, which keeps lex order, and I + e
        carries the accepted elements above e.  By I2 no other element
        extends I, and a dependent I + e with e outside cand(I) contains the
        dependent (I - max I) + e, so it is no circuit.  The rest of cand(I)
        are the dependent extensions; one is a circuit iff dropping any one
        element of I leaves a member of level k (dropping the new element
        leaves I).  A level is two lists, the members that still have
        candidates and those candidates, so a leaf is never visited again;
        the dependent extensions are kept as the walk meets them and tested
        against the finished family, in which a k-set is a member iff it is
        in level k.  The last non-empty level holds the bases."""
        if self._families is None:
            check_enum_cap(self.ground.n)
            extend = self._extend() if self._extend else self._scan_extensions
            independents = [0]
            found = independents.append
            dependent: list[tuple[int, int]] = []
            top = 0  # where the last non-empty level starts in independents
            members, cands = [0], [self.ground.full_mask]
            while members:
                start = len(independents)
                nxt_members: list[int] = []
                nxt_cands: list[int] = []
                for i, cand in zip(members, cands):
                    ext = extend(i, cand)
                    if ext != cand:
                        dependent.append((i, cand ^ ext))
                    while ext:
                        e = ext & -ext
                        ext ^= e
                        found(i | e)
                        if ext:
                            nxt_members.append(i | e)
                            nxt_cands.append(ext)
                if len(independents) > start:
                    top = start
                members, cands = nxt_members, nxt_cands
            family = SetFamily._canonical(self.ground, independents)
            indep = family.bitset()
            circuits = []
            for i, dep in dependent:
                while dep:
                    e = dep & -dep
                    dep ^= e
                    c = i | e
                    rest = i
                    while rest:
                        low = rest & -rest
                        if c ^ low not in indep:
                            break
                        rest ^= low
                    else:
                        circuits.append(c)
            self._families = (family,
                              SetFamily._canonical(self.ground, circuits),
                              SetFamily._canonical(self.ground, independents[top:]))
        return self._families

    def independent_family(self) -> SetFamily:
        return self._walk()[0]

    def circuits(self) -> SetFamily:
        """Minimal dependent sets: the dependent one-element extensions of
        independent sets whose one-element deletions are all independent."""
        return self._walk()[1]

    def bases(self) -> SetFamily:
        """Maximal independent sets in canonical order: a walked handle's top
        level, a dual handle's primal bases complemented (which reverses
        canonical order within one size), else the independent r(U)-subsets,
        so a cold handle near the cap keeps no 2^n masks."""
        if self._families is not None:
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
        r_full = self.rank_bits(full)
        rank_bits = self.rank_hint or self.greedy_rank_bits

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
