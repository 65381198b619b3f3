"""Ground sets, subset masks and set families.

Elements are referenced internally by index 0..n-1; labels appear only at
construction and printing boundaries.  Subsets are stored as integer
bitmasks, so all set arithmetic is plain bit arithmetic.

Two checks the other modules share live here: ``_bits_on`` reads the mask
of a subset that must lie on a given ground set (a query's argument, a
block or a family member), and ``_check_covering`` holds block masks to a
covering's rule (nonempty, distinct, union the universe).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

#: The largest ground set that enumerations and powerset scans accept.
DEFAULT_ENUM_CAP = 22


class ValidationError(ValueError):
    """A value failed construction-time validation; ``block`` is the
    position of the covering block at fault, if one is."""

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


class SizeLimitError(RuntimeError):
    """An enumeration-heavy operation refused a too-large ground set."""


def check_enum_cap(n: int) -> None:
    if n > DEFAULT_ENUM_CAP:
        raise SizeLimitError(
            f"ground set has {n} elements; enumeration is capped at {DEFAULT_ENUM_CAP}"
        )


class GroundSet:
    """A non-empty finite universe with stable, distinct element labels."""

    __slots__ = ("labels", "n", "full_mask", "_index")

    def __init__(self, labels: Iterable[str]):
        self.labels: tuple[str, ...] = tuple(labels)
        if not self.labels:
            raise ValidationError("ground set must be non-empty")
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValidationError("ground set labels must be distinct")
        self.n: int = len(self.labels)
        self.full_mask: int = (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown element {label!r}") from None

    def subset(self, labels: Iterable[str] = ()) -> SubsetMask:
        bits = 0
        try:
            for lab in labels:
                bits |= 1 << self._index[lab]
        except KeyError:
            raise ValidationError(f"unknown element {lab!r}") from None
        return SubsetMask(self, bits)

    def mask(self, bits: int) -> SubsetMask:
        return SubsetMask(self, bits)

    def full(self) -> SubsetMask:
        return SubsetMask(self, self.full_mask)

    def empty(self) -> SubsetMask:
        return SubsetMask(self, 0)

    def singleton(self, label: str) -> SubsetMask:
        return SubsetMask(self, 1 << self.index(label))

    def subsets(self) -> Iterator[SubsetMask]:
        """All subsets in canonical order (cardinality, then index-lex)."""
        for bits in sorted(range(1 << self.n), key=_canonical_sort_key(self.n)):
            yield SubsetMask(self, bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"


def _bits_on(ground: GroundSet, x: SubsetMask) -> int:
    """The mask of ``x``, which must be a subset of ``ground`` (the same
    object, or one with the same labels)."""
    if x.ground is not ground and x.ground != ground:
        raise ValidationError("the subset belongs to another ground set")
    return x.bits


def _check_covering(ground: GroundSet, masks: Iterable[int]) -> None:
    """Reject block masks, checked in order, unless each is nonempty and
    new and together they union to the universe of ``ground``."""
    union = 0
    seen = set()
    for i, bits in enumerate(masks):
        if not bits:
            raise ValidationError("covering blocks must be nonempty", i)
        if bits in seen:
            raise ValidationError("duplicate covering blocks are not allowed", i)
        seen.add(bits)
        union |= bits
    if union != ground.full_mask:
        raise ValidationError("covering blocks must union to the universe")


def _indices(bits: int) -> tuple[int, ...]:
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def _canonical_sort_key(n: int) -> Callable[[int], int]:
    """An integer key that orders the subsets of an n-element ground set as
    :meth:`SubsetMask.canonical_key` does.  The cardinality fills the high bits.
    Below it, the mask is bit-reversed and complemented, so two sets of
    equal size compare by the smallest element of their symmetric
    difference: the set holding it comes first."""
    full = (1 << n) - 1
    fmt = f"0{n}b"

    def key(bits: int) -> int:
        return (bits.bit_count() << n) | (full ^ int(format(bits, fmt)[::-1], 2))

    return key


class Record:
    """Base of the package's immutable value classes.

    A subclass names in ``_fields`` the attributes its value is made of:
    ``==`` (true only against an instance of the same class), ``hash`` and
    ``repr`` (``Name(field=value, ...)``) read them in that order.  Its
    ``__init__`` validates the arguments and ends in ``super().__init__``
    with one value per field, in that order; this class stores them with
    ``object.__setattr__``, and any later assignment or deletion raises
    :class:`AttributeError`.  Copies and pickles restore the instance
    dictionary without calling ``__init__``, except for the slotted
    :class:`SubsetMask`, which has no instance dictionary: its ``__reduce__``
    rebuilds it through ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SubsetMask(Record):
    """One subset of a ground set, stored as an index bitmask."""

    ground: GroundSet
    bits: int
    __slots__ = ("ground", "bits")
    _fields = ("ground", "bits")

    def __init__(self, ground: GroundSet, bits: int):
        if bits & ~ground.full_mask:
            raise ValidationError("subset refers to indices outside the ground set")
        # Stored here, not by Record.__init__, since subsets are built in bulk.
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "bits", bits)

    def __reduce__(self):
        return (SubsetMask, (self.ground, self.bits))

    # Record's comparison and hash with the fields spelled out, since
    # subsets are compared and hashed in bulk.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is SubsetMask:
            return (self.ground, self.bits) == (other.ground, other.bits)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ground, self.bits))

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return _indices(self.bits)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.ground.labels[i] for i in self.indices())

    def complement(self) -> SubsetMask:
        return SubsetMask(self.ground, self.bits ^ self.ground.full_mask)

    def contains(self, label: str) -> bool:
        return bool(self.bits >> self.ground.index(label) & 1)

    def issubset(self, other: SubsetMask) -> bool:
        return self.bits & ~_bits_on(self.ground, other) == 0

    def __or__(self, other: SubsetMask) -> SubsetMask:
        return SubsetMask(self.ground, self.bits | _bits_on(self.ground, other))

    def __and__(self, other: SubsetMask) -> SubsetMask:
        return SubsetMask(self.ground, self.bits & _bits_on(self.ground, other))

    def __sub__(self, other: SubsetMask) -> SubsetMask:
        return SubsetMask(self.ground, self.bits & ~_bits_on(self.ground, other))

    def __len__(self) -> int:
        return self.cardinality

    def __bool__(self) -> bool:
        return self.bits != 0

    def canonical_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.cardinality, self.indices())

    def __repr__(self) -> str:
        return format_set(self)


def format_set(x: SubsetMask) -> str:
    """Deterministic human-readable rendering, e.g. ``{a,b}``; empty is ``∅``."""
    if not x.bits:
        return "∅"
    return "{" + ",".join(x.labels()) + "}"


#: Lines per write of :func:`write_family`, so printing a family near the
#: enumeration cap never holds more than this many lines of text at once.
_WRITE_BLOCK = 4096


def _label_strings(labels: tuple[str, ...], head: str, tail: str,
                   used: Iterable[int] | None) -> list[str] | dict[int, str]:
    """Entry ``x`` is ``head + ",".join(labels of the set bits of x) + tail``:
    a list over every ``x`` below ``2 ** len(labels)``, or a dict over the
    ``used`` values, each joined from the strings of its two halves."""
    j = len(labels) if used is None else len(labels) // 2
    low, high = [""], [""]
    for i, lab in enumerate(labels):
        part = low if i < j else high
        lab = "," + lab
        part += [t + lab for t in part]
    if used is None:
        return [head + s[1:] + tail for s in low]
    m = (1 << j) - 1
    return {x: head + (low[x & m] + high[x >> j])[1:] + tail for x in used}


def write_family(fam: SetFamily, out) -> None:
    """Write each member of ``fam`` as :func:`format_set` renders it, one a
    line, in canonical order, at most ``_WRITE_BLOCK`` lines per write.

    Reads the masks, never ``members``.  A mask's low k = ⌈n/2⌉ bits x and
    the rest h give its line as one concatenation, ``lo[x] + after[h]``
    ("{a,b" and ",c}"), or ``alone[h]`` if x is 0 ("{c}", "∅"), which is
    ``after[h]`` with its comma turned into a brace.  The tables hold every
    half value, or, for a family with fewer members than half of 2^k, only
    the values its members use.
    """
    labels, ordered = fam.ground.labels, fam._ordered
    k = (len(labels) + 1) // 2
    m = (1 << k) - 1
    lows = highs = None
    if 2 * len(ordered) < 1 << k:
        lows, highs = {b & m for b in ordered}, {b >> k for b in ordered}
    lo = _label_strings(labels[:k], "{", "", lows)
    after = _label_strings(labels[k:], ",", "}\n", highs)
    if highs is None:
        alone = ["{" + s[1:] for s in after]
    else:
        alone = {h: "{" + s[1:] for h, s in after.items()}
    after[0], alone[0] = "}\n", "∅\n"
    for start in range(0, len(ordered), _WRITE_BLOCK):
        out.write("".join([lo[x] + after[b >> k] if (x := b & m) else alone[b >> k]
                           for b in ordered[start:start + _WRITE_BLOCK]]))


class SetFamily:
    """A finite collection of distinct subsets of one ground set.

    Members are canonically ordered by (cardinality, index-lexicographic),
    so equal families compare equal structurally and serialize identically.
    The masks are kept as integers, each checked against the ground set when
    the family is built.  Two views are built on first use and kept: the
    ``members`` tuple of :class:`SubsetMask`, and the frozenset of masks that
    :meth:`bitset`, ``in``, ``==`` and ``hash`` read.  ``SetFamily(...)``
    builds the frozenset at once, to refuse duplicate members; a family
    the walk decodes does not, so printing it builds neither view.

    A decoded family's masks come canonical within each size, and are sorted
    by size only on the first read of ``_ordered`` (members, iteration,
    :func:`write_family`, the axiom checker).  ``len``, :meth:`bitset`,
    ``in``, :meth:`contains_bits`, ``==``, ``hash`` and :meth:`union_mask`
    never sort.
    """

    __slots__ = ("ground", "_masks", "_by_size", "_members", "_bitset")

    def __init__(self, ground: GroundSet, members: Iterable[SubsetMask | int]):
        self.ground = ground
        masks = []
        for m in members:
            if isinstance(m, SubsetMask):
                masks.append(_bits_on(ground, m))
            elif type(m) is int:
                if m & ~ground.full_mask:
                    raise ValidationError(
                        "subset refers to indices outside the ground set")
                masks.append(m)
            else:
                raise ValidationError(
                    f"a family member is a SubsetMask or an int mask, not {m!r}")
        bitset = frozenset(masks)
        if len(bitset) != len(masks):
            raise ValidationError("duplicate members are forbidden in a set family")
        self._fill(sorted(bitset, key=_canonical_sort_key(ground.n)), True, bitset)

    @classmethod
    def _canonical(cls, ground: GroundSet, ordered: list[int]) -> SetFamily:
        """A family of masks that are already distinct, in canonical order
        and inside the ground set, taken as they are: no sort and no
        check."""
        fam = cls.__new__(cls)
        fam.ground = ground
        fam._fill(ordered, True, None)
        return fam

    @classmethod
    def _decoded(cls, ground: GroundSet, masks: list[int]) -> SetFamily:
        """A family of distinct masks inside the ground set, each size's
        masks in canonical order but the sizes in any order; no check, and
        the list is sorted by size in place on the first read of
        ``_ordered``."""
        fam = cls.__new__(cls)
        fam.ground = ground
        fam._fill(masks, False, None)
        return fam

    def _fill(self, masks: list[int], by_size: bool,
              bitset: frozenset[int] | None) -> None:
        self._masks = masks
        self._by_size = by_size
        self._bitset = bitset
        self._members: tuple[SubsetMask, ...] | None = None

    @property
    def _ordered(self) -> list[int]:
        """The masks in canonical order: a stable sort by size, made once,
        of a decoded family's masks."""
        if not self._by_size:
            self._masks.sort(key=int.bit_count)
            self._by_size = True
        return self._masks

    @property
    def members(self) -> tuple[SubsetMask, ...]:
        if self._members is None:
            # The masks were checked when the family was built, so the slots
            # are filled directly, with no validating __init__ per member.
            ordered, ground = self._ordered, self.ground
            new = object.__new__
            set_ground = SubsetMask.ground.__set__
            set_bits = SubsetMask.bits.__set__
            boxed = [new(SubsetMask) for _ in ordered]
            for x, bits in zip(boxed, ordered):
                set_ground(x, ground)
                set_bits(x, bits)
            self._members = tuple(boxed)
        return self._members

    @classmethod
    def from_labels(cls, ground: GroundSet, sets: Iterable[Iterable[str]]) -> SetFamily:
        return cls(ground, [ground.subset(s) for s in sets])

    def __contains__(self, x: SubsetMask) -> bool:
        return _bits_on(self.ground, x) in self.bitset()

    def contains_bits(self, bits: int) -> bool:
        return bits in self.bitset()

    def bitset(self) -> frozenset[int]:
        if self._bitset is None:
            self._bitset = frozenset(self._masks)
        return self._bitset

    def union_mask(self) -> SubsetMask:
        u = 0
        for b in self._masks:
            u |= b
        return SubsetMask(self.ground, u)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self._masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.ground == other.ground
            and self.bitset() == other.bitset()
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.bitset()))

    def __repr__(self) -> str:
        return "{" + ", ".join(format_set(m) for m in self.members) + "}"
