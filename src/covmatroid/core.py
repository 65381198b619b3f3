"""Ground sets, subset masks and set families.

Elements are referenced internally by index 0..n-1; labels appear only at
construction and printing boundaries.  Subsets are stored as integer
bitmasks, so all set arithmetic is plain bit arithmetic.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

#: The largest ground set that enumerations and powerset scans accept.
DEFAULT_ENUM_CAP = 22


class ValidationError(ValueError):
    """A value failed construction-time validation."""


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
        for lab in labels:
            bits |= 1 << self.index(lab)
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


def _label_tuples(labels: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Entry ``b`` is the tuple of ``labels[i]`` over the set bits ``i`` of
    ``b``, for every ``b`` below ``2 ** len(labels)``."""
    table: list[tuple[str, ...]] = [()]
    for lab in labels:
        table += [t + (lab,) for t in table]
    return table


def write_family(fam: SetFamily, out) -> None:
    """Write each member of ``fam`` as :func:`format_set` renders it, one a
    line, in canonical order, at most ``_WRITE_BLOCK`` lines per write.

    Reads the masks, never ``members``.  Labels ``8j..8j+7`` get one table
    from a byte of the mask to its label tuple, so a member takes at most
    ⌈n/8⌉ lookups.  A table holds every byte value (the last one 2^(n mod 8)
    of them), or, for a family with fewer members than a quarter of them,
    only the values its members use, each joined from its two nibbles.
    """
    labels = fam.ground.labels
    ordered = fam._ordered
    tables: list = []
    for lo in range(0, len(labels), 8):
        slot = labels[lo:lo + 8]
        if 4 * len(ordered) < 1 << len(slot):
            low, high = _label_tuples(slot[:4]), _label_tuples(slot[4:])
            tables.append({b: low[b & 15] + high[b >> 4]
                           for b in {bits >> lo & 255 for bits in ordered}})
        else:
            tables.append(_label_tuples(slot))
    for start in range(0, len(ordered), _WRITE_BLOCK):
        lines = []
        for bits in ordered[start:start + _WRITE_BLOCK]:
            if not bits:
                lines.append("∅\n")
                continue
            labs: tuple[str, ...] = ()
            j = 0
            while bits:
                labs += tables[j][bits & 255]
                bits >>= 8
                j += 1
            lines.append("{" + ",".join(labs) + "}\n")
        out.write("".join(lines))


class SetFamily:
    """A finite collection of distinct subsets of one ground set.

    Members are canonically ordered by (cardinality, index-lexicographic),
    so equal families compare equal structurally and serialize identically.
    The masks are kept as integers, each checked against the ground set when
    the family is built; the ``members`` tuple of :class:`SubsetMask` is
    built on first access and kept.
    """

    __slots__ = ("ground", "_ordered", "_members", "_bitset")

    def __init__(self, ground: GroundSet, members: Iterable[SubsetMask | int]):
        self.ground = ground
        masks = []
        for m in members:
            if isinstance(m, SubsetMask):
                if m.ground != ground:
                    raise ValidationError("family members must share one ground set")
                masks.append(m.bits)
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
        self._fill(sorted(bitset, key=_canonical_sort_key(ground.n)), bitset)

    @classmethod
    def _canonical(cls, ground: GroundSet, ordered: list[int]) -> SetFamily:
        """A family of masks that are already distinct, in canonical order
        and inside the ground set, taken as they are: no sort and no
        check."""
        fam = cls.__new__(cls)
        fam.ground = ground
        fam._fill(ordered, frozenset(ordered))
        return fam

    def _fill(self, ordered: list[int], bitset: frozenset[int]) -> None:
        self._ordered = ordered
        self._bitset = bitset
        self._members: tuple[SubsetMask, ...] | None = None

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
        return _bits_on(self.ground, x) in self._bitset

    def contains_bits(self, bits: int) -> bool:
        return bits in self._bitset

    def bitset(self) -> frozenset[int]:
        return self._bitset

    def union_mask(self) -> SubsetMask:
        u = 0
        for b in self._ordered:
            u |= b
        return SubsetMask(self.ground, u)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self._ordered)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.ground == other.ground
            and self._bitset == other._bitset
        )

    def __hash__(self) -> int:
        return hash((self.ground, self._bitset))

    def __repr__(self) -> str:
        return "{" + ", ".join(format_set(m) for m in self.members) + "}"
