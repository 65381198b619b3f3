import ast
import io
import pathlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import covmatroid
from covmatroid import GroundSet, SetFamily, SizeLimitError, SubsetMask, ValidationError
from covmatroid.core import _WRITE_BLOCK, check_enum_cap, format_set, write_family


def fam(ground, *sets):
    return SetFamily.from_labels(ground, sets)


class TestGroundSet:
    def test_labels_must_be_distinct(self):
        with pytest.raises(ValidationError):
            GroundSet(["a", "a"])

    def test_must_be_nonempty(self):
        with pytest.raises(ValidationError):
            GroundSet([])

    def test_singleton(self):
        g = GroundSet("abc")
        assert g.singleton("b") == g.subset("b")
        with pytest.raises(ValidationError, match="unknown element 'z'"):
            g.singleton("z")

    def test_index_label_bijection(self):
        g = GroundSet("abc")
        assert [g.index(lab) for lab in g.labels] == [0, 1, 2]
        with pytest.raises(ValidationError):
            g.index("z")


#: Ground sets of the same size as abc and of a larger one.
FOREIGN = ("xyz", "xyzw")


class TestSubsetMask:
    def test_complement_involution(self):
        g = GroundSet("abcd")
        x = g.subset("bd")
        assert x.complement().complement() == x
        assert x.cardinality + x.complement().cardinality == g.n

    def test_out_of_range_bits_rejected(self):
        g = GroundSet("ab")
        with pytest.raises(ValidationError):
            g.mask(0b100)

    def test_contains(self):
        x = GroundSet("abc").subset("ac")
        assert [x.contains(lab) for lab in "abc"] == [True, False, True]
        with pytest.raises(ValidationError, match="unknown element 'z'"):
            x.contains("z")

    def test_truth_is_read_from_the_mask(self, monkeypatch):
        # bool() never counts the elements through __len__.
        def refused(self):
            raise AssertionError("bool() counted the elements")

        g = GroundSet("abc")
        monkeypatch.setattr(SubsetMask, "__len__", refused)
        assert not g.empty()
        assert g.subset("b") and g.full()

    def test_repr(self):
        g = GroundSet("abc")
        assert repr(g.subset("ab")) == "{a,b}"
        assert repr(g.empty()) == "∅"

    @pytest.mark.parametrize("op", ["or", "and", "sub", "issubset"])
    def test_subset_of_another_ground_set_rejected(self, op):
        # {a} | {z} of xyz would read as {a,c}; a ground set with the same
        # labels is the same ground set.
        g = GroundSet("abc")
        apply = {"or": lambda x, y: x | y, "and": lambda x, y: x & y,
                 "sub": lambda x, y: x - y, "issubset": SubsetMask.issubset}[op]
        for labels in FOREIGN:
            with pytest.raises(ValidationError, match="another ground set"):
                apply(g.subset("a"), GroundSet(labels).subset("z"))
        assert apply(g.subset("a"), GroundSet("abc").subset("c")) == apply(
            g.subset("a"), g.subset("c"))


class TestSetFamily:
    def test_duplicates_rejected(self):
        g = GroundSet("abc")
        with pytest.raises(ValidationError):
            fam(g, "a", "a")

    def test_canonical_order(self):
        g = GroundSet("abc")
        f = fam(g, "bc", "a", "", "ab", "c")
        assert [repr(m) for m in f] == ["∅", "{a}", "{c}", "{a,b}", "{b,c}"]

    def test_serialization_is_deterministic(self):
        g = GroundSet("abc")
        f1 = fam(g, "bc", "a", "ab")
        f2 = fam(g, "ab", "bc", "a")
        assert repr(f1) == repr(f2)
        assert f1 == f2

    def test_mixed_ground_sets_rejected(self):
        g1, g2 = GroundSet("ab"), GroundSet("cd")
        with pytest.raises(ValidationError):
            SetFamily(g1, [g2.subset("c")])

    def test_int_members_outside_the_ground_set_rejected(self):
        g = GroundSet("abc")
        for bad in (1 << g.n, -1):
            with pytest.raises(ValidationError, match="outside the ground set"):
                SetFamily(g, [0, bad])

    def test_members_that_are_no_mask_rejected(self):
        # int("3") would read as {a,b}, int(1.7) as {a}; a bool is an int,
        # so [True, False] would read as {∅, {a}}.
        g = GroundSet("abc")
        for bad in ("3", 1.7, None, (0, 1), True):
            with pytest.raises(ValidationError, match="SubsetMask or an int mask"):
                SetFamily(g, [0, bad])

    def test_membership_of_a_subset_of_another_ground_set_rejected(self):
        g = GroundSet("abc")
        f = fam(g, "", "a", "b")
        for labels in FOREIGN:
            with pytest.raises(ValidationError, match="another ground set"):
                GroundSet(labels).subset("x") in f
        assert GroundSet("abc").subset("a") in f


@given(st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.integers(min_value=0, max_value=(1 << n) - 1), max_size=40))))
def test_family_order_is_the_canonical_key_sort(case):
    n, members = case
    g = GroundSet(f"x{i}" for i in range(n))
    expected = sorted((g.mask(b) for b in members), key=lambda x: x.canonical_key())
    assert list(SetFamily(g, members).members) == expected


def _random_family(n, size, seed, empty, label):
    """``size`` distinct nonempty masks on n elements labelled
    ``label + i`` (all of them if there are fewer), plus ∅ if ``empty``."""
    ground = GroundSet(f"{label}{i}" for i in range(n))
    rng = random.Random(seed)
    masks = rng.sample(range(1, 1 << n), min(size, (1 << n) - 1))
    return SetFamily(ground, masks + [0] * empty)


class RecordingOut:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=22),
       size=st.integers(min_value=0, max_value=2 * _WRITE_BLOCK + 1),
       seed=st.integers(min_value=0, max_value=2**32),
       empty=st.booleans(),
       label=st.sampled_from(["x", "elem", "é_", "10"]))
@example(n=13, size=2 * _WRITE_BLOCK + 1, seed=0, empty=True, label="elem")
@example(n=22, size=_WRITE_BLOCK + 1, seed=1, empty=False, label="x")
@example(n=17, size=40, seed=2, empty=True, label="é_")
@example(n=1, size=1, seed=0, empty=True, label="x")
@example(n=9, size=100, seed=3, empty=False, label="x")
# Every subset of 6 elements: all 8 high halves with an empty low half.
@example(n=6, size=63, seed=0, empty=True, label="e")
@example(n=11, size=0, seed=0, empty=True, label="x")
# 1023 and 1024 members at n = 22, just below and at half of the 2^11
# values of a half: only the used values, then every value.
@example(n=22, size=1023, seed=5, empty=False, label="x")
@example(n=22, size=1023, seed=6, empty=True, label="x")
@example(n=15, size=700, seed=7, empty=True, label="ψώ")
def test_write_family_prints_what_format_set_prints(n, size, seed, empty, label):
    # n from 1 to 22 splits each mask into halves of ⌈n/2⌉ and ⌊n/2⌋ bits,
    # even and odd, the labels run to two digits, so they are of uneven
    # length, and the larger families span more than one write block.
    fam = _random_family(n, size, seed, empty, label)
    out = io.StringIO()
    write_family(fam, out)
    assert fam._members is None
    assert out.getvalue() == "".join(format_set(m) + "\n" for m in fam)


def test_write_family_writes_at_most_one_block_of_lines_at_once():
    fam = _random_family(14, 2 * _WRITE_BLOCK + 7, 3, True, "e")
    out = RecordingOut()
    write_family(fam, out)
    assert len(out.writes) == 3
    assert all(text.count("\n") <= _WRITE_BLOCK for text in out.writes)
    assert "".join(out.writes) == "".join(format_set(m) + "\n" for m in fam)


def test_write_family_of_no_members_writes_nothing():
    out = RecordingOut()
    write_family(SetFamily(GroundSet("ab"), []), out)
    assert out.writes == []


@pytest.mark.parametrize("n", range(1, 11))
def test_subsets_in_canonical_key_order(n):
    g = GroundSet(f"x{i}" for i in range(n))
    expected = sorted((g.mask(b) for b in range(1 << n)),
                      key=lambda x: x.canonical_key())
    assert list(g.subsets()) == expected


def test_members_are_built_on_first_read_and_kept():
    g = GroundSet("abcd")
    f = SetFamily(g, [0b0011, 0b0100, 0])
    assert len(f) == 3
    assert f.bitset() == {0, 0b0100, 0b0011}
    assert g.mask(0b0100) in f and f.contains_bits(0b0011)
    assert g.mask(0b1000) not in f
    assert f.union_mask() == g.mask(0b0111)
    assert f._members is None
    first = f.members
    assert first is f.members
    assert [m.bits for m in first] == [0, 0b0100, 0b0011]


def test_members_are_boxed_without_init(monkeypatch):
    g = GroundSet("abcde")
    f = SetFamily(g, range(1 << g.n))
    expected = [SubsetMask(g, b) for b in f._ordered]

    def refuse(*args):
        raise AssertionError("SubsetMask.__init__ called")

    monkeypatch.setattr(SubsetMask, "__init__", refuse)
    members = f.members
    assert list(members) == expected
    assert all(type(x) is SubsetMask and x.ground is g for x in members)
    assert [hash(x) for x in members] == [hash(x) for x in expected]
    assert [repr(x) for x in members] == [repr(x) for x in expected]


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.integers(min_value=0, max_value=(1 << n) - 1), max_size=40))))
def test_canonical_family_equals_the_sorted_one(case):
    n, members = case
    g = GroundSet(f"x{i}" for i in range(n))
    ordered = sorted(members, key=lambda b: g.mask(b).canonical_key())
    taken = SetFamily._canonical(g, ordered)
    built = SetFamily(g, members)
    assert taken == built and hash(taken) == hash(built)
    assert repr(taken) == repr(built)
    assert list(taken.members) == list(built.members)
    assert len(taken) == len(built)
    assert taken.union_mask() == built.union_mask()


def test_enum_cap():
    check_enum_cap(22)
    with pytest.raises(SizeLimitError):
        check_enum_cap(23)


def test_no_module_state_is_rebound_from_a_function():
    # Shared mutable module state: a `global` statement anywhere in the
    # package is the way a function would rebind it.
    sources = sorted(pathlib.Path(covmatroid.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Global)]
        assert not found, f"{path.name}: `global` at lines {found}"


def test_every_imported_name_is_used():
    # Every package module (not `__init__.py`, which re-exports) and every
    # test module reads each name it imports; `from __future__` binds no
    # name.
    package = sorted(pathlib.Path(covmatroid.__file__).parent.glob("*.py"))
    tests = sorted(pathlib.Path(__file__).parent.glob("*.py"))
    assert package and tests
    unused = {}
    for path in package + tests:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[f"{path.parent.name}/{path.name}"] = sorted(imported - used)
    assert not unused
