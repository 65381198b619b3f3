import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from covmatroid import constructions
from covmatroid import matroid as matroid_module
from covmatroid import (
    GroundSet,
    IndexedFamily,
    Matroid,
    SetFamily,
    SizeLimitError,
    ValidationError,
    are_isomorphic,
    check_independence_axioms,
    classify,
    is_2_circuit,
    is_double_circuit,
    is_partition_circuit,
    k_rank_matroid,
    partition_matroid,
    PartitionWitness,
    CapacitatedCovering,
    covering_matroid,
    naive_covering_family,
    recover_partition_from_2circuit,
    transversal_matroid,
    union_matroids,
)
from covmatroid.core import _canonical_sort_key
from covmatroid.oracle import bf_dual_family, bf_rank

from conftest import matching_path, random_covering, scan_definitions


def fam(ground, *sets):
    return SetFamily.from_labels(ground, sets)


def example2_matroid():
    g = GroundSet("abc")
    cov = CapacitatedCovering.from_labels(g, [["a", "b"], ["b", "c"]], [1, 1])
    return covering_matroid(cov)


def free_matroid(n=3):
    g = GroundSet(f"x{i}" for i in range(n))
    return Matroid(g, lambda bits: True, rank_hint=int.bit_count,
                   provenance="free")


def rank0_matroid(labels="abc"):
    g = GroundSet(labels)
    return Matroid(g, lambda bits: bits == 0, rank_hint=lambda bits: 0,
                   provenance="rank0")


class TestAxiomCheck:
    def test_naive_family_violates_i3_with_exact_witnesses(self):
        g = GroundSet("abc")
        cert = check_independence_axioms(fam(g, "", "a", "b", "c", "ac"))
        assert cert.verdict == "violates_I3"
        i1, i2 = cert.witnesses
        assert repr(i1) == "{b}" and repr(i2) == "{a,c}"
        assert str(cert) == "violates I3: I1={b}, I2={a,c}"

    def test_i1_and_i2_verdicts_print_their_witnesses(self):
        g = GroundSet("abc")
        assert str(check_independence_axioms(fam(g, "a"))) == "violates I1: ∅ ∉ I"
        assert (str(check_independence_axioms(fam(g, "", "a", "ab")))
                == "violates I2: I={a,b}, I'={b}")

    def test_rank0_family_is_a_matroid(self):
        g = GroundSet("abc")
        assert check_independence_axioms(fam(g, "")).is_matroid

    def test_seven_member_family_is_a_matroid(self):
        g = GroundSet("abc")
        cert = check_independence_axioms(
            fam(g, "", "a", "b", "c", "ab", "ac", "bc")
        )
        assert cert.is_matroid

    def test_missing_empty_set_violates_i1(self):
        g = GroundSet("ab")
        cert = check_independence_axioms(fam(g, "a"))
        assert cert.verdict == "violates_I1"

    def test_missing_subset_violates_i2(self):
        g = GroundSet("ab")
        cert = check_independence_axioms(fam(g, "", "ab"))
        assert cert.verdict == "violates_I2"
        i, sub = cert.witnesses
        assert repr(i) == "{a,b}" and repr(sub) == "{a}"

    def test_size_limit(self):
        g = GroundSet(f"e{i}" for i in range(23))
        with pytest.raises(SizeLimitError):
            check_independence_axioms(fam(g, ""))

    def test_i3_witness_matches_a_full_pair_scan(self):
        # Naive covering families satisfy I1 and I2, so the verdict turns on
        # I3 alone; hold it to a scan over every pair of unequal sizes.
        rng = random.Random(4)
        violations = 0
        for _ in range(300):
            family = naive_covering_family(
                random_covering(rng, rng.randint(2, 7), rng.randint(1, 4), kmax=2))
            bitset = family.bitset()
            expected = next(
                ((i1, i2) for i1 in family for i2 in family
                 if i1.cardinality < i2.cardinality
                 and not any(i1.bits | 1 << e in bitset
                             for e in (i2 - i1).indices())),
                None)
            cert = check_independence_axioms(family)
            if expected is None:
                assert cert.is_matroid
            else:
                violations += 1
                assert cert.verdict == "violates_I3"
                assert cert.witnesses == expected
        assert violations > 20


def _plain_axiom_scan(family):
    """The verdict and witnesses by the definitions: the members, each
    member's subsets and the member pairs, all in canonical order."""
    ground = family.ground
    if ground.empty() not in family:
        return "violates_I1", ()
    subsets = list(ground.subsets())
    for i in family:
        for sub in subsets:
            if sub.issubset(i) and sub not in family:
                return "violates_I2", (i, sub)
    for i1 in family:
        for i2 in family:
            if len(i1) < len(i2) and not any(
                    i1 | ground.mask(1 << e) in family
                    for e in (i2 - i1).indices()):
                return "violates_I3", (i1, i2)
    return "matroid", ()


def _down_closure(masks):
    closed = {0}
    for bits in masks:
        sub = bits
        while sub:
            closed.add(sub)
            sub = (sub - 1) & bits
    return closed


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), data=st.data())
def test_axiom_check_matches_a_plain_scan(n, data):
    # Raw families mostly break I1 or I2; their down-closures satisfy both,
    # so the verdict turns on I3.
    masks = data.draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1)))
    if data.draw(st.booleans()):
        masks = _down_closure(masks)
    family = SetFamily(GroundSet(f"x{i}" for i in range(n)), masks)
    cert = check_independence_axioms(family)
    assert (cert.verdict, cert.witnesses) == _plain_axiom_scan(family)


@pytest.mark.parametrize("query", ["independent", "rank", "closure"])
def test_subset_of_another_ground_set_rejected(query):
    # On the rank-2 example, rank({x,y,z,w}) read 3 and {w} read independent.
    m = example2_matroid()
    ask = getattr(m, query)
    for labels in ("xyz", "xyzw"):
        with pytest.raises(ValidationError, match="another ground set"):
            ask(GroundSet(labels).subset(labels[-1]))
        with pytest.raises(ValidationError, match="another ground set"):
            ask(GroundSet(labels).full())
    assert ask(GroundSet("abc").subset("a")) == ask(m.ground.subset("a"))


class TestRank:
    def test_rank_of_empty_set(self):
        assert example2_matroid().rank_bits(0) == 0

    def test_example2_full_rank(self):
        m = example2_matroid()
        assert m.rank(m.ground.full()) == 2

    def test_k_rank_closed_form(self):
        g = GroundSet("abc")
        m = k_rank_matroid(g, g.subset("ab"), 1)
        assert m.rank(g.subset("ab")) == 1

    def test_greedy_equals_brute_force_on_random_subsets(self):
        rng = random.Random(7)
        for m in (example2_matroid(),
                  k_rank_matroid(GroundSet("abcde"), GroundSet("abcde").subset("bcd"), 2)):
            full = m.ground.full_mask
            for _ in range(100):
                bits = rng.randrange(full + 1)
                x = m.ground.mask(bits)
                assert m.greedy_rank_bits(bits) == bf_rank(m, x)


class TestClosure:
    def test_closure_of_universe(self):
        m = example2_matroid()
        assert m.closure(m.ground.full()) == m.ground.full()

    def test_loops_of_k_rank_matroid(self):
        g = GroundSet("abc")
        m = k_rank_matroid(g, g.subset("ab"), 1)
        assert repr(m.closure(g.empty())) == "{c}"

    def test_example2_closure_spans(self):
        m = example2_matroid()
        assert m.closure(m.ground.subset("ab")) == m.ground.full()

    def test_extensive_monotone_idempotent(self):
        m = example2_matroid()
        rng = random.Random(3)
        for _ in range(50):
            x = m.ground.mask(rng.randrange(8))
            cl = m.closure(x)
            assert x.issubset(cl)
            assert m.closure(cl) == cl
            y = m.ground.mask(x.bits | rng.randrange(8))
            assert cl.issubset(m.closure(y))


class TestCircuitsBases:
    def test_free_matroid_has_no_circuits(self):
        assert len(free_matroid().circuits()) == 0

    def test_example2_circuits(self):
        assert repr(example2_matroid().circuits()) == "{{a,b,c}}"

    def test_covering_circuits_match_brute_force_min(self):
        g = GroundSet("abcd")
        cov = CapacitatedCovering.from_labels(
            g, [["a", "b"], ["b", "c", "d"]], [1, 1]
        )
        m = covering_matroid(cov)
        assert repr(m.circuits()) == "{{c,d}, {a,b,c}, {a,b,d}}"

    def test_rank0_bases(self):
        assert repr(rank0_matroid().bases()) == "{∅}"

    def test_example2_bases_are_all_2_subsets(self):
        g = GroundSet("abc")
        assert example2_matroid().bases() == fam(g, "ab", "ac", "bc")

    def test_bases_have_equal_cardinality(self):
        for m in (example2_matroid(), free_matroid(4), rank0_matroid()):
            r = m.rank(m.ground.full())
            assert all(b.cardinality == r for b in m.bases())

    def test_every_dependent_set_contains_a_circuit(self):
        m = example2_matroid()
        circuits = m.circuits()
        for bits in range(8):
            if not m.indep_bits(bits):
                assert any(c.bits & ~bits == 0 for c in circuits)


_EDGE_LEVELS = {
    "rank-0 covering": lambda: covering_matroid(CapacitatedCovering.from_labels(
        GroundSet("abcd"), [["a", "b"], ["b", "c", "d"]], [0, 0])),
    "free covering": lambda: covering_matroid(CapacitatedCovering.from_labels(
        GroundSet("abcd"), [["a", "b"], ["b", "c", "d"]], [2, 3])),
    "rank-0 oracle handle": rank0_matroid,
    "free oracle handle": lambda: free_matroid(4),
}


@pytest.mark.parametrize("name", sorted(_EDGE_LEVELS))
def test_walk_edge_levels_match_powerset_definitions(name):
    """A rank-0 walk ends at level 0, with bases [∅] and every singleton a
    circuit; a free one at level n, with bases [U] and no circuit."""
    m = _EDGE_LEVELS[name]()
    assert (m._bitmap is None) == name.endswith("oracle handle")
    g = m.ground
    indep, circuits, bases = scan_definitions(m)
    assert m.independent_family()._ordered == indep
    assert m.circuits()._ordered == circuits
    assert m.bases()._ordered == bases
    if name.startswith("rank-0"):
        assert indep == bases == [0]
        assert circuits == [1 << i for i in range(g.n)]
    else:
        assert bases == [g.full_mask] and circuits == []


def _random_partition(rng, n):
    g = GroundSet(f"x{i}" for i in range(n))
    parts = [[] for _ in range(rng.randint(1, 4))]
    for label in g.labels:
        rng.choice(parts).append(label)
    parts = [p for p in parts if p]
    return partition_matroid(PartitionWitness.from_labels(
        g, parts, [rng.randint(0, len(p)) for p in parts]))


def _random_transversal(rng, n):
    g = GroundSet(f"x{i}" for i in range(n))
    members = [g.mask(rng.randrange(1 << n)) for _ in range(rng.randint(1, 7))]
    return transversal_matroid(IndexedFamily(g, tuple(members)))


_RANDOM_MATROIDS = {
    "covering": lambda rng, n: covering_matroid(
        random_covering(rng, n, rng.randint(1, 8), kmax=2, kmin=0)),
    "partition": _random_partition,
    "transversal": _random_transversal,
}


def _check_enumerations(kind):
    """Each enumeration of a primal and its dual against the definitions;
    the dual's bases first from a cold primal, then from a walked one.
    Returns the primals."""
    rng = random.Random(f"enumerations:{kind}")
    primals = []
    for n in (1, 3, 5, 7, 8, 9, 10, 11):
        m = _RANDOM_MATROIDS[kind](rng, n)
        primals.append(m)
        dual_bases = scan_definitions(m.dual())[2]
        assert m.dual().bases()._ordered == dual_bases
        assert m.dual().dual().bases()._ordered == scan_definitions(m)[2]
        for handle in (m, m.dual()):
            indep, circuits, bases = scan_definitions(handle)
            assert handle.independent_family()._ordered == indep
            assert handle.circuits()._ordered == circuits
            assert handle.bases()._ordered == bases
    return primals


@pytest.mark.parametrize("kind", sorted(_RANDOM_MATROIDS))
def test_enumerations_match_powerset_definitions(kind):
    _check_enumerations(kind)


@pytest.mark.parametrize("kind", ["covering", "transversal"])
def test_enumerations_match_powerset_definitions_on_augmenting_paths(
        monkeypatch, kind):
    """Draws with overlapping live blocks run augmenting paths; disjoint
    ones (one live block, say) keep the partition sum."""
    monkeypatch.setattr(constructions, "_CUT_CAP", 0)
    paths = [matching_path(m) for m in _check_enumerations(kind)]
    assert paths.count("placement") >= 3


def _count_oracle_calls(m):
    """Wrap ``m``'s independence oracle and, where a construction filled
    it, the bitmap factory its walk reads.  In the returned list, item 0
    counts the oracle calls and item 1 the bitmaps built."""
    calls = [0, 0]
    indep = m.indep_bits

    def counted(bits):
        calls[0] += 1
        return indep(bits)

    m.indep_bits = counted
    if m._bitmap is not None:
        factory = m._bitmap

        def build(lacks):
            calls[1] += 1
            return factory(lacks)

        m._bitmap = build
    return calls


@pytest.mark.parametrize("kind", sorted(_RANDOM_MATROIDS))
def test_one_walk_per_handle(kind):
    """Independents, circuits and bases share one walk.  Each kind here
    reads them off one bitmap, built once, with no oracle call.  A twin with
    the same oracle and rank and no bitmap, the twin's dual and a union fill
    the bitmap from their oracle: exactly |I| - 1 + |C| calls, one per
    non-empty independent set and one per circuit.  Whichever family is
    asked for second, bases and dual bases then make no call and build no
    bitmap, classify makes only the calls of ``is_identically_self_dual``,
    and the kept families equal a cold handle's member by member."""
    for n in (1, 3, 5, 7, 9, 11):
        seed = f"one-walk:{kind}:{n}"
        for first, second in (("independent_family", "circuits"),
                              ("circuits", "independent_family")):
            m = _RANDOM_MATROIDS[kind](random.Random(seed), n)
            twin = Matroid(m.ground, m.indep_bits, m.rank_hint)
            for handle in (m, twin, twin.dual(), union_matroids([m, m])):
                calls = _count_oracle_calls(handle)
                getattr(handle, first)()
                walked = calls[0]
                if handle is m:
                    assert walked == 0 and calls[1] == 1
                else:
                    assert walked == (len(handle.independent_family()) - 1
                                      + len(handle.circuits()))
                getattr(handle, second)()
                handle.bases()
                handle.dual().bases()
                assert calls[0] == walked
                calls[0] = 0
                classify(handle)
                in_classify = calls[0]
                calls[0] = 0
                handle.is_identically_self_dual()
                assert in_classify == calls[0]
                assert calls[1] == (handle is m)  # the walk built it, nothing else did
            cold = _RANDOM_MATROIDS[kind](random.Random(seed), n)
            assert list(m.independent_family()) == list(cold.independent_family())
            assert list(m.circuits()) == list(cold.circuits())


def test_a_placement_handle_enumerates_without_its_oracle():
    """A transversal family with 12 members, past ``_CUT_CAP`` = 10 live
    blocks, gets a placement handle (augmenting paths); its walk builds one
    bitmap and asks the oracle nothing, and lists the sets the definitions
    give."""
    g = GroundSet("abcdefgh")
    family = IndexedFamily.from_labels(g, [
        "ab", "ab", "bc", "cd", "d", "de", "a", "ef", "b", "c", "e", "fg"])
    m = transversal_matroid(family)
    assert matching_path(m) == "placement"
    expected = scan_definitions(m)
    calls = _count_oracle_calls(m)
    assert (m.independent_family()._ordered, m.circuits()._ordered,
            m.bases()._ordered) == expected
    assert calls == [0, 1]


def _decode_cases(build):
    """(handle factory, witness kind) pairs, each handle with 2·r(U) ≠ n.
    Placement handles (12 blocks, past ``_CUT_CAP``): one without a
    partition witness and one 2-circuit.  Partition handles, and oracle
    twins of them with no bitmap factory: one without a witness, one
    2-circuit and one partition-circuit."""
    if build == "placement":
        return [
            (lambda: transversal_matroid(IndexedFamily.from_labels(
                GroundSet("abcdefgh"), ["ab", "ab", "bc", "cd", "d", "de",
                                        "a", "ef", "b", "c", "e", "fg"])), None),
            (lambda: transversal_matroid(IndexedFamily.from_labels(
                GroundSet("abcdefg"), ["ab", "cd"] + ["e", "f", "g"] * 3 + ["e"])),
             "2-circuit"),
        ]
    g = GroundSet("abcde")
    cases = []
    for blocks, caps, kind in (
            ([["a", "b", "c", "d", "e"]], [2], None),
            ([["a", "b", "c"], ["d", "e"]], [1, 1], "2-circuit"),
            ([["a", "b", "c"], ["d", "e"]], [2, 1], "partition-circuit")):
        witness = PartitionWitness.from_labels(g, blocks, caps)
        if build == "pairs":
            cases.append((lambda w=witness: partition_matroid(w), kind))
        else:
            b = partition_matroid(witness)
            cases.append((lambda b=b: Matroid(g, b.indep_bits, b.rank_hint), kind))
    return cases


@pytest.mark.parametrize("build", ["pairs", "placement", "oracle twin"])
def test_each_family_is_decoded_only_when_asked_for(monkeypatch, build):
    """The walk keeps its bitmaps, and each family is decoded from its own
    bitmap on first use: ``circuits()`` alone decodes the circuits, and
    ``independent_family().bitset()`` decodes the independent sets once and
    leaves them in decode order, unsorted.  ``bases()`` decodes only the
    rank level of the independent sets' bitmap, whether or not the
    independent sets were decoded.  ``classify`` with 2·r(U) ≠ n decodes
    the circuits and never the independent sets, whether or not it builds a
    partition witness."""
    decoded = []
    returned = []
    honest = matroid_module._decode

    def counted(bitmap, *tables):
        decoded.append(bitmap)
        returned.append(honest(bitmap, *tables))
        return returned[-1]

    monkeypatch.setattr(matroid_module, "_decode", counted)
    for make, kind in _decode_cases(build):
        m = make()
        n = m.ground.n
        r = m.rank_bits(m.ground.full_mask)
        assert 2 * r != n
        if build == "oracle twin":
            assert m._bitmap is None
        else:
            assert matching_path(m) == ("placement" if build == "placement"
                                        else "cut")
        m.circuits()
        m.circuits()
        assert decoded == [m._walk()[1]]
        decoded.clear()
        m.bases()
        assert decoded == [m._walk()[0] & matroid_module._level(n, r)]
        decoded.clear()
        m = make()
        fam = m.independent_family()
        fam.bitset()
        assert decoded == [m._walk()[0]]
        in_decode_order = list(returned[-1])
        assert in_decode_order != sorted(in_decode_order, key=int.bit_count)
        assert fam._masks == in_decode_order
        m.bases()
        m.bases()
        assert decoded == [m._walk()[0], m._walk()[0] & matroid_module._level(n, r)]
        assert fam._masks == in_decode_order
        decoded.clear()
        m = make()
        report = classify(m)
        assert decoded == [m._walk()[1]]
        decoded.clear()
        witness = ("2-circuit" if report.two_circuit_witness else
                   "partition-circuit" if report.partition_circuit_witness else None)
        assert witness == kind


@pytest.mark.parametrize("kind", ["dual", "union"])
def test_an_oracle_filled_walk_builds_the_mask_tables_once(monkeypatch, kind):
    """A walk that fills its bitmap from the oracle reads candidates with
    the same ``low`` and ``high`` tables it later decodes with, so each walk
    builds them exactly once, whichever families it is asked for."""
    built = []
    honest = matroid_module._mask_tables

    def counted(n):
        built.append(n)
        return honest(n)

    monkeypatch.setattr(matroid_module, "_mask_tables", counted)
    rng = random.Random(f"mask-tables:{kind}")
    for n in (1, 4, 8, 10):
        m = _RANDOM_MATROIDS["covering"](rng, n)
        handle = m.dual() if kind == "dual" else union_matroids([m, m])
        assert handle._bitmap is None
        handle.circuits()
        handle.independent_family()
        handle.bases()
        assert built == [n]
        built.clear()


def _reversal(bits, n):
    return int(format(bits, f"0{n}b")[::-1], 2) if n else 0


@pytest.mark.parametrize("n", range(11))
def test_the_level_bitmap_holds_exactly_the_r_subsets(n):
    """Bit p of the level bitmap is set iff the set whose mask is the n-bit
    reversal of p is an r-subset; decoded, the level lists the r-subsets in
    the index-lex order of ``combinations``."""
    for r in range(n + 1):
        subsets = [sum(1 << i for i in c) for c in combinations(range(n), r)]
        level = matroid_module._level(n, r)
        assert level == sum(1 << _reversal(b, n) for b in subsets)
        if n:
            tables = matroid_module._mask_tables(n)
            assert matroid_module._decode(level, n, *tables) == subsets


@pytest.mark.parametrize("n", range(17))
def test_the_mask_tables_hold_each_positions_mask(n):
    """Position j of an n-bit powerset string stands for the complement of
    the n-bit reversal of j, and the two tables give it as
    ``high[j // w] | low[j % w]``, w = ``len(low)``, for every j."""
    low, high = matroid_module._mask_tables(n)
    width = len(low)
    assert width * len(high) == 1 << n
    full = (1 << n) - 1
    assert [high[j // width] | low[j % width] for j in range(1 << n)] == [
        full ^ _reversal(j, n) for j in range(1 << n)]


@st.composite
def _powerset_bitmaps(draw):
    """(n, bitmap) for n from 1 to 12: any bitmap, the empty and the full
    one, one bit, a rank level, or a few scattered bits."""
    n = draw(st.integers(min_value=1, max_value=12))
    size = 1 << n
    bitmap = draw(st.one_of(
        st.integers(min_value=0, max_value=(1 << size) - 1),
        st.sampled_from([0, (1 << size) - 1]),
        st.integers(min_value=0, max_value=size - 1).map(lambda p: 1 << p),
        st.integers(min_value=0, max_value=n).map(
            lambda r: matroid_module._level(n, r)),
        st.sets(st.integers(min_value=0, max_value=size - 1), max_size=40).map(
            lambda ps: sum(1 << p for p in ps)),
    ))
    return n, bitmap


@settings(max_examples=300, deadline=None)
@given(case=_powerset_bitmaps())
def test_decode_lists_the_flipped_reversal_of_each_set_position(case):
    """The read-out is its definition: position j of the binary string,
    bit 2^n - 1 - j of the bitmap, gives the complement of the n-bit
    reversal of j, in order of j."""
    n, bitmap = case
    size = 1 << n
    full = size - 1
    expected = [full ^ _reversal(j, n) for j in range(size)
                if bitmap >> (size - 1 - j) & 1]
    tables = matroid_module._mask_tables(n)
    assert matroid_module._decode(bitmap, n, *tables) == expected


def _covering(rng, n):
    return covering_matroid(random_covering(rng, n, rng.randint(2, 6), kmax=2, kmin=0))


_LEVEL_HANDLES = {
    "cut": _covering,
    "placement": _covering,
    "partition": _random_partition,
    "dual": lambda rng, n: _covering(rng, n).dual(),
    "union": lambda rng, n: union_matroids([_covering(rng, n),
                                            _random_partition(rng, n)]),
}


@pytest.mark.parametrize("kind", sorted(_LEVEL_HANDLES))
def test_walked_bases_are_the_top_level_of_the_sorted_independents(
        monkeypatch, kind):
    """A walked ``bases()`` decodes only the rank level of the independent
    sets' bitmap; asked for before or after the independent sets, it is
    their largest members, in order.  With no cut table, coverings whose
    live blocks overlap take augmenting paths."""
    if kind == "placement":
        monkeypatch.setattr(constructions, "_CUT_CAP", 0)
    rng = random.Random(f"level-bases:{kind}")
    paths = []
    for n in range(1, 10):
        for bases_first in (True, False):
            m = _LEVEL_HANDLES[kind](rng, n)
            if kind in ("cut", "placement"):
                paths.append(matching_path(m))
            m.circuits()
            bases = m.bases()._ordered if bases_first else None
            indep = m.independent_family()._ordered
            r = indep[-1].bit_count()
            top = [b for b in indep if b.bit_count() == r]
            assert (bases if bases_first else m.bases()._ordered) == top
    if kind == "cut":
        assert set(paths) == {"cut"}
    elif kind == "placement":
        assert paths.count("placement") >= 8


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=10), data=st.data())
def test_a_decoded_family_sorts_only_when_its_order_is_read(n, data):
    """A family decoded from any powerset bitmap compares and hashes equal
    to ``SetFamily(...)`` of its masks before it is sorted, and does not
    sort to do so; its lazily sorted ``_ordered`` is the canonical sort."""
    bitmap = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    g = GroundSet(f"x{i}" for i in range(n))
    masks = matroid_module._decode(bitmap, n, *matroid_module._mask_tables(n))
    decoded = list(masks)
    fam = SetFamily._decoded(g, masks)
    built = SetFamily(g, decoded)
    assert fam == built and hash(fam) == hash(built)
    assert len(fam) == len(built) and fam.union_mask() == built.union_mask()
    assert all(fam.contains_bits(b) for b in decoded)
    assert fam._masks == decoded and not fam._by_size
    assert fam._ordered == sorted(decoded, key=_canonical_sort_key(n))
    assert fam._by_size and list(fam.members) == list(built.members)


_OVER_THE_CAP = {
    "covering": lambda rng: covering_matroid(random_covering(rng, 23, 8)),
    "partition": lambda rng: _random_partition(rng, 23),
    "transversal": lambda rng: _random_transversal(rng, 23),
}

_CAPPED_ENUMERATIONS = (
    Matroid.independent_family,
    Matroid.circuits,
    Matroid.bases,
    Matroid.is_identically_self_dual,
    classify,
    is_2_circuit,
    is_partition_circuit,
    recover_partition_from_2circuit,
    is_double_circuit,
    lambda m: union_matroids([m, m]).independent_family(),
    lambda m: check_independence_axioms(SetFamily(m.ground, [0])),
)


def _raises_before_any_call(call, handles, message):
    """``call()`` raises ``SizeLimitError`` with exactly ``message`` and asks
    no oracle or rank function of ``handles``, nor builds a bitmap."""
    calls = [_count_oracle_calls(h) for h in handles]
    for h, counter in zip(handles, calls):
        rank = h.rank_hint

        def counted_rank(bits, rank=rank, counter=counter):
            counter[0] += 1
            return rank(bits)

        h.rank_hint = counted_rank
    with pytest.raises(SizeLimitError) as info:
        call()
    assert str(info.value) == message
    assert [c[0] for c in calls] == [0] * len(handles)
    assert [c[1] for c in calls] == [0] * len(handles)


@pytest.mark.parametrize("kind", sorted(_OVER_THE_CAP))
def test_every_enumeration_refuses_23_elements_before_any_oracle_call(kind):
    """With n = 23 (odd, so 2·r(U) ≠ n), each enumeration of a cold handle
    and of its dual raises before it asks either handle anything."""
    message = "ground set has 23 elements; enumeration is capped at 22"
    for fn in _CAPPED_ENUMERATIONS:
        for side in (0, 1):
            m = _OVER_THE_CAP[kind](random.Random(f"over-the-cap:{kind}"))
            handles = (m, m.dual())
            _raises_before_any_call(lambda: fn(handles[side]), handles, message)


def test_the_naive_family_and_the_brute_force_dual_keep_their_caps():
    covering = random_covering(random.Random("over-the-cap"), 23, 8)
    _raises_before_any_call(
        lambda: naive_covering_family(covering), (),
        "ground set has 23 elements; enumeration is capped at 22")
    m = free_matroid(17)
    _raises_before_any_call(lambda: bf_dual_family(m), (m,),
                            "brute-force dual is capped at n ≤ 16")


@pytest.mark.parametrize("kind", sorted(_RANDOM_MATROIDS))
def test_warm_handle_keeps_the_cap_and_its_dual_walks_its_own(kind):
    rng = random.Random(f"warm-cap:{kind}")
    for n in (2, 4, 6, 8, 10):
        m = _RANDOM_MATROIDS[kind](rng, n)
        m.independent_family()
        dual = m.dual()
        expected = bf_dual_family(m)
        assert list(dual.independent_family()) == list(expected)
        members = expected.bitset()
        circuits = [b for b in range(1 << n) if b not in members
                    and all(b & ~(1 << i) in members for i in range(n) if b >> i & 1)]
        assert dual.circuits()._ordered == sorted(circuits,
                                                  key=_canonical_sort_key(n))


class TestDual:
    def test_double_dual_is_identity(self):
        m = example2_matroid()
        assert (m.dual().dual().independent_family().bitset()
                == m.independent_family().bitset())

    def test_example2_dual_bases_are_singletons(self):
        g = GroundSet("abc")
        assert example2_matroid().dual().bases() == fam(g, "a", "b", "c")

    def test_all_ones_partition_dual_parameters(self):
        g = GroundSet("abcde")
        p = PartitionWitness.from_labels(g, [["a", "b", "c"], ["d", "e"]], [1, 1])
        dual = partition_matroid(p).dual()
        expected = partition_matroid(
            PartitionWitness.from_labels(g, [["a", "b", "c"], ["d", "e"]], [2, 1])
        )
        assert (dual.independent_family().bitset()
                == expected.independent_family().bitset())

    def test_dual_asks_the_primal_rank_of_u_once(self):
        m = example2_matroid()
        asked = []
        rank = m.rank_hint

        def counted(bits):
            asked.append(bits)
            return rank(bits)

        m.rank_hint = counted
        dual = m.dual()
        assert asked == [m.ground.full_mask]
        assert dual.indep_bits(0) and asked == [m.ground.full_mask]

    def test_dual_rank_hint_consistent(self):
        m = example2_matroid().dual()
        for b in range(1 << m.ground.n):
            assert m.rank_hint(b) == m.greedy_rank_bits(b)


def _refused(*args):
    raise AssertionError("are_isomorphic went past a cheaper invariant")


class TestIsomorphism:
    def test_self_isomorphic_with_identity(self):
        m = example2_matroid()
        ok, witness = are_isomorphic(m, m)
        assert ok and witness is not None

    def test_relabelled_k_rank_matroids(self):
        g1, g2 = GroundSet("abc"), GroundSet("xyz")
        m1 = k_rank_matroid(g1, g1.subset("ab"), 1)
        m2 = k_rank_matroid(g2, g2.subset("yz"), 1)
        ok, witness = are_isomorphic(m1, m2)
        assert ok
        image = {witness["a"], witness["b"]}
        assert image == {"y", "z"}

    def test_different_families_not_isomorphic(self):
        ok, witness = are_isomorphic(example2_matroid(), rank0_matroid())
        assert not ok and witness is None

    def test_different_sizes_are_told_apart_without_a_walk(self, monkeypatch):
        monkeypatch.setattr(Matroid, "independent_family", _refused)
        assert are_isomorphic(free_matroid(2), free_matroid(3)) == (False, None)

    def test_different_ranks_are_told_apart_before_the_circuits(self, monkeypatch):
        # U(1,3), and a free pair with a loop: 4 independent sets each.
        g = GroundSet("abc")
        m1 = Matroid(g, lambda bits: bits.bit_count() <= 1)
        m2 = Matroid(g, lambda bits: not bits & 0b100)
        monkeypatch.setattr(Matroid, "circuits", _refused)
        assert are_isomorphic(m1, m2) == (False, None)

    def test_different_circuit_sizes_are_told_apart_before_the_search(
            self, monkeypatch):
        # 22 independent sets and rank 3 each; circuit sizes [3,3,3,3] and
        # [2,4,4].
        g = GroundSet("abcde")
        m1 = covering_matroid(CapacitatedCovering.from_labels(
            g, ["abde", "c", "acde"], [1, 1, 1]))
        m2 = covering_matroid(CapacitatedCovering.from_labels(g, ["bde", "acd"], [2, 1]))
        assert len(m1.independent_family()) == len(m2.independent_family()) == 22
        assert m1.rank(g.full()) == m2.rank(g.full()) == 3
        monkeypatch.setattr(matroid_module, "permutations", _refused)
        assert are_isomorphic(m1, m2) == (False, None)

    def test_equal_invariants_and_no_bijection(self):
        # Two transversal matroids with the same size, rank and circuit
        # sizes; only the search over bijections tells them apart.
        g = GroundSet("abcdef")
        m1 = transversal_matroid(IndexedFamily.from_labels(g, ["adf", "bce", "abef"]))
        m2 = transversal_matroid(IndexedFamily.from_labels(g, ["cdf", "abc", "abef"]))
        assert len(m1.independent_family()) == len(m2.independent_family()) == 40
        assert m1.rank(g.full()) == m2.rank(g.full()) == 3
        assert (sorted(len(c) for c in m1.circuits())
                == sorted(len(c) for c in m2.circuits()))
        assert are_isomorphic(m1, m2) == (False, None)

    def test_size_limit(self):
        m = free_matroid(9)
        _raises_before_any_call(lambda: are_isomorphic(m, m), (m,),
                                "isomorphism search is capped at n ≤ 8")


class TestSelfDual:
    def test_pair_partition_is_identically_self_dual(self):
        g = GroundSet("abcd")
        p = PartitionWitness.from_labels(g, [["a", "b"], ["c", "d"]], [1, 1])
        assert partition_matroid(p).is_identically_self_dual()

    def test_free_matroid_is_not(self):
        assert not free_matroid(2).is_identically_self_dual()

    def test_example2_is_not(self):
        assert not example2_matroid().is_identically_self_dual()


def test_oracle_must_accept_empty_set():
    g = GroundSet("ab")
    with pytest.raises(Exception):
        Matroid(g, lambda bits: bits != 0)
