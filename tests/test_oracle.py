"""The brute-force oracles must agree with the efficient paths on small
instances, and every oracle must enforce its size cap."""

import functools
import operator
import random

import pytest
from hypothesis import given, strategies as st

from covmatroid import (
    CapacitatedCovering,
    GroundSet,
    IndexedFamily,
    SizeLimitError,
    bf_dual_family,
    bf_matching,
    bf_rank,
    bf_union_independent,
    covering_matroid,
    PartitionWitness,
    is_partial_transversal,
    k_rank_matroid,
    partition_matroid,
    transversal_matroid,
    union_matroids,
)
from covmatroid.oracle import bf_bases, bf_circuits, bf_union_family

from conftest import random_covering


def slices_of(c):
    return [k_rank_matroid(c.ground, b, k) for b, k in zip(c.blocks, c.capacities)]


class TestUnionOracle:
    def test_matches_covering_matroid_randomized(self):
        rng = random.Random(11)
        for _ in range(40):
            c = random_covering(rng, rng.randint(2, 5), rng.randint(1, 3))
            m = covering_matroid(c)
            bf = bf_union_independent(c)
            for x in c.ground.subsets():
                assert bf(x) == m.indep_bits(x.bits), (c, x)

    def test_union_matroids_agrees(self):
        # Matroid partitioning over the k-rank slices against the direct
        # transcription over blocks and capacities.
        rng = random.Random(12)
        for _ in range(60):
            c = random_covering(rng, rng.randint(1, 6), rng.randint(1, 4),
                                kmax=2, kmin=0)
            u = union_matroids(slices_of(c))
            bf = bf_union_independent(c)
            for x in c.ground.subsets():
                assert u.indep_bits(x.bits) == bf(x), (c, x)

    def test_five_blocks_within_the_ground_cap(self):
        g = GroundSet("abcdef")
        five = CapacitatedCovering(
            g, tuple(g.mask(0b11 << i) for i in range(5)), (1,) * 5)
        bf = bf_union_independent(five)
        m = covering_matroid(five)
        assert all(bf(x) == m.indep_bits(x.bits) for x in g.subsets())

    def test_size_caps(self):
        g = GroundSet("abcdefghijklmn")
        one = CapacitatedCovering(g, (g.subset(g.labels),), (3,))
        with pytest.raises(SizeLimitError):
            bf_union_independent(one)(g.subset(g.labels[:13]))
        five = CapacitatedCovering(
            g,
            tuple(g.subset(g.labels[i:]) for i in range(5)),
            (1,) * 5,
        )
        with pytest.raises(SizeLimitError):
            bf_union_independent(five)


class TestRankOracle:
    def test_matches_greedy_randomized(self):
        rng = random.Random(13)
        for _ in range(30):
            c = random_covering(rng, rng.randint(2, 5), rng.randint(1, 3))
            m = covering_matroid(c)
            for x in c.ground.subsets():
                assert bf_rank(m, x) == m.greedy_rank_bits(x.bits)
                assert bf_rank(m, x) == m.rank(x)

    def test_partition_rank(self):
        g = GroundSet("abcde")
        p = PartitionWitness.from_labels(g, ["abc", "de"], [2, 1])
        m = partition_matroid(p)
        assert bf_rank(m, g.subset("abcde")) == 3
        assert bf_rank(m, g.subset("ab")) == 2
        assert bf_rank(m, g.subset("")) == 0

    def test_size_cap(self):
        g = GroundSet([f"x{i}" for i in range(21)])
        m = k_rank_matroid(g, g.subset(g.labels), 2)
        with pytest.raises(SizeLimitError):
            bf_rank(m, g.subset(g.labels))


class TestMatchingOracle:
    def test_matches_flow_randomized(self):
        rng = random.Random(14)
        for _ in range(30):
            g = GroundSet("abcde"[: rng.randint(2, 5)])
            members = [
                g.subset([l for l in g.labels if rng.random() < 0.5])
                for _ in range(rng.randint(1, 3))
            ]
            f = IndexedFamily(g, members)
            for t in g.subsets():
                assert bf_matching(f, t) == is_partial_transversal(f, t), (members, t)

    def test_matches_transversal_matroid(self):
        g = GroundSet("abcd")
        f = IndexedFamily(g, [g.subset("ab"), g.subset("bc"), g.subset("bc")])
        m = transversal_matroid(f)
        for t in g.subsets():
            assert bf_matching(f, t) == m.indep_bits(t.bits)

    def test_union_family_of_rank_one_members(self):
        # Capacity-1 members give the partial transversals, with duplicate
        # and empty members among them.
        rng = random.Random(16)
        for _ in range(200):
            g = GroundSet("abcdef"[: rng.randint(1, 6)])
            members = [
                g.mask(rng.getrandbits(g.n) if rng.random() < 0.8 else 0)
                for _ in range(rng.randint(1, 4))
            ]
            members += rng.sample(members, rng.randint(0, len(members)))
            f = IndexedFamily(g, members)
            want = {t.bits for t in g.subsets() if bf_matching(f, t)}
            got = bf_union_family([s.bits for s in members], [1] * len(members))
            assert got == want, members

    def test_size_cap(self):
        g = GroundSet("abcdefghi")
        f = IndexedFamily(g, [g.subset(g.labels)])
        with pytest.raises(SizeLimitError):
            bf_matching(f, g.subset(g.labels))


class TestDualOracle:
    def test_matches_dual_matroid_randomized(self):
        rng = random.Random(15)
        for _ in range(25):
            c = random_covering(rng, rng.randint(2, 5), rng.randint(1, 3))
            m = covering_matroid(c)
            dual = m.dual()
            assert bf_dual_family(m) == dual.independent_family()

    def test_double_dual_round_trip(self):
        g = GroundSet("abcd")
        p = PartitionWitness.from_labels(g, ["ab", "cd"], [1, 1])
        m = partition_matroid(p)
        assert bf_dual_family(m.dual()) == m.independent_family()

    def test_size_cap(self):
        g = GroundSet([f"x{i}" for i in range(17)])
        m = k_rank_matroid(g, g.subset(g.labels), 1)
        with pytest.raises(SizeLimitError):
            bf_dual_family(m)


def down_closure(masks):
    """Every subset of every mask: the smallest subset-closed family
    holding them."""
    out = set()
    for top in masks:
        sub = top
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & top
    return frozenset(out)


def masks(g, *sets):
    return frozenset(g.subset(s).bits for s in sets)


class TestMinMax:
    def test_empty_family(self):
        # Min(Opp(∅)) is {∅}; an empty family has no maximal member.
        assert bf_circuits(frozenset(), 3) == {0}
        assert bf_bases(frozenset(), 3) == frozenset()

    def test_min_example(self):
        g = GroundSet("abc")
        indep = down_closure(masks(g, "ab", "c"))
        assert bf_circuits(indep, g.n) == masks(g, "ac", "bc")

    def test_max_example(self):
        g = GroundSet("abc")
        indep = down_closure(masks(g, "ab", "c"))
        assert bf_bases(indep, g.n) == masks(g, "ab", "c")

    def test_antichain_fixed_point(self):
        # An antichain is the maximal members of its own down-closure.
        g = GroundSet("abc")
        two_subsets = masks(g, "ab", "ac", "bc")
        assert bf_bases(down_closure(two_subsets), g.n) == two_subsets
        assert bf_circuits(down_closure(two_subsets), g.n) == masks(g, "abc")


@st.composite
def closed_families(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    tops = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1),
                        max_size=12))
    return down_closure(tops), n


def _subset_of(a, b):
    return a & ~b == 0


class TestFamilyProperties:
    @given(closed_families())
    def test_min_max_are_antichain_subfamilies(self, case):
        indep, n = case
        circuits, bases = bf_circuits(indep, n), bf_bases(indep, n)
        assert bases <= indep and not circuits & indep
        for reduced in (circuits, bases):
            for a in reduced:
                for b in reduced:
                    assert a == b or not _subset_of(a, b)

    @given(closed_families())
    def test_min_max_idempotent_pair(self, case):
        # A subset-closed family is the down-closure of its maximal members.
        indep, n = case
        bases = bf_bases(indep, n)
        assert down_closure(bases) == indep
        assert bf_bases(down_closure(bases), n) == bases

    @given(closed_families())
    def test_opp_is_exact_complement(self, case):
        # X lies outside the family iff it contains a minimal non-member.
        indep, n = case
        circuits = bf_circuits(indep, n)
        for bits in range(1 << n):
            assert (bits not in indep) == any(
                _subset_of(c, bits) for c in circuits)


class TestOpp:
    def test_full_powerset_gives_constant_false(self):
        # Nothing lies outside the powerset; its one maximal member is U.
        assert bf_circuits(frozenset(range(4)), 2) == frozenset()
        assert bf_bases(frozenset(range(4)), 2) == {0b11}

    def test_singleton_universe(self):
        assert bf_circuits(frozenset({0}), 1) == {1}
        assert bf_bases(frozenset({0}), 1) == {0}


@st.composite
def brute_force_families(draw):
    """A union family (n ≤ 6, capacities 0–3) or the dual family of a
    covering matroid (n ≤ 6): the families ``--verify`` reads."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=6))
    blocks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                           min_size=m, max_size=m))
    caps = draw(st.lists(st.integers(min_value=0, max_value=3),
                         min_size=m, max_size=m))
    if not draw(st.booleans()):
        return bf_union_family(blocks, caps), n
    g = GroundSet(f"x{i}" for i in range(n))
    blocks[0] |= g.full_mask & ~functools.reduce(operator.or_, blocks)
    parts = dict(zip(blocks, caps))  # distinct blocks, one capacity each
    c = CapacitatedCovering(g, tuple(map(g.mask, parts)), tuple(parts.values()))
    return bf_dual_family(covering_matroid(c)).bitset(), n


@given(brute_force_families())
def test_circuits_and_bases_are_min_opp_and_max(case):
    # The definitions, quadratic in the family: Min(Opp(I)) and Max(I).
    indep, n = case
    opp = [x for x in range(1 << n) if x not in indep]
    minimal = {x for x in opp
               if not any(y != x and _subset_of(y, x) for y in opp)}
    maximal = {x for x in indep
               if not any(y != x and _subset_of(x, y) for y in indep)}
    assert bf_circuits(indep, n) == minimal
    assert bf_bases(indep, n) == maximal
