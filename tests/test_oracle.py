"""The brute-force oracles must agree with the efficient paths on small
instances, and every oracle must enforce its size cap."""

import random

import pytest

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
from covmatroid.oracle import bf_union_family

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
        # The generic assignment search over the k-rank slices against the
        # direct transcription over blocks and capacities.
        rng = random.Random(12)
        for _ in range(60):
            c = random_covering(rng, rng.randint(1, 6), rng.randint(1, 4),
                                kmax=2, kmin=0)
            u = union_matroids(slices_of(c))
            bf = bf_union_independent(c)
            for x in c.ground.subsets():
                assert u.indep_bits(x.bits) == bf(x), (c, x)

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
