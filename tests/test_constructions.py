import random
import time
from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from covmatroid import constructions
from covmatroid import (
    CapacitatedCovering,
    GroundSet,
    IndexedFamily,
    Matroid,
    PartitionWitness,
    SetFamily,
    ValidationError,
    check_independence_axioms,
    covering_as_transversal,
    covering_matroid,
    covering_matroid_slice,
    is_partial_transversal,
    k_rank_matroid,
    naive_covering_family,
    partition_circuit_matroid,
    partition_dual_params,
    partition_matroid,
    transversal_as_covering,
    transversal_matroid,
    union_matroids,
)
from conftest import (chain_covering, matching_path, random_covering,
                      scan_definitions)


def fam(ground, *sets):
    return SetFamily.from_labels(ground, sets)


def paper_family():
    g = GroundSet("abcdef")
    return IndexedFamily.from_labels(
        g, [["a", "b", "c"], ["a", "d", "e"], ["b", "e", "f"]]
    )


def random_indexed_family(rng, n, j):
    g = GroundSet(f"x{i}" for i in range(n))
    members = tuple(g.mask(rng.randrange(1 << n)) for _ in range(j))
    return IndexedFamily(g, members)


class TestCapacitatedCovering:
    def test_rejects_empty_block(self):
        g = GroundSet("ab")
        with pytest.raises(ValidationError):
            CapacitatedCovering.from_labels(g, [[], ["a", "b"]], [1, 1])

    def test_rejects_non_covering(self):
        g = GroundSet("abc")
        with pytest.raises(ValidationError):
            CapacitatedCovering.from_labels(g, [["a", "b"]], [1])

    def test_rejects_duplicate_blocks(self):
        g = GroundSet("ab")
        with pytest.raises(ValidationError):
            CapacitatedCovering.from_labels(g, [["a", "b"], ["b", "a"]], [1, 1])

    def test_rejects_no_blocks(self):
        with pytest.raises(ValidationError, match="at least one block"):
            CapacitatedCovering(GroundSet("ab"), (), ())

    def test_rejects_negative_capacities(self):
        g = GroundSet("ab")
        with pytest.raises(ValidationError, match="capacities must be nonnegative"):
            CapacitatedCovering(g, (g.subset("a"), g.subset("b")), (1, -1))

    def test_rejects_a_block_of_another_ground_set(self):
        # Each block's mask is abc's full mask, so only its ground set is wrong.
        g = GroundSet("abc")
        for labels in ("xyz", "abcd"):
            block = GroundSet(labels).subset(labels[:3])
            with pytest.raises(ValidationError, match="another ground set"):
                CapacitatedCovering(g, (block,), (1,))

    def test_keeps_its_own_copy_of_the_callers_lists(self):
        g = GroundSet("abc")
        blocks, caps = [g.subset("ab"), g.subset("bc")], [1, 1]
        c = CapacitatedCovering(g, blocks, caps)
        caps[0] = -5
        blocks[1] = g.subset("a")
        assert c.capacities == (1, 1)
        assert c.blocks == (g.subset("ab"), g.subset("bc"))
        assert covering_matroid(c).rank(g.full()) == 2
        same = CapacitatedCovering(g, (g.subset("ab"), g.subset("bc")), (1, 1))
        assert c == same and hash(c) == hash(same)

    def test_rejects_misaligned_capacities(self):
        g = GroundSet("ab")
        with pytest.raises(ValidationError):
            CapacitatedCovering.from_labels(g, [["a", "b"]], [1, 1])

    def test_rejects_non_integer_capacities(self):
        # 1.5 would give rank(U) = 1.5; True would pass for 1.
        g = GroundSet("abc")
        for bad in (1.5, True, "1"):
            with pytest.raises(ValidationError, match="capacities must be integers"):
                CapacitatedCovering(g, (g.subset("abc"),), (bad,))

    def test_partition_witness_requires_disjoint_blocks(self):
        g = GroundSet("abc")
        with pytest.raises(ValidationError):
            PartitionWitness.from_labels(g, [["a", "b"], ["b", "c"]], [1, 1])


class TestKRankMatroid:
    def test_paper_slice_one(self, abc):
        m = k_rank_matroid(abc, abc.subset("ab"), 1)
        assert m.independent_family() == fam(abc, "", "a", "b")

    def test_zero_capacity_forces_empty(self, abc):
        m = k_rank_matroid(abc, abc.subset("abc"), 0)
        assert m.independent_family() == fam(abc, "")

    def test_counterexample_slice(self):
        g = GroundSet("abcd")
        m = k_rank_matroid(g, g.subset("bcd"), 1)
        assert m.independent_family() == fam(g, "", "b", "c", "d")

    def test_rank_hint_audit(self, abc):
        m = k_rank_matroid(abc, abc.subset("ac"), 2)
        for b in range(1 << abc.n):
            assert m.rank_hint(b) == m.greedy_rank_bits(b)

    def test_block_of_another_ground_set_rejected(self, abc):
        # Out of range ({f} of abcdef) or in range but meant elsewhere
        # ({x} of xyz would read as {a}).
        for block in (GroundSet("abcdef").subset("f"), GroundSet("xyz").subset("x")):
            with pytest.raises(ValidationError, match="ground set"):
                k_rank_matroid(abc, block, 1)

    def test_negative_k_rejected(self, abc):
        with pytest.raises(ValidationError, match="k must be nonnegative"):
            k_rank_matroid(abc, abc.subset("abc"), -1)

    def test_non_integer_k_rejected(self, abc):
        for bad in (1.5, True):
            with pytest.raises(ValidationError, match="k must be an integer"):
                k_rank_matroid(abc, abc.subset("abc"), bad)


class TestPartitionMatroid:
    def test_single_block_capacity_two(self, abc):
        p = PartitionWitness.from_labels(abc, [["a", "b", "c"]], [2])
        assert partition_matroid(p).independent_family() == fam(
            abc, "", "a", "b", "c", "ab", "ac", "bc"
        )

    def test_all_zero_capacities_is_rank0(self, abc):
        p = PartitionWitness.from_labels(abc, [["a"], ["b"], ["c"]], [0, 0, 0])
        assert partition_matroid(p).independent_family() == fam(abc, "")

    def test_transversal_pairs_bases(self):
        g = GroundSet("abcd")
        p = PartitionWitness.from_labels(g, [["a", "b"], ["c", "d"]], [1, 1])
        assert partition_matroid(p).bases() == fam(g, "ac", "ad", "bc", "bd")


class TestUnionMatroids:
    def test_refuses_no_matroids_and_mixed_ground_sets(self, abc):
        with pytest.raises(ValidationError, match="union of zero matroids"):
            union_matroids([])
        xyz = GroundSet("xyz")
        with pytest.raises(ValidationError, match="share a ground set"):
            union_matroids([k_rank_matroid(abc, abc.subset("ab"), 1),
                            k_rank_matroid(xyz, xyz.subset("xy"), 1)])

    def test_union_of_one_matroid(self, abc):
        m = k_rank_matroid(abc, abc.subset("ab"), 1)
        u = union_matroids([m])
        assert u.independent_family() == m.independent_family()

    def test_paper_union(self, abc):
        m1 = k_rank_matroid(abc, abc.subset("ab"), 1)
        m2 = k_rank_matroid(abc, abc.subset("bc"), 1)
        assert union_matroids([m1, m2]).independent_family() == fam(
            abc, "", "a", "b", "c", "ab", "ac", "bc"
        )

    def test_rank0_is_identity_element(self, abc):
        m = k_rank_matroid(abc, abc.subset("ab"), 1)
        zero = Matroid(abc, lambda bits: bits == 0, provenance="rank0")
        assert (union_matroids([m, zero]).independent_family()
                == m.independent_family())

    def test_components_that_are_not_k_rank_match_the_definition(self):
        """Unions of two or three duals of covering matroids, uniform
        matroids and graphic matroids (4 ≤ n ≤ 8) against the family
        {I_1 ∪ … ∪ I_m} built from each component's independent family, on
        every subset: independence and rank."""
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(4, 8)
            g = GroundSet(f"x{i}" for i in range(n))
            components = [_random_component(rng, g)
                          for _ in range(rng.randint(2, 3))]
            union = {0}
            for m in components:
                union = {a | b for a in union
                         for b in m.independent_family().bitset()}
            u = union_matroids(components)
            rank = [0] * (1 << n)
            for x in range(1, 1 << n):
                low = x & -x
                rank[x] = rank[x ^ low] + (x in union)
                if x not in union:
                    rest = x
                    while rest:
                        e = rest & -rest
                        rest ^= e
                        rank[x] = max(rank[x], rank[x ^ e])
                assert u.indep_bits(x) == (x in union), (components, x)
                assert u.rank_bits(x) == rank[x], (components, x)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_union_of_slices_is_the_covering_matroid(self, data):
        """The paper's definition, M(K, k) = ∪ M(K_i, k_i), at every n up to
        64: the union of the k-rank slices has the covering matroid's rank
        and independence."""
        c = data.draw(_wide_coverings())
        m = covering_matroid(c)
        u = union_matroids([k_rank_matroid(c.ground, b, k)
                            for b, k in zip(c.blocks, c.capacities)])
        queries = st.integers(0, c.ground.full_mask)
        for x in data.draw(st.lists(queries, min_size=1, max_size=4)):
            assert u.rank_bits(x) == m.rank_bits(x)
            assert u.indep_bits(x) == m.indep_bits(x)


def _forest_oracle(ends):
    """A graphic matroid's oracle: element e is an edge between the vertices
    ``ends[e]`` (a loop when they are equal), and a set is independent iff
    its edges form a forest."""

    def indep(bits):
        parent = {}

        def root(v):
            while v in parent:
                v = parent[v]
            return v

        while bits:
            e = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            u, v = root(ends[e][0]), root(ends[e][1])
            if u == v:
                return False
            parent[u] = v
        return True

    return indep


def _random_component(rng, g):
    """A graphic matroid, a uniform matroid or the dual of a covering
    matroid on ``g``, whose labels are x0..x(n-1)."""
    kind = rng.randrange(3)
    if kind == 0:
        vertices = rng.randint(2, 5)
        ends = [(rng.randrange(vertices), rng.randrange(vertices))
                for _ in range(g.n)]
        return Matroid(g, _forest_oracle(ends), provenance="graphic")
    if kind == 1:
        k = rng.randint(0, g.n)
        return Matroid(g, lambda bits: bits.bit_count() <= k,
                       provenance="uniform")
    return covering_matroid(
        random_covering(rng, g.n, rng.randint(1, 4), kmin=0)).dual()


@st.composite
def _wide_coverings(draw):
    """A covering of up to 64 elements by up to 12 drawn blocks, plus one
    block of the elements they miss."""
    n = draw(st.integers(1, 64))
    g = GroundSet(f"x{i}" for i in range(n))
    pairs = draw(st.lists(
        st.tuples(st.integers(1, g.full_mask), st.integers(0, 3)),
        min_size=1, max_size=12, unique_by=lambda p: p[0]))
    missed = g.full_mask
    for b, _ in pairs:
        missed &= ~b
    if missed:
        pairs.append((missed, draw(st.integers(0, 3))))
    return CapacitatedCovering(g, tuple(g.mask(b) for b, _ in pairs),
                               tuple(k for _, k in pairs))


class TestCoveringMatroid:
    def test_paper_example(self, paper_covering):
        m = covering_matroid(paper_covering)
        assert m.independent_family() == fam(
            paper_covering.ground, "", "a", "b", "c", "ab", "ac", "bc"
        )

    def test_counterexample_dependency(self):
        g = GroundSet("abcd")
        cov = CapacitatedCovering.from_labels(
            g, [["a", "b"], ["b", "c", "d"]], [1, 1]
        )
        m = covering_matroid(cov)
        assert not m.independent(g.subset("cd"))
        assert m.independent(g.subset("ab"))

    def test_all_zero_capacities(self, paper_covering):
        m = covering_matroid(paper_covering.with_capacities([0, 0]))
        assert m.independent_family() == fam(paper_covering.ground, "")

    def test_matches_union_construction(self):
        rng = random.Random(11)
        for _ in range(25):
            cov = random_covering(rng, rng.randint(2, 6), rng.randint(1, 4),
                                  kmax=3, kmin=0)
            slices = [k_rank_matroid(cov.ground, b, k)
                      for b, k in zip(cov.blocks, cov.capacities)]
            assert (covering_matroid(cov).independent_family()
                    == union_matroids(slices).independent_family())

    def test_passes_axiom_check(self):
        rng = random.Random(13)
        for _ in range(10):
            cov = random_covering(rng, rng.randint(2, 5), rng.randint(1, 3))
            fam_ = covering_matroid(cov).independent_family()
            assert check_independence_axioms(fam_).is_matroid

    def test_rank_hint_is_matching_size(self):
        rng = random.Random(17)
        for _ in range(10):
            m = covering_matroid(random_covering(rng, 5, 3))
            for b in range(1 << m.ground.n):
                assert m.rank_hint(b) == m.greedy_rank_bits(b)

    def test_partition_degeneration(self):
        g = GroundSet("abcde")
        p = PartitionWitness.from_labels(
            g, [["a", "b"], ["c", "d", "e"]], [1, 2]
        )
        cov = p.covering
        cm = covering_matroid(cov).independent_family()
        assert cm == naive_covering_family(cov)
        assert cm == partition_matroid(p).independent_family()


class TestNaiveCoveringFamily:
    def test_paper_counterexample_family(self, paper_covering):
        assert naive_covering_family(paper_covering) == fam(
            paper_covering.ground, "", "a", "b", "c", "ac"
        )

    def test_vacuous_capacities_give_powerset(self, abc):
        cov = CapacitatedCovering.from_labels(abc, [["a", "b", "c"]], [3])
        assert len(naive_covering_family(cov)) == 8


class TestIndexedFamily:
    def test_rejects_a_member_of_another_ground_set(self):
        g = GroundSet("abc")
        with pytest.raises(ValidationError, match="another ground set"):
            IndexedFamily(g, (g.subset("a"), GroundSet("xyz").subset("x")))

    def test_keeps_its_own_copy_of_the_callers_list(self):
        g = GroundSet("abc")
        members = [g.subset("ab")]
        f = IndexedFamily(g, members)
        members.append(GroundSet("xyz").subset("x"))
        assert f.members == (g.subset("ab"),)
        same = IndexedFamily(g, (g.subset("ab"),))
        assert f == same and hash(f) == hash(same)


class TestDeepAugmentingPath:
    def test_answers_rank_indep_and_closure(self):
        # z, placed last, moves every y_i one block along a 1,200-block path.
        c = chain_covering()
        g = c.ground
        handles = (covering_matroid(c),
                   transversal_matroid(IndexedFamily(g, c.blocks)))
        rest = g.full() - g.singleton("z")
        for m in handles:
            assert matching_path(m) == "placement"
            assert m.rank(g.full()) == g.n
            assert m.independent(g.full())
            assert m.rank(rest) == g.n - 1
            assert m.closure(rest) == rest


class TestTransversal:
    def test_paper_transversal(self):
        f = paper_family()
        g = f.ground
        assert is_partial_transversal(f, g.subset("adf"))
        assert is_partial_transversal(f, g.subset("be"))
        assert is_partial_transversal(f, g.empty())

    def test_no_4_subset_is_independent(self):
        f = paper_family()
        m = transversal_matroid(f)
        for bits in range(1 << 6):
            if bits.bit_count() >= 4:
                assert not m.indep_bits(bits)
        assert m.independent(f.ground.subset("adf"))

    def test_single_member_family(self):
        g = GroundSet("ab")
        m = transversal_matroid(IndexedFamily(g, (g.full(),)))
        assert m.independent_family() == fam(g, "", "a", "b")

    def test_disjoint_family_equals_partition_matroid(self):
        g = GroundSet("abcd")
        f = IndexedFamily.from_labels(g, [["a", "b"], ["c", "d"]])
        p = PartitionWitness.from_labels(g, [["a", "b"], ["c", "d"]], [1, 1])
        assert (transversal_matroid(f).independent_family()
                == partition_matroid(p).independent_family())

    def test_satisfies_axioms_on_random_families(self):
        rng = random.Random(19)
        for _ in range(15):
            f = random_indexed_family(rng, rng.randint(1, 6), rng.randint(0, 4))
            fam_ = transversal_matroid(f).independent_family()
            assert check_independence_axioms(fam_).is_matroid


class TestTransversalCoveringConversions:
    def test_covering_family_covers_universe(self):
        f = paper_family()
        cov = transversal_as_covering(f)
        # the family covers U, so no capacity-0 filler block appears
        assert cov.capacities == (1, 1, 1)
        assert {b.bits for b in cov.blocks} == {m.bits for m in f.members}

    def test_uncovered_elements_become_a_loop_block(self):
        g = GroundSet("ab")
        cov = transversal_as_covering(IndexedFamily.from_labels(g, [["a"]]))
        assert [(repr(b), k) for b, k in zip(cov.blocks, cov.capacities)] == [
            ("{a}", 1), ("{b}", 0)
        ]
        # Only empty members: the single block U with capacity 0.
        cov = transversal_as_covering(IndexedFamily.from_labels(g, [[], []]))
        assert [(repr(b), k) for b, k in zip(cov.blocks, cov.capacities)] == [
            ("{a,b}", 0)
        ]

    def test_duplicate_members_merge_with_summed_capacity(self):
        g = GroundSet("abc")
        f = IndexedFamily.from_labels(g, [["a", "b"], ["a", "b"], ["c"]])
        cov = transversal_as_covering(f)
        by_block = {b.bits: k for b, k in zip(cov.blocks, cov.capacities)}
        assert by_block[g.subset("ab").bits] == 2
        assert (covering_matroid(cov).independent_family()
                == transversal_matroid(f).independent_family())

    def test_round_trip_preserves_matroid(self):
        rng = random.Random(23)
        for _ in range(20):
            f = random_indexed_family(rng, rng.randint(1, 6), rng.randint(0, 4))
            cov = transversal_as_covering(f)
            assert (covering_matroid(cov).independent_family()
                    == transversal_matroid(f).independent_family())

    def test_covering_to_transversal_all_ones(self, paper_covering):
        f = covering_as_transversal(paper_covering)
        assert f is not None
        assert (transversal_matroid(f).independent_family()
                == covering_matroid(paper_covering).independent_family())

    def test_covering_to_transversal_inapplicable(self, paper_covering):
        assert covering_as_transversal(paper_covering.with_capacities([1, 2])) is None

    def test_covering_is_transversal_of_repeated_blocks(self):
        """M(K, k) is the transversal matroid of the blocks with each K_i
        repeated k_i times, for any capacities (capacity 0 included); back
        through ``transversal_as_covering`` the repeats merge again."""
        rng = random.Random(29)
        zero_caps = 0
        for _ in range(60):
            cov = random_covering(rng, rng.randint(1, 9), rng.randint(1, 5),
                                  kmax=3, kmin=0)
            zero_caps += 0 in cov.capacities
            repeated = IndexedFamily(cov.ground, tuple(
                b for b, k in zip(cov.blocks, cov.capacities) for _ in range(k)))
            fam_ = covering_matroid(cov).independent_family()
            assert transversal_matroid(repeated).independent_family() == fam_
            merged = transversal_as_covering(repeated)
            assert covering_matroid(merged).independent_family() == fam_
        assert zero_caps > 10

    def test_all_ones_partition_is_transversal(self):
        g = GroundSet("abcd")
        p = PartitionWitness.from_labels(g, [["a", "b"], ["c", "d"]], [1, 1])
        f = covering_as_transversal(p.covering)
        assert (transversal_matroid(f).independent_family()
                == partition_matroid(p).independent_family())


class TestPartitionCircuitMatroid:
    def test_circuits_are_the_blocks(self):
        g = GroundSet("abcd")
        p = PartitionWitness.from_labels(g, [["a", "b"], ["c", "d"]], [1, 1])
        assert partition_circuit_matroid(p).circuits() == fam(g, "ab", "cd")

    def test_singleton_block_makes_a_loop(self):
        g = GroundSet("abc")
        p = PartitionWitness.from_labels(g, [["a"], ["b", "c"]], [1, 1])
        m = partition_circuit_matroid(p)
        assert repr(m.loops()) == "{a}"

    def test_equals_dual_of_all_ones_partition_matroid(self):
        g = GroundSet("abcde")
        p = PartitionWitness.from_labels(g, [["a", "b", "c"], ["d", "e"]], [1, 1])
        assert (partition_circuit_matroid(p).independent_family()
                == partition_matroid(p).dual().independent_family())


class TestPartitionDualParams:
    def test_self_dual_parameters(self):
        g = GroundSet("abcd")
        p = PartitionWitness.from_labels(g, [["a", "b"], ["c", "d"]], [1, 1])
        assert partition_dual_params(p) == (1, 1)

    def test_saturated_capacities_dualize_to_zero(self):
        g = GroundSet("abc")
        p = PartitionWitness.from_labels(g, [["a", "b"], ["c"]], [5, 1])
        assert partition_dual_params(p) == (0, 0)

    def test_single_block_example(self, abc):
        p = PartitionWitness.from_labels(abc, [["a", "b", "c"]], [2])
        assert partition_dual_params(p) == (1,)
        dual = partition_matroid(
            PartitionWitness(p.covering.with_capacities([1]))
        )
        assert (dual.independent_family()
                == partition_matroid(p).dual().independent_family())

    def test_regenerates_the_dual(self):
        rng = random.Random(29)
        g = GroundSet("abcdef")
        for _ in range(10):
            # random partition of six elements
            blocks = {}
            for e in range(6):
                blocks.setdefault(rng.randint(0, 2), []).append(1 << e)
            masks = tuple(g.mask(sum(bs)) for bs in blocks.values())
            caps = tuple(rng.randint(0, 3) for _ in masks)
            p = PartitionWitness(CapacitatedCovering(g, masks, caps))
            regen = partition_matroid(
                PartitionWitness(p.covering.with_capacities(
                    partition_dual_params(p)))
            )
            assert (regen.independent_family()
                    == partition_matroid(p).dual().independent_family())


class TestCoveringMatroidSlice:
    def test_paper_slices(self, paper_covering):
        g = paper_covering.ground
        assert covering_matroid_slice(paper_covering, 0).independent_family() == fam(
            g, "", "a", "b"
        )
        assert covering_matroid_slice(paper_covering, 1).independent_family() == fam(
            g, "", "b", "c"
        )

    def test_zero_capacity_slice_is_rank0(self, paper_covering):
        cov = paper_covering.with_capacities([0, 1])
        assert covering_matroid_slice(cov, 0).independent_family() == fam(
            cov.ground, ""
        )

    def test_index_out_of_range(self, paper_covering):
        with pytest.raises(IndexError):
            covering_matroid_slice(paper_covering, 2)

    def test_equals_k_rank_matroid(self):
        """Slice i is built from block i's one (block, capacity) pair: it
        walks to the same bitmaps as ``k_rank_matroid(block_i, k_i)`` and
        answers rank and closure alike, and its provenance stays
        "covering"."""
        rng = random.Random(31)
        for _ in range(10):
            cov = random_covering(rng, rng.randint(2, 6), rng.randint(1, 4),
                                  kmax=3, kmin=0)
            for i in range(cov.m):
                slc = covering_matroid_slice(cov, i)
                kr = k_rank_matroid(cov.ground, cov.blocks[i],
                                    cov.capacities[i])
                assert slc.independent_family() == kr.independent_family()
                assert slc._walk()[:2] == kr._walk()[:2]
                assert slc.provenance == "covering"
                for _ in range(8):
                    x = cov.ground.mask(rng.randrange(1 << cov.ground.n))
                    assert slc.rank(x) == kr.rank(x)
                    assert slc.closure(x) == kr.closure(x)


def edmonds_karp(bits, blocks, caps):
    """Maximum flow source → elements of ``bits`` (capacity 1) → the blocks
    holding them → sink (capacity caps[j]), by BFS augmenting paths."""
    elems = [e for e in range(bits.bit_length()) if bits >> e & 1]
    source, sink = "s", "t"
    residual = {source: {}, sink: {}}
    for e in elems:
        residual[source][e] = 1
        residual[e] = {("b", j): 1 for j, b in enumerate(blocks) if b >> e & 1}
    for j, k in enumerate(caps):
        residual.setdefault(("b", j), {})[sink] = k
    flow = 0
    while True:
        prev = {source: None}
        queue = deque([source])
        while queue and sink not in prev:
            u = queue.popleft()
            for v, c in residual[u].items():
                if c > 0 and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            return flow
        v = sink
        while prev[v] is not None:
            u = prev[v]
            residual[u][v] -= 1
            residual[v][u] = residual[v].get(u, 0) + 1
            v = u
        flow += 1


def random_query(rng, n):
    """A subset of an n-element universe at a random density."""
    bits = rng.randrange(1 << n)
    for _ in range(rng.randint(0, 2)):
        bits &= rng.randrange(1 << n)
    return bits


class TestMatchingPaths:
    """Both engine paths, forced by ``_CUT_CAP``, against a max-flow that
    shares no code with the package, on 7–14 blocks over up to 64 elements
    and on chains of 30–60 blocks.  Either path gets the same bitmap
    factory for its walk.  Live blocks that are pairwise disjoint take the
    partition sum whatever ``_CUT_CAP`` is."""

    def instances(self):
        """(build, source, blocks, capacities, disjoint) for random,
        overlapping blocks, then for chains, then for disjoint ones."""
        rng = random.Random(41)
        out = []
        for _ in range(8):
            cov = random_covering(rng, rng.randint(8, 64), rng.randint(7, 14),
                                  kmax=3, kmin=0)
            out.append((covering_matroid, cov, [b.bits for b in cov.blocks],
                        list(cov.capacities), False))
            fam_ = random_indexed_family(rng, rng.randint(8, 64),
                                         rng.randint(7, 14))
            out.append((transversal_matroid, fam_, [m.bits for m in fam_.members],
                        [1] * len(fam_.members), False))
        assert any(0 in caps for _, _, _, caps, _ in out)
        return out + self.chain_instances() + self.disjoint_instances()

    @staticmethod
    def chain_instances():
        """Chains of 30–60 capacity-1 blocks (``chain_covering``) with the
        elements and the blocks in shuffled order, as coverings and as an
        indexed family.  Placing a dense set shifts holders back along paths
        of many blocks, which random blocks rarely need."""
        rng = random.Random(59)
        out = []
        for build in (covering_matroid, transversal_matroid, covering_matroid):
            chain = chain_covering(rng.randint(30, 60))
            labels = chain.ground.labels
            g = GroundSet(rng.sample(labels, len(labels)))
            blocks = [g.subset(b.labels()) for b in rng.sample(chain.blocks, chain.m)]
            ones = [1] * len(blocks)
            source = (CapacitatedCovering(g, blocks, ones)
                      if build is covering_matroid else IndexedFamily(g, blocks))
            out.append((build, source, [b.bits for b in blocks], ones, False))
        return out

    @staticmethod
    def disjoint_instances():
        """Coverings and indexed families whose 12–16 live blocks are
        pairwise disjoint and leave some elements out.  A covering's
        capacity-0 blocks hold those elements, and two more overlap the
        live blocks; a family also has an empty member."""
        rng = random.Random(53)
        out = []
        for _ in range(4):
            n = rng.randint(24, 64)
            g = GroundSet(f"x{i}" for i in range(n))
            order = rng.sample(range(n), n)
            live = rng.randint(12, 16)
            taken = rng.randint(live, n - 2)
            ends = [0, *sorted(rng.sample(range(1, taken), live - 1)), taken]
            parts = [sum(1 << e for e in order[a:b]) for a, b in zip(ends, ends[1:])]
            dead = [sum(1 << e for e in order[taken:])]
            while len(dead) < 3:
                b = sum(1 << e for e in rng.sample(range(n), rng.randint(2, n)))
                if b not in parts and b not in dead:
                    dead.append(b)
            pairs = ([(b, rng.randint(1, 3)) for b in parts]
                     + [(b, 0) for b in dead])
            rng.shuffle(pairs)
            cov = CapacitatedCovering(g, tuple(g.mask(b) for b, _ in pairs),
                                      tuple(k for _, k in pairs))
            out.append((covering_matroid, cov, [b for b, _ in pairs],
                        [k for _, k in pairs], True))
            fam_ = IndexedFamily(g, tuple(g.mask(b) for b in [*parts, 0]))
            out.append((transversal_matroid, fam_, [*parts, 0],
                        [1] * (live + 1), True))
        return out

    @pytest.mark.parametrize("cut_cap", [0, 14])
    def test_indep_and_rank_match_max_flow(self, monkeypatch, cut_cap):
        monkeypatch.setattr(constructions, "_CUT_CAP", cut_cap)
        rng = random.Random(43 + cut_cap)
        for build, source, blocks, caps, disjoint in self.instances():
            n = source.ground.n
            m = build(source)
            live = sum(k > 0 for k in caps)
            assert matching_path(m) == (
                "cut" if disjoint or live <= cut_cap else "placement")
            assert m._bitmap is not None
            # U and U less its last element place a whole chain along paths
            # of up to dozens of blocks; random sets rarely pass three.
            queries = [(1 << n) - 1, (1 << n - 1) - 1]
            for bits in queries + [random_query(rng, n) for _ in range(25)]:
                flow = edmonds_karp(bits, blocks, caps)
                assert m.rank_bits(bits) == flow
                assert m.indep_bits(bits) == (flow == bits.bit_count())

    def test_twelve_disjoint_blocks_take_the_partition_sum(self):
        """Past ``_CUT_CAP`` = 10 live blocks, disjoint ones still get a cut
        handle: no augmenting path answers a query."""
        g = GroundSet(f"x{i}" for i in range(24))
        cov = CapacitatedCovering(g, [g.mask(0b11 << 2 * i) for i in range(12)],
                                  [1] * 12)
        m = covering_matroid(cov)
        assert matching_path(m) == "cut"
        assert m.rank_bits(g.full_mask) == 12
        assert m.indep_bits(0x555555) and not m.indep_bits(0b11)

    def test_slice_of_ten_blocks_equals_k_rank(self):
        rng = random.Random(47)
        cov = random_covering(rng, 64, 10, kmax=4, kmin=0)
        for i in range(cov.m):
            slc = covering_matroid_slice(cov, i)
            kr = k_rank_matroid(cov.ground, cov.blocks[i], cov.capacities[i])
            for _ in range(40):
                bits = random_query(rng, 64)
                assert slc.indep_bits(bits) == kr.indep_bits(bits)
                assert slc.rank_bits(bits) == kr.rank_bits(bits)


class TestPastSixtyFourElements:
    """The engine at n = 96–128, as far as the query bench goes: on seeded
    coverings of at most ten blocks the cut path and augmenting paths, each
    forced by ``_CUT_CAP``, agree on independence, rank and closure, and
    rank keeps its axioms on sampled sets."""

    @staticmethod
    def handles(monkeypatch):
        rng = random.Random(67)
        for _ in range(10):
            cov = random_covering(rng, rng.randint(96, 128), rng.randint(6, 10),
                                  kmax=4, kmin=0)
            monkeypatch.setattr(constructions, "_CUT_CAP", 10)
            cut = covering_matroid(cov)
            monkeypatch.setattr(constructions, "_CUT_CAP", 0)
            aug = covering_matroid(cov)
            assert matching_path(cut) == "cut" and matching_path(aug) == "placement"
            yield cov.ground, cut, aug

    def test_two_blocks_of_128_elements_are_drawn_within_a_second(self):
        # Two random blocks cover 128 elements with probability near 10^-16.
        rng = random.Random(79)
        start = time.perf_counter()
        for m in (1, 2):
            cov = random_covering(rng, 128, m, kmax=4, kmin=0)
            assert cov.m == m and cov.ground.n == 128
        assert time.perf_counter() - start < 1.0

    @staticmethod
    def query(rng, n, r):
        """A sparse set around the rank of U, or a dense one."""
        if rng.random() < 0.7:
            return sum(1 << e for e in rng.sample(range(n), rng.randint(0, r + 3)))
        return random_query(rng, n)

    def test_cut_and_augmenting_paths_agree(self, monkeypatch):
        rng = random.Random(71)
        verdicts = set()
        grown = False
        for ground, cut, aug in self.handles(monkeypatch):
            n = ground.n
            r = cut.rank_bits(ground.full_mask)
            assert aug.rank_bits(ground.full_mask) == r
            for _ in range(40):
                bits = self.query(rng, n, r)
                verdicts.add(cut.indep_bits(bits))
                assert cut.indep_bits(bits) == aug.indep_bits(bits), (n, bits)
                assert cut.rank_bits(bits) == aug.rank_bits(bits), (n, bits)
            for _ in range(4):
                x = ground.mask(self.query(rng, n, r))
                closure = cut.closure(x)
                assert closure == aug.closure(x), (n, x.bits)
                assert cut.rank(closure) == cut.rank(x)
                grown |= closure != x
        assert verdicts == {False, True} and grown

    def test_rank_axioms_on_sampled_pairs(self, monkeypatch):
        rng = random.Random(73)
        for ground, cut, aug in self.handles(monkeypatch):
            n = ground.n
            r_full = cut.rank_bits(ground.full_mask)
            for m in (cut, aug):
                for _ in range(15):
                    x = self.query(rng, n, r_full)
                    y = self.query(rng, n, r_full)
                    rx, ry = m.rank_bits(x), m.rank_bits(y)
                    r_or, r_and = m.rank_bits(x | y), m.rank_bits(x & y)
                    assert 0 <= rx <= min(x.bit_count(), r_full)
                    assert rx <= r_or and r_and <= min(rx, ry)
                    assert r_or + r_and <= rx + ry


def rank_call_closure(m, bits):
    """cl(X) by its definition: X plus every element whose addition leaves
    ``rank_bits`` unchanged, from n + 1 rank calls."""
    r = m.rank_bits(bits)
    out = bits
    for e in range(m.ground.n):
        if m.rank_bits(bits | 1 << e) == r:
            out |= 1 << e
    return out


class TestClosureHook:
    """The partition-sum and cut-table handles answer closure through their
    private hook.  On seeded handles from every pair builder (n ≤ 7,
    capacities 0–3) it equals the closure n + 1 rank calls give, on every
    subset, and ``loops()`` is U minus the live blocks' union.  Placement
    handles, duals and unions have no hook."""

    @staticmethod
    def handles():
        """(handle, live blocks): partition and partition-circuit matroids,
        k-rank matroids (k = 0 too), slices, coverings of disjoint blocks
        with an overlapping capacity-0 block, random coverings, and
        transversal families of at most 10 members."""
        rng = random.Random(97)
        for _ in range(600):
            n = rng.randint(1, 7)
            g = GroundSet(f"x{i}" for i in range(n))
            part = [0] * rng.randint(1, n)
            for e in range(n):
                part[rng.randrange(len(part))] |= 1 << e
            part = [b for b in part if b]
            caps = [rng.randint(0, 3) for _ in part]
            cov = CapacitatedCovering(g, [g.mask(b) for b in part], caps)
            witness = PartitionWitness(cov)
            yield partition_matroid(witness), [b for b, k in zip(part, caps) if k]
            yield (partition_circuit_matroid(witness),
                   [b for b in part if b.bit_count() > 1])
            yield covering_matroid(cov), [b for b, k in zip(part, caps) if k]
            if g.full_mask not in part:
                over = CapacitatedCovering(g, [*cov.blocks, g.full()], [*caps, 0])
                yield covering_matroid(over), [b for b, k in zip(part, caps) if k]
            block, k = rng.randrange(1 << n), rng.randint(0, 3)
            yield k_rank_matroid(g, g.mask(block), k), [block] if k else []
            cov = random_covering(rng, n, rng.randint(1, 6), kmax=3, kmin=0)
            live = [b.bits for b, k in zip(cov.blocks, cov.capacities) if k]
            yield covering_matroid(cov), live
            i = rng.randrange(cov.m)
            yield (covering_matroid_slice(cov, i),
                   [cov.blocks[i].bits] if cov.capacities[i] else [])
            fam_ = random_indexed_family(rng, n, rng.randint(1, 10))
            yield transversal_matroid(fam_), [m.bits for m in fam_.members if m.bits]

    def test_hook_equals_rank_call_closure_on_every_subset(self):
        paths = set()
        grown = subsets = 0
        for m, live in self.handles():
            union = 0
            for b in live:
                union |= b
            disjoint = sum(b.bit_count() for b in live) == union.bit_count()
            assert matching_path(m) == "cut" and m._closure is not None
            assert isinstance(m.rank_hint, partial) == disjoint
            paths.add(disjoint)
            g = m.ground
            assert m.loops().bits == g.full_mask & ~union
            for bits in range(1 << g.n):
                closure = m.closure(g.mask(bits)).bits
                assert closure == rank_call_closure(m, bits), (m, live, bits)
                grown += closure != bits
                subsets += 1
        assert paths == {False, True} and 0 < grown < subsets

    def test_placement_dual_and_union_have_no_hook(self):
        rng = random.Random(101)
        cov = random_covering(rng, 9, 11, kmax=2)
        m = covering_matroid(cov)
        assert matching_path(m) == "placement"
        for h in (m, m.dual(), union_matroids([m, m])):
            assert h._closure is None


class TestBitmapWalk:
    """Every handle built from (block, capacity) pairs reads its families
    off a powerset bitmap computed from its pairs, and
    ``Matroid(m.ground, m.indep_bits)``, a twin with the same oracle and no
    pairs, fills one from the oracle.  Both equal, member for member and in
    order, the lists the definitions give over every subset.  The
    handles come from every pair builder at every n from 1 to 12 (a ground
    set is never empty): coverings and transversal families through the
    matcher on both of its paths, with more than ``_CUT_CAP`` live blocks
    and with zero capacities; transversal families with duplicate and empty
    members; slices; partition, partition-circuit and k-rank matroids; rank
    0 and the free matroid.  The coverings have loops; the ones with few
    blocks have the enumerate bench's block density, 0.3, and the ones with
    many about two elements a block."""

    @staticmethod
    def sparse_covering(rng, n, m, density):
        """m distinct blocks holding each element with probability
        ``density`` (an empty or repeated draw is redrawn uniformly) and
        capacity 0, 1 or 2; elements no block holds form one more block of
        capacity 0, so they are loops."""
        g = GroundSet(f"x{i}" for i in range(n))
        blocks = set()
        while len(blocks) < m:
            b = sum(1 << e for e in range(n) if rng.random() < density)
            blocks.add(b if b and b not in blocks else rng.randrange(1, 1 << n))
        blocks = sorted(blocks)
        caps = [rng.choice((0, 1, 1, 2, 2)) for _ in blocks]
        missing = g.full_mask
        for b in blocks:
            missing &= ~b
        if missing:
            blocks.append(missing)
            caps.append(0)
        return CapacitatedCovering(g, tuple(g.mask(b) for b in blocks),
                                   tuple(caps))

    @classmethod
    def builds(cls, rng):
        """(kind, handle) pairs, about a dozen at each n.  Each partition
        has a one-element block, which partition-circuit turns into a loop."""
        for n in range(1, 13):
            g = GroundSet(f"x{i}" for i in range(n))
            for m, density in ((rng.randint(1, 6), 0.3), (rng.randint(11, 14), 2 / n)):
                cov = cls.sparse_covering(rng, n, min(m, (1 << n) - 1), density)
                yield "covering", covering_matroid(cov)
                yield "slice", covering_matroid_slice(cov, rng.randrange(cov.m))
            yield "rank 0", covering_matroid(cov.with_capacities([0] * cov.m))
            for count, size in ((rng.randint(4, 6), n), (rng.randint(11, 14), 3)):
                members = [g.mask(sum(1 << e for e in rng.sample(
                    range(n), rng.randint(1, min(size, n))))) for _ in range(count)]
                members += [g.empty(), members[0]]
                yield "transversal", transversal_matroid(IndexedFamily(g, members))
            parts = [[g.labels[0]], [], [], []]
            for label in g.labels[1:]:
                rng.choice(parts[1:]).append(label)
            parts = [p for p in parts if p]
            p = PartitionWitness.from_labels(
                g, parts, [rng.randint(0, len(p)) for p in parts])
            yield "partition", partition_matroid(p)
            yield "partition-circuit", partition_circuit_matroid(p)
            yield "k-rank", k_rank_matroid(g, cov.blocks[0], rng.randint(0, 3))
            yield "free", k_rank_matroid(g, g.full(), n)

    def test_walks_agree_member_for_member(self):
        paths = set()
        for kind, m in self.builds(random.Random(67)):
            assert m._bitmap is not None
            expected = scan_definitions(m)
            for handle in (m, Matroid(m.ground, m.indep_bits)):
                walked = (handle.independent_family()._ordered,
                          handle.circuits()._ordered, handle.bases()._ordered)
                assert walked == expected, (kind, m.ground.n, handle)
            g = m.ground
            if kind == "rank 0":
                assert list(m.bases()) == [g.empty()]
            if kind == "free":
                assert list(m.bases()) == [g.full()] and not m.circuits()
            if kind in ("covering", "transversal"):
                paths.add(matching_path(m))
        assert paths == {"cut", "placement"}

    def test_oracle_handles_fill_their_bitmap(self):
        """Duals, unions and handles built from an oracle alone have no
        pairs; the bitmap they fill from their oracle lists the sets the
        definitions give."""
        g = GroundSet("abcd")
        m = k_rank_matroid(g, g.subset("abc"), 2)
        for handle in (m.dual(), union_matroids([m, m]), Matroid(g, m.indep_bits)):
            assert handle._bitmap is None
            assert (handle.independent_family()._ordered,
                    handle.circuits()._ordered,
                    handle.bases()._ordered) == scan_definitions(handle)
