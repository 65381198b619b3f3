import random
import time
from collections import deque

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
from conftest import random_covering


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
        rng = random.Random(31)
        for _ in range(10):
            cov = random_covering(rng, rng.randint(2, 6), rng.randint(1, 4),
                                  kmax=3, kmin=0)
            for i in range(cov.m):
                slice_fam = covering_matroid_slice(cov, i).independent_family()
                kr = k_rank_matroid(cov.ground, cov.blocks[i],
                                    cov.capacities[i])
                assert slice_fam == kr.independent_family()


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
    shares no code with the package, on 7–14 blocks over up to 64 elements."""

    def instances(self):
        rng = random.Random(41)
        out = []
        for _ in range(8):
            cov = random_covering(rng, rng.randint(8, 64), rng.randint(7, 14),
                                  kmax=3, kmin=0)
            out.append((covering_matroid, cov, [b.bits for b in cov.blocks],
                        list(cov.capacities)))
            fam_ = random_indexed_family(rng, rng.randint(8, 64),
                                         rng.randint(7, 14))
            out.append((transversal_matroid, fam_, [m.bits for m in fam_.members],
                        [1] * len(fam_.members)))
        assert any(0 in caps for _, _, _, caps in out)
        return out

    @pytest.mark.parametrize("cut_cap", [0, 14])
    def test_indep_and_rank_match_max_flow(self, monkeypatch, cut_cap):
        monkeypatch.setattr(constructions, "_CUT_CAP", cut_cap)
        rng = random.Random(43 + cut_cap)
        for build, source, blocks, caps in self.instances():
            n = source.ground.n
            m = build(source)
            assert (m._extend is None) == (cut_cap == 0)
            for _ in range(25):
                bits = random_query(rng, n)
                flow = edmonds_karp(bits, blocks, caps)
                assert m.rank_bits(bits) == flow
                assert m.indep_bits(bits) == (flow == bits.bit_count())

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
            assert cut._extend is not None and aug._extend is None
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


class TestExtensionHook:
    """The walk's extension hooks against their contract: for an independent
    I of a powerset scan and a mask ``cand`` drawn from the parent's
    independent extensions above max I, {e > max I : (I - max I) + e
    independent} (any elements for I = ∅), the candidates e with I + e
    independent.  ``cand`` is the whole of that set and random sub-masks
    of it.  ``_CUT_CAP`` forces the matcher's path."""

    @staticmethod
    def handles(rng):
        """(handle, matched) pairs; ``matched`` says whether the handle went
        through the matcher, which picks its path by ``_CUT_CAP``."""
        for n in (1, 3, 5, 7, 8, 10):
            cov = random_covering(rng, n, rng.randint(1, 8), kmax=3, kmin=0)
            yield covering_matroid(cov), True
            yield transversal_matroid(
                random_indexed_family(rng, n, rng.randint(1, 8))), True
            g = cov.ground
            parts = [[] for _ in range(rng.randint(1, 4))]
            for label in g.labels:
                rng.choice(parts).append(label)
            parts = [p for p in parts if p]
            p = PartitionWitness.from_labels(
                g, parts, [rng.randint(0, len(p) + 1) for p in parts])
            yield partition_matroid(p), False
            yield partition_circuit_matroid(p), False
            for block in (cov.blocks[0], g.full()):
                yield k_rank_matroid(g, block, rng.randint(0, 3)), False

    @staticmethod
    def queries(rng, m):
        """Each independent I with the parent's independent extensions above
        max I as ``cand`` (all of U for ∅), and with three random sub-masks
        of that."""
        full = m.ground.full_mask
        for bits in range(full + 1):
            if m.indep_bits(bits):
                top = bits.bit_length()
                parent = bits ^ (1 << top >> 1)
                allowed = full if not bits else sum(
                    1 << e for e in range(top, m.ground.n)
                    if m.indep_bits(parent | 1 << e))
                yield bits, allowed
                for _ in range(3):
                    yield bits, allowed & rng.randrange(full + 1)

    @pytest.mark.parametrize("cut_cap", [0, 14])
    def test_hook_names_the_independent_extensions(self, monkeypatch, cut_cap):
        monkeypatch.setattr(constructions, "_CUT_CAP", cut_cap)
        rng = random.Random(59)
        for m, matched in self.handles(random.Random(53)):
            if matched:
                assert (m._extend is None) == (cut_cap == 0)
            else:
                assert m._extend is not None
            extend = m._extend() if m._extend else m._scan_extensions
            for bits, cand in self.queries(rng, m):
                assert extend(bits, cand) == sum(
                    1 << e for e in range(m.ground.n)
                    if cand >> e & 1 and m.indep_bits(bits | 1 << e)), (m, bits)

    def test_cut_order_does_not_change_the_hook(self):
        rng = random.Random(61)
        for m, _ in self.handles(random.Random(53)):
            cuts, n = m._extend.args
            cuts = list(cuts)
            rng.shuffle(cuts)
            shuffled = constructions._cut_hook(cuts, n)
            extend = m._extend()
            for bits, cand in self.queries(rng, m):
                assert shuffled(bits, cand) == extend(bits, cand), (m, bits)


class TestWalkThroughTheHook:
    """The level walk through a cut-table handle's hook lists the same
    independent sets, circuits and bases, in the same order, as the walk of
    a twin handle with no hook, which asks its oracle once per candidate.
    The shapes are the enumerate bench's (n 10-13, 4-6 or 8-10 blocks of
    density 0.3), with zero-capacity blocks and loops, and with tables that
    repeat a capacity."""

    @staticmethod
    def sparse_covering(rng, n, m):
        """m distinct blocks holding each element with probability 0.3 and
        capacity 0, 1 or 2; elements no block holds form one more block of
        capacity 0, so they are loops."""
        g = GroundSet(f"x{i}" for i in range(n))
        blocks = set()
        while len(blocks) < m:
            blocks.add(sum(1 << e for e in range(n) if rng.random() < 0.3)
                       or 1 << rng.randrange(n))
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
        """(build, source) pairs: ``build(source)`` makes a fresh handle.
        Each partition has a one-element block, a capacity-0 cut of its
        partition-circuit matroid; each k-rank matroid has loops."""
        for n, lo, hi in ((10, 4, 6), (11, 8, 10), (12, 8, 10), (13, 8, 10)) * 3:
            cov = cls.sparse_covering(rng, n, rng.randint(lo, hi))
            yield covering_matroid, cov
            g = cov.ground
            members = [g.mask(b.bits) for b in cov.blocks[:hi - 3]]
            yield transversal_matroid, IndexedFamily(g, tuple(members * 2)[:hi])
            parts = [[g.labels[0]], [], [], []]
            for label in g.labels[1:]:
                rng.choice(parts[1:]).append(label)
            parts = [p for p in parts if p]
            p = PartitionWitness.from_labels(
                g, parts, [rng.randint(0, len(p)) for p in parts])
            yield partition_matroid, p
            yield partition_circuit_matroid, p
            yield (lambda args: k_rank_matroid(*args)), (
                g, cov.blocks[0], rng.randint(0, 3))

    def test_walks_agree_member_for_member(self):
        zero_cut = repeated_capacity = False
        for build, source in self.builds(random.Random(67)):
            m, twin = build(source), build(source)
            assert m._extend is not None
            twin._extend = None
            cuts = m._extend.args[0]
            capacities = [capsum for _, capsum in cuts]
            zero_cut |= 0 in capacities
            repeated_capacity |= len(set(capacities)) < len(capacities)
            for walk in ("independent_family", "circuits", "bases"):
                assert ([s.bits for s in getattr(m, walk)()]
                        == [s.bits for s in getattr(twin, walk)()]), (m, walk)
        assert zero_cut and repeated_capacity
