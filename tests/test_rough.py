import random

import pytest

from covmatroid import rough
from covmatroid import (
    ApproximationSpace,
    CapacitatedCovering,
    GroundSet,
    Matroid,
    MatroidalSpace,
    SetFamily,
    ValidationError,
    approximation_findings,
    covering_matroid_slice,
    lower_approx,
    matroidal_block,
    matroidal_lower,
    matroidal_membership,
    matroidal_neighborhood,
    matroidal_upper,
    neighborhood,
    upper_approx,
)
from conftest import random_covering


@pytest.fixture
def paper_space(abc):
    return ApproximationSpace(
        abc, SetFamily.from_labels(abc, [["a", "b"], ["b", "c"]])
    )


@pytest.fixture
def paper_matroidal(paper_covering):
    return MatroidalSpace(paper_covering)


class TestApproximationSpace:
    def test_rejects_non_covering(self, abc):
        with pytest.raises(ValidationError):
            ApproximationSpace(abc, SetFamily.from_labels(abc, [["a", "b"]]))

    def test_rejects_empty_block(self, abc):
        with pytest.raises(ValidationError):
            ApproximationSpace(
                abc, SetFamily.from_labels(abc, [[], ["a", "b", "c"]])
            )

    def test_rejects_a_family_of_another_ground_set(self, abc):
        # xyz's block would read as abc's universe.
        xyz = GroundSet("xyz")
        with pytest.raises(ValidationError, match="space's ground set"):
            ApproximationSpace(abc, SetFamily.from_labels(xyz, ["xyz"]))

    def test_matroidal_space_builds_its_space_once_when_built(
            self, monkeypatch, paper_covering):
        built = []
        honest = ApproximationSpace.__init__

        def counting(self, *args):
            built.append(args)
            honest(self, *args)

        monkeypatch.setattr(ApproximationSpace, "__init__", counting)
        ms = MatroidalSpace(paper_covering)
        assert len(built) == 1
        assert ms.space() is ms.space()
        assert ms.space().covering == paper_covering.block_family()
        assert len(built) == 1


class TestNeighborhood:
    def test_shared_element(self, paper_space):
        assert repr(neighborhood(paper_space, "b")) == "{b}"

    def test_exclusive_element(self, paper_space):
        assert repr(neighborhood(paper_space, "a")) == "{a,b}"

    def test_partition_gives_the_block(self):
        g = GroundSet("abcd")
        space = ApproximationSpace(
            g, SetFamily.from_labels(g, [["a", "b"], ["c", "d"]])
        )
        assert repr(neighborhood(space, "c")) == "{c,d}"

    def test_unknown_element(self, paper_space):
        with pytest.raises(ValidationError):
            neighborhood(paper_space, "z")


class TestDirectApproximations:
    def test_lower_of_universe(self, paper_space, abc):
        assert lower_approx(paper_space, abc.full()) == abc.full()

    def test_lower_picks_contained_blocks(self, paper_space, abc):
        assert repr(lower_approx(paper_space, abc.subset("ab"))) == "{a,b}"
        assert repr(lower_approx(paper_space, abc.subset("a"))) == "∅"

    def test_upper_of_empty_set(self, paper_space, abc):
        assert repr(upper_approx(paper_space, abc.empty())) == "∅"

    def test_upper_picks_meeting_blocks(self, paper_space, abc):
        assert upper_approx(paper_space, abc.subset("ab")) == abc.full()
        assert repr(upper_approx(paper_space, abc.subset("c"))) == "{b,c}"

    def test_bounds_and_monotonicity(self, paper_space, abc):
        for bits in range(8):
            x = abc.mask(bits)
            sl = lower_approx(paper_space, x)
            sh = upper_approx(paper_space, x)
            assert sl.issubset(x)
            if x.bits:
                assert x.issubset(sh)
            for extra in range(8):
                y = abc.mask(bits | extra)
                assert sl.issubset(lower_approx(paper_space, y))
                assert sh.issubset(upper_approx(paper_space, y))


class TestMatroidalSpace:
    def test_rejects_zero_capacity(self, paper_covering):
        with pytest.raises(ValidationError):
            MatroidalSpace(paper_covering.with_capacities([0, 1]))

    def test_slice_loops_are_the_block_complement(self, paper_matroidal):
        for i, slc in enumerate(paper_matroidal.slices):
            loops = slc.loops()
            assert loops.bits == (
                paper_matroidal.ground.full_mask
                & ~paper_matroidal.covering.blocks[i].bits
            )


class TestMatroidalBlock:
    def test_paper_block(self, paper_matroidal):
        assert repr(matroidal_block(paper_matroidal, 0)) == "{a,b}"

    def test_full_block_has_no_loops(self, abc):
        cov = CapacitatedCovering.from_labels(abc, [["a", "b", "c"]], [1])
        ms = MatroidalSpace(cov)
        assert matroidal_block(ms, 0) == abc.full()

    def test_recovers_blocks_on_random_coverings(self):
        rng = random.Random(41)
        for _ in range(20):
            cov = random_covering(rng, rng.randint(2, 8), rng.randint(1, 4))
            ms = MatroidalSpace(cov)
            for i in range(cov.m):
                assert matroidal_block(ms, i) == cov.blocks[i]

    @pytest.mark.parametrize("i", [-1, 2])
    def test_rejects_a_block_index_outside_the_covering(self, paper_matroidal, i):
        # A negative index must not answer for block m + i.
        with pytest.raises(IndexError,
                           match=f"^block index {i} out of range for 2 blocks$"):
            matroidal_block(paper_matroidal, i)

    def test_findings_on_a_built_space_take_no_closure(self, monkeypatch):
        # The space recovers its blocks once; the operators only read them.
        rng = random.Random(68)
        spaces = [MatroidalSpace(random_covering(rng, 8, 4)) for _ in range(5)]
        calls = []
        honest = Matroid.closure

        def counting(self, x):
            calls.append(x)
            return honest(self, x)

        monkeypatch.setattr(Matroid, "closure", counting)
        for ms in spaces:
            for _ in range(4):
                approximation_findings(ms, ms.ground.mask(
                    rng.getrandbits(ms.ground.n)))
        assert calls == []


class TestMatroidalMembership:
    @pytest.mark.parametrize("i", [-1, 2])
    def test_rejects_a_block_index_outside_the_covering(self, paper_matroidal, i):
        with pytest.raises(IndexError,
                           match=f"^block index {i} out of range for 2 blocks$"):
            matroidal_membership(paper_matroidal, "a", i)

    def test_member(self, paper_matroidal):
        assert matroidal_membership(paper_matroidal, "b", 0) == (True, True, True)

    def test_non_member(self, paper_matroidal):
        assert matroidal_membership(paper_matroidal, "c", 0) == (False, False, False)

    def test_components_always_coincide(self):
        rng = random.Random(43)
        for _ in range(15):
            cov = random_covering(rng, rng.randint(2, 7), rng.randint(1, 3))
            ms = MatroidalSpace(cov)
            for x in cov.ground.labels:
                for i in range(cov.m):
                    triple = matroidal_membership(ms, x, i)
                    assert len(set(triple)) == 1


class TestMatroidalNeighborhood:
    def test_paper_neighborhood(self, paper_matroidal):
        assert repr(matroidal_neighborhood(paper_matroidal, "b")) == "{b}"

    def test_agrees_with_direct_on_random_coverings(self):
        rng = random.Random(47)
        for _ in range(20):
            cov = random_covering(rng, rng.randint(2, 8), rng.randint(1, 4))
            ms = MatroidalSpace(cov)
            space = ms.space()
            for x in cov.ground.labels:
                assert matroidal_neighborhood(ms, x) == neighborhood(space, x)


@pytest.mark.parametrize("operator", [
    "lower_approx", "upper_approx", "matroidal_lower", "matroidal_upper",
    "approximation_findings", "approximation_findings_via_covering"])
def test_subset_of_another_ground_set_rejected(operator, paper_space,
                                                paper_matroidal):
    # lower_approx read {a,b,c} and approximation_findings read [] for a
    # subset of another ground set.
    run = {
        "lower_approx": lambda x: lower_approx(paper_space, x),
        "upper_approx": lambda x: upper_approx(paper_space, x),
        "matroidal_lower": lambda x: matroidal_lower(paper_matroidal, x),
        "matroidal_upper": lambda x: matroidal_upper(paper_matroidal, x),
        "approximation_findings": lambda x: approximation_findings(
            paper_matroidal, x),
        "approximation_findings_via_covering": lambda x: approximation_findings(
            paper_matroidal, x, via_covering=True),
    }[operator]
    for labels in ("xyz", "xyzw"):
        for x in (GroundSet(labels).subset(labels[-1]), GroundSet(labels).full()):
            with pytest.raises(ValidationError, match="another ground set"):
                run(x)
    assert run(GroundSet("abc").subset("ab")) == run(paper_space.ground.subset("ab"))


class TestMatroidalApproximations:
    def test_paper_lower(self, paper_matroidal, abc):
        # X={a,b} meets the second block in one element, so with k=1 the
        # published rank condition holds for that slice as well and the
        # formula overshoots the direct lower approximation {a,b}
        assert matroidal_lower(paper_matroidal, abc.subset("ab")) == abc.full()
        assert [f.operator for f in
                approximation_findings(paper_matroidal, abc.subset("ab"))] == ["lower"]
        assert matroidal_lower(paper_matroidal, abc.full()) == abc.full()

    def test_paper_upper(self, paper_matroidal, abc):
        assert repr(matroidal_upper(paper_matroidal, abc.subset("a"))) == "{a,b}"
        assert repr(matroidal_upper(paper_matroidal, abc.empty())) == "∅"

    def test_upper_always_agrees_with_direct(self):
        rng = random.Random(53)
        for _ in range(15):
            cov = random_covering(rng, rng.randint(2, 7), rng.randint(1, 3))
            ms = MatroidalSpace(cov)
            space = ms.space()
            for bits in range(1 << cov.ground.n):
                x = cov.ground.mask(bits)
                assert matroidal_upper(ms, x) == upper_approx(space, x)

    def test_lower_formula_differs_when_capacity_undershoots_block(self, abc):
        # with k < |K|, the rank condition holds for sets that merely meet
        # the block in k elements; the published formula then overshoots
        cov = CapacitatedCovering.from_labels(abc, [["a", "b", "c"]], [1])
        ms = MatroidalSpace(cov)
        x = abc.subset("a")
        assert repr(lower_approx(ms.space(), x)) == "∅"
        assert matroidal_lower(ms, x) == abc.full()
        findings = approximation_findings(ms, x)
        assert [f.operator for f in findings] == ["lower"]

    def test_lower_agrees_when_capacities_saturate_blocks(self):
        rng = random.Random(59)
        for _ in range(15):
            cov = random_covering(rng, rng.randint(2, 6), rng.randint(1, 3))
            cov = cov.with_capacities([b.cardinality for b in cov.blocks])
            ms = MatroidalSpace(cov)
            space = ms.space()
            for bits in range(1 << cov.ground.n):
                x = cov.ground.mask(bits)
                assert matroidal_lower(ms, x) == lower_approx(space, x)


class TestSliceViaCoveringMatroid:
    def test_paper_slice(self, paper_matroidal):
        m = covering_matroid_slice(paper_matroidal.covering, 1)
        assert repr(m.independent_family()) == "{∅, {b}, {c}}"

    def test_interchangeable_with_direct_slices(self):
        rng = random.Random(61)
        for _ in range(10):
            cov = random_covering(rng, rng.randint(2, 6), rng.randint(1, 3))
            ms = MatroidalSpace(cov)
            replaced = MatroidalSpace(cov, via_covering=True)
            space = ms.space()
            for i in range(cov.m):
                assert matroidal_block(replaced, i) == cov.blocks[i]
            for x in cov.ground.labels:
                assert (matroidal_neighborhood(replaced, x)
                        == neighborhood(space, x))
            for bits in range(1 << cov.ground.n):
                x = cov.ground.mask(bits)
                assert (matroidal_upper(replaced, x)
                        == upper_approx(space, x))
                assert (matroidal_lower(replaced, x)
                        == matroidal_lower(ms, x))

    def test_findings_via_covering_build_one_slice_per_block(
            self, monkeypatch, paper_matroidal, abc):
        built = []
        honest = rough.covering_matroid_slice

        def counting(c, i):
            built.append(i)
            return honest(c, i)

        monkeypatch.setattr(rough, "covering_matroid_slice", counting)
        approximation_findings(paper_matroidal, abc.subset("a"), True)
        assert built == [0, 1]
        # The k-rank space keeps its via-covering twin: a second call builds
        # no slice and gives the same findings.
        twin = approximation_findings(paper_matroidal, abc.subset("a"), True)
        assert built == [0, 1]
        assert twin == approximation_findings(paper_matroidal, abc.subset("a"))
        # The twin is no field: the space still equals a fresh one.
        fresh = MatroidalSpace(paper_matroidal.covering)
        assert paper_matroidal == fresh and hash(paper_matroidal) == hash(fresh)
        # A space built on covering slices already is not rebuilt.
        alt = MatroidalSpace(paper_matroidal.covering, via_covering=True)
        built.clear()
        approximation_findings(alt, abc.subset("a"), True)
        assert built == []

    def test_findings_via_covering_equal_the_k_rank_findings(self):
        rng = random.Random(67)
        compared = 0
        for _ in range(12):
            cov = random_covering(rng, rng.randint(2, 7), rng.randint(1, 3))
            ms = MatroidalSpace(cov)
            for bits in range(1 << cov.ground.n):
                x = cov.ground.mask(bits)
                found = approximation_findings(ms, x)
                assert approximation_findings(ms, x, via_covering=True) == found
                compared += len(found)
        assert compared > 0
