import random

import pytest

from covmatroid import (
    ClassificationReport,
    GroundSet,
    IndexedFamily,
    Matroid,
    PartitionWitness,
    ValidationError,
    classify,
    is_2_circuit,
    is_double_circuit,
    is_partition_circuit,
    partition_matroid,
    recover_partition_from_2circuit,
    CapacitatedCovering,
    covering_matroid,
    partition_circuit_matroid,
    transversal_matroid,
)

from covmatroid.classify import VerificationError, _witness
from covmatroid.core import _canonical_sort_key

from conftest import matching_path, random_covering, scan_definitions


def free_matroid(n):
    g = GroundSet(f"x{i}" for i in range(n))
    return Matroid(g, lambda bits: True, rank_hint=int.bit_count,
                   provenance="free")


def all_ones_partition(ground, blocks):
    return partition_matroid(
        PartitionWitness.from_labels(ground, blocks, [1] * len(blocks))
    )


def example2_matroid():
    g = GroundSet("abc")
    return covering_matroid(
        CapacitatedCovering.from_labels(g, [["a", "b"], ["b", "c"]], [1, 1])
    )


def test_double_circuit_report_must_be_2_circuit_and_self_dual():
    for two_circuit, self_dual in ((False, True), (True, False)):
        with pytest.raises(VerificationError, match="double-circuit matroid"):
            ClassificationReport(two_circuit, False, True, self_dual, ())
    assert ClassificationReport(True, False, True, True, ()).is_double_circuit


class TestIs2Circuit:
    def test_all_ones_partition_matroid(self):
        g = GroundSet("abcde")
        assert is_2_circuit(all_ones_partition(g, [["a", "b", "c"], ["d", "e"]]))

    def test_free_matroid_vacuously(self):
        assert is_2_circuit(free_matroid(3))

    def test_example2_is_not(self):
        assert not is_2_circuit(example2_matroid())


class TestRecoverPartition:
    def test_recovers_pair_partition(self):
        g = GroundSet("abcd")
        m = all_ones_partition(g, [["a", "b"], ["c", "d"]])
        witness = recover_partition_from_2circuit(m)
        assert [repr(b) for b in witness.blocks] == ["{a,b}", "{c,d}"]

    def test_free_matroid_gives_singletons(self):
        m = free_matroid(3)
        witness = recover_partition_from_2circuit(m)
        assert all(b.cardinality == 1 for b in witness.blocks)

    def test_loop_matroid_rejected(self):
        g = GroundSet("ab")
        m = Matroid(g, lambda bits: bits & 1 == 0, provenance="loopy")
        with pytest.raises(ValidationError):
            recover_partition_from_2circuit(m)

    def test_recovered_partition_matches_original_up_to_singletons(self):
        g = GroundSet("abcde")
        blocks = [["a", "c"], ["b"], ["d", "e"]]
        witness = recover_partition_from_2circuit(all_ones_partition(g, blocks))
        labels = sorted(tuple(b.labels()) for b in witness.blocks)
        assert labels == [("a", "c"), ("b",), ("d", "e")]


class TestVerifyWitness:
    def test_reports_the_first_differing_subset_in_canonical_order(self):
        # The families differ first at size 2, on {a,d} and {b,c}.  {a,d}
        # holds a, the least element of their symmetric difference, so it
        # comes first in canonical order (and after {b,c} as an integer).
        g = GroundSet("abcd")
        blocks = [["a", "d"], ["b", "c"]]
        m = partition_matroid(PartitionWitness.from_labels(g, blocks, [2, 1]))
        regen = partition_matroid(PartitionWitness.from_labels(g, blocks, [1, 2]))
        with pytest.raises(VerificationError) as caught:
            _witness(m, [0b1001, 0b0110], 1, lambda witness: regen)
        assert repr(caught.value.differing) == "{a,d}"

    def test_walks_that_differ_at_two_sizes_report_the_smaller_first(self):
        # The families differ on {a,b}, {a,b,c} and {a,b,d}.  The decoded
        # difference lists its sets canonically within each size only, the
        # two 3-sets before {a,b}; the canonical-first subset is {a,b}.
        g = GroundSet("abcd")
        blocks = [["a", "b"], ["c", "d"]]
        m = partition_matroid(PartitionWitness.from_labels(g, blocks, [1, 1]))
        regen = partition_matroid(PartitionWitness.from_labels(g, blocks, [2, 1]))
        with pytest.raises(VerificationError) as caught:
            _witness(m, [0b0011, 0b1100], 1, lambda witness: regen)
        assert repr(caught.value.differing) == "{a,b}"

    def test_an_oracle_handle_reports_the_same_subset(self):
        # The same matroid with no bitmap factory: its walk fills the bitmap
        # from the oracle, and the diff against the regenerated handle's
        # bitmap names the same subset.
        g = GroundSet("abcd")
        blocks = [["a", "d"], ["b", "c"]]
        m = partition_matroid(PartitionWitness.from_labels(g, blocks, [2, 1]))
        twin = Matroid(g, m.indep_bits, m.rank_hint)
        regen = partition_matroid(PartitionWitness.from_labels(g, blocks, [1, 2]))
        with pytest.raises(VerificationError) as caught:
            _witness(twin, [0b1001, 0b0110], 1, lambda witness: regen)
        assert twin._bitmap is None
        assert repr(caught.value.differing) == "{a,d}"

    def test_a_placement_handle_reports_the_canonical_first_difference(self):
        # 12 blocks, past the matcher's cut table: the first subset in
        # canonical order on which the definitions of the two families
        # disagree.
        g = GroundSet("abcdefgh")
        m = transversal_matroid(IndexedFamily.from_labels(g, [
            "ab", "ab", "bc", "cd", "d", "de", "a", "ef", "b", "c", "e", "fg"]))
        assert matching_path(m) == "placement"
        regen = partition_matroid(PartitionWitness.from_labels(
            g, [["a", "b", "c", "d"], ["e", "f", "g", "h"]], [2, 2]))
        differ = set(scan_definitions(m)[0]) ^ set(scan_definitions(regen)[0])
        with pytest.raises(VerificationError) as caught:
            _witness(m, [0b1111, 0b11110000], 2, lambda witness: regen)
        assert caught.value.differing.bits == min(differ, key=_canonical_sort_key(8))


class TestIsPartitionCircuit:
    def test_pair_partition_circuits(self):
        g = GroundSet("abcd")
        p = PartitionWitness.from_labels(g, [["a", "b"], ["c", "d"]], [1, 1])
        ok, witness = is_partition_circuit(partition_circuit_matroid(p))
        assert ok
        assert [repr(b) for b in witness.blocks] == ["{a,b}", "{c,d}"]

    def test_free_matroid_is_not(self):
        ok, witness = is_partition_circuit(free_matroid(2))
        assert not ok and witness is None

    def test_example2_single_block(self):
        ok, witness = is_partition_circuit(example2_matroid())
        assert ok
        assert [repr(b) for b in witness.blocks] == ["{a,b,c}"]


class TestIsDoubleCircuit:
    def test_pair_partition(self):
        g = GroundSet("abcd")
        assert is_double_circuit(all_ones_partition(g, [["a", "b"], ["c", "d"]]))

    def test_triple_block_is_not(self):
        g = GroundSet("abc")
        assert not is_double_circuit(all_ones_partition(g, [["a", "b", "c"]]))

    def test_free_matroid_is_not(self):
        assert not is_double_circuit(free_matroid(2))


class TestClassify:
    def test_pair_partition_report(self):
        g = GroundSet("abcd")
        report = classify(all_ones_partition(g, [["a", "b"], ["c", "d"]]))
        assert report.is_2_circuit
        assert report.is_partition_circuit
        assert report.is_double_circuit
        assert report.is_identically_self_dual
        assert report.circuit_size_multiset == (2, 2)
        assert report.two_circuit_witness is not None
        assert report.partition_circuit_witness is not None

    def test_example2_report(self):
        report = classify(example2_matroid())
        assert not report.is_2_circuit
        assert report.is_partition_circuit
        assert not report.is_double_circuit
        assert not report.is_identically_self_dual
        assert report.circuit_size_multiset == (3,)

    def test_rank0_singleton_report(self):
        g = GroundSet("a")
        m = Matroid(g, lambda bits: bits == 0, provenance="rank0")
        report = classify(m)
        # the lone circuit {a} is the one-block partition of U, so the
        # matroid is partition-circuit; every other special flag fails
        assert report.circuit_size_multiset == (1,)
        assert not report.is_2_circuit
        assert report.is_partition_circuit
        assert not report.is_double_circuit
        assert not report.is_identically_self_dual

    def test_witnesses_regenerate_the_matroid(self):
        g = GroundSet("abcdef")
        m = all_ones_partition(g, [["a", "b"], ["c", "d"], ["e", "f"]])
        report = classify(m)
        regen = partition_matroid(report.two_circuit_witness)
        assert (regen.independent_family().bitset()
                == m.independent_family().bitset())
        regen2 = partition_circuit_matroid(report.partition_circuit_witness)
        assert (regen2.independent_family().bitset()
                == m.independent_family().bitset())


def random_partition_matroid(rng, n):
    """A partition matroid on n elements; a third of the even-n draws are
    all-ones pair partitions, the double-circuit case."""
    g = GroundSet(f"x{i}" for i in range(n))
    elems = list(range(n))
    rng.shuffle(elems)
    if n % 2 == 0 and rng.random() < 1 / 3:
        blocks = [elems[i:i + 2] for i in range(0, n, 2)]
        caps = [1] * len(blocks)
    else:
        blocks = []
        while elems:
            size = rng.randint(1, len(elems))
            blocks.append(elems[:size])
            elems = elems[size:]
        caps = [rng.randint(0, len(b)) for b in blocks]
    labels = [[f"x{e}" for e in b] for b in blocks]
    return partition_matroid(PartitionWitness.from_labels(g, labels, caps))


def random_matroid(rng, kind, n):
    if kind == "covering":
        return covering_matroid(
            random_covering(rng, n, rng.randint(1, 4), kmax=2, kmin=0)
        )
    if kind == "partition":
        return random_partition_matroid(rng, n)
    cov = random_covering(rng, n, rng.randint(1, 5))
    return transversal_matroid(IndexedFamily(cov.ground, cov.blocks))


@pytest.mark.parametrize("kind", ["covering", "partition", "transversal"])
def test_classify_matches_definitions(kind):
    """Each flag equals its definition-level reference, and each witness
    regenerates the matroid."""
    rng = random.Random(f"classify-{kind}")
    for _ in range(150):
        m = random_matroid(rng, kind, rng.randint(1, 8))
        report = classify(m)
        fam = m.independent_family()
        circuits = m.circuits()
        assert report.circuit_size_multiset == tuple(
            sorted(c.cardinality for c in circuits)
        )
        assert report.is_2_circuit == is_2_circuit(m)
        assert report.is_partition_circuit == is_partition_circuit(m)[0]
        # The definition: M and M* are both 2-circuit, by walking the dual.
        double = is_2_circuit(m) and all(c.cardinality == 2
                                         for c in m.dual().circuits())
        assert report.is_double_circuit == is_double_circuit(m) == double
        self_dual = fam.bitset() == m.dual().independent_family().bitset()
        assert report.is_identically_self_dual == self_dual
        assert m.is_identically_self_dual() == self_dual
        if report.two_circuit_witness is not None:
            regen = partition_matroid(report.two_circuit_witness)
            assert regen.independent_family() == fam
        if report.partition_circuit_witness is not None:
            regen = partition_circuit_matroid(report.partition_circuit_witness)
            assert regen.independent_family() == fam
        assert (report.two_circuit_witness is not None) == report.is_2_circuit
        assert (
            (report.partition_circuit_witness is not None)
            == report.is_partition_circuit
        )


@pytest.mark.parametrize("kind", ["covering", "partition", "transversal"])
def test_self_duality_off_half_rank_skips_bases(kind, monkeypatch):
    """With 2·r(U) ≠ n no base complement is a base: the answer comes
    without enumerating bases and still matches the definition."""
    rng = random.Random(f"off-half-rank-{kind}")
    cases = []
    while len(cases) < 40:
        m = random_matroid(rng, kind, rng.randint(1, 8))
        if 2 * m.rank_bits(m.ground.full_mask) != m.ground.n:
            self_dual = (m.independent_family().bitset()
                         == m.dual().independent_family().bitset())
            cases.append((m, self_dual))

    def no_bases(self, *args, **kwargs):
        raise AssertionError("bases() enumerated although 2·r(U) ≠ n")

    monkeypatch.setattr(Matroid, "bases", no_bases)
    for m, self_dual in cases:
        assert m.is_identically_self_dual() == self_dual
        assert classify(m).is_identically_self_dual == self_dual
