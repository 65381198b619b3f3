"""Acceptance gate: one test per criterion, each printing a single
``criterion N: PASS/FAIL`` line with its elapsed time.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Criteria that tolerate documented findings (criterion 4) count and
report them; everything else is zero-tolerance.  One more test states the
paper's first result, that partition matroids are the covering matroids of
disjoint blocks.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import sys
import time

from covmatroid import (
    CapacitatedCovering,
    GroundSet,
    IndexedFamily,
    MatroidalSpace,
    PartitionWitness,
    SubsetMask,
    approximation_findings,
    bf_dual_family,
    bf_union_independent,
    check_independence_axioms,
    classify,
    covering_as_transversal,
    covering_matroid,
    covering_matroid_slice,
    is_double_circuit,
    is_partial_transversal,
    k_rank_matroid,
    lower_approx,
    matroidal_block,
    matroidal_lower,
    matroidal_neighborhood,
    matroidal_upper,
    naive_covering_family,
    neighborhood,
    partition_circuit_matroid,
    partition_dual_params,
    partition_matroid,
    transversal_as_covering,
    transversal_matroid,
    upper_approx,
)
from covmatroid.cli import main as cli_main
from covmatroid.oracle import bf_covering_family

from conftest import random_covering

LABELS = "abcdefghij"


def report(num: int, budget: float, worker):
    start = time.perf_counter()
    try:
        note = worker()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num}: FAIL ({elapsed:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    suffix = f" — {note}" if note else ""
    print(f"criterion {num}: PASS ({elapsed:.2f}s){suffix}", flush=True)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def set_partitions(labels):
    """All set partitions, as tuples of label-strings, via restricted
    growth strings."""
    n = len(labels)
    if n == 0:
        return
    codes = [0] * n

    def rec(i, maxused):
        if i == n:
            blocks = [[] for _ in range(maxused + 1)]
            for j, c in enumerate(codes):
                blocks[c].append(labels[j])
            yield tuple("".join(b) for b in blocks)
            return
        for c in range(maxused + 2):
            codes[i] = c
            yield from rec(i + 1, max(maxused, c))

    yield from rec(1, 0)


def example_covering():
    g = GroundSet("abc")
    return CapacitatedCovering.from_labels(g, ["ab", "bc"], [1, 1])


def test_criterion_01_counterexample():
    def work():
        cov = example_covering()
        cert = check_independence_axioms(naive_covering_family(cov))
        assert cert.verdict == "violates_I3"
        assert str(cert) == "violates I3: I1={b}, I2={a,c}"

    report(1, 1.0, work)


def test_criterion_02_covering_matroid():
    def work():
        cov = example_covering()
        g = cov.ground
        fam = covering_matroid(cov).independent_family()
        want = {0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110}
        assert {m.bits for m in fam} == want
        s0 = covering_matroid_slice(cov, 0).independent_family()
        s1 = covering_matroid_slice(cov, 1).independent_family()
        assert {m.bits for m in s0} == {0, g.subset("a").bits, g.subset("b").bits}
        assert {m.bits for m in s1} == {0, g.subset("b").bits, g.subset("c").bits}

    report(2, 1.0, work)


def test_criterion_03_representability():
    def work():
        cov = example_covering()
        g = cov.ground
        mat = covering_matroid(cov).independent_family()
        part = partition_matroid(
            PartitionWitness.from_labels(g, ["abc"], [2])
        ).independent_family()
        assert mat == part

        g4 = GroundSet("abcd")
        target = covering_matroid(
            CapacitatedCovering.from_labels(g4, ["ab", "bcd"], [1, 1])
        ).independent_family()
        hits = 0
        for blocks in set_partitions("abcd"):
            ranges = [range(len(b) + 1) for b in blocks]
            for caps in itertools.product(*ranges):
                p = PartitionWitness.from_labels(g4, blocks, caps)
                if partition_matroid(p).independent_family() == target:
                    hits += 1
        assert hits == 0, f"{hits} partition matroids matched the target"

    report(3, 10.0, work)


def test_criterion_04_equivalence_suite():
    def work():
        rng = random.Random(2024)
        lower_findings = []
        checked = 0
        for _ in range(200):
            n = rng.randint(2, 10)
            m = rng.randint(1, 4)
            cov = random_covering(rng, n, m, kmax=3, kmin=1)
            ms = MatroidalSpace(cov)
            space = ms.space()
            g = cov.ground
            alt = MatroidalSpace(cov, via_covering=True)
            for i, block in enumerate(cov.blocks):
                assert matroidal_block(ms, i).bits == block.bits
                assert matroidal_block(alt, i).bits == block.bits
            for x in g.labels:
                assert matroidal_neighborhood(ms, x) == neighborhood(space, x)
                assert matroidal_neighborhood(alt, x) == neighborhood(space, x)
            for bits in range(1 << n):
                x = g.mask(bits)
                sh = upper_approx(space, x)
                assert matroidal_upper(ms, x).bits == sh.bits
                assert matroidal_upper(alt, x).bits == sh.bits
                sl = lower_approx(space, x)
                msl = matroidal_lower(ms, x)
                assert matroidal_lower(alt, x).bits == msl.bits
                if msl.bits != sl.bits:
                    findings = approximation_findings(ms, x)
                    assert len(findings) == 1 and findings[0].operator == "lower"
                    lower_findings.append(findings[0])
                    # The overshoot pattern: some slice has its block's full
                    # rank on X without the block being inside X, which
                    # requires a capacity below the block size.
                    assert any(
                        k < b.cardinality
                        for b, k in zip(cov.blocks, cov.capacities)
                    )
                checked += 1
        note = (
            f"{checked} subsets checked; upper/neighborhood/block exact; "
            f"{len(lower_findings)} lower-operator findings reported "
            "against the published formula"
        )
        return note

    report(4, 60.0, work)


def test_criterion_05_transversal_example():
    def work():
        g = GroundSet("abcdef")
        f = IndexedFamily.from_labels(g, ["abc", "ade", "bef"])
        assert is_partial_transversal(f, g.subset("adf"))
        assert is_partial_transversal(f, g.subset("be"))

    report(5, 1.0, work)


def test_criterion_06_round_trips():
    def work():
        rng = random.Random(606)
        for _ in range(100):
            n = rng.randint(1, 10)
            g = GroundSet(LABELS[:n])
            members = []
            for _ in range(rng.randint(1, 4)):
                bits = rng.randrange(1 << n)
                members.append(g.mask(bits))
            f = IndexedFamily(g, tuple(members))
            direct = transversal_matroid(f).independent_family()
            via = covering_matroid(transversal_as_covering(f)).independent_family()
            assert direct == via, f.members
        for _ in range(100):
            n = rng.randint(1, 10)
            m = rng.randint(1, 4)
            cov = random_covering(rng, n, m, kmax=1, kmin=1)
            fam = covering_as_transversal(cov)
            assert fam is not None
            direct = covering_matroid(cov).independent_family()
            via = transversal_matroid(fam).independent_family()
            assert direct == via, cov

    report(6, 30.0, work)


def test_criterion_07_duality():
    def work():
        rng = random.Random(707)
        for trial in range(100):
            n = rng.randint(1, 10)
            m = rng.randint(1, 3)
            cov = random_covering(rng, n, m, kmax=3, kmin=0)
            kind = trial % 3
            if kind == 0:
                mat = covering_matroid(cov)
            elif kind == 1:
                mat = k_rank_matroid(
                    cov.ground, cov.blocks[0], cov.capacities[0]
                )
            else:
                mat = transversal_matroid(
                    IndexedFamily(cov.ground, cov.blocks)
                )
            assert mat.dual().independent_family() == bf_dual_family(mat)

        for n in range(1, 8):
            for blocks in set_partitions(LABELS[:n]):
                g = GroundSet(LABELS[:n])
                p = PartitionWitness.from_labels(g, blocks, [1] * len(blocks))
                dual = partition_matroid(p).dual()
                pc = partition_circuit_matroid(p)
                assert dual.independent_family() == pc.independent_family()
                caps = partition_dual_params(p)
                regen = partition_matroid(
                    PartitionWitness(p.covering.with_capacities(caps))
                )
                assert regen.independent_family() == dual.independent_family()

    report(7, 60.0, work)


def test_a_covering_whose_blocks_partition_u_is_that_partition_matroid():
    """Paper part 1: a partition is a covering whose blocks do not overlap,
    and then the covering matroid is the partition matroid.  On every set
    partition of n ≤ 5 with capacities 0..|P| + 1, both handles answer
    every subset as the sum of min(|X ∩ P|, k) written out here, and list
    the brute-force union family."""
    for n in range(1, 6):
        g = GroundSet(LABELS[:n])
        for blocks in set_partitions(LABELS[:n]):
            masks = [g.subset(b).bits for b in blocks]
            for caps in itertools.product(*(range(len(b) + 2) for b in blocks)):
                p = PartitionWitness.from_labels(g, blocks, caps)
                family = bf_covering_family(p.covering)
                for m in (covering_matroid(p.covering), partition_matroid(p)):
                    for x in range(1 << n):
                        r = sum(min((x & b).bit_count(), k)
                                for b, k in zip(masks, caps))
                        assert m.rank_bits(x) == r, (p, x)
                        assert m.indep_bits(x) == (r == x.bit_count()), (p, x)
                    assert frozenset(m.independent_family()._ordered) == family


def test_criterion_08_taxonomy():
    def work():
        for n in range(1, 9):
            for blocks in set_partitions(LABELS[:n]):
                g = GroundSet(LABELS[:n])
                p = PartitionWitness.from_labels(g, blocks, [1] * len(blocks))
                mat = partition_matroid(p)
                if all(len(b) == 2 for b in blocks):
                    rep = classify(mat)
                    assert rep.is_double_circuit
                    assert rep.is_identically_self_dual
                elif any(len(b) != 2 for b in blocks):
                    assert not is_double_circuit(mat)

    report(8, 60.0, work)


def test_criterion_09_oracle_parity():
    def work():
        checked = 0
        for n in range(1, 7):
            g = GroundSet(LABELS[:n])
            full = g.full_mask
            masks = [g.mask(bits) for bits in range(1 << n)]
            nonempty = [
                SubsetMask(g, bits) for bits in range(1, 1 << n)
            ]
            for m in range(1, 4):
                cap_vectors = list(itertools.product((0, 1, 2), repeat=m))
                for combo in itertools.combinations(nonempty, m):
                    union = 0
                    for b in combo:
                        union |= b.bits
                    if union != full:
                        continue
                    for caps in cap_vectors:
                        cov = CapacitatedCovering(g, combo, caps)
                        indep = covering_matroid(cov).indep_bits
                        bf = bf_union_independent(cov)
                        for bits in range(1 << n):
                            if indep(bits) != bf(masks[bits]):
                                raise AssertionError((cov, masks[bits]))
                        checked += 1 << n
        return f"{checked} (covering, X) pairs, zero mismatches"

    report(9, 120.0, work)


def test_criterion_10_determinism():
    def work():
        fixtures_dir = os.path.join(os.path.dirname(__file__), "fixtures")
        fixtures = sorted(
            os.path.join(fixtures_dir, name)
            for name in os.listdir(fixtures_dir)
            if name.endswith(".txt")
        )
        commands = [
            ["axioms"],
            ["independents"],
            ["circuits"],
            ["bases"],
            ["rank", "--set", "a"],
            ["closure", "--set", "a"],
            ["dual"],
            ["approx", "--set", "a"],
            ["approx", "--set", "a", "--matroidal"],
            ["neighborhood", "--element", "a"],
            ["neighborhood", "--element", "a", "--matroidal"],
            ["classify"],
            ["convert"],
        ]
        runs = 0
        for fixture in fixtures:
            for cmd in commands:
                argv = [cmd[0], fixture] + cmd[1:]
                results = []
                for _ in range(2):
                    out = io.StringIO()
                    err = io.StringIO()
                    old = sys.stderr
                    sys.stderr = err
                    try:
                        code = cli_main(argv, out=out)
                    finally:
                        sys.stderr = old
                    results.append((code, out.getvalue(), err.getvalue()))
                assert results[0] == results[1], argv
                runs += 1
        return f"{runs} command/fixture pairs byte-identical across runs"

    report(10, 60.0, work)
