import random

import pytest
from hypothesis import given, settings, strategies as st

from covmatroid import constructions
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
from covmatroid.oracle import bf_dual_family, bf_rank

from conftest import random_covering


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


def _canonical(ground, bits):
    return [ground.mask(b) for b in
            sorted(bits, key=lambda b: ground.mask(b).canonical_key())]


def _scan_definitions(m):
    """Independent sets, circuits and bases of ``m`` by their definitions,
    over every subset, in canonical order."""
    n = m.ground.n
    indep = {b for b in range(1 << n) if m.indep_bits(b)}
    circuits = [b for b in range(1 << n) if b not in indep
                and all(b & ~(1 << i) in indep for i in range(n) if b >> i & 1)]
    r = max(b.bit_count() for b in indep)
    bases = [b for b in indep if b.bit_count() == r]
    return tuple(_canonical(m.ground, fam) for fam in (indep, circuits, bases))


_EDGE_LEVELS = {
    "rank-0 covering": lambda: covering_matroid(CapacitatedCovering.from_labels(
        GroundSet("abcd"), [["a", "b"], ["b", "c", "d"]], [0, 0])),
    "free covering": lambda: covering_matroid(CapacitatedCovering.from_labels(
        GroundSet("abcd"), [["a", "b"], ["b", "c", "d"]], [2, 3])),
    "rank-0 on the scan hook": rank0_matroid,
    "free on the scan hook": lambda: free_matroid(4),
}


@pytest.mark.parametrize("name", sorted(_EDGE_LEVELS))
def test_walk_edge_levels_match_powerset_definitions(name):
    """A rank-0 walk ends at level 0, with bases [∅] and every singleton a
    circuit; a free one at level n, with bases [U] and no circuit."""
    m = _EDGE_LEVELS[name]()
    assert (m._extend is None) == name.endswith("scan hook")
    g = m.ground
    indep, circuits, bases = _scan_definitions(m)
    assert list(m.independent_family()) == indep
    assert list(m.circuits()) == circuits
    assert list(m.bases()) == bases
    if name.startswith("rank-0"):
        assert indep == bases == [g.empty()]
        assert circuits == [g.mask(1 << i) for i in range(g.n)]
    else:
        assert bases == [g.full()] and circuits == []


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
    the dual's bases first from a cold primal, then from a walked one."""
    rng = random.Random(f"enumerations:{kind}")
    for n in (1, 3, 5, 7, 8, 9, 10, 11):
        m = _RANDOM_MATROIDS[kind](rng, n)
        dual_bases = _scan_definitions(m.dual())[2]
        assert list(m.dual().bases()) == dual_bases
        assert list(m.dual().dual().bases()) == _scan_definitions(m)[2]
        for handle in (m, m.dual()):
            indep, circuits, bases = _scan_definitions(handle)
            assert list(handle.independent_family()) == indep
            assert list(handle.circuits()) == circuits
            assert list(handle.bases()) == bases


@pytest.mark.parametrize("kind", sorted(_RANDOM_MATROIDS))
def test_enumerations_match_powerset_definitions(kind):
    _check_enumerations(kind)


@pytest.mark.parametrize("kind", ["covering", "transversal"])
def test_enumerations_match_powerset_definitions_on_augmenting_paths(
        monkeypatch, kind):
    monkeypatch.setattr(constructions, "_CUT_CAP", 0)
    _check_enumerations(kind)


def _count_oracle_calls(m):
    """Wrap ``m``'s independence oracle and, where a construction filled
    the hook factory, the extension hook it builds for a walk (the default
    hook asks the wrapped oracle).  In the returned list, item 0 counts the
    calls of both and item 1 the hooks built."""
    calls = [0, 0]

    def counted(inner):
        def wrapper(*args):
            calls[0] += 1
            return inner(*args)
        return wrapper

    m.indep_bits = counted(m.indep_bits)
    if m._extend is not None:
        factory = m._extend

        def build():
            calls[1] += 1
            return counted(factory())

        m._extend = build
    return calls


def _nonempty_candidate_sets(family):
    """How many members I of an independent family have a nonempty cand(I):
    all of U for ∅, else the e above max I with (I - max I) + e in the
    family."""
    n = family.ground.n
    members = family.bitset()
    return sum(
        1 for bits in members
        if any(not bits or bits ^ (1 << bits.bit_length() >> 1) | 1 << e in members
               for e in range(bits.bit_length(), n)))


@pytest.mark.parametrize("kind", sorted(_RANDOM_MATROIDS))
def test_one_walk_per_handle(kind):
    """Independents, circuits and bases share one walk of the levels:
    whichever is asked for second makes no oracle or hook call, nor do
    bases, dual bases and classify on a warm handle; the hook is built once,
    by the walk; and the kept families equal a cold handle's member by
    member."""
    for n in (1, 3, 5, 7, 9, 11):
        seed = f"one-walk:{kind}:{n}"
        for first, second in (("independent_family", "circuits"),
                              ("circuits", "independent_family")):
            m = _RANDOM_MATROIDS[kind](random.Random(seed), n)
            calls = _count_oracle_calls(m)
            getattr(m, first)()
            walked = calls[0]
            # Every kind here fills the hook, which the walk asks once for
            # each independent I with a nonempty cand(I).
            assert m._extend is not None
            assert walked == _nonempty_candidate_sets(m.independent_family())
            getattr(m, second)()
            assert calls[0] == walked
            m.bases()
            m.dual().bases()
            assert calls[0] == walked
            calls[0] = 0
            classify(m)
            in_classify = calls[0]
            calls[0] = 0
            m.is_identically_self_dual()
            assert in_classify == calls[0]
            assert calls[1] == 1  # the walk built the hook, nothing else did
            cold = _RANDOM_MATROIDS[kind](random.Random(seed), n)
            assert list(m.independent_family()) == list(cold.independent_family())
            assert list(m.circuits()) == list(cold.circuits())


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
    no oracle, extension hook or rank function of ``handles``, nor builds
    a hook."""
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
        assert list(dual.circuits()) == _canonical(m.ground, circuits)


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
