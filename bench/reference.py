"""Reference checker for the benchmark.

Shares no code with ``covmatroid``: every matroid the benchmark feeds the
program (covering, partition, indexed family) is a capacitated bipartite
graph between elements and blocks, and independence, rank, closure and the
rough operators are recomputed here from that graph alone.

* ``flow`` is a plain augmenting-path maximum flow (rank = flow value).
* ``hall_deficiency`` is the deficiency form of Hall's theorem,
  max over block sets B of |{x in X : N(x) ⊆ B}| - cap(B); for few blocks
  it is a second, independent route to the same rank.
"""

from __future__ import annotations

import random


class Mismatch(AssertionError):
    """The program's output disagrees with the reference or a property."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def elements(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class Instance:
    """Elements 0..n-1 and blocks with capacities; element e may be
    assigned to block i when e is in block i and cap i is positive.

    ``kind`` is the document kind: ``covering``, ``partition`` or
    ``indexed_family`` (an indexed family has capacity 1 per member).
    """

    def __init__(self, kind: str, n: int, blocks: list[int], caps: list[int]):
        self.kind = kind
        self.n = n
        self.full = (1 << n) - 1
        self.blocks = list(blocks)
        self.caps = list(caps)
        self.adj = [
            [i for i, b in enumerate(blocks) if b >> e & 1 and caps[i] > 0]
            for e in range(n)
        ]
        self._hall = None

    @property
    def m(self) -> int:
        return len(self.blocks)

    # -- rank -----------------------------------------------------------

    def flow(self, bits: int) -> int:
        """Maximum number of elements of X assignable within capacities."""
        adj = self.adj
        caps = self.caps
        holders: list[list[int]] = [[] for _ in caps]

        def augment(e: int, seen: set) -> bool:
            for i in adj[e]:
                if i in seen:
                    continue
                seen.add(i)
                if len(holders[i]) < caps[i]:
                    holders[i].append(e)
                    return True
                for j, y in enumerate(holders[i]):
                    if augment(y, seen):
                        holders[i][j] = e
                        return True
            return False

        size = 0
        for e in elements(bits):
            if augment(e, set()):
                size += 1
        return size

    def independent(self, bits: int) -> bool:
        return self.flow(bits) == bits.bit_count()

    def rank_full(self) -> int:
        return self.flow(self.full)

    def hall_deficiency(self, bits: int) -> int:
        """max(0, max_B |{x in X : N(x) ⊆ B}| - cap(B)); needs 2^m steps."""
        if self._hall is None:
            nbr = [sum(1 << i for i in a) for a in self.adj]
            table = []
            for sel in range(1 << self.m):
                inside = 0
                for e in range(self.n):
                    if nbr[e] & ~sel == 0:
                        inside |= 1 << e
                cap = sum(self.caps[i] for i in range(self.m) if sel >> i & 1)
                table.append((inside, cap))
            self._hall = table
        worst = 0
        for inside, cap in self._hall:
            d = (bits & inside).bit_count() - cap
            if d > worst:
                worst = d
        return worst

    def closure(self, bits: int) -> int:
        r = self.flow(bits)
        out = bits
        for e in range(self.n):
            if not bits >> e & 1 and self.flow(bits | 1 << e) == r:
                out |= 1 << e
        return out

    # -- rough operators (second type) ------------------------------------

    def lower(self, x: int) -> int:
        out = 0
        for b in self.blocks:
            if b & ~x == 0:
                out |= b
        return out

    def upper(self, x: int) -> int:
        out = 0
        for b in self.blocks:
            if b & x:
                out |= b
        return out

    def matroidal_lower(self, x: int) -> int:
        """Union of blocks K_i whose k-rank slice gives X the rank of K_i,
        as the published formula states it."""
        out = 0
        for b, k in zip(self.blocks, self.caps):
            if min((x & b).bit_count(), k) == min(b.bit_count(), k):
                out |= b
        return out

    def neighborhood(self, e: int) -> int:
        out = self.full
        for b in self.blocks:
            if b >> e & 1:
                out &= b
        return out


# -- property checks on the program's outputs -----------------------------


def check_family(inst: Instance, family: frozenset, rng: random.Random,
                 samples: int) -> None:
    """Downward closure of the whole family, and membership against the
    reference on seeded samples of subsets."""
    require(0 in family, "independent family misses the empty set")
    for bits in family:
        rest = bits
        while rest:
            low = rest & -rest
            rest ^= low
            require(bits ^ low in family,
                    f"family not downward closed at {bits:#x}")
    use_hall = inst.m <= 10
    for _ in range(samples):
        bits = rng.getrandbits(inst.n)
        ref = inst.independent(bits)
        if use_hall:
            require((inst.hall_deficiency(bits) == 0) == ref,
                    f"flow and Hall disagree at {bits:#x}")
        require((bits in family) == ref, f"independence differs at {bits:#x}")


def check_circuits(inst: Instance, circuits: list[int], indep,
                   rng: random.Random, samples: int) -> None:
    """Each circuit is dependent and every one-smaller subset independent
    under ``indep`` (the program's own family, or the reference); a seeded
    sample of circuits is held to the reference flow, and the circuit that a
    dependent sampled subset shrinks to under the reference is listed."""
    for c in circuits:
        require(not indep(c), f"circuit {c:#x} is independent")
        for e in elements(c):
            require(indep(c & ~(1 << e)), f"circuit {c:#x} is not minimal")
    for c in rng.sample(circuits, min(samples, len(circuits))):
        require(not inst.independent(c), f"circuit {c:#x} independent in ref")
        e = elements(c)[0]
        require(inst.independent(c & ~(1 << e)), f"circuit {c:#x} not minimal in ref")
    listed = set(circuits)
    for _ in range(samples):
        bits = rng.getrandbits(inst.n)
        if inst.independent(bits):
            continue
        # shrink a dependent sample to a circuit, which must be listed
        order = elements(bits)
        rng.shuffle(order)
        for e in order:
            if not inst.independent(bits & ~(1 << e)):
                bits &= ~(1 << e)
        require(bits in listed, f"circuit {bits:#x} is missing")


def check_bases(inst: Instance, bases: list[int], dual_bases: list[int],
                family: frozenset | None) -> None:
    """All bases have size r(U), are independent, and the dual bases are
    exactly their complements."""
    r = inst.rank_full()
    require(bases, "a matroid has at least one base")
    for b in bases:
        require(b.bit_count() == r, f"base {b:#x} has size ≠ r(U)={r}")
        if family is not None:
            require(b in family, f"base {b:#x} is dependent")
    require(inst.independent(bases[0]), "first base dependent in ref")
    require(sorted(inst.full & ~b for b in bases) == sorted(dual_bases),
            "dual bases are not the complements of the bases")
    if family is not None:
        require(len(bases) == sum(1 for f in family if f.bit_count() == r),
                "bases are not all independent sets of size r(U)")


def check_classify(inst: Instance, circuits: list[int], bases: list[int],
                   flags: dict) -> None:
    """The classify flags agree with the (already checked) circuits and
    bases: sizes, 2-circuit, partition-circuit, self-duality and
    double-circuit."""
    sizes = sorted(c.bit_count() for c in circuits)
    require(list(flags["sizes"]) == sizes, "circuit size multiset differs")
    require(flags["two_circuit"] == all(s == 2 for s in sizes), "2-circuit flag")
    union = 0
    disjoint = True
    for c in circuits:
        disjoint = disjoint and not union & c
        union |= c
    require(flags["partition_circuit"] == (disjoint and union == inst.full),
            "partition-circuit flag")
    base_set = set(bases)
    self_dual = all(inst.full & ~b in base_set for b in bases)
    require(flags["self_dual"] == self_dual, "identically-self-dual flag")
    # M and M* are both 2-circuit only when every parallel class has exactly
    # two elements, which is exactly when M is 2-circuit and M* = M.
    require(flags["double_circuit"] == (flags["two_circuit"] and self_dual),
            "double-circuit flag")
