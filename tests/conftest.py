import random
from pathlib import Path

import pytest
from hypothesis import settings

from covmatroid import CapacitatedCovering, GroundSet
from covmatroid.core import _canonical_sort_key

# CI selects this profile (--hypothesis-profile=ci) so each run draws the
# same examples; local runs keep the default, randomized profile.
settings.register_profile("ci", derandomize=True, deadline=None)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def abc():
    return GroundSet("abc")


@pytest.fixture
def paper_covering(abc):
    """U = {a,b,c}, blocks {a,b} and {b,c}, capacities (1,1)."""
    return CapacitatedCovering.from_labels(abc, [["a", "b"], ["b", "c"]], [1, 1])


# A draw of m random blocks covers U with probability about (1 - 2^-m)^n:
# about 1/1000 for one block at n = 10, where the suite's seeds redraw up to
# about 4,200 times, and near 10^-16 for two blocks at n = 128.
_REDRAWS = 1 << 14


def random_covering(rng: random.Random, n: int, m: int, kmax: int = 3,
                    kmin: int = 1) -> CapacitatedCovering:
    """A random covering of an n-element universe with m distinct blocks:
    m random blocks, redrawn until they cover U; if ``_REDRAWS`` draws all
    miss, the last draw's missing elements join one random block, which no
    other block then equals."""
    ground = GroundSet(f"x{i}" for i in range(n))
    full = ground.full_mask
    m = min(m, full)  # at most 2^n - 1 distinct nonempty blocks exist
    for _ in range(_REDRAWS):
        blocks = set()
        while len(blocks) < m:
            b = rng.randrange(1, full + 1)
            blocks.add(b)
        blocks = sorted(blocks)
        union = 0
        for b in blocks:
            union |= b
        if union == full:
            break
    else:
        blocks[rng.randrange(m)] |= full & ~union
        blocks.sort()
    caps = tuple(rng.randint(kmin, kmax) for _ in blocks)
    return CapacitatedCovering(
        ground, tuple(ground.mask(b) for b in blocks), caps
    )


def matching_path(m) -> str:
    """The query path of a handle built from (block, capacity) pairs, read
    from the qualified name of its independence oracle: "cut" for the
    matcher's cut handles (disjoint blocks or the min-cut table),
    "placement" for augmenting paths."""
    return {"_matching_matroid": "cut", "_placement_matroid": "placement"}[
        m.indep_bits.__qualname__.split(".")[0]]


def scan_definitions(m):
    """Independent sets, circuits and bases of ``m`` by their definitions,
    over every subset, as masks in canonical order.  It shares no code with
    the walk, so tests diff the walk against it."""
    n = m.ground.n
    indep = {b for b in range(1 << n) if m.indep_bits(b)}
    circuits = [b for b in range(1 << n) if b not in indep
                and all(b & ~(1 << i) in indep for i in range(n) if b >> i & 1)]
    r = max(b.bit_count() for b in indep)
    bases = [b for b in indep if b.bit_count() == r]
    key = _canonical_sort_key(n)
    return tuple(sorted(fam, key=key) for fam in (indep, circuits, bases))


def chain_covering(n: int = 1200) -> CapacitatedCovering:
    """n blocks C_1..C_n of capacity 1, with y_i in C_i and C_(i+1) and z in
    C_1 only.  Placing z, the last element, moves every y_i along one
    augmenting path, deeper than Python's recursion limit."""
    ground = GroundSet([f"y{i}" for i in range(1, n)] + ["z"])
    blocks = ([ground.mask(1 << (n - 1) | 1)]
              + [ground.mask(0b11 << i) for i in range(n - 2)]
              + [ground.mask(1 << (n - 2))])
    return CapacitatedCovering(ground, blocks, [1] * n)
