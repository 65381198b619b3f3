import random
from pathlib import Path

import pytest
from hypothesis import settings

from covmatroid import CapacitatedCovering, GroundSet

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


def random_covering(rng: random.Random, n: int, m: int, kmax: int = 3,
                    kmin: int = 1) -> CapacitatedCovering:
    """A random covering of an n-element universe with m distinct blocks."""
    ground = GroundSet(f"x{i}" for i in range(n))
    full = ground.full_mask
    m = min(m, full)  # at most 2^n - 1 distinct nonempty blocks exist
    while True:
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
    caps = tuple(rng.randint(kmin, kmax) for _ in blocks)
    return CapacitatedCovering(
        ground, tuple(ground.mask(b) for b in blocks), caps
    )
