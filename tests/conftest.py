import pytest

from qlinset import imageset as ims
from qlinset.gf import build_field


@pytest.fixture(scope="session")
def f32():
    """F_{2^5} as q=2, n=5."""
    return build_field(2, 1, 5)


@pytest.fixture(scope="session")
def f243():
    """F_{3^5} as q=3, n=5."""
    return build_field(3, 1, 5)


@pytest.fixture(scope="session")
def f1024():
    """F_{4^5} as q=4, n=5 (p=2, h=2)."""
    return build_field(2, 2, 5)


@pytest.fixture(scope="session")
def f16_tower():
    """F_{16} as the tower F_2 in F_4 in F_16 (q=4, n=2)."""
    return build_field(2, 2, 2)


@pytest.fixture(scope="session")
def small_fields():
    return {n: build_field(2, 1, n) for n in (2, 3, 4)}


@pytest.fixture(scope="session")
def q2_masks(f32):
    """Image bitmask of every coefficient tuple over F_{2^5}; about 0.2 s, shared."""
    return ims.all_ratio_masks(f32)
