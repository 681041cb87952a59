from __future__ import annotations

from fractions import Fraction

import pytest

from mmskit import Instance
from mmskit.gen import SplitMix64


def make_instance(rows) -> Instance:
    return Instance.from_rows(rows)


def random_instance(rng: SplitMix64, n_max=4, m_max=8, grid=9) -> Instance:
    n = rng.randint(1, n_max)
    m = rng.randint(n, m_max)
    return make_instance([[rng.randint(0, grid) for _ in range(m)] for _ in range(n)])


@pytest.fixture
def rng() -> SplitMix64:
    return SplitMix64(0xC0FFEE)


HALF = Fraction(1, 2)
THREE_QUARTERS = Fraction(3, 4)
