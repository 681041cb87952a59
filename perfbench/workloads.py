"""Workload definitions: which instances each benchmark workload runs.

Every workload is a deterministic function of its seed. Instances are laid
out in rounds: a round is a fixed list of generator shapes (family, agent
range, good range, value grid), and a run stops only at a round boundary, so
every run sees the same shape mix and only the values change with the seed.
A run that gets through its pool of `rounds_in_pool` rounds starts it again;
the oracle cache is cleared before every operation, so a repeat does the
full work again.

This module imports nothing from mmskit at import time; the caller passes
`mmskit.gen` in, so that `import mmskit` is timed first in the run process.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    family: str
    n: tuple[int, int]
    m: tuple[int, int]
    grid: int


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    round: tuple[Shape, ...]
    rounds_in_pool: int
    crosscheck: bool

    @property
    def round_size(self) -> int:
        return len(self.round)

    @property
    def pool_size(self) -> int:
        return self.round_size * self.rounds_in_pool

    def specs(self, gen, seed: int) -> list:
        """The workload's instance pool: `pool_size` GenSpecs for this seed."""
        specs = []
        for idx in range(self.pool_size):
            shape = self.round[idx % self.round_size]
            # Spec seeds (seed << 20) | idx never collide across run seeds.
            specs.append(
                gen.GenSpec(
                    seed=(seed << 20) | idx,
                    n_range=shape.n,
                    m_range=shape.m,
                    family=shape.family,
                    grid=shape.grid,
                )
            )
        return specs


_CROSSCHECK_ROUND = tuple(
    Shape("uniform", (d, d), (m, m), grid)
    for d in (2, 3, 4)
    for m in (8, 9, 10, 11)
    for grid in (3, 100)
)

WORKLOADS = {
    w.name: w
    for w in (
        # Many agents on coarse grids: rules fire about ten times per
        # instance, and rule scans, instance rebuilds and bag filling
        # outweigh the oracle (about a third of solve). Coarse values make
        # the oracle's infeasibility proofs short, so a change to them
        # should show little gain here.
        Workload(
            name="many-agents",
            default_seed=1,
            round=(
                Shape("uniform", (10, 20), (30, 80), 5),
                Shape("correlated", (10, 20), (30, 80), 5),
                Shape("heavy-singles", (6, 12), (12, 36), 2),
            ),
            rounds_in_pool=50,
            crosscheck=False,
        ),
        # The only workload that runs the mms_exhaustive reference, whose cost
        # depends only on d and m; it is nearly all of the time. Small
        # instances, so solve and verify are cheap beside it.
        Workload(
            name="crosscheck",
            default_seed=1,
            round=_CROSSCHECK_ROUND,
            rounds_in_pool=10,
            crosscheck=True,
        ),
    )
}
