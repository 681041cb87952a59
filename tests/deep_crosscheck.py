"""Deep cross-check of `mms` against the `mms_exhaustive` reference.

Seeded single-agent rows at d = 2-6 and every m from d + 2 up to the
most goods the reference enumerates (EXHAUSTIVE_SUBSET_CAP goods and at
most _EXHAUSTIVE_VECTOR_CAP assignment vectors), on grids 20, 100 and 1000,
plus a few rows per shape on grids 10^6, 2^60 and 2^64 - 1, whose totals
put the reference's loads in uint32, uint64 and Python integers (the coarse
grids take uint8 and uint16): longer than the tier-1 cross-checks, so CI
runs it as its own step. At d = 2 and 3 the improved seed and the snapped
top-k bound decide most values without a probe; at d = 4-6 the covering
search's pruning decides more of them. Both values must be equal, and each
witness must hold exactly d bundles that cover the row's goods once
(`core.partitions`), its weakest bundle worth the value; `mms` witnesses
come from the greedy seed, the local search or a probe's cover. The value
times the row's L must also lie in the `oracle.bracket` bounds every search
and every rule decision of `reduce` starts from. Prints one
line per d, with the seconds spent in `mms` and in `mms_exhaustive` so that
a slowdown in either shows in the log, and the covering-search nodes the
`mms` calls spent, summed over every search budget; exits 1 on the first
disagreement, or when a node sum differs from `NODES`, so that a change to
the covering search's tree fails here too.

    PYTHONPATH=src python tests/deep_crosscheck.py
"""

from __future__ import annotations

import sys
import time

from mmskit import Instance, mms, mms_exhaustive, oracle, value
from mmskit.core import partitions
from mmskit.gen import SplitMix64
from mmskit.oracle import _EXHAUSTIVE_VECTOR_CAP, EXHAUSTIVE_SUBSET_CAP, bracket

SEED = 0x5EED0DEE
# (grid, rows per shape)
GRIDS = ((20, 300), (100, 300), (1000, 300), (10**6, 5), (2**60, 5), (2**64 - 1, 5))
# Covering-search nodes of all the `mms` calls at each d: a pruning test
# that stops cutting, a branching order that moves or a bound that stops
# tightening changes them.
NODES = {2: 41_912, 3: 112_244, 4: 111_938, 5: 49_924, 6: 3_584}


def record_budgets() -> list:
    """Make every search budget record itself in the returned list."""
    made = []

    class Counted(oracle._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    oracle._Budget = Counted
    return made


def main() -> int:
    rng = SplitMix64(SEED)
    budgets = record_budgets()
    for d in (2, 3, 4, 5, 6):
        budgets.clear()
        t0 = time.perf_counter()
        in_mms = in_reference = 0.0
        m_max = max(m for m in range(EXHAUSTIVE_SUBSET_CAP + 1) if d**m <= _EXHAUSTIVE_VECTOR_CAP)
        checked = 0
        for m in range(d + 2, m_max + 1):
            for grid, rows in GRIDS:
                for _ in range(rows):
                    inst = Instance.from_rows([[rng.randint(0, grid) for _ in range(m)]])
                    start = time.perf_counter()
                    fast = mms(inst, 1, d)
                    middle = time.perf_counter()
                    reference = mms_exhaustive(inst, 1, d)
                    in_mms += middle - start
                    in_reference += time.perf_counter() - middle
                    weakest = [min(value(inst, 1, b) for b in r.witness) for r in (fast, reference)]
                    split = [len(r.witness) == d and partitions(r.witness, range(1, m + 1))
                             for r in (fast, reference)]
                    ints, scale = inst.int_rows[0]
                    lo, hi, _ = bracket(tuple(sorted(ints, reverse=True)), d)
                    inside = lo <= reference.value * scale <= hi
                    if not (fast.value == reference.value == weakest[0] == weakest[1]
                            and all(split) and inside):
                        print(f"d={d} row={[str(v) for v in inst.values[0]]}: mms {fast.value}, "
                              f"mms_exhaustive {reference.value}, weakest bundles {weakest}, "
                              f"d-bundle partitions {split}, bracket {(lo, hi)} over L = {scale}")
                        return 1
                    checked += 1
        nodes = sum(b.nodes for b in budgets)
        print(f"d={d}: m {d + 2}-{m_max}, {checked} rows agree in {time.perf_counter() - t0:.1f}s "
              f"(mms {in_mms:.1f}s, mms_exhaustive {in_reference:.1f}s), {nodes} search nodes")
        if nodes != NODES[d]:
            print(f"d={d}: {nodes} search nodes, expected {NODES[d]}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
