"""Seeded instance generation for tests and benchmarks.

Reproducibility contract: `generate` is a pure function of its GenSpec. The
random source is splitmix64 seeded with `spec.seed`; every family documents
its draw order, and bounded integers come from 64-bit draws by rejection
sampling, so corpora are bit-identical across platforms and easy to
reproduce elsewhere.

The uniform and correlated families are generic stress sources. The
heavy-pairs and heavy-singles families mix generic draws with structured
shapes built from exact bundle arithmetic, because the agent classes the
allocators split on occupy narrow windows that survive the reduction rules:
a random heavy good is simply awarded and removed, so e.g. a big-bag agent
needs one good just under 3/4 of a bundle, partners just over 1/4, and a
sharp cliff to fillers below 1/12.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .core import Instance, canonical_json, instance_to_json
from .errors import DomainError

_MASK64 = (1 << 64) - 1

FAMILIES = ("uniform", "correlated", "heavy-pairs", "heavy-singles")


class SplitMix64:
    """splitmix64 with rejection-sampled bounded draws (no modulo bias)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        """Uniform draw from [0, k)."""
        if k <= 0:
            raise DomainError("below() requires k >= 1")
        limit = (1 << 64) - ((1 << 64) % k)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % k

    def randint(self, lo: int, hi: int) -> int:
        """Uniform draw from [lo, hi] inclusive."""
        if hi < lo:
            raise DomainError(f"empty range [{lo}, {hi}]")
        return lo + self.below(hi - lo + 1)

    def shuffle(self, xs: list) -> list:
        """In-place Fisher-Yates, high index down."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        return xs


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one instance; identical specs generate identical instances."""

    seed: int
    n_range: tuple[int, int]
    m_range: tuple[int, int]
    family: str
    grid: int

    def __post_init__(self):
        object.__setattr__(self, "n_range", tuple(self.n_range))
        object.__setattr__(self, "m_range", tuple(self.m_range))
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.grid < 1:
            raise DomainError("grid must be >= 1")
        n_lo, n_hi = self.n_range
        m_lo, m_hi = self.m_range
        if n_lo < 0 or n_hi < n_lo:
            raise DomainError(f"empty agent range {self.n_range}")
        if m_hi < m_lo:
            raise DomainError(f"empty good range {self.m_range}")

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "n_range": list(self.n_range),
            "m_range": list(self.m_range),
            "family": self.family,
            "grid": self.grid,
        }

    @staticmethod
    def from_jsonable(obj: dict) -> "GenSpec":
        return GenSpec(
            seed=obj["seed"],
            n_range=tuple(obj["n_range"]),
            m_range=tuple(obj["m_range"]),
            family=obj["family"],
            grid=obj["grid"],
        )


def _draw_nm(rng: SplitMix64, spec: GenSpec) -> tuple[int, int]:
    n = rng.randint(*spec.n_range)
    m_lo = max(n, spec.m_range[0])
    if m_lo > spec.m_range[1]:
        raise DomainError(f"good range {spec.m_range} cannot fit n={n} goods (need m >= n)")
    return n, rng.randint(m_lo, spec.m_range[1])


def _fits_m(spec: GenSpec, m: int) -> bool:
    return spec.m_range[0] <= m <= spec.m_range[1]


def _representable(x: int, lo: int, hi: int) -> bool:
    """Is x a sum of parts from [lo, hi]? (0 counts as the empty sum.)"""
    return x == 0 or (x >= lo and -(-x // hi) <= x // lo)


def _compose(rng: SplitMix64, total: int, lo: int, hi: int) -> list[int]:
    """Random composition of `total` into parts from [lo, hi]."""
    if not _representable(total, lo, hi):
        raise DomainError(f"{total} is not a sum of parts in [{lo}, {hi}]")
    parts = []
    rem = total
    while rem:
        options = [
            p for p in range(lo, min(hi, rem) + 1) if _representable(rem - p, lo, hi)
        ]
        p = options[rng.below(len(options))]
        parts.append(p)
        rem -= p
    return parts


def _uniform_rows(rng, spec) -> tuple[int, list[list[int]]]:
    # Draws: n, m, then values row-major in [0, grid].
    n, m = _draw_nm(rng, spec)
    return m, [[rng.randint(0, spec.grid) for _ in range(m)] for _ in range(n)]


def _correlated_rows(rng, spec) -> tuple[int, list[list[int]]]:
    # Draws: n, m, a base row, then per-agent noise row-major. Agents mostly
    # agree on rankings, which stresses the tie-heavy paths of the pipeline.
    n, m = _draw_nm(rng, spec)
    base = [rng.randint(0, spec.grid) for _ in range(m)]
    amp = max(1, spec.grid // 8)
    return m, [
        [min(spec.grid, max(0, base[j] + rng.randint(-amp, amp))) for j in range(m)]
        for _ in range(n)
    ]


def _heavy_pairs_plain(rng, spec) -> tuple[int, list[list[int]]]:
    # About n+1 goods per agent near two thirds of the grid plus a light
    # tail; the reduction rules chew through these, exercising award chains.
    n, m = _draw_nm(rng, spec)
    heavy_count = min(n + 1, m)
    center = max(1, (2 * spec.grid) // 3)
    spread = max(0, spec.grid // 12)
    lo, hi = max(1, center - spread), center + spread
    light_hi = max(0, spec.grid // 4)
    rows = []
    for _ in range(n):
        row = [rng.randint(lo, hi) for _ in range(heavy_count)]
        row.extend(rng.randint(0, light_hi) for _ in range(m - heavy_count))
        rows.append(row)
    return m, rows


def _heavy_pairs_structured(rng, spec, shape: tuple[int, int]) -> tuple[int, list[list[int]]]:
    # Exact big-bag shape at unit scale 60f: t bundles {41, smalls summing 19}
    # and n-t bundles {20, 20, 20}. Each starting bag pairing a 41 with a 20
    # is worth 61/60 of the share, yet no reduction rule reaches 3/4 + eps.
    n, t = shape
    f = max(1, spec.grid // 60)
    values = [41 * f] * t + [20 * f] * (3 * (n - t))
    for _ in range(t):
        if t == 1:
            parts = _compose(rng, 19, 2, 4)
        else:
            parts = [4, 4, 4, 4, 3]
        values.extend(p * f for p in parts)
    return len(values), [rng.shuffle(list(values)) for _ in range(n)]


def _heavy_pairs_rows(rng, spec) -> tuple[int, list[list[int]]]:
    # Draws: variant in {0,1,2}; variants 0-1 pick a structured shape when
    # the grid and ranges allow it, else fall back to the plain pattern.
    variant = rng.below(3)
    if variant < 2 and spec.grid >= 41:
        shapes = [
            (n, t)
            for n, t in ((2, 1), (4, 2))
            if spec.n_range[0] <= n <= spec.n_range[1] and _fits_m(spec, 3 * n + 3 * t)
        ]
        # (2,1) good count varies with the small-part composition; recheck after build.
        if shapes:
            shape = shapes[rng.below(len(shapes))]
            m, rows = _heavy_pairs_structured(rng, spec, shape)
            if _fits_m(spec, m):
                return m, rows
    return _heavy_pairs_plain(rng, spec)


def _heavy_singles_plain(rng, spec) -> tuple[int, list[list[int]]]:
    # Mid-weight goods throughout, drawn in [grid/4, grid/2].
    n, m = _draw_nm(rng, spec)
    lo = max(1, spec.grid // 4)
    hi = max(lo, spec.grid // 2)
    return m, [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def _heavy_singles_halves(rng, spec, n: int) -> tuple[int, list[list[int]]]:
    # Exact halves-and-quarters shape: bundles {H,H}, {H,Q,Q}, {Q,Q,Q,Q} with
    # H = 2Q. Every agent keeps a quarter at rank 2n+1, no starting bag
    # exceeds a share, and the pair rule fires on the leftover halves.
    q = max(1, spec.grid // 2)
    k = rng.randint(2, n)  # quarters-margin: number of goods beyond 2n
    c = rng.randint(0, k // 2)
    b = k - 2 * c
    a = n - b - c
    values = [2 * q] * (2 * a + b) + [q] * (2 * b + 4 * c)
    return len(values), [rng.shuffle(list(values)) for _ in range(n)]


def _heavy_singles_tail(rng, spec, n: int) -> tuple[int, list[list[int]]]:
    # Exact triple-bag shape at unit scale 60f: one half-good, quarters
    # through rank 2n+1, and a small tail; nothing reduces, so the second
    # allocator reaches its bag-growing phase.
    f = max(1, spec.grid // 60)
    values = [30 * f] + [15 * f] * (2 * n)
    if n == 2:
        smalls = [8, 7] + _compose(rng, 15, 4, 7)
    else:
        smalls = _compose(rng, 60, 6, 8)
    values.extend(p * f for p in smalls)
    return len(values), [rng.shuffle(list(values)) for _ in range(n)]


def _heavy_singles_rows(rng, spec) -> tuple[int, list[list[int]]]:
    # Draws: n, m (m unused by structured shapes), variant in {0..3}:
    # 0-1 halves-and-quarters, 2 small-tail, 3 plain mid-weight draws.
    n_lo, n_hi = spec.n_range
    variant = rng.below(4)
    if variant < 2 and n_hi >= 2 and spec.grid >= 2:
        n = rng.randint(max(2, n_lo), n_hi)
        m, rows = _heavy_singles_halves(rng, spec, n)
        if _fits_m(spec, m):
            return m, rows
    elif variant == 2 and n_hi >= 2 and n_lo <= 3 and spec.grid >= 30:
        n = rng.randint(max(2, n_lo), min(3, n_hi))
        m, rows = _heavy_singles_tail(rng, spec, n)
        if _fits_m(spec, m):
            return m, rows
    return _heavy_singles_plain(rng, spec)


_FAMILY_BUILDERS = {
    "uniform": _uniform_rows,
    "correlated": _correlated_rows,
    "heavy-pairs": _heavy_pairs_rows,
    "heavy-singles": _heavy_singles_rows,
}


def generate(spec: GenSpec) -> Instance:
    """Generate the instance a spec describes; values are integers <= grid.

    The instance keeps the good count the family drew, also with no agents."""
    rng = SplitMix64(spec.seed)
    m, rows = _FAMILY_BUILDERS[spec.family](rng, spec)
    return Instance(n=len(rows), m=m, values=[[Fraction(v) for v in row] for row in rows])


_GRID_CYCLE = (100, 100, 50, 5)


def default_corpus(count: int = 1000, base_seed: int = 20260801) -> tuple[GenSpec, ...]:
    """The default seeded corpus: families cycle spec-by-spec, agent counts
    in [2, 6], good counts in [n, 18], value grids cycling through coarse and
    fine scales so both tie-heavy and generic instances appear."""
    specs = []
    for idx in range(count):
        specs.append(
            GenSpec(
                seed=base_seed + idx,
                n_range=(2, 6),
                m_range=(2, 18),
                family=FAMILIES[idx % len(FAMILIES)],
                grid=_GRID_CYCLE[(idx // len(FAMILIES)) % len(_GRID_CYCLE)],
            )
        )
    return tuple(specs)


def write_corpus(specs, directory: str | Path) -> Path:
    """Write instance files plus a manifest listing specs and paths; returns
    the manifest path. Paths in the manifest are relative to its directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, spec in enumerate(specs):
        name = f"inst-{idx:04d}.json"
        (directory / name).write_text(instance_to_json(generate(spec)), encoding="utf-8")
        entries.append({"id": f"g{idx:04d}", "spec": spec.to_jsonable(), "path": name})
    manifest = directory / "manifest.json"
    manifest.write_text(canonical_json({"entries": entries}), encoding="utf-8")
    return manifest
