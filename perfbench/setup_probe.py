#!/usr/bin/env python3
"""Time the benchmark's set-up in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is `import mmskit` (from this checkout's src/) plus building the
workload's instance JSON from the seed. Nothing but sys, os and time is
imported before mmskit, so the import pays for every module mmskit needs,
as `mmskit verify` does when it starts. Prints the import time, the input
build time and the part of it spent in gen.generate, in seconds.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program() -> float:
    """Import mmskit from this checkout's src/; returns the import time."""
    package = os.path.join(SRC, "mmskit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    start = perf_counter()
    import mmskit

    took = perf_counter() - start
    if os.path.dirname(os.path.realpath(mmskit.__file__)) != package:
        sys.exit(f"error: imported mmskit from {mmskit.__file__}, not from {SRC}")
    return took


def build_inputs(workload, seed: int) -> tuple[list[str], float, float]:
    """Instance JSON texts of the workload's pool, the total build time, and
    the time spent in gen.generate."""
    from mmskit import core, gen

    start = perf_counter()
    instances = [gen.generate(spec) for spec in workload.specs(gen, seed)]
    generated = perf_counter()
    texts = [core.instance_to_json(inst) for inst in instances]
    return texts, perf_counter() - start, generated - start


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit("usage: setup_probe.py <workload> <seed>")
    name, seed = sys.argv[1], int(sys.argv[2])
    import_s = import_program()
    from workloads import WORKLOADS

    _, build_s, gen_s = build_inputs(WORKLOADS[name], seed)
    print(import_s, build_s, gen_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
