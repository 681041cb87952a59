"""Golden outputs: a digest of what the solver hands out, pinned across commits.

The digest covers the first 200 default-corpus instances at
alpha = 3/4 + 3/3836 and at alpha = 3/4: the allocation JSON, the branch, the
rule counts and every allocator award (bag, recipient, eligible agents). The
slice takes both allocator branches above 3/4, with pair-rule firings and
both starting-bag and triple-bag awards in the second.

A second digest pins what `reduce` and `mms` hand out on the same slice: the
`to_delta_oni` residual instance, final order map and trace (scaling
included) at epsilon = 0 and epsilon = 3/3836, and every agent's `mms` value
and witness at d = n.

A third digest pins the bytes the command line writes, with each exit code:
`solve` at 3/4 + 3/3836 and at 3/4 with `verify` of each allocation,
`reduce` at epsilon 3/3836 and `mms --agent 1`, on the first 100 corpus
instances and on the residual instance of each `reduce` output fed back as
an input file, whose values are "p/q" text. A change that alters outputs on
purpose updates the digest it moves and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from mmskit import ALPHA_MAX, allocation_to_json, instance_to_json, mms, solve
from mmskit.cli import main
from mmskit.core import canonical_json, instance_to_jsonable, rat_to_jsonable
from mmskit.gen import default_corpus, generate
from mmskit.transforms import to_delta_oni

GOLDEN_SHA256 = "767685b00bed869e6045f9e85f4a9de30ddfdb50b644e673d8b3a003ae743960"
REDUCE_MMS_SHA256 = "c9f2bd0fd4c0bc80261f923a5e2af848718a70edcad6101524bc1997cc3c4ba0"
CLI_SHA256 = "3eae65bdc7dc16e5cdb4ff8c75126cb73fb59ddd0dbe1fdbe42a9abbee4fcc9b"


def _award_jsonable(event: dict) -> dict:
    return {
        "bag": list(event["bag"]),
        "recipient": event["recipient"],
        "eligible": list(event["eligible"]),
        "eligible_priority": list(event["eligible_priority"]),
    }


def golden_digest() -> str:
    digest = hashlib.sha256()
    for spec in default_corpus(200):
        inst = generate(spec)
        for alpha in (ALPHA_MAX, Fraction(3, 4)):
            audit: list = []
            alloc, info = solve(inst, alpha, audit=audit)
            record = {
                "allocation": allocation_to_json(alloc),
                "branch": info.branch,
                "rule_counts": info.rule_counts,
                "awards": [_award_jsonable(e) for e in audit],
            }
            digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def test_outputs_match_golden_digest():
    assert golden_digest() == GOLDEN_SHA256


def reduce_mms_digest() -> str:
    digest = hashlib.sha256()
    for spec in default_corpus(200):
        inst = generate(spec)
        for eps in (Fraction(0), Fraction(3, 3836)):
            oni, omap, trace = to_delta_oni(inst, eps)
            record = {
                "instance": instance_to_jsonable(oni),
                "order_map": [list(p) for p in omap],
                "trace": trace.to_jsonable(),
            }
            digest.update(canonical_json(record).encode())
        for agent in range(1, inst.n + 1):
            res = mms(inst, agent, inst.n)
            record = {
                "value": rat_to_jsonable(res.value),
                "witness": [list(b.goods) for b in res.witness],
            }
            digest.update(canonical_json(record).encode())
    return digest.hexdigest()


def test_reduce_and_mms_match_golden_digest():
    assert reduce_mms_digest() == REDUCE_MMS_SHA256


def cli_digest(work: Path) -> str:
    digest = hashlib.sha256()

    def run(*args: str) -> bytes:
        out = work / "out.json"
        out.unlink(missing_ok=True)
        code = main([*args, "-o", str(out)])
        written = out.read_bytes() if out.exists() else b""
        digest.update(f"{args[0]} {code} {len(written)}\n".encode() + written)
        return written

    def commands(inst: Path) -> bytes:
        for alpha in ("3/4+3/3836", "3/4"):
            alloc = work / "alloc.json"
            alloc.write_bytes(run("solve", "--alpha", alpha, "-i", str(inst)))
            run("verify", "-i", str(inst), "-a", str(alloc), "--alpha", alpha)
        reduced = run("reduce", "-i", str(inst), "--epsilon", "3/3836")
        run("mms", "-i", str(inst), "--agent", "1")
        return reduced

    for spec in default_corpus(100):
        inst = work / "inst.json"
        inst.write_text(instance_to_json(generate(spec)), encoding="utf-8")
        reduced = json.loads(commands(inst))["instance"]
        inst.write_text(canonical_json(reduced), encoding="utf-8")
        commands(inst)
    return digest.hexdigest()


def test_cli_files_match_golden_digest(tmp_path):
    assert cli_digest(tmp_path) == CLI_SHA256
