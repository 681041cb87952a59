"""Golden outputs: a digest of what the solver hands out, pinned across commits.

The digest covers the first 200 default-corpus instances at
alpha = 3/4 + 3/3836 and at alpha = 3/4: the allocation JSON, the branch, the
rule counts and every allocator award (bag, recipient, eligible agents). The
slice takes both allocator branches above 3/4, with pair-rule firings and
both starting-bag and triple-bag awards in the second. A change that alters
outputs on purpose updates GOLDEN_SHA256 and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from mmskit import ALPHA_MAX, allocation_to_json, solve
from mmskit.gen import default_corpus, generate

GOLDEN_SHA256 = "767685b00bed869e6045f9e85f4a9de30ddfdb50b644e673d8b3a003ae743960"


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
