"""Bit-identity pins on eighteen towers: plans, repairs and combine.

One SHA-256 per tower covers, for k in {1, 2, max/2, max} and r in
{0, n - 2}: the plan document as JSON, repair_at's value and
BandwidthReport at position 0 and at one seeded position, and combine
on a seeded B-valued download that no codeword need explain.  A change
to any of those outputs, on any tower, moves a digest.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from tracerepair.cosets import enumerate_cosets, filter_cosets
from tracerepair.field import construct_field
from tracerepair.repair import build_plan, combine, gw_max_k, plan_to_dict, repair_at
from tracerepair.rs import encode, erase

# The seven verification towers, then eleven more: odd p with B = GF(p)
# and larger, p = 2 with B = GF(2) up to GF(32), and t up to 8.
DIGESTS = {
    (2, 1, 2):
        "c8fbaa701086b9a7396ca0ce4a0406cc906cc75d13544f6726d2cb3cdb60db56",
    (3, 1, 2):
        "4b6605ec6c86a01a0c99380e68c0d53d0c63e14eb6010ba28e49ae3af8566c6c",
    (2, 2, 2):
        "8906d40ef46f853922cf0b1937c20d388f602ef2113eb6ab56c253559328b01e",
    (2, 1, 3):
        "010d201abc0120fec67c01f1876c0529fe3cba61434c42f27f3e9b3905228b86",
    (2, 1, 4):
        "96fae5712bef28621b8300a9b124e2a574a5ac6b392835e1f8f03f086289ba05",
    (5, 1, 2):
        "edd6758403a5594b677428a5c0c6ef237e8e323b9516ec6e37e72de6831805d0",
    (2, 3, 2):
        "3e0d9c14d3006dd46c0f02ca1352859ad02a32b8a72f25848c43e2ad4578d6ae",
    (3, 1, 5):
        "853424d8e402a572b057b6946a1197ea8cb1b8a303ad530ce6946e9f8426109e",
    (7, 1, 3):
        "1aace54a889f0e515f4b34419751827d30509cfa47fc44ddeb122133ce2287fe",
    (2, 2, 4):
        "b5a14973e443cb355646d711cb4c6673e0e2e28f51ec4ecfc644d5e246444763",
    (2, 4, 2):
        "5cc13b87536530042675d0e9fbce8eb2ddcf84c1af3b984e1f9bfffed989bc36",
    (2, 5, 2):
        "80f7a802bc29722f9c385b8ef73829194ecfa8ca09d7c8c5b639effc5eaf470c",
    (2, 1, 6):
        "7614ecf8368ad3b71b6ed16a6272ce93d3bfed7f6f828f4deec595d3ae320fb2",
    (2, 1, 8):
        "a615ab612401f5096b673e79c2a72d9570cc5516ca6ec8c5efbab3ec9fede529",
    (3, 2, 2):
        "9691b3ed8d0fcaec97fa4b2dcb3cc9f7a53a7587155a7b5788eb20c49fa913c3",
    (2, 3, 3):
        "e77efd6ace4d1c99e1099c2fb3ceaf41c378dec21068fa3e83e77e6cf0023943",
    (5, 1, 3):
        "9b8fe9144ea82a71b613c5420a74dda8bb731d003676dbd5406e9c5d2a34e15a",
    (3, 1, 4):
        "a4fb8996cc1b85320737cd9d6d403a8eed7ccac3ee5f2d16fb5fbba65c5ad320",
}


def _digest(tower) -> str:
    ctx = construct_field(*tower)
    n, kmax = ctx.order, gw_max_k(ctx)
    cc = enumerate_cosets(ctx.q, ctx.t)
    base = [v for v in range(n) if ctx.in_base_field(v)]
    rng = random.Random(repr(tower))
    out = []
    for k in sorted({1, 2, kmax // 2, kmax}):
        fc = filter_cosets(cc, k)
        cw = encode(ctx, [rng.randrange(n) for _ in range(k)])
        for r in (0, n - 2):
            plan = build_plan(ctx, fc, r)
            out.append(json.dumps(plan_to_dict(plan), sort_keys=True))
            for position in (0, rng.randrange(1, n)):
                value, report = repair_at(ctx, k, r, erase(cw, position), position, plan)
                assert value == cw.values[position], (tower, k, r, position)
                out.append((position, value, repr(report)))
            out.append(combine(plan, [rng.choice(base) for _ in plan.helper_exps]))
    return hashlib.sha256(repr(out).encode()).hexdigest()


@pytest.mark.parametrize("tower", DIGESTS)
def test_outputs_match_the_golden_digest(tower) -> None:
    assert _digest(tower) == DIGESTS[tower]
