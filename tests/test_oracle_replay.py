"""SHA-256 pins of the closed form's trace and the span oracle's invariants.

For each (p, m, k) config, ``random_code`` draws CODES_PER_CONFIG codes from
``random.Random(seed)``.  For each code one JSON record holds ``t3``, the full
``T3Result.path``, the torsion profile, the rank and the pivot valuations
(column, v) of the echelon form; one digest per config covers the records in
draw order.  A change in how the eliminations scale or clear their rows
that moves any traced value, or any code invariant the oracle reports,
fails here.
"""

import hashlib
import json
import random

import pytest

import u4codes as u

CODES_PER_CONFIG = 30

# (p, m, k) -> SHA-256 of the records of the codes drawn from Random(seed).
PINNED = {
    (2, 1, 3): "d9afa5ac71cb7ac245b649ac59536947edc592d1705acfddda182745abf8bdbd",
    (2, 1, 4): "9fd8bcd2d4a2db6ff7a57e324087039ca666a0355a9aa17dc34a81cc27d614fe",
    (2, 1, 5): "bd6fadcb4a2871dac4712d25596c8b5ef0293e1b95ca1ff94baa4685c2f0c722",
    (2, 1, 7): "d297c07d0ad7a9288f98f3ac389e1c1e79cbb1b434d5b6a334d22503ab244d86",
    (3, 1, 2): "4295e9ff227a5dc893cc3e847d3952dd83c0965fc21b79196d9df0653718c95c",
    (3, 1, 3): "e014fa821bb59146bcfec23c271c3cb2a227e6d922411057d2097b9f3aa93c60",
    (3, 1, 4): "6c7ea004d105ce5ac528c5bbdfe08ae1c9ec24048bea9a342ea7cddb9999ae81",
    (2, 2, 2): "dbaadfd84704ed4e8de1370265095a8f5aacefd663da381261be1342870b7cdc",
    (2, 2, 3): "8aed53dd9e8f65bb9f7b5521a9c48a7c52f21e6d2850af73def25a02cd9efbdd",
    (2, 2, 4): "953f0a2f3b619fee733d55f49f54c113ea3d0480c0eb7d1ec662ee2b9f466fb5",
    (2, 3, 2): "779eaa9574c4de3757b2cdb7e824664dcd417251ca726b268678a8bc6df5f5c2",
    (3, 2, 1): "9e2eb4b642f85da7b14a1c449b7a877f21d7b3e373aa6462d9c891b3168ab63f",
    (3, 2, 2): "9df6dd9dd803c827920f747f56fb619b0e96aa39c2d17168d2c69fce7fe8df3a",
    (5, 1, 2): "1fd28f17f47a931a837f0d413899c5f9b2afd805322ee2f85c8c2c7559bdc79a",
    (5, 1, 3): "6ac77a0c7cdb66ff3650738dea26e487c72ec7200a9b23970cd1b30855cbe232",
    (5, 1, 4): "32804412d10022a78c28760efc1b29f0335d142fb38b8e6e53069cc6a1b929bc",
    (5, 2, 1): "47c6d215ae957249aa8b86ea12b1275a8e0c9c14b99433c125de3fa9909b9df0",
    (5, 2, 2): "4d5a21e4279c86c4ff38f42b94b2e325bbcba1d81edeebb4f5fa5b39ad8d5944",
    (7, 1, 2): "773927475f5e789ed7416969baf4dbd8570efe5e240383baeb0c6bec032f43ae",
}


def seed_of(p, m, k):
    return 7000 + 100 * p + 10 * m + k


def record(code):
    result = u.t3(code)
    basis = u.span_basis(code)
    return {
        "t3": result.t3,
        "path": result.path,
        "profile": list(u.torsion_profile(code, basis)),
        "rank": basis.rank,
        "pivots": [[c, v] for c, (v, _) in sorted(basis.heads.items())],
    }


def replay_digest(p, m, k):
    spec, rng = u.field_make(p, m), random.Random(seed_of(p, m, k))
    digest = hashlib.sha256()
    for _ in range(CODES_PER_CONFIG):
        digest.update(json.dumps(record(u.random_code(rng, spec, k))).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("config", sorted(PINNED), ids=lambda c: "F%d^%d-k%d" % c)
def test_oracle_and_closed_form_are_pinned(config):
    assert replay_digest(*config) == PINNED[config]
