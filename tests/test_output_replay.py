"""SHA-256 pins of ``u4codes`` output on seeded inputs.

For each (p, m, k) config, ``random_code`` draws CODES_PER_CONFIG codes from
``random.Random(seed)``; each is written with ``format_code_file`` and run
through ``analyze`` three times: as text, with ``--json`` and with
``--verify --json``.  One digest per config covers every exit status and
every output, in that order, so any change in what a code file parses to or
in how its analysis prints fails here.

``verify`` is pinned the same way, as text and with ``--json``, on its own
configs, and ``sweep`` by the CSV it writes for one multi-config grid.
"""

import hashlib
import io
import json
import random

import pytest

import u4codes as u
from u4codes.cli import run_command

CODES_PER_CONFIG = 8
FLAG_SETS = ([], ["--json"], ["--verify", "--json"])

# (p, m, k) -> SHA-256 of the outputs of the codes drawn from Random(seed).
PINNED = {
    (2, 1, 3): "efde13cc6d072ff401582281d9d5bc6fbb325e37574b85bd7a299e0f8fb6b3c6",
    (2, 1, 4): "d4574c37f3b3e76fa8727ec79a7a06f896fdd79654ca167f6a0f7563a7fbe963",
    (3, 1, 2): "37b8ce6ca2cd84c6f4e79ab50c6e53099bee5e9a0a71a5998f900a0dfb560046",
    (2, 2, 2): "92df93d51ae6b55122866130ac0180c18721c09f4aece65aa828060b2df3b4b8",
    (2, 3, 2): "1739ec42e1e18489b83dd4776e6c61c7b6af192194f954fef91d3bb53f8425ed",
    (3, 2, 1): "8412028590813eed8501950b10137fa919bf5210ff27ec8f6efef5bb46da7d37",
    (5, 1, 2): "8d9337040b1cc8fb191ab39a89f909098fddbd7e11afe9a400ec3aa4b5c5bc10",
    (5, 2, 1): "bcd5f8345c683fc386d6c75eb50fc863cc953a13ebb24b351478f64b86e3edfa",
}


def seed_of(p, m, k):
    return 1000 * p + 100 * m + k


def output_digest(tmp_path, p, m, k):
    spec, rng = u.field_make(p, m), random.Random(seed_of(p, m, k))
    path = tmp_path / "c.code"
    digest = hashlib.sha256()
    for _ in range(CODES_PER_CONFIG):
        path.write_text(u.format_code_file(u.random_code(rng, spec, k)), encoding="utf-8")
        for flags in FLAG_SETS:
            out = io.StringIO()
            status = run_command(["analyze", str(path)] + flags, out=out)
            digest.update(f"{status}\n{out.getvalue()}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("config", sorted(PINNED), ids=lambda c: "F%d^%d-k%d" % c)
def test_analyze_output_is_pinned(tmp_path, config):
    assert output_digest(tmp_path, *config) == PINNED[config]


VERIFY_TRIALS = 12

# (p, m, k) -> SHA-256 of the text and --json outputs of verify with
# VERIFY_TRIALS trials and seed seed_of(p, m, k).
VERIFY_PINNED = {
    (2, 1, 2): "e1291cbeca7680fda499375e647747d7025e7e7a78206ef22a6958f58cdb51e9",
    (2, 1, 3): "020ddaa56f73734f3192df841e8bfa96fe1534343d0418e85af7c96cca1f3a7f",
    (2, 1, 4): "9b3656cf32cd6829cacd89b9ec652011abc4f0b3a4dc0f70170a91eb49c01889",
    (3, 1, 2): "b4d673db80f1303dbb30aafa4746972576eacb364810ec47922e370f5e764959",
    (2, 2, 2): "d0388390f878bc5ad23db7739f21d01ee8ea0ee72541fc9b65c4f986d64e78d5",
    (5, 1, 2): "b92d566c265764ffcf567ae1c34464e47f3869232f0b14cd3184ec7e64c879f4",
}

SWEEP_CONFIG = {"p": [2, 3], "m": [1, 2], "k": [1, 2], "trials": 4, "seed": 11}
SWEEP_PINNED = "280b35d51dc1b603935dd305a7b7a5a7d608e1fa240ee3cc7df2b4ef657460d7"


def verify_digest(p, m, k):
    argv = ["verify", "--p", str(p), "--m", str(m), "--k", str(k),
            "--trials", str(VERIFY_TRIALS), "--seed", str(seed_of(p, m, k))]
    digest = hashlib.sha256()
    for flags in ([], ["--json"]):
        out = io.StringIO()
        status = run_command(argv + flags, out=out)
        digest.update(f"{status}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def sweep_digest(tmp_path):
    config, rows = tmp_path / "sweep.json", tmp_path / "rows.csv"
    config.write_text(json.dumps(SWEEP_CONFIG), encoding="utf-8")
    status = run_command(["sweep", str(config), "--out", str(rows)], out=io.StringIO())
    return hashlib.sha256(f"{status}\n{rows.read_text(encoding='utf-8')}".encode()).hexdigest()


@pytest.mark.parametrize("config", sorted(VERIFY_PINNED), ids=lambda c: "F%d^%d-k%d" % c)
def test_verify_output_is_pinned(config):
    assert verify_digest(*config) == VERIFY_PINNED[config]


def test_sweep_csv_is_pinned(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_PINNED
