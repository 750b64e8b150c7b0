"""SHA-256 pins of ``u4codes analyze`` output on seeded random code files.

For each (p, m, k) config, ``random_code`` draws CODES_PER_CONFIG codes from
``random.Random(seed)``; each is written with ``format_code_file`` and run
through ``analyze`` three times: as text, with ``--json`` and with
``--verify --json``.  One digest per config covers every exit status and
every output, in that order, so any change in what a code file parses to or
in how its analysis prints fails here.
"""

import hashlib
import io
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
