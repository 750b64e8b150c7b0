"""Property tests: code files round-trip, no code file ends in a traceback,
and the closed form and the oracle agree on random codes."""

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import u4codes as u
from u4codes.cli import run_command
from u4codes.parsing import format_code_file, parse_code_file
from u4codes.randgen import random_code
from conftest import dense_unit
from test_codes import SCAN_CONFIGS, reference_torsion_oracle
from test_cli import (
    GOLDEN_G0_F3_FILE,
    GOLDEN_G0_G1_FILE,
    GOLDEN_G1_FILE,
    GOLDEN_G2_F25_FILE,
    GOLDEN_G3_FILE,
)

DEGREES = ("r", "r1", "r2", "r3", "k1", "k2", "k3", "k4", "k5", "k6")


@given(st.sampled_from(SCAN_CONFIGS), st.integers(0, 2**32), st.booleans())
def test_code_file_round_trip(config, seed, dense):
    # Dense units have coefficients at s^(>= n - k_i) whenever k_i > 0; they
    # vanish in g_i, and validation drops them, so the forms compare equal.
    p, m, k = config
    rng, spec = random.Random(seed), u.field_make(p, m)
    code = random_code(rng, spec, k)
    if dense:
        present = [i for i in range(1, 7) if code.form.correction(i)[1] is not None]
        units = {f"p{i}": dense_unit(rng, spec, code.n) for i in present}
        code = u.validate_canonical(spec, k, replace(code.form, **units))
    spec, again = parse_code_file(format_code_file(code))
    assert spec == code.field
    assert again.ideal_type == code.ideal_type
    assert [getattr(again.form, d) for d in DEGREES] == [getattr(code.form, d) for d in DEGREES]
    assert again.form == code.form
    assert again.generators() == code.generators()


@settings(max_examples=150)
@given(st.sampled_from(SCAN_CONFIGS), st.integers(0, 2**32))
def test_formula_equals_oracle(config, seed):
    # t3 by the closed form and by the least shift on the echelon heads, and
    # every t_i by the least shift and by the dense read-off of the rows' RREF
    p, m, k = config
    code = random_code(random.Random(seed), u.field_make(p, m), k)
    basis = u.span_basis(code)
    assert u.t3(code).t3 == u.torsion_oracle(code, 3, basis)
    profile = u.torsion_profile(code, basis)
    assert list(profile) == [reference_torsion_oracle(code, i, basis) for i in range(4)]


SEED_FILES = [GOLDEN_G1_FILE, GOLDEN_G3_FILE, GOLDEN_G2_F25_FILE, GOLDEN_G0_F3_FILE, GOLDEN_G0_G1_FILE]
# Tokens of the expression grammar, and characters of the file format.
TOKENS = ("u", "s", "a", "(x-1)", "^", "*", "+", "(", ")", "0", "1", "2", "3", "7", "9", "12")
ALPHABET = "usax-0123456789+*^() \n:=[],#fieldpmkg"


@st.composite
def fuzzed_code_files(draw):
    """A golden code file with a few random insertions, deletions and
    replacements of grammar tokens or file-format characters."""
    lines = draw(st.sampled_from(SEED_FILES)).splitlines()
    chunks = st.one_of(
        st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3).map("".join),
        st.text(alphabet=ALPHABET, min_size=1, max_size=4),
    )
    for _ in range(draw(st.integers(1, 3))):
        idx = draw(st.integers(0, len(lines) - 1))
        line = lines[idx]
        pos = draw(st.integers(0, len(line)))
        chunk = draw(chunks)
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            line = line[:pos] + chunk + line[pos:]
        elif op == "delete":
            line = line[:pos] + line[pos + len(chunk) :]
        else:
            line = line[:pos] + chunk + line[pos + len(chunk) :]
        lines[idx] = line
    return "\n".join(lines) + "\n"


FACTORS = ("u", "u^2", "u^3", "u^4", "s", "(x-1)", "(x-1)^3", "s^9", "a", "a^2", "2", "(1+(x-1))", "(a+u)")


@st.composite
def random_generator_files(draw):
    """The field and length lines of a golden file with generator lines that
    are random sums of products of factors: well formed, mostly not canonical."""
    header = [line for line in draw(st.sampled_from(SEED_FILES)).splitlines() if line[:1] in "fl"]
    levels = draw(st.lists(st.sampled_from("0123"), min_size=1, max_size=2, unique=True))
    term = st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4).map("*".join)
    body = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    return "\n".join(header + [f"g{level}: {draw(body)}" for level in levels]) + "\n"


@settings(max_examples=400)
@given(st.one_of(fuzzed_code_files(), random_generator_files(), st.text(alphabet=ALPHABET, max_size=80)))
def test_fuzzed_code_file_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.code")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(io.StringIO()):
            status = run_command(["analyze", path, "--json"], out=io.StringIO())
    assert status in (0, 2, 64, 66, 70)


FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 0

def test_passes():
    pass
"""


def test_failing_property_test_is_reported(tmp_path):
    # On failure hypothesis imports libcst, whose import warns; under the
    # project's warning filters that must stay a test failure (exit 1), not
    # an INTERNALERROR (exit 3) that stops the session.
    (tmp_path / "test_demo.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_demo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
