import io
import json
import random

import numpy as np
import pytest

import u4codes as u
from u4codes.cli import run_command
from u4codes.errors import DuplicateGenerator, NotCanonical, ParseError, UnknownDirective
from u4codes.parsing import format_code_file, parse_code_file, parse_field_element
from u4codes.randgen import random_unit

GOLDEN_G1_FILE = """\
# principal example over F_4
field: p=2 m=2 modulus=[1,1,1]
length: k=3
g1: u*(x-1)^6 + u^2*(x-1)*(1+(x-1)) + u^3*a*(x-1)^2
"""

GOLDEN_G3_FILE = """\
field: p=2 m=1 modulus=[0,1]
length: k=2
g3: u^3*(x-1)^2
"""

GOLDEN_G2_F25_FILE = """\
field: p=5 m=2 modulus=[2,0,1]
length: k=3
g2: u^2*(x-1)^51 + u^3*(x-1)^67*(1+2*(x-1)+a*(x-1)^2)
"""

GOLDEN_G0_F3_FILE = """\
field: p=3 m=1 modulus=[0,1]
length: k=2
g0: (x-1)^5 + u*(x-1)^2*(1+2*(x-1)) + u^3*(x-1)^2
"""

GOLDEN_G0_G1_FILE = """\
field: p=2 m=1 modulus=[0,1]
length: k=2
g0: (x-1)^3 + u*(x-1) + u^2 + u^3*(1+(x-1))
g1: u*(x-1)^2 + u^2 + u^3*(x-1)
"""


def test_parse_golden_g1_matches_manual(F4):
    spec, code = parse_code_file(GOLDEN_G1_FILE)
    assert spec == F4
    assert code.ideal_type == (1,)
    assert (code.form.r1, code.form.k4, code.form.k5) == (6, 1, 2)
    assert code.form.p4 == u.SPoly.from_ints(F4, 8, [1, 1])
    assert code.form.p5 == u.SPoly.from_ints(F4, 8, [F4.gen()])


def test_parse_g3(F2):
    _, code = parse_code_file(GOLDEN_G3_FILE)
    assert code.ideal_type == (3,)
    assert code.form.r3 == 2


def test_parse_is_semantic_not_syntactic(F2):
    a = "field: p=2 m=1 modulus=[0,1]\nlength: k=3\ng2: u^2*((x-1)^4 + (x-1)^5)\n"
    b = "field: p=2 m=1 modulus=[0,1]\nlength: k=3\ng2: u^2*(x-1)^4*(1+(x-1))\n"
    with pytest.raises(NotCanonical):
        # the u^2 component is s^4 (1+s), not a plain power
        parse_code_file(a)
    with pytest.raises(NotCanonical):
        parse_code_file(b)
    c = "field: p=2 m=1 modulus=[0,1]\nlength: k=3\ng2: u^2*(x-1)^4 + u^3*(x-1)^4\n"
    _, code = parse_code_file(c)
    assert (code.form.r2, code.form.k6) == (4, 4)


def test_parse_s_and_xm1_interchangeable():
    a = "field: p=2 m=1 modulus=[0,1]\nlength: k=2\ng3: u^3*s^2\n"
    b = "field: p=2 m=1 modulus=[0,1]\nlength: k=2\ng3: u^3*(x-1)^2\n"
    _, ca = parse_code_file(a)
    _, cb = parse_code_file(b)
    assert ca == cb


def test_parse_level_mismatch_rejected():
    bad = "field: p=2 m=1 modulus=[0,1]\nlength: k=2\ng1: u^2*(x-1)\n"
    with pytest.raises(NotCanonical):
        parse_code_file(bad)


def test_parse_duplicate_generator():
    bad = "field: p=2 m=1 modulus=[0,1]\nlength: k=2\ng3: u^3\ng3: u^3*(x-1)\n"
    with pytest.raises(DuplicateGenerator):
        parse_code_file(bad)


def test_parse_unknown_directive():
    with pytest.raises(UnknownDirective):
        parse_code_file("field: p=2 m=1 modulus=[0,1]\nlength: k=2\nbogus: 1\ng3: u^3\n")


def test_parse_syntax_error_position():
    bad = "field: p=2 m=1 modulus=[0,1]\nlength: k=2\ng3: u^3*(x-2)\n"
    with pytest.raises(ParseError) as err:
        parse_code_file(bad)
    assert err.value.line == 3


def test_parse_field_element(F4):
    a = F4.gen()
    assert parse_field_element(F4, "a+1") == a + 1
    assert parse_field_element(F4, "a^2") == a * a
    assert parse_field_element(F4, "(a+1)*(a+1)") == a
    assert parse_field_element(F4, "1+1") == F4.zero()


def test_roundtrip_all_golden_files(F2, F4, F25):
    for text in (GOLDEN_G1_FILE, GOLDEN_G3_FILE, GOLDEN_G2_F25_FILE, GOLDEN_G0_G1_FILE):
        _, code = parse_code_file(text)
        again_spec, again = parse_code_file(format_code_file(code))
        assert again == code


# --- command behaviour -----------------------------------------------------------


def run(args):
    out = io.StringIO()
    status = run_command(args, out=out)
    return status, out.getvalue()


def test_analyze_json_golden(tmp_path):
    path = tmp_path / "c.code"
    path.write_text(GOLDEN_G2_F25_FILE)
    status, out = run(["analyze", str(path), "--json"])
    assert status == 0
    doc = json.loads(out)
    assert (doc["t3"], doc["wt_sp"], doc["wt_rt"]) == (51, 8, 52)
    assert doc["ideal_type"] == "<g2>"
    assert doc["torsion_oracle"][3] == 51


def test_analyze_text_golden(tmp_path):
    path = tmp_path / "c.code"
    path.write_text(GOLDEN_G1_FILE)
    status, out = run(["analyze", str(path)])
    assert status == 0
    assert "t3 (closed form) = 1" in out
    assert "wt_sp = 3" in out
    assert "wt_rt = 2" in out
    assert "verdict t3_formula_eq_oracle: ok" in out


def test_analyze_verify_small(tmp_path):
    path = tmp_path / "c.code"
    path.write_text(GOLDEN_G0_G1_FILE)
    status, out = run(["analyze", str(path), "--verify", "--json"])
    assert status == 0
    doc = json.loads(out)
    assert doc["verdicts"]["wt_sp_eq_enum"] is True
    assert doc["enum"]["wt_sp"] == 2


def test_analyze_missing_file():
    status, _ = run(["analyze", "/no/such/file"])
    assert status == 66


def test_analyze_empty_file(tmp_path):
    path = tmp_path / "empty.code"
    path.write_text("")
    status, _ = run(["analyze", str(path)])
    assert status == 66


def test_wrong_inverse_exits_internal(tmp_path, monkeypatch, capsys):
    # A series off by a unit leaves the u-part elimination of <g0> uncancelled;
    # the guard raises (it is no assert, so python -O keeps it) and the CLI
    # reports an internal error instead of a traceback.
    true_inverse = u.SPoly.inverse
    monkeypatch.setattr(
        u.SPoly, "inverse", lambda f: true_inverse(f) + u.SPoly.one(f.spec, f.n)
    )
    path = tmp_path / "g0.code"
    path.write_text(GOLDEN_G0_F3_FILE)
    status, _ = run(["analyze", str(path)])
    assert status == 70
    assert "internal error" in capsys.readouterr().err


def test_enumeration_without_codewords_exits_internal(tmp_path, monkeypatch, capsys):
    # An enumerator that yields only the zero word leaves every minimum
    # unset; the guard raises (it is no assert, so python -O keeps it).
    monkeypatch.setattr(
        u.weights, "_all_combinations",
        lambda field, rows: np.zeros((1, rows.shape[1]), dtype=np.int16),
    )
    path = tmp_path / "c.code"
    path.write_text(GOLDEN_G0_G1_FILE)
    status, _ = run(["analyze", str(path), "--verify"])
    assert status == 70
    assert "internal error" in capsys.readouterr().err


def test_one_span_basis_per_code(tmp_path, monkeypatch):
    calls = []
    real = u.codes.span_basis

    def counted(code):
        calls.append(code)
        return real(code)

    for module in (u.codes, u.weights, u.cli):
        monkeypatch.setattr(module, "span_basis", counted)
    path = tmp_path / "c.code"
    path.write_text(GOLDEN_G0_G1_FILE)
    for flags in (["--verify"], ["--verify", "--json"], []):
        calls.clear()
        status, _ = run(["analyze", str(path)] + flags)
        assert status == 0 and len(calls) == 1
    calls.clear()
    status, _ = run(["verify", "--p", "2", "--m", "1", "--k", "3", "--trials", "9", "--seed", "4"])
    assert status == 0 and len(calls) == 9


def test_analyze_verify_at_max_length(tmp_path, F5):
    # n = 3125, all four generators: rank 535, far above the enumeration cap
    rng = random.Random(3125)
    fields = {"r": 3100, "r1": 3050, "r2": 3000, "r3": 2900}
    bounds = {1: 3050, 2: 3000, 3: 2900, 4: 3000, 5: 2900, 6: 2900}
    for i, bound in bounds.items():
        fields[f"k{i}"] = bound - 10 * i
        fields[f"p{i}"] = random_unit(rng, F5, 3125)
    code = u.validate_canonical(F5, 5, u.GeneratorForm(**fields))
    path = tmp_path / "c.code"
    path.write_text(format_code_file(code))
    status, out = run(["analyze", str(path), "--verify", "--json"])
    assert status == 0
    doc = json.loads(out)
    assert doc["n"] == 3125 and doc["verdicts"] == {"t3_formula_eq_oracle": True}
    assert doc["torsion_oracle"][3] == doc["t3"]
    assert doc["enum"]["skipped"]


def test_analyze_verify_enumerates_at_max_length(tmp_path):
    # n = 3125, rank 5: small enough to enumerate, so the basis change to
    # x-powers runs at the full length
    path = tmp_path / "g3.code"
    path.write_text("field: p=5 m=1 modulus=[0,1]\nlength: k=5\ng3: u^3*(x-1)^3120\n")
    status, out = run(["analyze", str(path), "--verify", "--json"])
    assert status == 0
    doc = json.loads(out)
    assert (doc["t3"], doc["wt_sp"], doc["wt_rt"]) == (3120, 1250, 3121)
    assert doc["enum"] == {"wt_sp": 1250, "wt_rt": 3121, "skipped": None}
    assert all(doc["verdicts"].values())


def test_usage_error_code():
    status, _ = run(["analyze"])
    assert status == 64
    status, _ = run(["frobnicate"])
    assert status == 64


def test_verify_deterministic_and_green():
    args = ["verify", "--p", "2", "--m", "1", "--k", "2", "--trials", "60", "--seed", "1"]
    s1, o1 = run(args)
    s2, o2 = run(args)
    assert s1 == s2 == 0
    assert o1 == o2
    assert "60/60 formula==oracle" in o1


def test_verify_json_shape():
    status, out = run(
        ["verify", "--p", "3", "--m", "1", "--k", "2", "--trials", "20", "--seed", "7", "--json"]
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["t3_pass"] == 20
    assert doc["mismatches"] == []


def test_sweep_csv(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"p": [2], "m": [1], "k": [2], "trials": 5, "seed": 3}))
    out_path = tmp_path / "rows.csv"
    status, out = run(["sweep", str(config), "--out", str(out_path)])
    assert status == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "p,m,k,ideal_type,degrees,t3,wt_sp,wt_rt,verified"
    assert len(lines) == 6
    assert all(line.endswith("true") for line in lines[1:])


# --- rejected inputs ---------------------------------------------------------------

BAD_CODE_FILES = {
    "huge_k": "field: p=2 m=1\nlength: k=99999999\ng3: u^3\n",
    "k_too_large": "field: p=2 m=1\nlength: k=40\ng3: u^3\n",
    "k_negative": "field: p=2 m=1\nlength: k=-1\ng3: u^3\n",
    "k_not_int": "field: p=2 m=1\nlength: k=two\ng3: u^3\n",
    "length_first": "length: k=13\nfield: p=2 m=1\ng3: u^3\n",
    "p_not_int": "field: p=x m=1\nlength: k=2\ng3: u^3\n",
    "modulus_not_int": "field: p=2 m=1 modulus=[1,x]\nlength: k=2\ng3: u^3\n",
    # the prime 2^61 - 1, and a degree whose power 2^m would not fit in memory
    "p_huge": "field: p=2305843009213693951 m=1\nlength: k=1\ng3: u^3\n",
    "m_huge": "field: p=2 m=1000000000000 modulus=[1,1]\nlength: k=1\ng3: u^3\n",
    "deep_nesting": "field: p=2 m=1\nlength: k=2\ng3: " + "(" * 3000 + "u^3" + ")" * 3000 + "\n",
    # longer than Python's int-from-string limit of 4300 digits
    "long_literal": "field: p=2 m=1\nlength: k=2\ng3: u^3*" + "1" * 5000 + "\n",
}


@pytest.mark.parametrize("name", sorted(BAD_CODE_FILES))
def test_bad_code_file_exits_66(tmp_path, capsys, name):
    path = tmp_path / "bad.code"
    path.write_text(BAD_CODE_FILES[name])
    status, out = run(["analyze", str(path)])
    assert status == 66 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_field_outside_the_old_table():
    # F_7 has a default modulus by rule (the first irreducible, a = 0)
    status, out = run(["verify", "--p", "7", "--m", "1", "--k", "1", "--trials", "5", "--seed", "1"])
    assert status == 0
    assert "5/5 formula==oracle" in out


@pytest.mark.parametrize("k", ["0", "40", "-3"])
def test_verify_bad_length_is_usage_error(capsys, k):
    status, out = run(["verify", "--p", "2", "--m", "1", "--k", k, "--trials", "3", "--seed", "1"])
    assert status == 64 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "override",
    [{"p": 2}, {"p": ["2"]}, {"p": [4]}, {"k": [40]}, {"k": [0]}, {"m": [True]}],
    ids=["p_int", "p_str", "p_not_prime", "k_40", "k_0", "m_bool"],
)
def test_bad_sweep_config_exits_66(tmp_path, capsys, override):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"p": [2], "m": [1], "k": [2], "trials": 2, **override}))
    out_path = tmp_path / "rows.csv"
    status, _ = run(["sweep", str(config), "--out", str(out_path)])
    assert status == 66 and not out_path.exists()
    assert "bad sweep config" in capsys.readouterr().err


def test_sweep_field_outside_the_old_table(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"p": [7], "m": [1], "k": [1], "trials": 3, "seed": 2}))
    out_path = tmp_path / "rows.csv"
    status, _ = run(["sweep", str(config), "--out", str(out_path)])
    assert status == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4 and all(line.endswith("true") for line in lines[1:])
