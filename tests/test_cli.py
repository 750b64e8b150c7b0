import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import u4codes as u
from u4codes import torsion
from u4codes.chain import RingElement
from u4codes.cli import run_command
from u4codes.errors import DuplicateGenerator, NotCanonical, ParseError, UnknownDirective
from u4codes.parsing import _ExprParser, format_code_file, parse_code_file
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


@pytest.mark.parametrize(
    "text, col_offset, position",
    [
        ("u^3*(x-1) + $ + s", 0, (13, "one of u, s, a, (x-1), integer, + * ^ ( )")),
        ("u^3*" + "1" * 5000, 0, (5, "a shorter integer")),
        ("u^3*(1+(x-1)", 0, (13, "closing parenthesis")),
        ("u^(2)", 0, (3, "integer exponent")),
        ("\t\tu^3 *\u00a0\u2003\u3000(x-1)\t?", 0, (17, "one of u, s, a, (x-1), integer, + * ^ ( )")),
        ("u + s* a!", 4, (13, "one of u, s, a, (x-1), integer, + * ^ ( )")),
    ],
    ids=["bad_char", "long_literal", "missing_paren_at_eof", "paren_exponent", "unicode_spaces",
         "col_offset"],
)
def test_parse_error_line_column_expected(F2, text, col_offset, position):
    with pytest.raises(ParseError) as err:
        _ExprParser(F2, 4, text, 3, col_offset).parse()
    assert (err.value.line, err.value.column, err.value.expected) == (3, *position)


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


def test_analyze_undecodable_file_exits_66(tmp_path, capsys):
    path = tmp_path / "bytes.code"
    path.write_bytes(b"field: p=2 m=1\nlength: k=2\ng3: u^3\xff\n")
    status, out = run(["analyze", str(path)])
    assert status == 66 and out == ""
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("args", [[], ["--json"], ["--verify", "--json"]], ids=["text", "json", "verify"])
def test_analyze_reads_a_file_with_a_byte_order_mark(tmp_path, args):
    # a UTF-8 byte-order mark, as some editors save one, is not part of the text
    plain, marked = tmp_path / "plain.code", tmp_path / "bom.code"
    plain.write_text(GOLDEN_G0_G1_FILE, encoding="utf-8")
    marked.write_text(GOLDEN_G0_G1_FILE, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    status, out = run(["analyze", str(plain), *args])
    assert status == 0
    assert run(["analyze", str(marked), *args]) == (status, out)


def test_enum_cap_range(tmp_path, capsys):
    # a cap of 0 is valid and skips every enumeration; a negative cap is a
    # usage error, with or without --verify, before the file is read
    path = tmp_path / "c.code"
    path.write_text(GOLDEN_G3_FILE)
    status, out = run(["analyze", str(path), "--verify", "--enum-cap", "0"])
    assert status == 0
    assert out.endswith("enumeration skipped: enumeration of 2^2 codewords exceeds cap 0\n")
    capsys.readouterr()
    for argv in (["analyze", str(path), "--verify", "--enum-cap", "-1"],
                 ["analyze", str(path), "--enum-cap", "-5", "--json"],
                 ["analyze", str(tmp_path / "none.code"), "--enum-cap", "-1"]):
        assert run(argv) == (64, "")
        assert capsys.readouterr().err == "error: enum-cap must be >= 0\n"


# <g0> whose sA = s^4 g0 has the u-part s^4 (1 + 2s): the level-1
# elimination of sA against u g0 inverts that non-constant unit, the one
# series inverse on the path of analyze.
G0_UNIT_PIVOT_FILE = """\
field: p=3 m=1 modulus=[0,1]
length: k=2
g0: (x-1)^5 + u*(1+2*(x-1)) + u^3*(x-1)^2
"""


def test_wrong_inverse_exits_internal(tmp_path, monkeypatch, capsys):
    # A series off by a unit factor leaves the u-part elimination of <g0> uncancelled;
    # the guard raises (it is no assert, so python -O keeps it) and the CLI
    # reports an internal error instead of a traceback.
    true_inverse = u.SPoly.inverse
    monkeypatch.setattr(
        u.SPoly, "inverse", lambda f: true_inverse(f) * u.SPoly.monomial(f.spec, f.n, 0, 2)
    )
    path = tmp_path / "g0.code"
    path.write_text(G0_UNIT_PIVOT_FILE)
    status, _ = run(["analyze", str(path)])
    assert status == 70
    assert "internal error" in capsys.readouterr().err


def test_wrong_inverse_exits_internal_under_optimize(tmp_path):
    # The scenario above in a process run with python -O, which strips every
    # assert: the guard is a check that raises, so the exit is still 70.
    src = Path(__file__).resolve().parents[1] / "src"
    (tmp_path / "sitecustomize.py").write_text(
        "import u4codes as u\n"
        "true_inverse = u.SPoly.inverse\n"
        "u.SPoly.inverse = lambda f: true_inverse(f) * u.SPoly.monomial(f.spec, f.n, 0, 2)\n"
    )
    path = tmp_path / "g0.code"
    path.write_text(G0_UNIT_PIVOT_FILE)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(src)])}
    proc = subprocess.run([sys.executable, "-O", "-m", "u4codes.cli", "analyze", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 70, proc.stderr
    assert "internal error" in proc.stderr and "Traceback" not in proc.stderr


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


def test_oracle_calls_per_command(tmp_path, monkeypatch):
    # The CLI asks each oracle once: one span basis per analyze and per
    # verify trial, one torsion profile per analyze, and an enumeration
    # only under --verify.
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name, modules in (("span_basis", (u.codes, u.weights, u.cli)),
                          ("torsion_profile", (u.codes, u.cli)),
                          ("_min_weights_enum", (u.weights,))):
        wrapper = counted(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
    path = tmp_path / "c.code"
    path.write_text(GOLDEN_G0_G1_FILE)
    for flags, enumerations in (([], 0), (["--json"], 0), (["--verify"], 1), (["--verify", "--json"], 1)):
        calls.clear()
        status, _ = run(["analyze", str(path)] + flags)
        assert status == 0
        assert (calls["span_basis"], calls["torsion_profile"], calls["_min_weights_enum"]) == (1, 1, enumerations)
    calls.clear()
    status, _ = run(["verify", "--p", "2", "--m", "1", "--k", "3", "--trials", "9", "--seed", "4"])
    assert status == 0 and calls["span_basis"] == 9


def test_analyze_and_verify_build_no_ring_element(tmp_path, monkeypatch):
    # both commands compute on the generators' cached arrays; only a public
    # caller of CyclicCode.generator gets one wrapped as a RingElement
    built = []
    init = RingElement.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(RingElement, "__init__", counted)
    files = (GOLDEN_G1_FILE, GOLDEN_G3_FILE, GOLDEN_G2_F25_FILE, GOLDEN_G0_F3_FILE, GOLDEN_G0_G1_FILE)
    for i, text in enumerate(files):
        path = tmp_path / f"{i}.code"
        path.write_text(text)
        status, _ = run(["analyze", str(path), "--verify", "--json"])
        assert status == 0
    for p, m, k in ((2, 1, 3), (2, 2, 2), (3, 1, 2)):
        status, _ = run(["verify", "--p", str(p), "--m", str(m), "--k", str(k),
                         "--trials", "30", "--seed", "7"])
        assert status == 0
    assert built == []
    parse_code_file(GOLDEN_G1_FILE)[1].generator(1)
    assert len(built) == 1


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


LARGE_G0_FILE = """\
field: p=5 m=1 modulus=[0,1]
length: k=5
g0: (x-1)^220 + u*(x-1)^3*(1+2*(x-1)) + u^2*(x-1)^7
"""


def test_analyze_large_rank_builds_no_rows(tmp_path, monkeypatch):
    # rank 11,620 at n = 3125: the torsion profile comes from the echelon
    # heads, and enumeration is refused on the rank, so the dense x-basis
    # (about 290 MB) is never built
    def no_rows(field, basis):
        raise AssertionError("dense rows built")

    monkeypatch.setattr(u.weights, "_x_rows", no_rows)
    path = tmp_path / "large.code"
    path.write_text(LARGE_G0_FILE)
    for flags in ([], ["--verify"], ["--verify", "--json"]):
        status, out = run(["analyze", str(path)] + flags)
        assert status == 0
    doc = json.loads(out)
    assert doc["torsion_oracle"][3] == doc["t3"] and doc["enum"]["skipped"]
    assert u.span_basis(parse_code_file(LARGE_G0_FILE)[1]).rank == 11620


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


def test_verify_mismatch_replays_through_analyze(tmp_path, monkeypatch):
    # a closed form off by one: every record carries its code as a code file
    real_t3 = torsion.t3
    monkeypatch.setattr(torsion, "t3", lambda code: replace(real_t3(code), t3=abs(real_t3(code).t3 - 1)))
    args = ["verify", "--p", "2", "--m", "1", "--k", "2", "--trials", "3", "--seed", "1", "--json"]
    status, out = run(args)
    assert status == 2
    records = json.loads(out)["mismatches"]
    assert records
    for i, record in enumerate(records):
        path = tmp_path / f"mismatch{i}.code"
        path.write_text(record["code"])
        status, out = run(["analyze", str(path), "--json"])
        assert status == 2
        assert json.loads(out)["ideal_type"] == record["ideal_type"]


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


def test_sweep_reads_a_config_with_a_byte_order_mark(tmp_path):
    text = json.dumps({"p": [2], "m": [1], "k": [2], "trials": 5, "seed": 3})
    rows = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        config, out_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        config.write_text(text, encoding=encoding)
        assert run(["sweep", str(config), "--out", str(out_path)]) == (0, f"wrote 5 rows to {out_path}\n")
        rows.append(out_path.read_bytes())
    assert rows[0] == rows[1]


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
    # keys outside the line's grammar, a key given twice, an empty modulus entry
    "field_unknown_key": "field: p=2 m=1 foo=3\nlength: k=2\ng3: u^3\n",
    "length_unknown_key": "field: p=2 m=1\nlength: k=2 bar=1\ng3: u^3\n",
    "length_repeated_key": "field: p=2 m=1\nlength: k=2 k=3\ng3: u^3\n",
    "modulus_empty_entry": "field: p=2 m=2 modulus=[1,1,,1]\nlength: k=2\ng3: u^3\n",
    # a key=value pair contains no whitespace: only generator expressions ignore it
    "modulus_with_spaces": "field: p=2 m=2 modulus=[1, 1, 1]\nlength: k=2\ng3: u^3\n",
    "spaces_around_equals": "field: p = 2 m=1\nlength: k=2\ng3: u^3\n",
}


@pytest.mark.parametrize("name", sorted(BAD_CODE_FILES))
def test_bad_code_file_exits_66(tmp_path, capsys, name):
    path = tmp_path / "bad.code"
    path.write_text(BAD_CODE_FILES[name])
    status, out = run(["analyze", str(path)])
    assert status == 66 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


# The key=value lines above reuse the expected text of their own line.
KEY_VALUE_ERRORS = {
    "field_unknown_key": "line 1, column 1: expected field: p=.. m=.. [modulus=[..]]",
    "length_unknown_key": "line 2, column 1: expected length: k=..",
    "length_repeated_key": "line 2, column 1: expected length: k=..",
    "modulus_empty_entry": "line 1, column 1: expected modulus=[c0,c1,...] of integers",
    "modulus_with_spaces": "line 1, column 1: expected key=value pairs",
    "spaces_around_equals": "line 1, column 1: expected key=value pairs",
}


@pytest.mark.parametrize("name", sorted(KEY_VALUE_ERRORS))
def test_bad_key_value_line_names_its_grammar(tmp_path, capsys, name):
    path = tmp_path / "bad.code"
    path.write_text(BAD_CODE_FILES[name])
    assert run(["analyze", str(path)]) == (66, "")
    assert capsys.readouterr().err == f"error: {KEY_VALUE_ERRORS[name]}\n"


BAD_TOKEN = "one of u, s, a, (x-1), integer, + * ^ ( )"


@pytest.mark.parametrize(
    "line, column, expected",
    [("g3: u^3*(x-2)", 10, BAD_TOKEN), ("   g3:    u^3 $", 15, BAD_TOKEN),
     ("g3 :\tu^3*(1+(x-1)  # a comment", 18, "closing parenthesis")],
    ids=["after_colon", "leading_spaces", "eof_before_comment"],
)
def test_generator_parse_error_columns_count_from_line_start(tmp_path, capsys, line, column, expected):
    # columns on a gN: line are those of the raw line, leading spaces included
    path = tmp_path / "bad.code"
    path.write_text(f"field: p=2 m=1\nlength: k=2\n{line}\n")
    status, out = run(["analyze", str(path)])
    assert status == 66 and out == ""
    assert capsys.readouterr().err == f"error: line 3, column {column}: expected {expected}\n"


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
    [{"p": 2}, {"p": ["2"]}, {"p": [4]}, {"k": [40]}, {"k": [0]}, {"m": [True]},
     {"trials": 1e999}, {"seed": -1e999}, {"trials": 2.5}, {"trials": "3"}],
    ids=["p_int", "p_str", "p_not_prime", "k_40", "k_0", "m_bool",
         "trials_inf", "seed_inf", "trials_float", "trials_str"],
)
def test_bad_sweep_config_exits_66(tmp_path, capsys, override):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"p": [2], "m": [1], "k": [2], "trials": 2, **override}))
    out_path = tmp_path / "rows.csv"
    status, _ = run(["sweep", str(config), "--out", str(out_path)])
    assert status == 66 and not out_path.exists()
    assert "bad sweep config" in capsys.readouterr().err


def test_deeply_nested_sweep_config_exits_66(tmp_path, capsys):
    # json.load gives up on deep nesting with RecursionError, not ValueError
    config = tmp_path / "sweep.json"
    config.write_text("[" * 100000 + "]" * 100000)
    out_path = tmp_path / "rows.csv"
    status, _ = run(["sweep", str(config), "--out", str(out_path)])
    assert status == 66 and not out_path.exists()
    assert capsys.readouterr().err.startswith("error: bad sweep config: ")


def test_sweep_field_outside_the_old_table(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"p": [7], "m": [1], "k": [1], "trials": 3, "seed": 2}))
    out_path = tmp_path / "rows.csv"
    status, _ = run(["sweep", str(config), "--out", str(out_path)])
    assert status == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4 and all(line.endswith("true") for line in lines[1:])


def test_exit_codes_of_a_real_process(tmp_path):
    # main() and its sys.exit, which the in-process tests never reach
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = tmp_path / "c.code"
    code.write_text(GOLDEN_G1_FILE)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"p": [2], "m": [1], "k": [2], "trials": 1e999}))
    cases = [
        (["analyze", str(code)], 0),
        (["analyze"], 64),
        (["sweep", str(config), "--out", str(tmp_path / "rows.csv")], 66),
    ]
    for argv, status in cases:
        proc = subprocess.run([sys.executable, "-m", "u4codes.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == status, proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_66_without_traceback(tmp_path, unbuffered):
    # `u4codes analyze FILE | head -0`: the reader is gone before the first
    # write.  Unbuffered, the first print raises BrokenPipeError; buffered,
    # the flush does, and a second flush at exit must not report it again.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = tmp_path / "c.code"
    code.write_text(GOLDEN_G1_FILE)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "u4codes.cli", "analyze", str(code)], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 66, proc.stderr
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
