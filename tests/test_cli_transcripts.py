"""Pinned CLI transcripts: the exact stdout of ``analyze`` and ``verify`` on
the golden codes, compared byte for byte, so any change to the output format
shows here."""

from dataclasses import replace

import pytest

from u4codes import cli, torsion
import test_cli
from test_cli import run

ANALYZE = {
    ("GOLDEN_G1_FILE", ""): (
        'field: F_4 (p=2, m=2, modulus=[1, 1, 1])\n'
        'length: n=8 (k=3)\n'
        'ideal type: <g1>\n'
        '  g1 = u*(x-1)^6 + u^2*(x-1)*(1 + (x-1)) + u^3*(x-1)^2*(a)\n'
        'torsional degrees (oracle): t0=8 t1=8 t2=3 t3=1\n'
        't3 (closed form) = 1\n'
        '  derivation [g1]\n'
        '    case = b\n'
        '    tau = 1\n'
        '    min over {n-r1+k4:3, tau:1}\n'
        'wt_sp = 3\n'
        'wt_rt = 2\n'
        'verdict t3_formula_eq_oracle: ok\n'
    ),
    ("GOLDEN_G1_FILE", "--json"): (
        '{"schema": "u4codes.analyze/1", "field": {"p": 2, "m": 2, "modulus": [1, 1, 1]}, '
        '"k": 3, "n": 8, "ideal_type": "<g1>", "generators": {"g1": "u*(x-1)^6 + '
        'u^2*(x-1)*(1 + (x-1)) + u^3*(x-1)^2*(a)"}, "t3": 1, "wt_sp": 3, "wt_rt": 2, '
        '"torsion_oracle": [8, 8, 3, 1], "trace": {"method": "g1", "case": "b", "tau_poly": '
        '"s + s^3 + a*s^7", "tau": 1, "min_set": [["n-r1+k4", 3], ["tau", 1]]}, "verdicts": '
        '{"t3_formula_eq_oracle": true}, "enum": null}\n'
    ),
    ("GOLDEN_G1_FILE", "--verify"): (
        'field: F_4 (p=2, m=2, modulus=[1, 1, 1])\n'
        'length: n=8 (k=3)\n'
        'ideal type: <g1>\n'
        '  g1 = u*(x-1)^6 + u^2*(x-1)*(1 + (x-1)) + u^3*(x-1)^2*(a)\n'
        'torsional degrees (oracle): t0=8 t1=8 t2=3 t3=1\n'
        't3 (closed form) = 1\n'
        '  derivation [g1]\n'
        '    case = b\n'
        '    tau = 1\n'
        '    min over {n-r1+k4:3, tau:1}\n'
        'wt_sp = 3\n'
        'wt_rt = 2\n'
        'verdict t3_formula_eq_oracle: ok\n'
        'enumeration skipped: enumeration of 4^14 codewords exceeds cap 1048576\n'
    ),
    ("GOLDEN_G1_FILE", "--verify --json"): (
        '{"schema": "u4codes.analyze/1", "field": {"p": 2, "m": 2, "modulus": [1, 1, 1]}, '
        '"k": 3, "n": 8, "ideal_type": "<g1>", "generators": {"g1": "u*(x-1)^6 + '
        'u^2*(x-1)*(1 + (x-1)) + u^3*(x-1)^2*(a)"}, "t3": 1, "wt_sp": 3, "wt_rt": 2, '
        '"torsion_oracle": [8, 8, 3, 1], "trace": {"method": "g1", "case": "b", "tau_poly": '
        '"s + s^3 + a*s^7", "tau": 1, "min_set": [["n-r1+k4", 3], ["tau", 1]]}, "verdicts": '
        '{"t3_formula_eq_oracle": true}, "enum": {"wt_sp": null, "wt_rt": null, "skipped": '
        '"enumeration of 4^14 codewords exceeds cap 1048576"}}\n'
    ),
    ("GOLDEN_G0_G1_FILE", ""): (
        'field: F_2 (p=2, m=1, modulus=[0, 1])\n'
        'length: n=4 (k=2)\n'
        'ideal type: <g0,g1>\n'
        '  g0 = (x-1)^3 + u*(x-1) + u^2 + u^3*(1 + (x-1))\n'
        '  g1 = u*(x-1)^2 + u^2 + u^3*(x-1)\n'
        'torsional degrees (oracle): t0=4 t1=2 t2=0 t3=0\n'
        't3 (closed form) = 0\n'
        '  derivation [u2-set]\n'
        '    nu = 7\n'
        '    set_size = 8\n'
        '    m = 0\n'
        '    omegas = [0, 1, 2, 2, 2, 3, 3]\n'
        '    taus = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3]\n'
        '    min over {w[elim(sA,g1)]:0, w[elim(sA,ug0)]:1, shift[elim(sA,ug0)]:3, '
        'w[s-shift(g1)]:2, w[u*g1]:2, shift[u*g1]:2, w[u*sA]:2, shift[u*sA]:3, '
        'w[s-shift(sA)]:3, w[u*ug0]:3, shift[u*ug0]:2, u3[elim(ug0,g1)]:0, '
        'elim[elim(sA,g1)|elim(sA,ug0)]:0, elim[elim(sA,g1)|s-shift(g1)]:3, '
        'elim[elim(sA,g1)|u*g1]:0, elim[elim(sA,g1)|u*sA]:1, '
        'elim[elim(sA,g1)|s-shift(sA)]:3, elim[elim(sA,g1)|u*ug0]:1, '
        'elim[elim(sA,ug0)|s-shift(g1)]:1, elim[elim(sA,ug0)|u*g1]:0, '
        'elim[elim(sA,ug0)|u*sA]:2, elim[elim(sA,ug0)|s-shift(sA)]:2, '
        'elim[elim(sA,ug0)|u*ug0]:1, elim[s-shift(g1)|u*g1]:0, elim[s-shift(g1)|u*sA]:1, '
        'elim[s-shift(g1)|s-shift(sA)]:3, elim[s-shift(g1)|u*ug0]:1, elim[u*g1|u*sA]:0, '
        'elim[u*g1|s-shift(sA)]:1, elim[u*sA|s-shift(sA)]:2, elim[u*sA|u*ug0]:1, '
        'elim[s-shift(sA)|u*ug0]:1}\n'
        'wt_sp = 2\n'
        'wt_rt = 1\n'
        'verdict t3_formula_eq_oracle: ok\n'
    ),
    ("GOLDEN_G0_G1_FILE", "--json"): (
        '{"schema": "u4codes.analyze/1", "field": {"p": 2, "m": 1, "modulus": [0, 1]}, "k": '
        '2, "n": 4, "ideal_type": "<g0,g1>", "generators": {"g0": "(x-1)^3 + u*(x-1) + u^2 + '
        'u^3*(1 + (x-1))", "g1": "u*(x-1)^2 + u^2 + u^3*(x-1)"}, "t3": 0, "wt_sp": 2, '
        '"wt_rt": 1, "torsion_oracle": [4, 2, 0, 0], "trace": {"method": "u2-set", '
        '"set_size": 8, "nu": 7, "omegas": [0, 1, 2, 2, 2, 3, 3], "taus": [0, 0, 0, 0, 0, 1, '
        '1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3], "m": 0, "members": ["elim(sA,ug0)", '
        '"elim(sA,g1)", "elim(ug0,g1)", "s-shift(sA)", "u*sA", "s-shift(g1)", "u*ug0", '
        '"u*g1"], "min_set": [["w[elim(sA,g1)]", 0], ["w[elim(sA,ug0)]", 1], '
        '["shift[elim(sA,ug0)]", 3], ["w[s-shift(g1)]", 2], ["w[u*g1]", 2], ["shift[u*g1]", '
        '2], ["w[u*sA]", 2], ["shift[u*sA]", 3], ["w[s-shift(sA)]", 3], ["w[u*ug0]", 3], '
        '["shift[u*ug0]", 2], ["u3[elim(ug0,g1)]", 0], ["elim[elim(sA,g1)|elim(sA,ug0)]", '
        '0], ["elim[elim(sA,g1)|s-shift(g1)]", 3], ["elim[elim(sA,g1)|u*g1]", 0], '
        '["elim[elim(sA,g1)|u*sA]", 1], ["elim[elim(sA,g1)|s-shift(sA)]", 3], '
        '["elim[elim(sA,g1)|u*ug0]", 1], ["elim[elim(sA,ug0)|s-shift(g1)]", 1], '
        '["elim[elim(sA,ug0)|u*g1]", 0], ["elim[elim(sA,ug0)|u*sA]", 2], '
        '["elim[elim(sA,ug0)|s-shift(sA)]", 2], ["elim[elim(sA,ug0)|u*ug0]", 1], '
        '["elim[s-shift(g1)|u*g1]", 0], ["elim[s-shift(g1)|u*sA]", 1], '
        '["elim[s-shift(g1)|s-shift(sA)]", 3], ["elim[s-shift(g1)|u*ug0]", 1], '
        '["elim[u*g1|u*sA]", 0], ["elim[u*g1|s-shift(sA)]", 1], ["elim[u*sA|s-shift(sA)]", '
        '2], ["elim[u*sA|u*ug0]", 1], ["elim[s-shift(sA)|u*ug0]", 1]]}, "verdicts": '
        '{"t3_formula_eq_oracle": true}, "enum": null}\n'
    ),
    ("GOLDEN_G0_G1_FILE", "--verify"): (
        'field: F_2 (p=2, m=1, modulus=[0, 1])\n'
        'length: n=4 (k=2)\n'
        'ideal type: <g0,g1>\n'
        '  g0 = (x-1)^3 + u*(x-1) + u^2 + u^3*(1 + (x-1))\n'
        '  g1 = u*(x-1)^2 + u^2 + u^3*(x-1)\n'
        'torsional degrees (oracle): t0=4 t1=2 t2=0 t3=0\n'
        't3 (closed form) = 0\n'
        '  derivation [u2-set]\n'
        '    nu = 7\n'
        '    set_size = 8\n'
        '    m = 0\n'
        '    omegas = [0, 1, 2, 2, 2, 3, 3]\n'
        '    taus = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3]\n'
        '    min over {w[elim(sA,g1)]:0, w[elim(sA,ug0)]:1, shift[elim(sA,ug0)]:3, '
        'w[s-shift(g1)]:2, w[u*g1]:2, shift[u*g1]:2, w[u*sA]:2, shift[u*sA]:3, '
        'w[s-shift(sA)]:3, w[u*ug0]:3, shift[u*ug0]:2, u3[elim(ug0,g1)]:0, '
        'elim[elim(sA,g1)|elim(sA,ug0)]:0, elim[elim(sA,g1)|s-shift(g1)]:3, '
        'elim[elim(sA,g1)|u*g1]:0, elim[elim(sA,g1)|u*sA]:1, '
        'elim[elim(sA,g1)|s-shift(sA)]:3, elim[elim(sA,g1)|u*ug0]:1, '
        'elim[elim(sA,ug0)|s-shift(g1)]:1, elim[elim(sA,ug0)|u*g1]:0, '
        'elim[elim(sA,ug0)|u*sA]:2, elim[elim(sA,ug0)|s-shift(sA)]:2, '
        'elim[elim(sA,ug0)|u*ug0]:1, elim[s-shift(g1)|u*g1]:0, elim[s-shift(g1)|u*sA]:1, '
        'elim[s-shift(g1)|s-shift(sA)]:3, elim[s-shift(g1)|u*ug0]:1, elim[u*g1|u*sA]:0, '
        'elim[u*g1|s-shift(sA)]:1, elim[u*sA|s-shift(sA)]:2, elim[u*sA|u*ug0]:1, '
        'elim[s-shift(sA)|u*ug0]:1}\n'
        'wt_sp = 2\n'
        'wt_rt = 1\n'
        'verdict t3_formula_eq_oracle: ok\n'
        'verdict wt_sp_eq_enum: ok\n'
        'verdict wt_rt_eq_enum: ok\n'
    ),
    ("GOLDEN_G0_G1_FILE", "--verify --json"): (
        '{"schema": "u4codes.analyze/1", "field": {"p": 2, "m": 1, "modulus": [0, 1]}, "k": '
        '2, "n": 4, "ideal_type": "<g0,g1>", "generators": {"g0": "(x-1)^3 + u*(x-1) + u^2 + '
        'u^3*(1 + (x-1))", "g1": "u*(x-1)^2 + u^2 + u^3*(x-1)"}, "t3": 0, "wt_sp": 2, '
        '"wt_rt": 1, "torsion_oracle": [4, 2, 0, 0], "trace": {"method": "u2-set", '
        '"set_size": 8, "nu": 7, "omegas": [0, 1, 2, 2, 2, 3, 3], "taus": [0, 0, 0, 0, 0, 1, '
        '1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3], "m": 0, "members": ["elim(sA,ug0)", '
        '"elim(sA,g1)", "elim(ug0,g1)", "s-shift(sA)", "u*sA", "s-shift(g1)", "u*ug0", '
        '"u*g1"], "min_set": [["w[elim(sA,g1)]", 0], ["w[elim(sA,ug0)]", 1], '
        '["shift[elim(sA,ug0)]", 3], ["w[s-shift(g1)]", 2], ["w[u*g1]", 2], ["shift[u*g1]", '
        '2], ["w[u*sA]", 2], ["shift[u*sA]", 3], ["w[s-shift(sA)]", 3], ["w[u*ug0]", 3], '
        '["shift[u*ug0]", 2], ["u3[elim(ug0,g1)]", 0], ["elim[elim(sA,g1)|elim(sA,ug0)]", '
        '0], ["elim[elim(sA,g1)|s-shift(g1)]", 3], ["elim[elim(sA,g1)|u*g1]", 0], '
        '["elim[elim(sA,g1)|u*sA]", 1], ["elim[elim(sA,g1)|s-shift(sA)]", 3], '
        '["elim[elim(sA,g1)|u*ug0]", 1], ["elim[elim(sA,ug0)|s-shift(g1)]", 1], '
        '["elim[elim(sA,ug0)|u*g1]", 0], ["elim[elim(sA,ug0)|u*sA]", 2], '
        '["elim[elim(sA,ug0)|s-shift(sA)]", 2], ["elim[elim(sA,ug0)|u*ug0]", 1], '
        '["elim[s-shift(g1)|u*g1]", 0], ["elim[s-shift(g1)|u*sA]", 1], '
        '["elim[s-shift(g1)|s-shift(sA)]", 3], ["elim[s-shift(g1)|u*ug0]", 1], '
        '["elim[u*g1|u*sA]", 0], ["elim[u*g1|s-shift(sA)]", 1], ["elim[u*sA|s-shift(sA)]", '
        '2], ["elim[u*sA|u*ug0]", 1], ["elim[s-shift(sA)|u*ug0]", 1]]}, "verdicts": '
        '{"t3_formula_eq_oracle": true, "wt_sp_eq_enum": true, "wt_rt_eq_enum": true}, '
        '"enum": {"wt_sp": 2, "wt_rt": 1, "skipped": null}}\n'
    ),
    ("GOLDEN_G2_F25_FILE", ""): (
        'field: F_25 (p=5, m=2, modulus=[2, 0, 1])\n'
        'length: n=125 (k=3)\n'
        'ideal type: <g2>\n'
        '  g2 = u^2*(x-1)^51 + u^3*(x-1)^67*(1 + 2*(x-1) + a*(x-1)^2)\n'
        'torsional degrees (oracle): t0=125 t1=125 t2=51 t3=51\n'
        't3 (closed form) = 51\n'
        '  derivation [g2]\n'
        '    min over {r2:51, n-r2+k6:141}\n'
        'wt_sp = 8\n'
        'wt_rt = 52\n'
        'verdict t3_formula_eq_oracle: ok\n'
    ),
    ("GOLDEN_G2_F25_FILE", "--json"): (
        '{"schema": "u4codes.analyze/1", "field": {"p": 5, "m": 2, "modulus": [2, 0, 1]}, '
        '"k": 3, "n": 125, "ideal_type": "<g2>", "generators": {"g2": "u^2*(x-1)^51 + '
        'u^3*(x-1)^67*(1 + 2*(x-1) + a*(x-1)^2)"}, "t3": 51, "wt_sp": 8, "wt_rt": 52, '
        '"torsion_oracle": [125, 125, 51, 51], "trace": {"method": "g2", "min_set": [["r2", '
        '51], ["n-r2+k6", 141]]}, "verdicts": {"t3_formula_eq_oracle": true}, "enum": null}\n'
    ),
    ("GOLDEN_G2_F25_FILE", "--verify"): (
        'field: F_25 (p=5, m=2, modulus=[2, 0, 1])\n'
        'length: n=125 (k=3)\n'
        'ideal type: <g2>\n'
        '  g2 = u^2*(x-1)^51 + u^3*(x-1)^67*(1 + 2*(x-1) + a*(x-1)^2)\n'
        'torsional degrees (oracle): t0=125 t1=125 t2=51 t3=51\n'
        't3 (closed form) = 51\n'
        '  derivation [g2]\n'
        '    min over {r2:51, n-r2+k6:141}\n'
        'wt_sp = 8\n'
        'wt_rt = 52\n'
        'verdict t3_formula_eq_oracle: ok\n'
        'enumeration skipped: enumeration of 25^148 codewords exceeds cap 1048576\n'
    ),
    ("GOLDEN_G2_F25_FILE", "--verify --json"): (
        '{"schema": "u4codes.analyze/1", "field": {"p": 5, "m": 2, "modulus": [2, 0, 1]}, '
        '"k": 3, "n": 125, "ideal_type": "<g2>", "generators": {"g2": "u^2*(x-1)^51 + '
        'u^3*(x-1)^67*(1 + 2*(x-1) + a*(x-1)^2)"}, "t3": 51, "wt_sp": 8, "wt_rt": 52, '
        '"torsion_oracle": [125, 125, 51, 51], "trace": {"method": "g2", "min_set": [["r2", '
        '51], ["n-r2+k6", 141]]}, "verdicts": {"t3_formula_eq_oracle": true}, "enum": '
        '{"wt_sp": null, "wt_rt": null, "skipped": "enumeration of 25^148 codewords exceeds '
        'cap 1048576"}}\n'
    ),
}
VERIFY_F2_N8 = (
    '25/25 formula==oracle\n'
    '6/6 weight-table==enumeration (cap 2^12 per code)\n'
)
VERIFY_MISMATCH_JSON = (
    '{"schema": "u4codes.verify/1", "p": 2, "m": 1, "k": 2, "trials": 3, "seed": 1, '
    '"t3_pass": 0, "weights_checked": 2, "weights_pass": 2, "mismatches": [{"trial": 0, '
    '"ideal_type": "<g2>", "degrees": "r2=0", "t3_formula": 1, "t3_oracle": 0, "code": '
    '"field: p=2 m=1 modulus=[0,1]\\nlength: k=2\\ng2: u^2\\n"}, {"trial": 1, "ideal_type": '
    '"<g1,g2>", "degrees": "r1=3;r2=3;k4=0;k6=3", "t3_formula": 1, "t3_oracle": 0, '
    '"code": "field: p=2 m=1 modulus=[0,1]\\nlength: k=2\\ng1: u*(x-1)^3 + u^2\\ng2: '
    'u^2*(x-1)^3 + u^3*(x-1)^3\\n"}, {"trial": 2, "ideal_type": "<g0,g1>", "degrees": '
    '"r=1;r1=0;k2=0;k3=0;k4=3;k5=3", "t3_formula": 1, "t3_oracle": 0, "code": "field: '
    'p=2 m=1 modulus=[0,1]\\nlength: k=2\\ng0: (x-1) + u^2 + u^3*(1 + (x-1))\\ng1: u + '
    'u^2*(x-1)^3 + u^3*(x-1)^3\\n"}]}\n'
)


@pytest.mark.parametrize("name, flags", sorted(ANALYZE))
def test_analyze_transcript(tmp_path, name, flags):
    path = tmp_path / "c.code"
    path.write_text(getattr(test_cli, name))
    assert run(["analyze", str(path)] + flags.split()) == (0, ANALYZE[name, flags])


def test_verify_transcript():
    args = ["verify", "--p", "2", "--m", "1", "--k", "3", "--trials", "25", "--seed", "3"]
    assert run(args) == (0, VERIFY_F2_N8)


def test_verify_mismatch_transcript(monkeypatch):
    # the closed form off by one, as in test_verify_mismatch_replays_through_analyze
    real_t3 = torsion.t3
    monkeypatch.setattr(torsion, "t3", lambda code: replace(real_t3(code), t3=abs(real_t3(code).t3 - 1)))
    args = ["verify", "--p", "2", "--m", "1", "--k", "2", "--trials", "3", "--seed", "1", "--json"]
    assert run(args) == (2, VERIFY_MISMATCH_JSON)


# argparse help and usage errors, captured with COLUMNS=80: (status, stdout,
# stderr); --help ends in SystemExit, recorded as ("exit", code)
USAGE = {
    '--help': (
        ('exit', 0),
        (
            'usage: u4codes [-h] {analyze,verify,sweep} ...\n'
            '\n'
            'Command-line front end: analyze one code, verify random codes, sweep grids.\n'
            'Exit codes: 0 success, 2 verification mismatch, 64 usage, 66 bad input file,\n'
            '70 internal error.\n'
            '\n'
            'positional arguments:\n'
            '  {analyze,verify,sweep}\n'
            '    analyze             analyze one code-specification file\n'
            '    verify              random formula-vs-oracle cross-check\n'
            '    sweep               CSV sweep over a (p, m, k) grid\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
        ),
        '',
    ),
    'analyze --help': (
        ('exit', 0),
        (
            'usage: u4codes analyze [-h] [--verify] [--enum-cap ENUM_CAP] [--json] file\n'
            '\n'
            'positional arguments:\n'
            '  file\n'
            '\n'
            'options:\n'
            '  -h, --help           show this help message and exit\n'
            '  --verify\n'
            '  --enum-cap ENUM_CAP\n'
            '  --json\n'
        ),
        '',
    ),
    'verify --help': (
        ('exit', 0),
        (
            'usage: u4codes verify [-h] --p P --m M --k K --trials TRIALS --seed SEED\n'
            '                      [--json]\n'
            '\n'
            'options:\n'
            '  -h, --help       show this help message and exit\n'
            '  --p P\n'
            '  --m M\n'
            '  --k K\n'
            '  --trials TRIALS\n'
            '  --seed SEED\n'
            '  --json\n'
        ),
        '',
    ),
    'sweep --help': (
        ('exit', 0),
        (
            'usage: u4codes sweep [-h] --out OUT config\n'
            '\n'
            'positional arguments:\n'
            '  config\n'
            '\n'
            'options:\n'
            '  -h, --help  show this help message and exit\n'
            '  --out OUT\n'
        ),
        '',
    ),
    '': (
        64,
        '',
        'usage error: the following arguments are required: command\n',
    ),
    'bogus': (
        64,
        '',
        "usage error: argument command: invalid choice: 'bogus' (choose from 'analyze', 'verify', 'sweep')\n",
    ),
    'analyze': (
        64,
        '',
        'usage error: the following arguments are required: file\n',
    ),
    'verify --p x': (
        64,
        '',
        "usage error: argument --p: invalid int value: 'x'\n",
    ),
    'verify --p 4 --m 1 --k 2 --trials 3 --seed 1': (
        64,
        '',
        'error: 4 is not prime\n',
    ),
    'analyze f.code --enum-cap z': (
        64,
        '',
        "usage error: argument --enum-cap: invalid int value: 'z'\n",
    ),
    'analyze f.code --verify --enum-cap -1': (
        64,
        '',
        'error: enum-cap must be >= 0\n',
    ),
    'sweep c.json': (
        64,
        '',
        'usage error: the following arguments are required: --out\n',
    ),
}


def transcript(argv, capsys):
    try:
        status, out = run(argv)
    except SystemExit as exc:
        status, out = ("exit", exc.code), ""
    captured = capsys.readouterr()
    return status, out + captured.out, captured.err


@pytest.mark.parametrize("argv", sorted(USAGE))
def test_usage_transcript(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert transcript(argv.split(), capsys) == USAGE[argv]


def test_parser_reuse_matches_fresh_parsers(tmp_path, monkeypatch, capsys):
    # the parser is built once and kept; runs that share it, with usage errors
    # and help in between, print what runs on freshly built parsers print
    monkeypatch.setenv("COLUMNS", "80")
    path = tmp_path / "c.code"
    path.write_text(test_cli.GOLDEN_G1_FILE)
    calls = [["analyze", str(path), "--verify"], ["verify", "--p", "x"],
             ["verify", "--p", "2", "--m", "1", "--k", "2", "--trials", "4", "--seed", "1", "--json"],
             ["analyze", "--help"], ["bogus"], ["analyze", str(path), "--json"],
             ["sweep", str(tmp_path / "none.json"), "--out", str(tmp_path / "rows.csv")]]

    def transcripts(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            results.append(transcript(argv, capsys))
        return results

    shared = transcripts(fresh=False)
    assert shared == transcripts(fresh=True)
    assert [status for status, _, _ in shared] == [0, 64, 0, ("exit", 0), 64, 0, 66]
