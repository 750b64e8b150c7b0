import random

import pytest

import u4codes as u
from u4codes.errors import NoBranch, OutOfRange, TooLarge
from conftest import golden_g0_g1_f2, golden_g1_f4, golden_g2_f25


# --- per-vector metrics ---------------------------------------------------------


def test_wt_vector_examples():
    assert u.wt_vector([1, 1, 1, 1], "hamming") == 4
    assert u.wt_vector([1, 1, 1, 1], "symbol_pair") == 4
    assert u.wt_vector([1, 1, 1, 1], "rt") == 4
    for metric in ("hamming", "symbol_pair", "rt"):
        assert u.wt_vector([0, 0, 0, 0], metric) == 0
    assert u.wt_vector([1, 0, 0, 1], "hamming") == 2
    assert u.wt_vector([1, 0, 0, 1], "symbol_pair") == 3
    assert u.wt_vector([1, 0, 0, 1], "rt") == 4


def test_wt_vector_accepts_field_elements(F4):
    a = F4.gen()
    vec = [F4.zero(), a, F4.zero(), F4.zero()]
    assert u.wt_vector(vec, "hamming") == 1
    assert u.wt_vector(vec, "rt") == 2
    assert u.wt_vector(vec, "symbol_pair") == 2


# --- enumeration minima -----------------------------------------------------------


def min_weight(code, metric, **kwargs):
    return u.min_weights(code, (metric,), **kwargs)[metric]


def test_min_weight_g3_examples(F2):
    code = u.validate_canonical(F2, 2, u.GeneratorForm(r3=3))
    assert min_weight(code, "symbol_pair") == 4

    code1 = u.validate_canonical(F2, 2, u.GeneratorForm(r3=1))
    assert min_weight(code1, "symbol_pair") == 3
    assert min_weight(code1, "rt") == 2

    code0 = u.validate_canonical(F2, 2, u.GeneratorForm(r3=0))
    assert min_weight(code0, "hamming") == 1


def test_min_weight_cap(F25):
    with pytest.raises(TooLarge):
        min_weight(golden_g2_f25(F25), "rt", cap=2**20)


def test_s_basis_diagnostic_mode(F2):
    # for <g3> codes the minimum RT weight agrees between the two bases
    for r3 in range(4):
        code = u.validate_canonical(F2, 2, u.GeneratorForm(r3=r3))
        x = min_weight(code, "rt", basis_used="x_basis")
        s = min_weight(code, "rt", basis_used="s_basis")
        assert x == s == r3 + 1


# --- closed forms -----------------------------------------------------------------


def test_wt_sp_golden_values():
    assert u.wt_sp_from_t3(51, 5, 3) == 8
    assert u.wt_sp_from_t3(1, 2, 3) == 3
    assert u.wt_sp_from_t3(3, 3, 2) == 4
    for (p, k) in [(2, 2), (3, 2), (5, 3)]:
        assert u.wt_sp_from_t3(0, p, k) == 2


def test_wt_rt_golden_values():
    assert u.wt_rt_from_t3(51, 5, 3) == 52
    assert u.wt_rt_from_t3(0, 3, 2) == 1
    assert u.wt_rt_from_t3(125, 5, 3) == 0


def test_out_of_range():
    with pytest.raises(OutOfRange):
        u.wt_sp_from_t3(9, 2, 3)
    with pytest.raises(OutOfRange):
        u.wt_rt_from_t3(-1, 2, 2)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)])
def test_sp_table_total_and_monotone(p, k):
    n = p**k
    prev = None
    for t3 in range(n + 1):
        value = u.wt_sp_from_t3(t3, p, k)  # raises NoBranch unless exactly one row fires
        if t3 < n:
            if prev is not None:
                assert value >= prev
            prev = value
        else:
            assert value == 0


def test_step_tables_for_n125():
    # the two reference staircases for <g2> codes of length 5^3
    low = {0: 2, 1: 3, **{t: 4 for t in range(2, 26)}, **{t: 6 for t in range(26, 51)},
           **{t: 8 for t in range(51, 63)}}
    high = {**{t: 8 for t in range(63, 76)}, **{t: 10 for t in range(76, 101)},
            101: 15, **{t: 20 for t in range(102, 106)}, **{t: 30 for t in range(106, 111)},
            **{t: 40 for t in range(111, 116)}, **{t: 50 for t in range(116, 121)},
            121: 75, 122: 100, 123: 125, 124: 125, 125: 0}
    for t3, want in {**low, **high}.items():
        assert u.wt_sp_from_t3(t3, 5, 3) == want
    for t3 in range(126):
        assert u.wt_rt_from_t3(t3, 5, 3) == (t3 + 1 if t3 < 125 else 0)


# --- field-code and chain-code equivalence -----------------------------------------


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2)])
def test_g3_codes_exhaustive_equivalence(p, k):
    spec = u.field_make(p, 1)
    n = p**k
    for r3 in range(n):
        code = u.validate_canonical(spec, k, u.GeneratorForm(r3=r3))
        basis = u.span_basis(code)
        if spec.q**basis.rank > 2**20:
            continue
        mins = u.min_weights(code, basis=basis)
        assert mins["symbol_pair"] == u.wt_sp_from_t3(r3, p, k)
        assert mins["rt"] == r3 + 1


def test_random_chain_codes_equivalence():
    rng = random.Random(404)
    spec = u.field_make(2, 1)
    checked = 0
    while checked < 25:
        code = u.random_code(rng, spec, 3)
        basis = u.span_basis(code)
        if spec.q**basis.rank > 2**16:
            continue
        checked += 1
        t3v = u.torsion_oracle(code, 3, basis)
        mins = u.min_weights(code, basis=basis)
        assert mins["symbol_pair"] == u.wt_sp_from_t3(t3v, 2, 3)
        assert mins["rt"] == u.wt_rt_from_t3(t3v, 2, 3)


# --- analyze ----------------------------------------------------------------------


def test_analyze_golden_g1(F4):
    rep = u.analyze(golden_g1_f4(F4), verify=True)
    assert (rep.t3, rep.wt_sp, rep.wt_rt) == (1, 3, 2)
    assert rep.verified.t3_match
    assert rep.basis_used == "x_basis"


def test_analyze_golden_g0_g1(F2):
    rep = u.analyze(golden_g0_g1_f2(F2), verify=True)
    assert (rep.t3, rep.wt_sp, rep.wt_rt) == (0, 2, 1)
    assert rep.verified.sp_match and rep.verified.rt_match


def test_analyze_g2_f25_skips_enum(F25):
    rep = u.analyze(golden_g2_f25(F25), verify=True)
    assert (rep.t3, rep.wt_sp, rep.wt_rt) == (51, 8, 52)
    assert rep.verified.t3_match
    assert rep.verified.enum_skipped is not None
    assert rep.verified.sp_match is None
