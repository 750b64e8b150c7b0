import random
from dataclasses import replace

import numpy as np
import pytest

import u4codes as u
from u4codes import chain
from u4codes.chain import RingElement
from u4codes.codes import _CORRECTIONS
from u4codes.errors import (
    CorrectionDegreeTooLarge,
    CorrectionNotUnit,
    DegreeOrderViolated,
    EmptyGeneratorSet,
    InconsistentSet,
    MixedField,
    MixedLength,
    TooLarge,
)
from u4codes.galois import FieldSpec
from u4codes.randgen import random_unit
from u4codes.sring import SPoly
from u4codes.weights import _all_combinations, _bit_planes, _one_per_line, _support_words
from conftest import (
    add_table_combinations, dense_unit, digits_of, encodings_of, golden_g0_g1_f2, golden_g1_f4,
    packed, span_rows,
)


def test_validate_golden_g1(F4):
    code = golden_g1_f4(F4)
    assert code.ideal_type == (1,)
    assert code.n == 8 and code.form.r1 == 6


def test_validate_bare_g0(F2):
    code = u.validate_canonical(F2, 2, u.GeneratorForm(r=2))
    assert code.ideal_type == (0,)
    assert code.generator(0) == RingElement.from_part(0, SPoly.monomial(F2, 4, 2))


def test_validate_degree_order(F2):
    with pytest.raises(DegreeOrderViolated):
        u.validate_canonical(F2, 3, u.GeneratorForm(r1=3, r2=5))


def test_validate_empty(F2):
    with pytest.raises(EmptyGeneratorSet):
        u.validate_canonical(F2, 2, u.GeneratorForm())


def test_validate_truncates_corrections(F2):
    # n = 4, k4 = 2: the s^2 term of p4 vanishes in g1 = u s^3 + u^2 s^2 p4
    plain = u.validate_canonical(F2, 2, u.GeneratorForm(r1=3, k4=2, p4=SPoly.one(F2, 4)))
    longer = u.validate_canonical(
        F2, 2, u.GeneratorForm(r1=3, k4=2, p4=SPoly.from_ints(F2, 4, [1, 0, 1]))
    )
    assert longer.generator(1) == plain.generator(1)
    assert longer.form == plain.form and longer == plain


def test_validate_correction_rules(F2):
    nonunit = SPoly.monomial(F2, 4, 1)
    with pytest.raises(CorrectionNotUnit):
        u.validate_canonical(F2, 2, u.GeneratorForm(r=2, k1=0, p1=nonunit))
    # k1 < r1 when g1 is present
    with pytest.raises(CorrectionDegreeTooLarge):
        u.validate_canonical(
            F2, 2, u.GeneratorForm(r=3, r1=2, k1=2, p1=SPoly.one(F2, 4))
        )
    # without g1 the bound relaxes to k1 < n
    code = u.validate_canonical(F2, 2, u.GeneratorForm(r=3, k1=3, p1=SPoly.one(F2, 4)))
    assert code.form.k1 == 3


def test_relaxed_bound_matches_g2_example(F25):
    # k6 = 67 > r2 = 51 is legal when g3 is absent
    h = SPoly.from_ints(F25, 125, [1, 1])
    code = u.validate_canonical(F25, 3, u.GeneratorForm(r2=51, k6=67, p6=h))
    assert code.ideal_type == (2,)


def test_ideal_type_inference_all_15(F2):
    seen = set()
    for itype in u.IDEAL_TYPES:
        fields = {}
        names = {0: "r", 1: "r1", 2: "r2", 3: "r3"}
        for rank, level in enumerate(sorted(itype)):
            fields[names[level]] = 3 - rank if 3 - rank >= 0 else 0
        code = u.validate_canonical(F2, 2, u.GeneratorForm(**fields))
        seen.add(code.ideal_type)
    assert seen == set(u.IDEAL_TYPES)


# --- span basis ------------------------------------------------------------------


def test_span_rank_g3_high_degree(F2):
    code = u.validate_canonical(F2, 2, u.GeneratorForm(r3=3))
    basis = u.span_basis(code)
    assert basis.rank == 1  # u^3 s^3 only; every shift dies at s^4


def test_span_rank_g3_zero_degree(F2):
    code = u.validate_canonical(F2, 2, u.GeneratorForm(r3=0))
    assert u.span_basis(code).rank == 4


def test_span_closure_under_u_and_s(F4):
    code = golden_g1_f4(F4)
    basis = u.span_basis(code)
    for row in span_rows(basis):
        elem = RingElement(F4, 8, row.reshape(4, -1))
        assert u.contains(basis, elem.shift_mul(0, 1))
        assert u.contains(basis, elem.shift_mul(1, 0))


def test_contains_examples(F2):
    code = u.validate_canonical(
        F2, 2, u.GeneratorForm(r1=3, k4=0, p4=SPoly.one(F2, 4))
    )
    basis = u.span_basis(code)
    assert u.contains(basis, RingElement(F2, 4, np.zeros((4, 4), dtype=np.int16)))
    # u*g1 - s^2*(s*g1) = u^3
    assert u.contains(basis, RingElement.from_part(3, SPoly.one(F2, 4)))

    small = u.validate_canonical(F2, 2, u.GeneratorForm(r3=3))
    sbasis = u.span_basis(small)
    assert not u.contains(sbasis, RingElement.from_part(2, SPoly.monomial(F2, 4, 3)))


@pytest.mark.parametrize(
    "other, error", [((2, 1, 3), MixedLength), ((2, 2, 2), MixedField)], ids=["length", "field"]
)
def test_oracles_refuse_the_basis_of_another_code(F2, other, error):
    # a basis of another length or field, read as this code's, would give
    # t_i above n, or a bare numpy error in min_weights
    code = u.validate_canonical(F2, 2, u.GeneratorForm(r1=3, k4=0, p4=SPoly.one(F2, 4)))
    p, m, k = other
    foreign = u.span_basis(u.random_code(random.Random(3), u.field_make(p, m), k))
    for oracle in (lambda: u.torsion_oracle(code, 3, foreign),
                   lambda: u.torsion_profile(code, foreign),
                   lambda: u.min_weights(code, basis=foreign)):
        with pytest.raises(error):
            oracle()
    assert u.torsion_profile(code, u.span_basis(code)) == u.torsion_profile(code)


def test_golden_g0_g1_socle_membership(F2):
    code = golden_g0_g1_f2(F2)
    basis = u.span_basis(code)
    assert u.contains(basis, RingElement.from_part(3, SPoly.one(F2, 4)))  # u^3 in C


# --- span basis against the F-linear reference --------------------------------------


def _rref(field, rows, width):
    add, sub, mul, inv = field.add_table, field.sub_table, field.mul_table, field.inv_table
    basis: list[np.ndarray] = []
    pivots: list[int] = []
    for row in rows:
        v = row.astype(np.int16)
        for p, b in zip(pivots, basis):
            c = v[p]
            if c:
                v = sub[v, mul[c, b]]
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            continue
        piv = int(nz[0])
        v = mul[inv[v[piv]], v]
        for idx, (p, b) in enumerate(zip(pivots, basis)):
            c = b[piv]
            if c:
                basis[idx] = sub[b, mul[c, v]]
        pos = int(np.searchsorted(np.asarray(pivots), piv))
        pivots.insert(pos, piv)
        basis.insert(pos, v)
    mat = np.array(basis, dtype=np.int16) if basis else np.zeros((0, width), dtype=np.int16)
    mat.flags.writeable = False
    return mat, tuple(pivots)


def reference_span_basis(code):
    """Row-reduce the spanning set {g_i * s^a * u^b : 0<=a<n, 0<=b<=3} over F,
    one row at a time: the F-linear oracle that the echelon form replaced."""
    n = code.n

    def spanning_rows():
        for level in code.ideal_type:
            g = code.generator(level).coeffs
            for b in range(4):
                shifted_u = np.zeros((4, n), dtype=np.int16)
                shifted_u[b:, :] = g[: 4 - b, :]
                for a in range(n):
                    row = np.zeros((4, n), dtype=np.int16)
                    row[:, a:] = shifted_u[:, : n - a]
                    yield row.reshape(4 * n)

    return _rref(code.field, spanning_rows(), 4 * n)


def row_pivots(rows):
    """The first nonzero column of each row of an echelon basis."""
    return tuple(int(j) for j in (rows != 0).argmax(axis=1))


def assert_matches_reference(code):
    # the rows s^j h_c span the reference row space: equal reduced forms
    dense = span_rows(u.span_basis(code))
    rows, pivots = reference_span_basis(code)
    assert row_pivots(dense) == pivots
    assert dense.dtype == np.int16 and not dense.flags.writeable
    reduced, _ = _rref(code.field, dense, 4 * code.n)
    assert np.array_equal(reduced, rows)


_DEGREE_NAMES = {0: "r", 1: "r1", 2: "r2", 3: "r3"}


def code_of_type(rng, spec, k, itype, corrections=True):
    """A code of the given ideal type: random ordered degrees and, when
    asked, every correction present with a random degree and unit."""
    n = spec.p**k
    degrees = sorted((rng.randrange(n) for _ in itype), reverse=True)
    fields = {_DEGREE_NAMES[level]: deg for level, deg in zip(itype, degrees)}
    for i, (owner, bounder) in _CORRECTIONS.items():
        bound = fields[_DEGREE_NAMES[bounder]] if bounder in itype else n
        if corrections and owner in itype and bound > 0:
            fields[f"k{i}"] = rng.randrange(bound)
            fields[f"p{i}"] = random_unit(rng, spec, n)
    return u.validate_canonical(spec, k, u.GeneratorForm(**fields))


SPAN_FIELDS = [
    (2, 1, None, 3), (3, 1, None, 2), (2, 2, None, 2), (5, 1, None, 2), (2, 3, None, 2),
    (3, 2, None, 1), (5, 2, None, 1),
    (7, 1, (4, 1), 1),                       # a = 3
    (2, 4, (1, 1, 0, 0, 1), 1),              # a^4 + a + 1
    (3, 3, (1, 2, 0, 1), 1),                 # a^3 + 2a + 1
]


@pytest.mark.parametrize("p,m,modulus,k", SPAN_FIELDS)
def test_span_basis_matches_reference_all_15_types(p, m, modulus, k):
    spec = u.field_make(p, m) if modulus is None else FieldSpec(p, m, modulus)
    rng = random.Random(1000 * p + 10 * m + k)
    for itype in u.IDEAL_TYPES:
        for corrections in (True, False):
            assert_matches_reference(code_of_type(rng, spec, k, itype, corrections))


def test_sub_codes_equal_revalidated_all_15_types():
    # without_g3 builds its sub-code without re-validation; it must equal
    # validate_canonical of the same form
    for p, m, modulus, k in SPAN_FIELDS[:5]:
        spec = u.field_make(p, m) if modulus is None else FieldSpec(p, m, modulus)
        rng = random.Random(2000 * p + 10 * m + k)
        for itype in u.IDEAL_TYPES:
            for corrections in (True, False):
                code = code_of_type(rng, spec, k, itype, corrections)
                if itype == (3,):
                    with pytest.raises(EmptyGeneratorSet):
                        code.without_g3()
                    continue
                form = replace(code.form, r3=None)
                assert code.without_g3() == u.validate_canonical(spec, k, form)


def test_span_basis_matches_reference_edge_cases(F2, F3, F4):
    one = SPoly.one(F3, 9)
    unit = SPoly.from_ints(F3, 9, [2, 1, 1])
    cases = [
        # only column 3 has a pivot
        u.validate_canonical(F2, 3, u.GeneratorForm(r3=5)),
        # degree 0: the whole ambient space, and the whole u-multiple of it
        u.validate_canonical(F2, 2, u.GeneratorForm(r=0)),
        u.validate_canonical(F4, 2, u.GeneratorForm(r1=0, k5=0, p5=SPoly.one(F4, 4))),
        # bare powers, no corrections
        u.validate_canonical(F3, 2, u.GeneratorForm(r=7, r1=5, r2=4, r3=1)),
        # s^(n-r) g0 = u s^(n-r+k1) p1 + ...: its u-part has valuation
        # n - r + k1 = 3 < r = 8, so only the row s^(n-v) h of the echelon
        # form puts column 1's pivot at 3; u g0 alone would put it at 8.
        u.validate_canonical(F3, 2, u.GeneratorForm(r=8, k1=2, p1=unit, k2=0, p2=one)),
        u.validate_canonical(F3, 2, u.GeneratorForm(r1=7, k4=1, p4=unit, k5=0, p5=unit)),
        u.validate_canonical(F4, 2, u.GeneratorForm(r=3, k3=0, p3=SPoly.one(F4, 4))),
    ]
    for code in cases:
        assert_matches_reference(code)
    assert 9 + 3 in row_pivots(span_rows(u.span_basis(cases[4])))


def test_span_basis_matches_reference_at_625(F5):
    # an analyze_large shape: <g2, g3> at n = 625, k6 at 0.9 of its bound
    rng = random.Random(625)
    code = u.validate_canonical(
        F5, 4, u.GeneratorForm(r2=560, r3=480, k6=432, p6=random_unit(rng, F5, 625))
    )
    assert_matches_reference(code)


def test_span_basis_invariants_at_max_length(F5):
    rng = random.Random(3125)
    n = 3125
    fields = {"r": 3000, "r1": 2900, "r2": 2700, "r3": 2400}
    for i, (_, bounder) in _CORRECTIONS.items():
        fields[f"k{i}"] = fields[_DEGREE_NAMES[bounder]] - 1 - i
        fields[f"p{i}"] = random_unit(rng, F5, n)
    code = u.validate_canonical(F5, 5, u.GeneratorForm(**fields))
    basis = u.span_basis(code)
    dense = span_rows(basis)
    pivots = np.asarray(row_pivots(dense))
    assert dense.shape == (basis.rank, 4 * n) and basis.rank > 0
    assert np.all(np.diff(pivots) > 0)
    # echelon: a leading 1 on every pivot column (the first nonzero ones),
    # which are c*n + j for j >= v_c in each column c with a head
    assert np.all(dense[np.arange(basis.rank), pivots] == 1)
    blocks = sorted(basis.heads.items())
    assert pivots.tolist() == [c * n + j for c, (v, _) in blocks for j in range(v, n)]
    for level in code.ideal_type:
        g = code.generator(level)
        assert u.contains(basis, g)
        assert u.contains(basis, g.shift_mul(n - fields[_DEGREE_NAMES[level]] + 1, 0))
    assert not u.contains(basis, RingElement.from_part(3, SPoly.monomial(F5, n, 0)))


# --- torsion oracle -----------------------------------------------------------------


def test_torsion_oracle_examples(F3, F4):
    code = golden_g1_f4(F4)
    assert u.torsion_oracle(code, 3) == 1

    g3code = u.validate_canonical(F3, 2, u.GeneratorForm(r3=2))
    assert u.torsion_oracle(g3code, 3) == 2


def test_torsion_oracle_checks_level(F3):
    code = u.validate_canonical(F3, 2, u.GeneratorForm(r3=2))
    for i in (-1, 4):
        with pytest.raises(ValueError):
            u.torsion_oracle(code, i)


def test_a_head_off_its_valuation_fails_the_clear_guard(F4):
    # _clear needs r[c] and h[c] zero below s^v and h[c, v] != 0; the guard
    # raises (it is no assert, so python -O keeps it)
    n = 8
    head, row = np.zeros((4, n), dtype=np.int16), np.zeros((4, n), dtype=np.int16)
    head[2, 3:5] = head[3, 0] = row[2, 4] = row[3, 1] = 1
    chain._clear(F4, row.copy(), 2, 3, head)
    for arr, j in ((row, 2), (head, 2), (head, 3)):
        bad_row, bad_head = row.copy(), head.copy()
        (bad_row if arr is row else bad_head)[2, j] ^= 1
        with pytest.raises(InconsistentSet):
            chain._clear(F4, bad_row, 2, 3, bad_head)
    # a basis whose head for column 2 reads s^(v+1) where its v says s^v:
    # membership stops at the guard instead of answering
    code = golden_g1_f4(F4)
    basis = u.span_basis(code)
    v, h = basis.heads[2]
    bad = replace(basis, heads={**basis.heads, 2: (v, chain._shift(h, 1))})
    with pytest.raises(InconsistentSet):
        u.contains(bad, RingElement.from_part(2, SPoly.monomial(F4, 8, v)))


@pytest.mark.parametrize("p,m,k", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (5, 1, 2), (3, 2, 2), (5, 2, 1)])
def test_the_oracle_inverts_no_series(p, m, k, monkeypatch):
    # the echelon form scales each head by a field constant and clears
    # fraction-free, so span_basis, torsion_profile and contains never
    # call SPoly.inverse
    def no_inverse(f):
        raise AssertionError("the span oracle inverted a series")

    spec, rng = u.field_make(p, m), random.Random(1900 + 100 * p + 10 * m + k)
    drawn = [u.random_code(rng, spec, k) for _ in range(40)]
    monkeypatch.setattr(SPoly, "inverse", no_inverse)
    non_constant = 0
    for code in drawn:
        basis = u.span_basis(code)
        profile = u.torsion_profile(code, basis)
        for level in code.ideal_type:
            assert u.contains(basis, code.generator(level))
        if profile[3]:
            probe = RingElement.from_part(3, SPoly.monomial(spec, code.n, profile[3] - 1))
            assert not u.contains(basis, probe)
        non_constant += sum(bool(h[c, v + 1 :].any()) for c, (v, h) in basis.heads.items())
    assert non_constant >= 5


def reference_contains(basis, elem):
    """Membership: the flattened element reduces to zero against the rows, in
    pivot order, which needs only an echelon basis with leading 1s.  The
    dense loop that the reduction on the heads replaced."""
    pivots = row_pivots(span_rows(basis))
    v = elem.coeffs.reshape(-1).astype(np.int16)
    sub, mul = basis.field.sub_table, basis.field.mul_table
    for p, b in zip(pivots, span_rows(basis)):
        c = v[p]
        if c:
            v = sub[v, mul[c, b]]
    return not v.any()


def reference_torsion_oracle(code, i, basis):
    """t_i read off the reduced row-echelon form of the basis rows: a member v
    equals sum v[pivot_r] * row_r, so the unit vector of u^i s^t is a member
    exactly when the row with pivot i*n + t is that unit vector.  The dense
    read-off that the reduction on the heads replaced."""
    n = code.n
    rows, pivots = _rref(code.field, span_rows(basis), 4 * n)
    lo, hi = np.searchsorted(pivots, (i * n, (i + 1) * n))
    unit = ~rows[lo:hi, (i + 1) * n :].any(axis=1)
    if not unit.any():
        return n
    return pivots[lo + int(unit.argmax())] - i * n


def linear_scan(code, basis, i):
    """t_i by its definition: the first t with u^i s^t a member, n if none."""
    for t in range(code.n):
        elem = RingElement.from_part(i, SPoly.monomial(code.field, code.n, t))
        if reference_contains(basis, elem):
            return t
    return code.n


# The six ORACLE_GRID configurations of the acceptance tests, then F_8, F_9, F_25.
SCAN_CONFIGS = [
    (2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2), (5, 1, 1), (2, 1, 4),
    (2, 3, 2), (3, 2, 1), (5, 2, 1),
]


def test_torsion_oracle_matches_linear_scan():
    # the least shift on the heads against the dense read-off and against
    # dense membership tests, all 15 types
    for (p, m, k) in SCAN_CONFIGS:
        spec = u.field_make(p, m)
        rng = random.Random(100 * p + 10 * m + k)
        for itype in u.IDEAL_TYPES:
            for corrections in (True, False):
                code = code_of_type(rng, spec, k, itype, corrections)
                basis = u.span_basis(code)
                profile = u.torsion_profile(code, basis)
                for i in range(4):
                    assert profile[i] == u.torsion_oracle(code, i, basis)
                    assert profile[i] == reference_torsion_oracle(code, i, basis)
                    assert profile[i] == linear_scan(code, basis, i), (p, m, k, itype, i)


def test_oracle_t3_is_the_column_3_pivot_valuation():
    # t3 = min{t : u^3 s^t in C} is v_3, the pivot valuation of column 3
    # (n when there is no head): the torsion degree T_3 of the literature,
    # on 14 codes of each of the 15 types, half with every correction
    checked = 0
    for (p, m, k) in SCAN_CONFIGS[:8]:
        spec = u.field_make(p, m)
        rng = random.Random(3000 + 100 * p + 10 * m + k)
        for itype in u.IDEAL_TYPES:
            for trial in range(14):
                code = code_of_type(rng, spec, k, itype, corrections=trial % 2 == 0)
                basis = u.span_basis(code)
                v3 = basis.heads.get(3, (code.n, None))[0]
                assert u.torsion_oracle(code, 3, basis) == v3, (p, m, k, itype, code.form)
                checked += 1
    assert checked == 8 * 15 * 14


def random_member(rng, basis):
    """A random F-linear combination of the basis rows, as a ring element."""
    field = basis.field
    v = np.zeros(4 * basis.n, dtype=np.int16)
    for row in span_rows(basis):
        v = field.add_table[v, field.mul_table[rng.randrange(field.q), row]]
    return RingElement(field, basis.n, v.reshape(4, -1))


def test_contains_matches_reference():
    # random members, members plus one random term (mostly not members), and
    # random elements, for all 15 types
    seen = set()
    for (p, m, k) in SCAN_CONFIGS:
        spec = u.field_make(p, m)
        rng = random.Random(300 + 100 * p + 10 * m + k)
        for itype in u.IDEAL_TYPES:
            for corrections in (True, False):
                code = code_of_type(rng, spec, k, itype, corrections)
                basis, n = u.span_basis(code), code.n
                for _ in range(4):
                    member = random_member(rng, basis)
                    term = RingElement.from_part(
                        rng.randrange(4), SPoly.monomial(spec, n, rng.randrange(n))
                    )
                    noise = RingElement(
                        spec, n, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(4)]
                    )
                    assert u.contains(basis, member) and reference_contains(basis, member)
                    for elem in (member + term, noise):
                        got = u.contains(basis, elem)
                        assert got == reference_contains(basis, elem), (p, m, k, itype)
                        seen.add(got)
    assert seen == {True, False}


# Correction slot -> u-level of the correction term, written out here so that
# the reference does not read it off the code it checks.
_REFERENCE_ULEVEL = {1: 1, 2: 2, 3: 3, 4: 2, 5: 3, 6: 3}


def reference_generator(code, level):
    """g_level as a sum of SPoly-part ring elements: the assembly that writing
    each term into one array replaced."""
    deg = code.form.degree(level)
    elem = RingElement.from_part(level, SPoly.monomial(code.field, code.n, deg))
    for i, (owner, _) in _CORRECTIONS.items():
        if owner != level:
            continue
        ki, pi = code.form.correction(i)
        if pi is None:
            continue
        elem = elem + RingElement.from_part(_REFERENCE_ULEVEL[i], pi.shift(ki))
    return elem


def test_generator_matches_reference():
    # all 15 types, with and without corrections; the second code of each pair
    # has dense units, whose coefficients reach past s^(n - k_i)
    truncated = 0
    for (p, m, k) in SCAN_CONFIGS:
        spec = u.field_make(p, m)
        rng = random.Random(1000 + 100 * p + 10 * m + k)
        for itype in u.IDEAL_TYPES:
            for corrections in (True, False):
                code = code_of_type(rng, spec, k, itype, corrections)
                n, dense = code.n, {}
                for i in _CORRECTIONS:
                    ki, pi = code.form.correction(i)
                    if pi is not None:
                        dense[f"p{i}"] = dense_unit(rng, spec, n)
                        truncated += bool(dense[f"p{i}"].coeffs[n - ki :].any())
                dense_code = u.validate_canonical(spec, k, replace(code.form, **dense))
                for c in (code, dense_code):
                    for level in c.ideal_type:
                        assert c.generator(level) == reference_generator(c, level), (p, m, k, itype)
    assert truncated > 0


def test_generator_arrays_are_built_once_and_read_only(monkeypatch):
    # t3 (through u2_part_set, and through the sub-code it takes of a type
    # with g3), span_basis (through _module_rows) and min_weights read one
    # cached array per generator, built on first use; none of them wraps a
    # generator as a RingElement
    built = []
    build = u.codes._generator_array

    def counted(code, level):
        built.append(level)
        return build(code, level)

    def refused(*args):
        raise AssertionError("RingElement built")

    monkeypatch.setattr(u.codes, "_generator_array", counted)
    monkeypatch.setattr(RingElement, "__init__", refused)
    for p, m, k in ((2, 1, 2), (3, 1, 1), (2, 2, 1)):
        spec = u.field_make(p, m)
        rng = random.Random(3000 + 10 * p + m)
        for itype in u.IDEAL_TYPES:
            for corrections in (True, False):
                code = code_of_type(rng, spec, k, itype, corrections)
                built.clear()
                u.t3(code)
                u.min_weights(code, basis=u.span_basis(code))
                assert sorted(built) == list(itype), (p, m, k, itype)
                rows = u.codes._module_rows(code)
                if 0 in itype and 3 not in itype:
                    members = u.u2_part_set(code)
                assert len(built) == len(itype)
                assert list(code.arrays) == list(itype)
                for level, g in code.arrays.items():
                    assert g.dtype == np.int16 and g.shape == (4, code.n)
                    assert not g.flags.writeable
                    assert any(np.array_equal(row, g) for row in rows)
                if 0 in itype and 3 not in itype and 2 in itype:
                    assert np.shares_memory(members[-1].element, code.arrays[2])
    monkeypatch.undo()
    for level, g in code.arrays.items():
        assert np.array_equal(code.generator(level).coeffs, g)
        assert code.generator(level) == reference_generator(code, level)


def test_torsion_oracle_matches_bisection_at_625(F5):
    # an analyze_large shape; membership of u^i s^t is monotone in t (multiply
    # by s), so a binary search over contains gives the same least t
    rng = random.Random(625)
    code = u.validate_canonical(
        F5, 4, u.GeneratorForm(r1=600, r3=500, k5=450, p5=random_unit(rng, F5, 625))
    )
    basis = u.span_basis(code)

    def member(i, t):
        return reference_contains(basis, RingElement.from_part(i, SPoly.monomial(F5, 625, t)))

    for i in range(4):
        lo, hi = 0, 625
        while lo < hi:
            mid = (lo + hi) // 2
            if member(i, mid):
                hi = mid
            else:
                lo = mid + 1
        assert u.torsion_oracle(code, i, basis) == lo
    # u g1 = u^2 s^600; s^25 g1 = u^3 s^475 p5, so t3 = 475 < r3 = 500
    assert u.torsion_profile(code, basis) == (625, 625, 600, 475)


def test_torsion_ordering_property():
    for (p, m, k) in [(2, 1, 2), (3, 1, 2), (2, 2, 2)]:
        spec = u.field_make(p, m)
        rng = random.Random(99)
        for _ in range(60):
            code = u.random_code(rng, spec, k)
            t0, t1, t2, t3 = u.torsion_profile(code)
            assert t3 <= t2 <= t1 <= t0


def test_pure_power_ideals_have_rectangular_profile(F3):
    # <g_i> with no corrections: t_j = r_i for j >= i and n below
    n = 9
    for level, name in ((0, "r"), (1, "r1"), (2, "r2"), (3, "r3")):
        code = u.validate_canonical(F3, 2, u.GeneratorForm(**{name: 4}))
        profile = u.torsion_profile(code)
        for j in range(4):
            assert profile[j] == (4 if j >= level else n)


# --- enumeration ----------------------------------------------------------------------


def test_enumerate_counts(F2, F4):
    # q^r combinations of m 4n digits each
    one_dim = u.span_basis(u.validate_canonical(F2, 2, u.GeneratorForm(r3=3)))
    assert _all_combinations(F2, span_rows(one_dim)).shape == (2, F2.m * 16)

    four_dim = u.span_basis(u.validate_canonical(F2, 2, u.GeneratorForm(r3=0)))
    assert _all_combinations(F2, span_rows(four_dim)).shape == (16, F2.m * 16)

    two_dim = u.span_basis(u.validate_canonical(F4, 2, u.GeneratorForm(r3=2)))
    assert _all_combinations(F4, span_rows(two_dim)).shape == (16, F4.m * 16) == (16, 32)


def test_enumerate_unique_and_closed(F2):
    code = golden_g0_g1_f2(F2)
    basis = u.span_basis(code)
    combos = encodings_of(F2, _all_combinations(F2, span_rows(basis)))
    words = [RingElement(F2, code.n, w.reshape(4, -1)) for w in combos]
    assert len(words) == 2**basis.rank
    seen = {w.coeffs.tobytes() for w in words}
    assert len(seen) == len(words)
    rng = random.Random(5)
    for _ in range(30):
        a, b = rng.choice(words), rng.choice(words)
        assert (a + b).coeffs.tobytes() in seen
        assert u.contains(basis, a)


def test_enumerate_cap(F25):
    code = u.validate_canonical(F25, 3, u.GeneratorForm(r2=51))
    basis = u.span_basis(code)
    with pytest.raises(TooLarge):
        u.min_weights(code, cap=2**20, basis=basis)


def test_batches_match_stream(F2, F5):
    # the split that min_weights enumerates: every sum of a word from the first
    # half of the rows and one from the second half, which is the whole code
    odd = u.validate_canonical(
        F5, 1, u.GeneratorForm(r2=3, k6=1, p6=SPoly.from_ints(F5, 5, [2, 1]), r3=2)
    )
    for field, code in ((F2, golden_g0_g1_f2(F2)), (F5, odd)):
        basis = u.span_basis(code)
        stream = {w.tobytes() for w in add_table_combinations(field, span_rows(basis))}
        half = basis.rank // 2
        left = add_table_combinations(field, span_rows(basis)[:half])
        right = add_table_combinations(field, span_rows(basis)[half:])
        batched = {w.tobytes() for row in left for w in field.add_table[row[None, :], right]}
        assert stream == batched
        assert len(stream) == field.q**basis.rank

        # and its zero test: the differences left - right cover the code too,
        # and a position is in the support of left - right exactly when the
        # bit planes of the digits of left and right differ there
        n = code.n
        differences = [field.sub_table[row[None, :], right] for row in left]
        assert {w.tobytes() for block in differences for w in block} == stream
        support = (np.concatenate(differences).reshape(-1, 4, n) != 0).any(axis=1)
        left_planes, right_planes = (
            _bit_planes(field, digits_of(field, side).astype(np.uint8), n) for side in (left, right)
        )
        words = _support_words(left_planes, right_planes)
        assert words.dtype == np.uint8 and words.shape == (1, left.shape[0] * right.shape[0])
        assert np.array_equal(words, packed(support))


def test_left_half_is_one_word_per_line(F4, F5):
    # the left half that min_weights enumerates: the zero word and one word
    # per line, pairwise non-proportional; the differences left - right are
    # then, up to a nonzero scalar, every nonzero codeword
    forms = (
        (F4, 2, u.GeneratorForm(r2=2, k6=0, p6=SPoly.from_ints(F4, 4, [F4.gen(), 1]), r3=1)),
        (F5, 1, u.GeneratorForm(r2=3, k6=1, p6=SPoly.from_ints(F5, 5, [2, 1]), r3=2)),
    )
    for field, k, form in forms:
        code = u.validate_canonical(field, k, form)
        basis = u.span_basis(code)
        q, half = field.q, basis.rank // 2
        assert half >= 2
        left = encodings_of(field, _one_per_line(field, span_rows(basis)[:half]))
        right = add_table_combinations(field, span_rows(basis)[half:])
        assert left.shape[0] == 1 + (q**half - 1) // (q - 1)

        nonzero = field.mul_table[np.arange(1, q)]               # (q - 1, q): lambda * e
        assert not left[0].any() and left[1:].any(axis=1).all()
        # pairwise non-proportional: the lines of the nonzero words are disjoint
        multiples = {m.tobytes() for w in left[1:] for m in nonzero[:, w]}
        assert len(multiples) == (left.shape[0] - 1) * (q - 1)

        code_words = {w.tobytes() for w in add_table_combinations(field, span_rows(basis)) if w.any()}
        covered = {
            m.tobytes()
            for row in left
            for d in field.sub_table[row[None, :], right]
            if d.any()
            for m in nonzero[:, d]
        }
        assert covered == code_words
