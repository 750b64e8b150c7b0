import itertools
import random

import numpy as np
import pytest

import u4codes as u
from u4codes.errors import DivisionByZero, MixedField, MixedLength, OutOfRange
from u4codes.galois import FieldSpec
from u4codes.sring import SPoly, basis_transform_rows, decompose


def rand_poly(rng, spec, n):
    return SPoly(spec, n, np.array([rng.randrange(spec.q) for _ in range(n)], dtype=np.int16))


# --- ring operations -------------------------------------------------------------


def test_truncation_at_n(F2):
    s2 = SPoly.monomial(F2, 4, 2)
    s3 = SPoly.monomial(F2, 4, 3)
    assert (s2 * s3).is_zero()


def test_char2_squaring(F2):
    f = u.SPoly.from_ints(F2, 4, [1, 1])
    assert f * f == u.SPoly.from_ints(F2, 4, [1, 0, 1])


def test_derived_shift_truncates(F3):
    f = SPoly.monomial(F3, 9, 1) * u.SPoly.from_ints(F3, 9, [2, 1])  # s*(2+s)
    assert f.shift(7) == u.SPoly.from_ints(
        F3, 9, [0] * 8 + [2]
    )  # 2s^8, the s^9 term truncated


def test_mixed_operands_rejected(F2, F3):
    f = SPoly.one(F2, 4)
    with pytest.raises(MixedField):
        f + SPoly.one(F3, 4)
    with pytest.raises(MixedLength):
        f + SPoly.one(F2, 8)


def test_encodings_out_of_range_rejected(F2, F4):
    # 5 is no F_2 encoding, and -1 must not index the last table entry
    for spec, bad in ((F2, 5), (F2, -1), (F4, 4), (F4, -32768)):
        with pytest.raises(OutOfRange):
            SPoly(spec, 4, [bad, 0, 0, 0])
    assert SPoly(F4, 4, [3, 0, 0, 0]).coeffs.tolist() == [3, 0, 0, 0]


def test_mul_commutative_associative_random(F4):
    rng = random.Random(7)
    for _ in range(200):
        f, g, h = (rand_poly(rng, F4, 8) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_shift_composes(F3):
    rng = random.Random(8)
    for _ in range(100):
        f = rand_poly(rng, F3, 9)
        a, b = rng.randrange(12), rng.randrange(12)
        assert f.shift(a).shift(b) == f.shift(a + b)


# --- product kernel and Newton inverse against the schoolbook table loop ---------


def reference_mul(f, g):
    """Schoolbook product from the field tables, one shifted row per term of f."""
    spec, n = f.spec, f.n
    acc = np.zeros(n, dtype=np.int16)
    for i in np.nonzero(f.coeffs)[0]:
        prod = spec.mul_table[f.coeffs[i], g.coeffs[: n - i]]
        acc[i:] = spec.add_table[acc[i:], prod]
    return SPoly(spec, n, acc)


KERNEL_FIELDS = [
    (2, 1, None), (3, 1, None), (5, 1, None), (2, 2, None), (5, 2, None), (2, 3, None),
    (3, 2, None),
    (7, 1, (4, 1)),                          # a = 3
    (2, 4, (1, 1, 0, 0, 1)),                 # a^4 + a + 1
    (3, 3, (1, 2, 0, 1)),                    # a^3 + 2a + 1
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),     # a^8 + a^4 + a^3 + a + 1
]


def kernel_field(p, m, modulus):
    return u.field_make(p, m) if modulus is None else FieldSpec(p, m, modulus)


def kernel_lengths(p):
    """p, p^2 and the largest power of p up to 256."""
    out, n = [], p
    while n <= 256:
        out.append(n)
        n *= p
    return sorted({out[0], out[1], out[-1]})


def rand_operand(rng, spec, n, kind):
    c = rng.integers(0, spec.q, n).astype(np.int16)
    if kind == "sparse":
        c[rng.random(n) < 0.85] = 0
    elif kind == "shifted":  # leading zeros: a valuation above 0
        c[: rng.integers(1, n)] = 0
    elif kind == "top":  # only the top coefficients survive
        c[: n - rng.integers(1, 3)] = 0
    elif kind == "constant":
        c[1:] = 0
    elif kind == "gap":  # c0 + c s^(n-1): f g = 1 mod s^prec long before f g = 1
        c[1 : n - 1] = 0
    return SPoly(spec, n, c)


@pytest.mark.parametrize("p,m,modulus", KERNEL_FIELDS)
def test_mul_matches_table_loop(p, m, modulus):
    spec = kernel_field(p, m, modulus)
    rng = np.random.default_rng(p * 1000 + m)
    kinds = ["dense", "sparse", "shifted", "top"]
    for n in kernel_lengths(p):
        for ka, kb in 2 * list(itertools.product(kinds, repeat=2)):
            f, g = rand_operand(rng, spec, n, ka), rand_operand(rng, spec, n, kb)
            assert f * g == reference_mul(f, g), (n, ka, kb)
        # valuations adding up to n or more truncate the product to zero
        f = rand_operand(rng, spec, n, "dense").shift(n // 2)
        g = rand_operand(rng, spec, n, "dense").shift(n - n // 2)
        assert (f * g).is_zero() and reference_mul(f, g).is_zero()
        assert (f * SPoly.zero(spec, n)).is_zero()


@pytest.mark.parametrize("p,m,modulus", KERNEL_FIELDS)
def test_inverse_matches_table_loop(p, m, modulus):
    spec = kernel_field(p, m, modulus)
    rng = np.random.default_rng(p * 1000 + m + 1)
    for n in kernel_lengths(p):
        one = SPoly.one(spec, n)
        for kind in ("dense", "sparse", "top", "constant", "gap"):
            c = rand_operand(rng, spec, n, kind).coeffs.copy()
            c[0] = rng.integers(1, spec.q)
            f = SPoly(spec, n, c)
            g = f.inverse()
            assert reference_mul(f, g) == one, (n, kind)
            assert g.inverse() == f


def test_mul_and_inverse_at_max_length(F5):
    n = 3125
    rng = np.random.default_rng(3125)
    one = SPoly.one(F5, n)
    for ka, kb in [("dense", "dense"), ("sparse", "dense"), ("shifted", "sparse")]:
        f, g = rand_operand(rng, F5, n, ka), rand_operand(rng, F5, n, kb)
        assert f * g == reference_mul(f, g), (ka, kb)
    for kind in ("dense", "sparse", "constant", "gap"):
        c = rand_operand(rng, F5, n, kind).coeffs.copy()
        c[0] = 3
        f = SPoly(F5, n, c)
        g = f.inverse()
        assert reference_mul(f, g) == one
        assert g.inverse() == f
    with pytest.raises(DivisionByZero):
        rand_operand(rng, F5, n, "shifted").inverse()


# --- basis transform ----------------------------------------------------------------


def basis_transform(spec, vec, direction):
    return basis_transform_rows(spec, np.array([vec], dtype=np.int16), direction)[0]


def test_basis_transform_examples(F2, F3):
    assert list(basis_transform(F2, [1, 1, 0, 0], "x_to_s")) == [0, 1, 0, 0]
    assert list(basis_transform(F2, [0, 0, 1, 0], "x_to_s")) == [1, 0, 1, 0]
    xs = basis_transform(F3, [0, 1] + [0] * 7, "x_to_s")
    assert list(xs) == [1, 1] + [0] * 7  # x = 1 + s


def test_basis_transform_of_one_is_one(F2):
    # x^n mod (x^n - 1) = 1; its s-basis vector is (1, 0, ..., 0)
    assert list(basis_transform(F2, [1, 0, 0, 0], "x_to_s")) == [1, 0, 0, 0]


@pytest.mark.parametrize("p,m,k", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (5, 1, 1), (2, 1, 4)])
def test_basis_transform_roundtrip(p, m, k):
    spec = u.field_make(p, m)
    n = p**k
    rng = np.random.default_rng(1234)
    vecs = rng.integers(0, spec.q, size=(500, n)).astype(np.int16)
    there = basis_transform_rows(spec, vecs, "x_to_s")
    back = basis_transform_rows(spec, there, "s_to_x")
    assert np.array_equal(back, vecs)


def test_rowwise_matches_single(F3):
    rng = random.Random(5)
    vecs = np.array([[rng.randrange(3) for _ in range(9)] for _ in range(20)], dtype=np.int16)
    rows = basis_transform_rows(F3, vecs, "s_to_x")
    for i in range(20):
        assert np.array_equal(rows[i], basis_transform(F3, vecs[i], "s_to_x"))


def reference_basis_transform(spec, rows, direction):
    """The dense Lucas matrices and the n-step table loop that the digit-plane
    Kronecker transform replaced, kept verbatim as its reference."""
    p, n = spec.p, rows.shape[1]
    small = np.zeros((p, p), dtype=np.int64)
    small[0, 0] = 1
    for i in range(1, p):
        small[i, 0] = 1
        for j in range(1, i + 1):
            small[i, j] = (small[i - 1, j - 1] + small[i - 1, j]) % p
    ndig = 1
    while p**ndig < n:
        ndig += 1
    idx = np.arange(n)
    digits = np.zeros((n, ndig), dtype=np.int64)
    v = idx.copy()
    for d in range(ndig):
        digits[:, d] = v % p
        v //= p
    binom = np.ones((n, n), dtype=np.int64)
    for d in range(ndig):
        binom = binom * small[digits[:, None, d], digits[None, :, d]] % p
    signs = np.where((idx[:, None] - idx[None, :]) % 2 == 0, 1, p - 1)
    m_sx = binom * signs % p
    mat = binom.astype(np.int16) if direction == "x_to_s" else m_sx.astype(np.int16)
    out = np.zeros_like(rows)
    for i in range(n):
        col = rows[:, i]
        if not col.any():
            continue
        out = spec.add_table[out, spec.mul_table[col[:, None], mat[i][None, :]]]
    return out


@pytest.mark.parametrize("p,m,modulus", KERNEL_FIELDS)
def test_basis_transform_matches_lucas_matrices(p, m, modulus):
    spec = kernel_field(p, m, modulus)
    rng = np.random.default_rng(p * 1000 + m + 2)
    for n in sorted({1, p, p**2, p**3, 10, 17}):
        for r in (1, 6):
            rows = rng.integers(0, spec.q, (r, n)).astype(np.int16)
            rows[0, rng.random(n) < 0.7] = 0  # a sparse row beside dense ones
            for direction in ("x_to_s", "s_to_x"):
                got = basis_transform_rows(spec, rows, direction)
                assert got.dtype == np.int16
                assert np.array_equal(got, reference_basis_transform(spec, rows, direction)), (
                    n, r, direction,
                )


def test_basis_transform_roundtrip_at_max_length(F5):
    rng = np.random.default_rng(3125)
    vecs = rng.integers(0, F5.q, size=(8, 3125)).astype(np.int16)
    there = basis_transform_rows(F5, vecs, "x_to_s")
    assert np.array_equal(basis_transform_rows(F5, there, "s_to_x"), vecs)
    # x^(n-1) = (1 + s)^(n-1) = sum_j C(n-1, j) s^j, and C(p^k - 1, j) = (-1)^j mod p
    top = np.zeros((1, 3125), dtype=np.int16)
    top[0, -1] = 1
    expect = np.where(np.arange(3125) % 2 == 0, 1, 4)
    assert np.array_equal(basis_transform_rows(F5, top, "x_to_s")[0], expect)


# --- decompose ----------------------------------------------------------------------


def test_decompose_examples(F2, F3):
    f = u.SPoly.from_ints(F2, 4, [0, 0, 1, 1])
    d = decompose(f)
    assert d.valuation == 2 and d.unit_part == u.SPoly.from_ints(F2, 4, [1, 1])

    z = SPoly.zero(F2, 4)
    dz = decompose(z)
    assert dz.valuation == 4 and dz.unit_part.is_zero()

    g = u.SPoly.from_ints(F3, 9, [0, 2, 1])
    dg = decompose(g)
    assert dg.valuation == 1 and dg.unit_part == u.SPoly.from_ints(F3, 9, [2, 1])
    assert dg.unit_part.is_unit()


def test_decompose_reconstructs(F4):
    rng = random.Random(11)
    for _ in range(300):
        f = rand_poly(rng, F4, 8)
        d = decompose(f)
        assert d.unit_part.shift(d.valuation) == f
        if not f.is_zero():
            assert d.unit_part.is_unit()


# --- unit criterion ------------------------------------------------------------------


def test_unit_criterion_exhaustive_tiny(F2):
    # every polynomial of F_2[s]/<s^4>; inverse existence by full pair scan
    n = 4
    polys = [
        SPoly(F2, n, np.array(bits, dtype=np.int16))
        for bits in itertools.product(range(2), repeat=n)
    ]
    one = SPoly.one(F2, n)
    for f in polys:
        has_inverse = any((f * g) == one for g in polys)
        assert has_inverse == f.is_unit()
        assert (decompose(f).valuation == 0) == has_inverse


@pytest.mark.parametrize("p,m,k", [(3, 1, 2), (2, 2, 3), (5, 1, 2)])
def test_unit_criterion_constructive_larger(p, m, k):
    spec = u.field_make(p, m)
    n = p**k
    rng = random.Random(13)
    one = SPoly.one(spec, n)
    for _ in range(100):
        f = rand_poly(rng, spec, n)
        if f.is_unit():
            assert f.inverse() * f == one
        else:
            # evaluation at x = 1 is a ring map onto the field, so a zero
            # constant term can never multiply back to 1
            with pytest.raises(DivisionByZero):
                f.inverse()


# --- display -------------------------------------------------------------------------


def test_spoly_display(F4):
    f = SPoly.from_ints(F4, 8, [1, 0, F4.gen() + 1])
    assert str(f) == "1 + (a+1)*s^2"
    assert f.to_string("(x-1)") == "1 + (a+1)*(x-1)^2"
    assert str(SPoly.zero(F4, 8)) == "0"
