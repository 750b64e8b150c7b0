import itertools
import random

import numpy as np
import pytest

import u4codes as u
from u4codes import sring
from u4codes.errors import DivisionByZero, MixedField, MixedLength, OutOfRange
from u4codes.galois import MAX_Q, FieldSpec
from u4codes.sring import (
    NEWTON_START, PACK_SPAN, SPoly, _mul_trunc, basis_transform_rows, decompose,
)


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
        f - SPoly.one(F3, 4)
    with pytest.raises(MixedLength):
        f * SPoly.one(F2, 8)


def test_from_ints_takes_elements_of_its_own_field_only(F3, F4):
    # an element of another field is refused, as SPoly.monomial refuses it,
    # not read as an encoding of this field
    with pytest.raises(MixedField):
        SPoly.from_ints(F4, 4, [F3.element(2)])
    with pytest.raises(MixedField):
        SPoly.monomial(F4, 4, 0, F3.element(2))
    assert SPoly.from_ints(F4, 4, [F4.gen(), 5]).coeffs.tolist() == [2, 1, 0, 0]


def test_coefficients_that_are_not_integers_are_refused(F4, F5):
    # not truncated by int(), and refused with a library error, not a TypeError
    for spec, values in ((F5, ["4", 2.7]), (F4, [1.5, 2.9]), (F5, [np.float64(1.0)])):
        with pytest.raises(OutOfRange):
            SPoly.from_ints(spec, 5 if spec is F5 else 4, values)
    for exp in (0, 9):  # also where the monomial truncates to zero
        with pytest.raises(OutOfRange):
            SPoly.monomial(F4, 4, exp, 1.5)
    assert SPoly.from_ints(F5, 5, [np.int64(9), -1]).coeffs.tolist() == [4, 4, 0, 0, 0]


def test_encodings_out_of_range_rejected(F2, F4):
    # 5 is no F_2 encoding, and -1 must not index the last table entry
    for spec, bad in ((F2, 5), (F2, -1), (F4, 4), (F4, -32768)):
        with pytest.raises(OutOfRange):
            SPoly(spec, 4, [bad, 0, 0, 0])
    # checked before the int16 cast, which would wrap 65537 to 1, truncate
    # 1.7 to 1 and overflow on 70000
    for bad in (np.array([65537, 0, 0, 0]), [1.7, 0, 0, 0], [70000, 0, 0, 0]):
        with pytest.raises(OutOfRange):
            SPoly(F2, 4, bad)
    assert SPoly(F4, 4, [3, 0, 0, 0]).coeffs.tolist() == [3, 0, 0, 0]


def test_mul_commutative_associative_random(F4):
    rng = random.Random(7)
    for _ in range(200):
        f, g, h = (rand_poly(rng, F4, 8) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_negative_exponents_rejected(F2):
    # like RingElement.from_part(-1, ...): no silent zero for a negative power
    with pytest.raises(ValueError):
        SPoly.monomial(F2, 4, -1)
    with pytest.raises(ValueError):
        SPoly.one(F2, 4).shift(-1)
    assert SPoly.monomial(F2, 4, 4).is_zero()


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
    elif kind == "monomial":  # c s^e, the constant term e = 0 one draw in four
        e = 0 if rng.random() < 0.25 else rng.integers(0, n)
        c[:] = 0
        c[e] = rng.integers(1, spec.q)
    return SPoly(spec, n, c)


@pytest.mark.parametrize("p,m,modulus", KERNEL_FIELDS)
def test_mul_matches_table_loop(p, m, modulus):
    spec = kernel_field(p, m, modulus)
    rng = np.random.default_rng(p * 1000 + m)
    kinds = ["dense", "sparse", "shifted", "top", "monomial"]
    for n in kernel_lengths(p):
        for ka, kb in 2 * list(itertools.product(kinds, repeat=2)):
            f, g = rand_operand(rng, spec, n, ka), rand_operand(rng, spec, n, kb)
            assert f * g == reference_mul(f, g), (n, ka, kb)
        # valuations adding up to n or more truncate the product to zero
        f = rand_operand(rng, spec, n, "dense").shift(n // 2)
        g = rand_operand(rng, spec, n, "dense").shift(n - n // 2)
        assert (f * g).is_zero() and reference_mul(f, g).is_zero()
        assert (f * SPoly.zero(spec, n)).is_zero()
        # a monomial factor on either side, at s^0 and at s^(n-1)
        for e in (0, n - 1):
            c = SPoly.monomial(spec, n, e, spec.from_encoding(int(rng.integers(1, spec.q))))
            assert c * f == reference_mul(c, f) and f * c == reference_mul(f, c), (n, e)


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


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2)])
def test_inverse_at_lower_precision_is_a_prefix(p, m):
    # a unit's inverse in F[s]/<s^prec> is its full inverse cut at s^prec
    spec = u.field_make(p, m)
    n = {2: 16, 3: 27, 5: 25, 7: 49}[p]
    rng = np.random.default_rng(100 * p + m)
    for kind in ("constant", "sparse", "dense"):
        for _ in range(3):
            c = rng.integers(0, spec.q, n).astype(np.int16)
            c[0] = rng.integers(1, spec.q)
            c[{"constant": 1, "sparse": 6, "dense": n}[kind] :] = 0
            full = SPoly(spec, n, c).inverse().coeffs
            for prec in (1, 2, n // 2 + 1, n):
                g = SPoly(spec, prec, c[:prec]).inverse().coeffs
                assert np.array_equal(g, full[:prec]), (kind, prec)
                assert _mul_trunc(spec, c, g, prec).tolist() == [1] + [0] * (prec - 1)


def newton_from_one(f):
    """The series inverse by Newton iteration from g = 1/f_0 at precision 1,
    as it ran before the table start."""
    spec, n, c = f.spec, f.n, f.coeffs
    g = np.zeros(n, dtype=np.int16)
    g[0] = spec.inv(int(c[0]))
    if not c[1:].any():
        return SPoly(spec, n, g)
    deg_f = int(c.nonzero()[0][-1])
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        err = spec.neg_table[_mul_trunc(spec, c, g, prec)]
        err[0] = 0
        if not err.any() and deg_f + int(g.nonzero()[0][-1]) < prec:
            break
        g[:prec] = spec.add_table[g[:prec], _mul_trunc(spec, g, err, prec)]
    return SPoly(spec, n, g)


NEWTON_START_FIELDS = [
    (2, 1, None), (3, 1, None), (5, 1, None), (3, 2, None),
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),     # F_256, m^2 = 64 convolutions a product
    (251, 1, None),                          # F_251, the largest digit
]


@pytest.mark.parametrize("p,m,modulus", NEWTON_START_FIELDS)
def test_table_start_gives_the_newton_inverse(p, m, modulus, kernel_calls):
    # the first NEWTON_START coefficients from the table recurrence, Newton
    # from there: the same unique inverse as Newton from precision 1, below
    # NEWTON_START with no kernel call, above it with two per doubling
    spec = kernel_field(p, m, modulus)
    rng = np.random.default_rng(7000 + p + m)
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 64, 251):
        one = SPoly.one(spec, n)
        for kind in ("full", "linear", "sparse"):
            c = np.zeros(n, dtype=np.int16)
            c[0] = rng.integers(1, spec.q)
            if n > 1:
                if kind == "full":
                    c[1:] = rng.integers(0, spec.q, n - 1)
                    c[-1] = rng.integers(1, spec.q)
                elif kind == "linear":
                    c[1] = rng.integers(1, spec.q)
                else:
                    c[rng.integers(1, n)] = rng.integers(1, spec.q)
            f = SPoly(spec, n, c)
            kernel_calls.clear()
            g = f.inverse()
            steps = max(0, int(np.ceil(np.log2(n / NEWTON_START))))
            assert len(kernel_calls) <= 2 * steps, (n, kind)
            assert g == newton_from_one(f), (n, kind)
            assert g * f == one and reference_mul(f, g) == one, (n, kind)


def test_constant_unit_takes_no_kernel_call(kernel_calls):
    for p, m, modulus in NEWTON_START_FIELDS:
        spec = kernel_field(p, m, modulus)
        for n in (1, 2, 5, 8, 9, 64):
            f = SPoly.monomial(spec, n, 0, spec.from_encoding(spec.q - 1))
            g = f.inverse()
            assert not kernel_calls, "a constant unit reached the product kernel"
            assert g.coeffs[1:].tolist() == [0] * (n - 1)
            assert int(spec.mul_table[f.coeffs[0], g.coeffs[0]]) == 1


# --- a stack of rows against one factor ---------------------------------------------

STACK_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (2, 8)]


def rand_stack(rng, spec, n, height):
    """Rows of every kind the kernel cuts differently: zero, dense, a short
    span at a random offset, one reaching s^(n-1), one confined to the top
    coefficients, whose product with a factor of valuation >= 2 truncates
    away entirely."""
    rows = np.zeros((height, n), dtype=np.int16)
    for row in rows:
        kind = rng.integers(5)
        lo = int(rng.integers(0, n))
        hi = {0: lo, 1: n, 2: min(n, lo + int(rng.integers(1, 6))), 3: n, 4: n}[kind]
        lo = {1: 0, 4: n - 2}.get(kind, lo)
        row[lo:hi] = rng.integers(0, spec.q, hi - lo)
        if kind == 3:
            row[n - 1] = rng.integers(1, spec.q)
    return rows


def assert_stacked_equals_row_by_row(spec, a, b, n):
    """One call on the stack b gives, row for row, what one call per row
    gives, and both equal the schoolbook table product."""
    got = _mul_trunc(spec, a, b, n)
    assert got.shape == b.shape
    for row, want in zip(b.reshape(-1, n), got.reshape(-1, n)):
        assert np.array_equal(want, _mul_trunc(spec, a, row, n))
        assert np.array_equal(want, reference_mul(SPoly(spec, n, a), SPoly(spec, n, row)).coeffs)
    return got


def short_factor(rng, spec, n):
    """A factor whose nonzero span is 2 to 8 coefficients long, both ends
    nonzero, at a random offset: short enough to pack, and never a
    monomial, which takes no convolution."""
    a = np.zeros(n, dtype=np.int16)
    span = int(rng.integers(2, min(8, n) + 1))
    lo = int(rng.integers(0, n - span + 1))
    a[lo : lo + span] = rng.integers(0, spec.q, span)
    a[[lo, lo + span - 1]] = rng.integers(1, spec.q, 2)
    return a


@pytest.mark.parametrize("p,m", STACK_FIELDS)
def test_stacked_kernel_equals_the_row_by_row_kernel(p, m, monkeypatch):
    spec = u.field_make(p, m)
    rng = np.random.default_rng(40 * p + m)
    packed = []
    pack = sring._mul_packed
    monkeypatch.setattr(sring, "_mul_packed", lambda *args: packed.append(1) or pack(*args))
    vanished = 0
    for n in kernel_lengths(p):
        for height in (1, 2, 4, 9, 16):
            for kind in ("dense", "sparse", "short", "top"):
                if kind == "short":  # a span of 2 to 8, as packed stacks meet
                    a = short_factor(rng, spec, n)
                else:
                    a = rand_operand(rng, spec, n, kind).coeffs
                b = rand_stack(rng, spec, n, height)
                got = assert_stacked_equals_row_by_row(spec, a, b, n)
                vanished += int((b.any(axis=1) & ~got.any(axis=1)).sum())
        # a (4, n) ring element's parts, and a stack with no nonzero row
        a = rand_operand(rng, spec, n, "sparse").coeffs
        assert_stacked_equals_row_by_row(spec, a, rand_stack(rng, spec, n, 4), n)
        assert not _mul_trunc(spec, a, np.zeros((3, n), dtype=np.int16), n).any()
    assert vanished >= 3  # nonzero rows whose whole product lies past s^(n-1)
    assert len(packed) >= 5  # stacks that went through one packed convolution


def monomial_stack(rng, spec, n, height):
    """Rows of one nonzero coefficient each, at s^0, s^(n-1) or at random,
    and one zero row."""
    rows = np.zeros((height, n), dtype=np.int16)
    for r in range(1, height):
        e = (0, n - 1, int(rng.integers(0, n)))[r % 3]
        rows[r, e] = rng.integers(1, spec.q)
    return rows


@pytest.mark.parametrize("p,m,modulus", KERNEL_FIELDS)
def test_monomial_factors_equal_the_schoolbook_product(p, m, modulus, monkeypatch):
    # a monomial a against stacks, a one-row monomial b, and stacks of
    # monomial rows: the lookups equal the table loop, and a monomial a or
    # one-row b convolves nothing
    spec = kernel_field(p, m, modulus)
    rng = np.random.default_rng(p * 1000 + m + 3)
    convolved, convolve = [], sring._convolve_digits
    monkeypatch.setattr(sring, "_convolve_digits",
                        lambda *args: convolved.append(1) or convolve(*args))
    for n in kernel_lengths(p):
        convolved.clear()
        for height in (1, 4, 9):
            a = rand_operand(rng, spec, n, "monomial").coeffs
            assert_stacked_equals_row_by_row(spec, a, rand_stack(rng, spec, n, height), n)
        assert not convolved
        for kind in ("dense", "sparse", "shifted", "top"):
            a = rand_operand(rng, spec, n, kind).coeffs
            b = rand_operand(rng, spec, n, "monomial").coeffs[None]
            assert_stacked_equals_row_by_row(spec, a, b, n)
            assert not convolved
            for height in (2, 5, 9):
                assert_stacked_equals_row_by_row(spec, a, monomial_stack(rng, spec, n, height), n)
            convolved.clear()  # a packed stack convolves its rows, monomial or not
        # a packed stack of monomial rows
        a, b = short_factor(rng, spec, n), monomial_stack(rng, spec, n, 6)
        assert_stacked_equals_row_by_row(spec, a, b, n)


@pytest.mark.parametrize("p,m,n", [(2, 1, 512), (2, 2, 512), (5, 1, 625), (3, 1, 729)])
def test_stacked_kernel_with_a_factor_too_long_to_pack(p, m, n):
    # a factor longer than PACK_SPAN is convolved with each row on its own
    spec = u.field_make(p, m)
    rng = np.random.default_rng(n + m)
    for kind in ("dense", "shifted"):
        a = rand_operand(rng, spec, n, kind).coeffs.copy()
        a[n // 3] = 1
        assert np.flatnonzero(a)[-1] - np.flatnonzero(a)[0] >= PACK_SPAN
        assert_stacked_equals_row_by_row(spec, a, rand_stack(rng, spec, n, 5), n)
    a = rand_operand(rng, spec, n, "sparse").coeffs
    assert_stacked_equals_row_by_row(spec, a, rand_stack(rng, spec, n, 4), n)


def test_stacked_kernel_is_exact_at_the_largest_sums():
    # F_251 at n = 251 with dense operands: every coefficient p - 1, or random
    # and nonzero, gives the largest sums a row meets, both for a factor too
    # long to pack and for a packed stack against a factor of span PACK_SPAN
    spec = u.field_make(251, 1)
    n = 251
    rng = np.random.default_rng(251)
    short = np.zeros(n, dtype=np.int16)
    short[:PACK_SPAN] = 250
    for a, b in [
        (np.full(n, 250, dtype=np.int16), np.full((3, n), 250, dtype=np.int16)),
        (rng.integers(1, 251, n).astype(np.int16), rng.integers(1, 251, (5, n)).astype(np.int16)),
        (short, np.full((6, n), 250, dtype=np.int16)),
        (short, rng.integers(1, 251, (5, n)).astype(np.int16)),
    ]:
        assert_stacked_equals_row_by_row(spec, a, b, n)
    # the prime-field route's largest sum: coefficient k of (-1 - s - ... -
    # s^250)^2 sums k + 1 terms 250^2 = 1 mod 251, the last 250^2 * 251
    full = np.full(n, 250, dtype=np.int16)
    assert _mul_trunc(spec, full, full, n).tolist() == [(k + 1) % 251 for k in range(n)]


def test_prime_field_sums_fit_the_integer_reduction():
    # the prime-field route reduces its float64 sums, below (p - 1)^2 n, in
    # the integer dtype _convolve_digits returns: for every prime p <= MAX_Q
    # and length p^k <= MAX_N that bound must fit it, so a larger MAX_N
    # fails here instead of wrapping a sum
    ones = np.ones(2, dtype=np.int16)
    primes = [p for p in range(2, MAX_Q + 1) if all(p % d for d in range(2, p))]
    assert primes[-1] == 251
    for p in primes:
        dtype = sring._convolve_digits(u.field_make(p, 1), ones, ones, 3).dtype
        assert dtype.kind == "i", (p, dtype)
        n = p
        while n <= sring.MAX_N:
            assert (p - 1) ** 2 * n <= np.iinfo(dtype).max, (p, n, dtype)
            n *= p


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
    f = SPoly.from_ints(F4, 8, [1, 0, F4.element([1, 1])])
    assert str(f) == "1 + (a+1)*s^2"
    assert f.to_string("(x-1)") == "1 + (a+1)*(x-1)^2"
    assert str(SPoly.zero(F4, 8)) == "0"
