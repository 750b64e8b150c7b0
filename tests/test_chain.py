import random
from collections import Counter

import numpy as np
import pytest

import u4codes as u
from u4codes import chain, torsion
from u4codes.chain import RingElement, _mul
from u4codes.errors import InconsistentSet, LengthMismatch, MixedLength, OutOfRange
from u4codes.parsing import _ExprParser
from u4codes.sring import SPoly, _mul_trunc, decompose


def rand_relem(rng, spec, n):
    return RingElement(spec, n, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(4)])


def test_u4_truncates(F2):
    u2 = RingElement.from_part(2, SPoly.one(F2, 4)).coeffs
    assert not _mul(F2, u2, u2).any()


def test_from_part_checks_level(F2):
    one = SPoly.one(F2, 4)
    with pytest.raises(ValueError):
        RingElement.from_part(-1, one)
    assert not RingElement.from_part(4, one).coeffs.any()


def test_u_shift(F2):
    x = RingElement.from_part(1, SPoly.monomial(F2, 4, 3)) + RingElement.from_part(
        2, SPoly.one(F2, 4)
    )
    got = _mul(F2, x.coeffs, RingElement.from_part(1, SPoly.one(F2, 4)).coeffs)
    want = RingElement.from_part(2, SPoly.monomial(F2, 4, 3)) + RingElement.from_part(
        3, SPoly.one(F2, 4)
    )
    assert np.array_equal(got, want.coeffs)


def test_derived_mixed_product_with_truncation(F4):
    # (u s^6 + u^2 s(1+s) + u^3 a s^2) * s^2 over n = 8: the u-part dies at s^8
    a = F4.gen()
    x = (
        RingElement.from_part(1, SPoly.monomial(F4, 8, 6))
        + RingElement.from_part(2, SPoly.from_ints(F4, 8, [0, 1, 1]))
        + RingElement.from_part(3, SPoly.monomial(F4, 8, 2, a))
    )
    got = x.shift_mul(2, 0)
    want = RingElement.from_part(2, SPoly.from_ints(F4, 8, [0, 0, 0, 1, 1])) + RingElement.from_part(
        3, SPoly.monomial(F4, 8, 4, a)
    )
    assert got == want
    # cross-check with the span oracle: x generates a code and the product
    # is a member of it
    code = u.validate_canonical(
        F4, 3,
        u.GeneratorForm(r1=6, k4=1, p4=SPoly.from_ints(F4, 8, [1, 1]),
                        k5=2, p5=SPoly.from_ints(F4, 8, [a])),
    )
    assert code.generator(1) == x
    assert u.contains(u.span_basis(code), got)


def test_shift_mul_equals_explicit_multiplier(F3):
    rng = random.Random(21)
    for _ in range(150):
        x = rand_relem(rng, F3, 9)
        a, b = rng.randrange(10), rng.randrange(4)
        mult = RingElement.from_part(b, SPoly.monomial(F3, 9, a))
        assert np.array_equal(x.shift_mul(a, b).coeffs, _mul(F3, x.coeffs, mult.coeffs))


def test_shift_examples(F2):
    x = RingElement.from_part(2, SPoly.monomial(F2, 4, 2)) + RingElement.from_part(
        3, SPoly.monomial(F2, 4, 1)
    )
    assert x.shift_mul(1, 1) == RingElement.from_part(3, SPoly.monomial(F2, 4, 3))
    assert x.shift_mul(0, 0) == x


def test_ring_axioms_random(F4):
    rng = random.Random(3)
    add = F4.add_table
    for _ in range(120):
        x, y, z = (rand_relem(rng, F4, 8).coeffs for _ in range(3))
        assert np.array_equal(_mul(F4, x, y), _mul(F4, y, x))
        assert np.array_equal(_mul(F4, _mul(F4, x, y), z), _mul(F4, x, _mul(F4, y, z)))
        assert np.array_equal(_mul(F4, x, add[y, z]), add[_mul(F4, x, y), _mul(F4, x, z)])


def test_vector_roundtrip(F3):
    rng = random.Random(4)
    for _ in range(50):
        x = rand_relem(rng, F3, 9)
        # the flat layout a0 || a1 || a2 || a3 of the span basis rows
        flat = x.coeffs.reshape(-1)
        assert all(np.array_equal(flat[9 * b : 9 * b + 9], x.coeffs[b]) for b in range(4))
        assert RingElement(F3, 9, flat.reshape(4, -1)) == x


def test_part_count_enforced(F2):
    with pytest.raises(MixedLength):
        RingElement(F2, 4, [SPoly.one(F2, 4).coeffs] * 2)


def test_pow(F2):
    assert not _ExprParser(F2, 4, "s^4", 1).parse().any()
    u3 = RingElement.from_part(3, SPoly.one(F2, 4)).coeffs
    assert np.array_equal(_ExprParser(F2, 4, "u^3", 1).parse(), u3)
    assert not _ExprParser(F2, 4, "u^4", 1).parse().any()


# --- references: the SPoly-quadruple arithmetic that the (4, n) array replaced ---


def reference_mul(spec, x, y):
    """The product of two (4, n) arrays in the quadruple representation:
    part i + j collects the SPoly products of parts i and j."""
    n = x.shape[1]
    out = np.zeros((4, n), dtype=np.int16)
    for i in range(4):
        for j in range(4 - i):
            prod = SPoly(spec, n, x[i]) * SPoly(spec, n, y[j])
            out[i + j] = spec.add_table[out[i + j], prod.coeffs]
    return out


def reference_poly_mul(x, f):
    return RingElement(x.spec, x.n, [(SPoly(x.spec, x.n, part) * f).coeffs for part in x.coeffs])


def rand_sparse_relem(rng, spec, n):
    """A random element whose u-adic parts are each zero with probability 1/2."""
    arr = rand_relem(rng, spec, n).coeffs.copy()
    arr[[rng.random() < 0.5 for _ in range(4)]] = 0
    return RingElement(spec, n, arr)


@pytest.mark.parametrize("p,m,n", [(2, 1, 8), (3, 1, 9), (2, 2, 8), (5, 1, 25), (2, 3, 16)])
def test_mul_matches_reference(p, m, n):
    spec = u.field_make(p, m)
    rng = random.Random(10 * p + m)
    for _ in range(60):
        x, y = rand_sparse_relem(rng, spec, n), rand_sparse_relem(rng, spec, n)
        f = SPoly(spec, n, rand_sparse_relem(rng, spec, n).coeffs[rng.randrange(4)])
        assert np.array_equal(_mul(spec, x.coeffs, y.coeffs), reference_mul(spec, x.coeffs, y.coeffs))
        assert x.poly_mul(f) == reference_poly_mul(x, f)


def reference_power(spec, base, e):
    """base^e by repeated multiplication."""
    out = RingElement.from_part(0, SPoly.one(spec, base.shape[1])).coeffs
    for _ in range(e):
        out = reference_mul(spec, out, base)
    return out


@pytest.mark.parametrize("p,m,k", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 1)])
def test_parser_powers_match_repeated_multiplication(p, m, k):
    spec, n = u.field_make(p, m), p**k
    bases = {name: _ExprParser(spec, n, name, 1).parse() for name in ("u", "s", "(x-1)", "a")}
    for name, base in bases.items():
        for e in range(6 if name == "u" else n + 2):
            got = _ExprParser(spec, n, f"{name}^{e}", 1).parse()
            assert np.array_equal(got, reference_power(spec, base, e)), (name, e)


def test_parser_huge_exponents():
    # 4000 digits: a power is one monomial, not a chain of squarings
    spec, e = u.field_make(2, 3), int("9" * 4000)
    assert not _ExprParser(spec, 8, f"u^{e}", 1).parse().any()
    assert not _ExprParser(spec, 8, f"(x-1)^{e}", 1).parse().any()
    a_e = spec.from_encoding(spec.pow(spec.gen().encoding, e % (spec.q - 1)))
    a_e = RingElement.from_part(0, SPoly.monomial(spec, 8, 0, a_e))
    assert a_e != RingElement.from_part(0, SPoly.one(spec, 8))
    assert np.array_equal(_ExprParser(spec, 8, f"a^{e}", 1).parse(), a_e.coeffs)
    assert np.array_equal(_ExprParser(spec, 8, f"u^3*a^{e}", 1).parse(), a_e.shift_mul(0, 3).coeffs)


def test_constructor_checks_shape(F2):
    with pytest.raises(MixedLength):
        RingElement(F2, 4, np.zeros((3, 4), dtype=np.int16))
    with pytest.raises(LengthMismatch):
        RingElement(F2, 4, np.zeros((4, 5), dtype=np.int16))
    with pytest.raises(LengthMismatch):
        RingElement(F2, 4, np.zeros(20, dtype=np.int16).reshape(4, -1))
    arr = np.zeros((4, 4), dtype=np.int16)
    x = RingElement(F2, 4, arr)
    arr[0, 0] = 1
    assert not x.coeffs.any() and not x.coeffs.flags.writeable


def test_constructor_rejects_encodings_out_of_range(F2, F4):
    for spec, bad in ((F2, 2), (F2, -1), (F4, 4)):
        arr = np.zeros((4, 4), dtype=np.int16)
        arr[2, 1] = bad
        with pytest.raises(OutOfRange):
            RingElement(spec, 4, arr)
    # checked before the int16 cast, which would wrap, truncate or overflow
    for dtype, bad in ((np.int64, 65537), (float, 1.7), (np.int64, 70000)):
        arr = np.zeros((4, 4), dtype=dtype)
        arr[2, 1] = bad
        with pytest.raises(OutOfRange):
            RingElement(F2, 4, arr)
    with pytest.raises(OutOfRange):
        RingElement(F2, 4, [[70000, 0, 0, 0]] + [[0] * 4] * 3)


# --- the pivot-and-clear step -----------------------------------------------------


@pytest.mark.parametrize("p,m,k", [(2, 1, 3), (3, 1, 2), (2, 2, 3), (5, 1, 2), (3, 2, 2)])
def test_monic_scales_by_the_full_inverse(p, m, k, monkeypatch):
    # every pivot that the level-1 eliminations of the u^2-part sets scale,
    # once per pivot, the one caller of _monic left: h = x times the
    # full-length inverse of the unit part, and h[c] = s^v
    spec = u.field_make(p, m)
    pivots = []

    def monic(field, x, c):
        v, h = chain._monic(field, x, c)
        pivots.append((x.copy(), c, v, h.copy()))
        return v, h

    monkeypatch.setattr(torsion, "_monic", monic)
    rng = random.Random(700 + 100 * p + 10 * m + k)
    for _ in range(40):
        code = u.random_code(rng, spec, k)
        u.span_basis(code)
        u.t3(code)
    non_constant = 0
    for x, c, v, h in pivots:
        n = x.shape[1]
        assert c == 1
        unit = decompose(SPoly(spec, n, x[c])).unit_part
        assert np.array_equal(h, RingElement(spec, n, x).poly_mul(unit.inverse()).coeffs)
        assert np.array_equal(h[c], SPoly.monomial(spec, n, v).coeffs)
        non_constant += bool(unit.coeffs[1:].any())
    assert non_constant >= 3


@pytest.mark.parametrize("p,m,n", [(2, 1, 8), (3, 1, 9), (2, 2, 8), (5, 1, 25), (3, 2, 9)])
def test_clear_is_the_fraction_free_step(p, m, n):
    # r <- w r - (r[c] >> v) h for a head h[c] = s^v w, checked against the
    # ring's own arithmetic; w is non-constant, a constant != 1 (q > 2) or 1
    spec = u.field_make(p, m)
    rng = random.Random(900 + 100 * p + 10 * m + n)
    kinds = Counter()
    for trial in range(90):
        c, v = rng.randrange(4), rng.randrange(n - 1)
        w = np.zeros(n, dtype=np.int16)
        w[0] = 1 if trial % 3 == 0 else rng.randrange(1, spec.q)
        if trial % 3 == 1:
            w[1 : n - v] = [rng.randrange(spec.q) for _ in range(n - v - 1)]
            w[n - v - 1] = rng.randrange(1, spec.q)
        kinds["unit" if w[1:].any() else "constant" if w[0] != 1 else "one"] += 1
        h = rand_relem(rng, spec, n).coeffs.copy()
        h[:c] = 0
        h[c] = SPoly(spec, n, w).shift(v).coeffs
        r = rand_sparse_relem(rng, spec, n).coeffs.copy()
        r[:c] = r[c, :v] = 0
        q = np.zeros(n, dtype=np.int16)
        q[: n - v] = r[c, v:]
        ring = lambda f: RingElement.from_part(0, SPoly(spec, n, f)).coeffs
        want = spec.sub_table[_mul(spec, ring(w), r), _mul(spec, ring(q), h)]
        got = r.copy()
        chain._clear(spec, got, c, v, h)
        assert np.array_equal(got, want)
        assert not got[c].any()
    assert kinds["unit"] == 30 and kinds["one"] >= 30
    assert kinds["constant"] >= 10 or spec.q == 2


def clear_one_row(field, r, c, v, h):
    """The pivot-and-clear step on one (4, n) row, one product per part:
    the reference for the stacked step."""
    n = r.shape[1]
    if r[c, :v].any() or h[c, :v].any() or not h[c, v]:
        raise InconsistentSet(f"column {c} is not cleared by a head at s^{v}")
    w = np.zeros(n, dtype=np.int16)
    w[: n - v] = h[c, v:]
    q = np.zeros(n, dtype=np.int16)
    q[: n - v] = r[c, v:]
    r[c] = 0
    unit, lead = w[1:].any(), int(w[0])
    for j in range(c + 1, 4):
        if r[j].any():
            if unit:
                r[j] = _mul_trunc(field, w, r[j], n)
            elif lead != 1:
                r[j] = field.mul_table[lead, r[j]]
        if h[j].any():
            r[j] = field.sub_table[r[j], _mul_trunc(field, q, h[j], n)]


def rand_head_and_stack(rng, spec, n, height, w_kind):
    """A head h, zero before column c with h[c] = s^v w, and a stack of rows
    zero before c with r[c] a multiple of s^v (some rows zero in column c)."""
    c, v = rng.randrange(4), rng.randrange(n - 1)
    w = np.zeros(n, dtype=np.int16)
    w[0] = 1 if w_kind == "one" else rng.randrange(1 if spec.q == 2 else 2, spec.q)
    if w_kind == "unit":
        w[1 : n - v] = [rng.randrange(spec.q) for _ in range(n - v - 1)]
    h = rand_sparse_relem(rng, spec, n).coeffs.copy()
    h[:c] = 0
    h[c] = SPoly(spec, n, w).shift(v).coeffs
    stack = np.array([rand_sparse_relem(rng, spec, n).coeffs for _ in range(height)])
    stack[:, :c] = 0
    stack[:, c, :v] = 0
    return c, v, h, stack


@pytest.mark.parametrize("p,m,n", [(2, 1, 16), (3, 1, 27), (2, 2, 8), (5, 1, 25), (3, 2, 9), (2, 8, 4)])
def test_stacked_clear_equals_the_one_row_clear(p, m, n):
    spec = u.field_make(p, m)
    rng = random.Random(1100 + 100 * p + 10 * m + n)
    for trial in range(60):
        height = rng.choice([1, 2, 3, 5, 8])
        w_kind = ("unit", "constant", "one")[trial % 3]
        c, v, h, stack = rand_head_and_stack(rng, spec, n, height, w_kind)
        want = stack.copy()
        for row in want:
            clear_one_row(spec, row, c, v, h)
        got = stack.copy()
        chain._clear(spec, got, c, v, h)
        assert np.array_equal(got, want), (trial, c, v, w_kind)
        one = stack[0].copy()
        chain._clear(spec, one, c, v, h)  # a single (4, n) row
        assert np.array_equal(one, want[0])


@pytest.mark.parametrize("p,m,n", [(2, 1, 16), (3, 1, 9), (2, 2, 8), (5, 1, 25)])
def test_one_bad_row_leaves_the_whole_stack_unchanged(p, m, n):
    # the guard reads column c of every row before the step writes any
    spec = u.field_make(p, m)
    rng = random.Random(1300 + 100 * p + 10 * m + n)
    for trial in range(30):
        c, v, h, stack = rand_head_and_stack(rng, spec, n, rng.choice([2, 4, 7]), "unit")
        if v == 0:
            continue
        bad = rng.randrange(len(stack))
        stack[bad, c, rng.randrange(v)] = rng.randrange(1, spec.q)
        before = stack.copy()
        with pytest.raises(InconsistentSet):
            chain._clear(spec, stack, c, v, h)
        assert np.array_equal(stack, before), (trial, bad)
