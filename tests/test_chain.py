import random

import numpy as np
import pytest

import u4codes as u
from u4codes import chain, codes, torsion
from u4codes.chain import RingElement
from u4codes.errors import LengthMismatch, MixedLength, OutOfRange
from u4codes.parsing import parse_expression
from u4codes.sring import SPoly, decompose


def rand_relem(rng, spec, n):
    return RingElement.from_parts(
        tuple(
            SPoly(spec, n, np.array([rng.randrange(spec.q) for _ in range(n)], dtype=np.int16))
            for _ in range(4)
        )
    )


def test_u4_truncates(F2):
    u2 = RingElement.from_part(2, SPoly.one(F2, 4))
    assert (u2 * u2).is_zero()


def test_from_part_checks_level(F2):
    one = SPoly.one(F2, 4)
    with pytest.raises(ValueError):
        RingElement.from_part(-1, one)
    assert RingElement.from_part(4, one).is_zero()


def test_u_shift(F2):
    x = RingElement.from_part(1, SPoly.monomial(F2, 4, 3)) + RingElement.from_part(
        2, SPoly.one(F2, 4)
    )
    got = x * RingElement.from_part(1, SPoly.one(F2, 4))
    want = RingElement.from_part(2, SPoly.monomial(F2, 4, 3)) + RingElement.from_part(
        3, SPoly.one(F2, 4)
    )
    assert got == want


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
        assert x.shift_mul(a, b) == x * mult


def test_shift_examples(F2):
    x = RingElement.from_part(2, SPoly.monomial(F2, 4, 2)) + RingElement.from_part(
        3, SPoly.monomial(F2, 4, 1)
    )
    assert x.shift_mul(1, 1) == RingElement.from_part(3, SPoly.monomial(F2, 4, 3))
    assert x.shift_mul(0, 0) == x


def test_ring_axioms_random(F4):
    rng = random.Random(3)
    for _ in range(120):
        x, y, z = (rand_relem(rng, F4, 8) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_vector_roundtrip(F3):
    rng = random.Random(4)
    for _ in range(50):
        x = rand_relem(rng, F3, 9)
        # the flat layout a0 || a1 || a2 || a3 of the span basis rows
        flat = x.coeffs.reshape(-1)
        assert all(np.array_equal(flat[9 * b : 9 * b + 9], x.parts[b].coeffs) for b in range(4))
        assert RingElement(F3, 9, flat.reshape(4, -1)) == x


def test_part_count_enforced(F2):
    with pytest.raises(MixedLength):
        RingElement.from_parts((SPoly.one(F2, 4), SPoly.one(F2, 4)))


def test_display(F2):
    x = RingElement.from_part(0, SPoly.from_ints(F2, 4, [1, 1])) + RingElement.from_part(
        3, SPoly.monomial(F2, 4, 2)
    )
    assert str(x) == "1 + s + u^3*(s^2)"
    assert str(RingElement.zero(F2, 4)) == "0"


def test_pow(F2):
    assert parse_expression(F2, 4, "s^4") == RingElement.zero(F2, 4)
    assert parse_expression(F2, 4, "u^3") == RingElement.from_part(3, SPoly.one(F2, 4))
    assert parse_expression(F2, 4, "u^4") == RingElement.zero(F2, 4)


# --- references: the SPoly-quadruple arithmetic that the (4, n) array replaced ---


def reference_mul(x, y):
    """The product of the quadruple representation, verbatim."""
    z = SPoly.zero(x.spec, x.n)
    out = [z, z, z, z]
    for i, a in enumerate(x.parts):
        if a.is_zero():
            continue
        for j in range(4 - i):
            b = y.parts[j]
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * b
    return RingElement.from_parts(out)


def reference_poly_mul(x, f):
    return RingElement.from_parts(tuple(a * f for a in x.parts))


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
        f = rand_sparse_relem(rng, spec, n).parts[rng.randrange(4)]
        assert x * y == reference_mul(x, y)
        assert x.poly_mul(f) == reference_poly_mul(x, f)


def reference_power(base, e):
    """base^e by repeated multiplication."""
    out = RingElement.constant(base.spec, base.n, 1)
    for _ in range(e):
        out = reference_mul(out, base)
    return out


@pytest.mark.parametrize("p,m,k", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 1)])
def test_parser_powers_match_repeated_multiplication(p, m, k):
    spec, n = u.field_make(p, m), p**k
    bases = {name: parse_expression(spec, n, name) for name in ("u", "s", "(x-1)", "a")}
    for name, base in bases.items():
        for e in range(6 if name == "u" else n + 2):
            assert parse_expression(spec, n, f"{name}^{e}") == reference_power(base, e), (name, e)


def test_parser_huge_exponents():
    # 4000 digits: a power is one monomial, not a chain of squarings
    spec, e = u.field_make(2, 3), int("9" * 4000)
    assert parse_expression(spec, 8, f"u^{e}").is_zero()
    assert parse_expression(spec, 8, f"(x-1)^{e}").is_zero()
    a_e = RingElement.constant(spec, 8, spec.gen() ** (e % (spec.q - 1)))
    assert a_e != RingElement.constant(spec, 8, 1)
    assert parse_expression(spec, 8, f"a^{e}") == a_e
    assert parse_expression(spec, 8, f"u^3*a^{e}") == a_e.shift_mul(0, 3)


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
    assert x.is_zero() and not x.coeffs.flags.writeable


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
    # every pivot that the echelon form and the u^2-part eliminations scale:
    # h = x times the full-length inverse of the unit part, and h[c] = s^v
    spec = u.field_make(p, m)
    pivots = []

    def recording(module):
        def monic(field, x, c):
            v, h = chain._monic(field, x, c)
            pivots.append((module, x.copy(), c, v, h.copy()))
            return v, h

        monkeypatch.setattr(module, "_monic", monic)

    recording(codes)
    recording(torsion)
    rng = random.Random(700 + 100 * p + 10 * m + k)
    for _ in range(40):
        code = u.random_code(rng, spec, k)
        u.span_basis(code)
        u.t3(code)
    # non-constant units: echelon pivots, level-1 eliminations, u^2-part members
    scaled = {(codes, 3): 0, (torsion, 1): 0, (torsion, 2): 0}
    for module, x, c, v, h in pivots:
        n = x.shape[1]
        unit = decompose(SPoly(spec, n, x[c])).unit_part
        assert np.array_equal(h, RingElement(spec, n, x).poly_mul(unit.inverse()).coeffs)
        assert np.array_equal(h[c], SPoly.monomial(spec, n, v).coeffs)
        scaled[module, 3 if module is codes else c] += bool(unit.coeffs[1:].any())
    assert min(scaled.values()) >= 3
