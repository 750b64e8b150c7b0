"""Arithmetic in the coefficient field F_{p^m}.

A field is described by a monic irreducible modulus over F_p, by default the
first one of degree m in ``_monic_polys`` order.  Elements are polynomials in
a root ``a`` of the modulus, encoded as integers in [0, q): the base-p digits
of the encoding are the coefficients, lowest degree first.  All binary
operations are table driven (q <= 256), so bulk vector arithmetic reduces to
numpy fancy indexing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeOutOfRange, DivisionByZero, NonPrime, NotMonic, Reducible, U4CodesError

MAX_P = 251
MAX_Q = 256


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num mod den over F_p (coefficients lowest degree first)."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        f = (c * inv_lead) % p
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    rem = [c % p for c in num[:dd]]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _monic_polys(degree: int, p: int):
    """All monic polynomials over F_p of the given degree, low coeffs first."""
    for idx in range(p**degree):
        coeffs = []
        v = idx
        for _ in range(degree):
            coeffs.append(v % p)
            v //= p
        yield coeffs + [1]


def _check_size(p: int, m: int) -> None:
    """p prime and 1 <= m with q = p^m <= MAX_Q.  The bounds come first, so
    that no huge p is trial-divided and no huge power is formed (p >= 2, so
    m >= bit_length(MAX_Q) already means q > MAX_Q)."""
    if p <= MAX_P and not _is_prime(p):
        raise NonPrime(p)
    if p > MAX_P or not 1 <= m < MAX_Q.bit_length() or p**m > MAX_Q:
        raise DegreeOutOfRange(f"p={p}, m={m} outside supported range (q <= {MAX_Q})")


def _factor(modulus, p: int):
    """A monic factor of degree 1..m//2, None when the modulus is irreducible.

    Trial division: a nontrivial factorization must contain such a factor."""
    for d in range(1, (len(modulus) - 1) // 2 + 1):
        for cand in _monic_polys(d, p):
            if not _poly_rem(list(modulus), cand, p):
                return cand
    return None


class FieldSpec:
    """Validated description of F_{p^m} plus its operation tables.

    Immutable; instances compare and hash by (p, m, modulus).
    """

    def __init__(self, p: int, m: int, modulus):
        _check_size(p, m)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise NotMonic(f"modulus must be monic of degree {m}")
        witness = _factor(modulus, p)
        if witness is not None:
            raise Reducible(modulus, witness)
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self._build_tables()

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    # -- tables -----------------------------------------------------------

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        powers = p ** np.arange(m, dtype=np.int64)
        digs = np.zeros((q, m), dtype=np.int64)
        v = np.arange(q)
        for i in range(m):
            digs[:, i] = v % p
            v //= p
        self._digits = digs

        def enc(digit_array):
            return (digit_array % p) @ powers

        self.add_table = enc(digs[:, None, :] + digs[None, :, :]).astype(np.int16)
        self.neg_table = enc(-digs).astype(np.int16)
        self.sub_table = self.add_table[:, self.neg_table]
        # scalar (prime subfield) multiples, for the products below
        smul = enc(np.arange(p)[:, None, None] * digs[None, :, :]).astype(np.int16)

        # multiplication by x modulo the modulus, then full q x q products
        shifted = np.concatenate([np.zeros((q, 1), dtype=np.int64), digs[:, :-1]], axis=1)
        carry = digs[:, m - 1]
        xmul = enc(shifted - carry[:, None] * np.asarray(self.modulus[:m]))
        mul = np.zeros((q, q), dtype=np.int16)
        xpow = np.arange(q, dtype=np.int16)  # x^0 * e
        for i in range(m):
            term = smul[digs[:, i]][:, xpow]
            mul = self.add_table[mul, term]
            xpow = xmul[xpow].astype(np.int16)
        self.mul_table = mul

        inv = np.argmax(self.mul_table == 1, axis=1).astype(np.int16)
        inv[0] = 0
        if not np.all(self.mul_table[np.arange(1, q), inv[1:]] == 1):
            raise U4CodesError(f"{self!r}: a nonzero element has no inverse")
        self.inv_table = inv

        # Digit tables for sring's convolution kernel: digit_rows[i, e] is
        # digit i of encoding e, and pow_digits[i, k] is digit i of a^k for
        # k < 2m - 1, the degrees a product of two digit vectors reaches.
        # They are float64 so np.convolve and np.dot run on BLAS dot products;
        # every value the kernel forms is an integer below 2^53, so the
        # float arithmetic is exact.
        apow = [1]
        for _ in range(2 * m - 2):
            apow.append(int(xmul[apow[-1]]))
        self.digit_rows = digs.T.astype(np.float64, order="C")
        self.pow_digits = digs[apow].T.astype(np.float64, order="C")
        self.digit_weights = powers.astype(np.float64)

    # -- scalar operations on encodings ------------------------------------

    def add(self, x: int, y: int) -> int:
        return int(self.add_table[x, y])

    def sub(self, x: int, y: int) -> int:
        return int(self.sub_table[x, y])

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[x, y])

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("inverse of 0")
        return int(self.inv_table[x])

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        r, b = 1, x
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    # -- element helpers ----------------------------------------------------

    def encode(self, coeffs) -> int:
        v = 0
        for c in reversed(list(coeffs)):
            v = v * self.p + (int(c) % self.p)
        return v

    def decode(self, e: int) -> tuple[int, ...]:
        return tuple(int(d) for d in self._digits[e])

    def element(self, value) -> "FieldElement":
        """Coerce an integer (reduced mod p) or coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                from .errors import MixedField

                raise MixedField("element from a different field")
            return value
        if isinstance(value, (int, np.integer)):
            coeffs = [int(value) % self.p] + [0] * (self.m - 1)
            return FieldElement(self, tuple(coeffs))
        return FieldElement(self, tuple(int(c) % self.p for c in value))

    def from_encoding(self, e: int) -> "FieldElement":
        return FieldElement(self, self.decode(int(e)))

    def gen(self) -> "FieldElement":
        """The root `a` of the modulus (equals 0 for m = 1 with modulus x)."""
        if self.m == 1:
            return self.element(-self.modulus[0] % self.p)
        return FieldElement(self, tuple(1 if i == 1 else 0 for i in range(self.m)))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.m)

    def one(self) -> "FieldElement":
        return FieldElement(self, tuple(1 if i == 0 else 0 for i in range(self.m)))

    def elements(self):
        for e in range(self.q):
            yield FieldElement(self, self.decode(e))


@dataclass(frozen=True)
class FieldElement:
    """An element of F_{p^m}, stored as m coefficients of powers of `a`."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.spec.m:
            raise DegreeOutOfRange("element must have exactly m coefficients")

    @property
    def encoding(self) -> int:
        return self.spec.encode(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                from .errors import MixedField

                raise MixedField("mixed fields in element arithmetic")
            return other
        return self.spec.element(other)

    def __add__(self, other):
        o = self._coerce(other)
        return _from_enc(self.spec, self.spec.add(self.encoding, o.encoding))

    def __sub__(self, other):
        o = self._coerce(other)
        return _from_enc(self.spec, self.spec.sub(self.encoding, o.encoding))

    def __neg__(self):
        return _from_enc(self.spec, self.spec.neg(self.encoding))

    def __mul__(self, other):
        o = self._coerce(other)
        return _from_enc(self.spec, self.spec.mul(self.encoding, o.encoding))

    def __truediv__(self, other):
        o = self._coerce(other)
        return _from_enc(self.spec, self.spec.div(self.encoding, o.encoding))

    def __pow__(self, e: int):
        return _from_enc(self.spec, self.spec.pow(self.encoding, e))

    def inverse(self):
        return _from_enc(self.spec, self.spec.inv(self.encoding))

    def __str__(self):
        terms = []
        for i in range(self.spec.m - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"<{self} in F_{self.spec.q}>"


def _from_enc(spec: FieldSpec, e: int) -> FieldElement:
    return FieldElement(spec, spec.decode(e))


def field_make(p: int, m: int, modulus=None) -> FieldSpec:
    """Build a validated FieldSpec.  The default modulus is the first monic
    irreducible polynomial of degree m in ``_monic_polys`` order."""
    if modulus is None:
        _check_size(p, m)
        modulus = next(f for f in _monic_polys(m, p) if _factor(f, p) is None)
    return FieldSpec(p, m, modulus)
