"""Arithmetic in the coefficient field F_{p^m}.

A field is described by a monic irreducible modulus over F_p, by default the
first one of degree m in ``_monic_polys`` order (irreducible by its search,
so it is not trial-divided again).  Elements are polynomials in a root ``a``
of the modulus, encoded as integers in [0, q): the base-p digits of the
encoding are the coefficients, lowest degree first.  All arithmetic is
table driven (q <= 256) and runs on encodings: a scalar operation is one
table lookup, and bulk vector arithmetic reduces to numpy fancy indexing.
A ``FieldElement`` holds one encoding, to coerce and display it; a field
renders each of its q elements once, into ``FieldSpec.labels``, and prints
coefficients from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegreeOutOfRange,
    DivisionByZero,
    MixedField,
    NonPrime,
    NotMonic,
    OutOfRange,
    Reducible,
    U4CodesError,
)

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

    A modulus of None takes the default one (``field_make``).  Immutable,
    tables included (read-only arrays, and nested tuples for the Python
    copies); instances compare and hash by (p, m, modulus).
    """

    def __init__(self, p: int, m: int, modulus):
        _check_size(p, m)
        if modulus is None:
            # the default is irreducible by construction: no second trial division
            modulus = tuple(next(f for f in _monic_polys(m, p) if _factor(f, p) is None))
        else:
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
        # field_make shares one instance per field, so no caller may write a table
        for table in (v for v in vars(self).values() if isinstance(v, np.ndarray)):
            table.flags.writeable = False

    # The parser's scalar lookups and the display labels are built on first
    # use, once per field, so that building a field's tables does not pay
    # for them.

    @cached_property
    def add_rows(self) -> tuple[tuple[int, ...], ...]:
        """add_table as nested tuples of Python ints: ``add_rows[x][y]``."""
        return tuple(map(tuple, self.add_table.tolist()))

    @cached_property
    def mul_rows(self) -> tuple[tuple[int, ...], ...]:
        """mul_table as nested tuples of Python ints: ``mul_rows[x][y]``."""
        return tuple(map(tuple, self.mul_table.tolist()))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The display label of each encoding, as a coefficient: ``str`` of
        its ``FieldElement``, in parentheses when that is a sum."""
        labels = (str(FieldElement(self, e)) for e in range(self.q))
        return tuple(f"({label})" if "+" in label else label for label in labels)

    # -- scalar operations on encodings ------------------------------------

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("inverse of 0")
        return int(self.inv_table[x])

    def pow(self, x: int, e: int) -> int:
        if e < 0:  # the loop below would not end
            raise ValueError("negative exponent")
        r, b = 1, x
        while e:
            if e & 1:
                r = int(self.mul_table[r, b])
            b = int(self.mul_table[b, b])
            e >>= 1
        return r

    # -- element helpers ----------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce a FieldElement of this field, an integer (reduced mod p) or
        a list, tuple or 1-d array of m integer coefficients; anything else,
        a float or a string say, raises OutOfRange."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise MixedField("element from a different field")
            return value
        if isinstance(value, (int, np.integer)):
            return FieldElement(self, int(value) % self.p)
        if isinstance(value, np.ndarray) and value.ndim == 1:
            value = value.tolist()
        if not isinstance(value, (list, tuple)) or not all(isinstance(c, (int, np.integer)) for c in value):
            raise OutOfRange("a field element is an integer, a FieldElement or m integer coefficients")
        if len(value) != self.m:
            raise DegreeOutOfRange("element must have exactly m coefficients")
        e = 0
        for c in reversed(value):
            e = e * self.p + int(c) % self.p
        return FieldElement(self, e)

    def from_encoding(self, e: int) -> "FieldElement":
        return FieldElement(self, int(e))

    def gen(self) -> "FieldElement":
        """The root `a` of the modulus (equals 0 for m = 1 with modulus x)."""
        return self.element(-self.modulus[0]) if self.m == 1 else FieldElement(self, self.p)


@dataclass(frozen=True)
class FieldElement:
    """An element of F_{p^m}, held as its encoding in [0, q): the base-p
    digits of the encoding are its coefficients of powers of `a`."""

    spec: FieldSpec
    encoding: int

    def __post_init__(self):
        if not isinstance(self.encoding, (int, np.integer)) or not 0 <= self.encoding < self.spec.q:
            raise OutOfRange(f"a field encoding must be an integer in [0, {self.spec.q})")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(int(d) for d in self.spec._digits[self.encoding])

    def __str__(self):
        terms = []
        for i, c in reversed(list(enumerate(self.coeffs))):
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


_FIELDS: dict[tuple, FieldSpec] = {}


def field_make(p: int, m: int, modulus=None) -> FieldSpec:
    """A validated FieldSpec, built once per process for each (p, m, modulus
    reduced mod p): later calls return that instance, whose tables are
    read-only.  The default modulus (None) is the first monic irreducible
    polynomial of degree m in ``_monic_polys`` order, and names the same
    instance as that modulus written out."""
    key = (p, m, modulus if modulus is None else tuple(modulus))
    if key not in _FIELDS:
        spec = FieldSpec(p, m, modulus)
        _FIELDS[key] = _FIELDS.setdefault((p, m, spec.modulus), spec)
    return _FIELDS[key]
