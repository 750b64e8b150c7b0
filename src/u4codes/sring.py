"""Arithmetic in F_{p^m}[x]/<x^n - 1> for n = p^k, in the s = x-1 basis.

Because n is a power of the characteristic, x^n - 1 = (x-1)^n, so the quotient
is the truncated polynomial ring F_{p^m}[s]/<s^n>.  Storing coefficients of
powers of s makes valuations and unit decompositions first-nonzero-index
scans, which is what all the torsion computations need.  Exponents >= n
truncate to zero; they are never reduced cyclically.

Cost model: every product goes through one kernel, ``_mul_trunc``, which
cuts both operands to their nonzero spans and convolves their base-p digits
at C level (numpy), so a product costs m^2 convolutions of the two span
lengths.  ``SPoly.inverse`` is a Newton iteration on the same kernel: two
products per doubling of the precision, O(log n) kernel calls in all for a
length-n inverse and none for a constant.  A caller that reads an inverse
only below some s^prec inverts in F[s]/<s^prec> and pays O(log prec) calls:
``chain._monic``, the one place that scales a row x by a unit inverse, uses
prec = n - val x (val x the least valuation of x's u-parts).  The x/s basis
change costs K passes of a p x p matrix product over the m digit planes for
n = p^K, and builds no n x n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZero, LengthMismatch, MixedField, MixedLength, OutOfRange
from .galois import FieldElement, FieldSpec

MAX_N = 3125


def _frozen_encodings(arr: np.ndarray, q: int) -> np.ndarray:
    """A read-only int16 copy of a nonempty array of encodings, checked to
    lie in [0, q) in its own dtype, before the cast could wrap or truncate."""
    if arr.dtype == np.int16:
        bad = arr.view(np.uint16).max() >= q
    else:
        bad = arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= q
    if bad:
        raise OutOfRange(f"coefficient encodings must lie in [0, {q})")
    out = arr.astype(np.int16)
    out.flags.writeable = False
    return out


class SPoly:
    """Element of F_{p^m}[s]/<s^n> as a dense coefficient vector.

    Coefficients are stored as integer field encodings in [0, q) in a
    read-only numpy array of length n.  Instances are immutable.
    """

    __slots__ = ("spec", "n", "coeffs")

    def __init__(self, spec: FieldSpec, n: int, coeffs):
        if not 1 <= n <= MAX_N:
            raise LengthMismatch(f"length {n} outside supported range")
        arr = np.asarray(coeffs)
        if arr.shape != (n,):
            raise LengthMismatch(f"expected {n} coefficients, got shape {arr.shape}")
        self.spec = spec
        self.n = n
        self.coeffs = _frozen_encodings(arr, spec.q)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "SPoly":
        return cls(spec, n, np.zeros(n, dtype=np.int16))

    @classmethod
    def one(cls, spec: FieldSpec, n: int) -> "SPoly":
        return cls.monomial(spec, n, 0)

    @classmethod
    def monomial(cls, spec: FieldSpec, n: int, exp: int, coeff=1) -> "SPoly":
        c = np.zeros(n, dtype=np.int16)
        if 0 <= exp < n:
            c[exp] = spec.element(coeff).encoding
        return cls(spec, n, c)

    @classmethod
    def from_ints(cls, spec: FieldSpec, n: int, values) -> "SPoly":
        """Coefficients given as integers (reduced mod p) or FieldElements."""
        enc = [
            v.encoding if isinstance(v, FieldElement) else spec.element(int(v)).encoding
            for v in values
        ]
        if len(enc) > n:
            raise LengthMismatch("more coefficients than ring length")
        return cls(spec, n, np.array(enc + [0] * (n - len(enc)), dtype=np.int16))

    # -- basics ---------------------------------------------------------------

    def _check(self, other: "SPoly"):
        if self.spec != other.spec:
            raise MixedField("polynomials over different fields")
        if self.n != other.n:
            raise MixedLength("polynomials of different lengths")

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def is_unit(self) -> bool:
        """Units of F[s]/<s^n> are exactly the elements with nonzero constant
        term, i.e. polynomials not vanishing at x = 1."""
        return self.coeffs[0] != 0

    def __eq__(self, other):
        return (
            isinstance(other, SPoly)
            and self.spec == other.spec
            and self.n == other.n
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.spec, self.n, self.coeffs.tobytes()))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "SPoly") -> "SPoly":
        self._check(other)
        return SPoly(self.spec, self.n, self.spec.add_table[self.coeffs, other.coeffs])

    def __sub__(self, other: "SPoly") -> "SPoly":
        self._check(other)
        return SPoly(self.spec, self.n, self.spec.sub_table[self.coeffs, other.coeffs])

    def __neg__(self) -> "SPoly":
        return SPoly(self.spec, self.n, self.spec.neg_table[self.coeffs])

    def __mul__(self, other: "SPoly") -> "SPoly":
        self._check(other)
        return SPoly(self.spec, self.n, _mul_trunc(self.spec, self.coeffs, other.coeffs, self.n))

    def shift(self, a: int) -> "SPoly":
        """Multiply by s^a; powers running off the top truncate to zero."""
        if a < 0:
            raise ValueError("negative shift")
        if a >= self.n:
            return SPoly.zero(self.spec, self.n)
        out = np.zeros(self.n, dtype=np.int16)
        out[a:] = self.coeffs[: self.n - a]
        return SPoly(self.spec, self.n, out)

    def inverse(self) -> "SPoly":
        """Series inverse, valid exactly for units (nonzero constant term).

        Newton iteration g <- g + g (1 - f g): if f g = 1 mod s^k, the update
        gives f g = 1 mod s^2k, so ceil(log2 n) steps of two products reach n.
        A constant f is inverted by the field alone, and the iteration stops
        early once f g = 1 holds as a polynomial.
        """
        if not self.is_unit():
            raise DivisionByZero("inverse of a non-unit polynomial")
        spec, n, f = self.spec, self.n, self.coeffs
        g = np.zeros(n, dtype=np.int16)
        g[0] = spec.inv(int(f[0]))
        if not f[1:].any():
            return SPoly(spec, n, g)
        deg_f = int(f.nonzero()[0][-1])
        prec = 1
        while prec < n:
            prec = min(2 * prec, n)
            err = spec.neg_table[_mul_trunc(spec, f, g, prec)]
            err[0] = 0  # err = 1 - f g, whose constant term is 1 - 1
            # With deg f + deg g < prec nothing was truncated: f g = 1 exactly.
            if not err.any() and deg_f + int(g.nonzero()[0][-1]) < prec:
                break
            g[:prec] = spec.add_table[g[:prec], _mul_trunc(spec, g, err, prec)]
        return SPoly(spec, n, g)

    # -- valuation ------------------------------------------------------------

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; n for the zero polynomial."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[0]) if nz.size else self.n

    # -- display ----------------------------------------------------------------

    def to_string(self, var: str = "s") -> str:
        terms = []
        for i in np.nonzero(self.coeffs)[0]:
            c = self.spec.from_encoding(int(self.coeffs[i]))
            cs = str(c)
            if "+" in cs:
                cs = f"({cs})"
            if i == 0:
                terms.append(cs)
                continue
            power = var if i == 1 else f"{var}^{i}"
            terms.append(power if cs == "1" else f"{cs}*{power}")
        return " + ".join(terms) if terms else "0"

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"SPoly({self.to_string()})"


def _mul_trunc(spec: FieldSpec, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Product of two coefficient vectors of encodings, truncated at s^n.

    Each operand is cut to its nonzero span, so the cost is that of the
    spans, not of n.  Field elements are split into their m base-p digits
    and each pair of digit vectors is convolved; the convolution of digits
    i and j is a coefficient of a^(i+j), which pow_digits reduces back to m
    digits before the final mod p.  Every sum stays below
    (2m - 1) m (p - 1)^3 n, far under 2^53, so float64 arithmetic is exact.
    """
    out = np.zeros(n, dtype=np.int16)
    nza, nzb = a[:n].nonzero()[0], b[:n].nonzero()[0]
    if not nza.size or not nzb.size or nza[0] + nzb[0] >= n:
        return out
    va, vb = int(nza[0]), int(nzb[0])
    lo = va + vb
    da = spec.digit_rows.take(a[va : min(int(nza[-1]) + 1, n - vb)], axis=1)
    db = spec.digit_rows.take(b[vb : min(int(nzb[-1]) + 1, n - va)], axis=1)
    m = spec.m
    conv = np.zeros((2 * m - 1, da.shape[1] + db.shape[1] - 1))
    for i in range(m):
        for j in range(m):
            conv[i + j] += np.convolve(da[i], db[j])
    width = min(conv.shape[1], n - lo)
    digits = np.dot(spec.pow_digits, conv[:, :width]) % spec.p
    out[lo : lo + width] = np.dot(spec.digit_weights, digits)
    return out


@dataclass(frozen=True)
class Decomposition:
    """f = s^valuation * unit_part with a unit (or zero) unit part."""

    valuation: int
    unit_part: SPoly


def decompose(f: SPoly) -> Decomposition:
    """Split off the highest s-power: every nonzero element of F[s]/<s^n> is
    s^t times a unit, and the zero element gets valuation n by convention."""
    t = f.valuation()
    if t == f.n:
        return Decomposition(f.n, SPoly.zero(f.spec, f.n))
    out = np.zeros(f.n, dtype=np.int16)
    out[: f.n - t] = f.coeffs[t:]
    return Decomposition(t, SPoly(f.spec, f.n, out))


# --- basis change between x-powers and s-powers ------------------------------


def basis_transform_rows(spec: FieldSpec, rows: np.ndarray, direction: str) -> np.ndarray:
    """Convert each row of an (r, n) matrix of encodings between the x-power
    and s-power bases (x = s + 1).

    x^i = sum_j C(i, j) s^j and s^i = sum_j C(i, j) (-1)^(i-j) x^j.  For
    n = p^K, Lucas's theorem gives C(i, j) = prod_d C(i_d, j_d) mod p over
    the base-p digits of i and j, and for odd p the sign splits the same
    way, so the n x n matrix is the K-fold Kronecker power of its p x p
    corner.  The map is F_p-linear, so it runs on each base-p digit plane of
    the encodings, one digit axis of the index at a time; another n is
    padded with zero columns to the next power of p and cut back after.
    """
    if direction not in ("x_to_s", "s_to_x"):
        raise ValueError(f"unknown direction {direction!r}")
    p, (r, n) = spec.p, rows.shape
    corner = np.zeros((p, p))
    corner[:, 0] = 1
    for a in range(1, p):
        corner[a, 1:] = (corner[a - 1, 1:] + corner[a - 1, :-1]) % p
    if direction == "s_to_x":
        odd = np.add.outer(np.arange(p), np.arange(p)) % 2 == 1
        corner[odd] = (p - corner[odd]) % p
    size, digits = 1, 0
    while size < n:
        size, digits = size * p, digits + 1
    planes = np.zeros((spec.m * r, size))
    planes[:, :n] = spec.digit_rows[:, rows].reshape(-1, n)
    # Each pass maps the leading digit axis through the corner and rotates it
    # to the end, so after K passes every axis is mapped and back in place.
    for _ in range(digits):
        planes = (planes.reshape(-1, p, size // p).transpose(0, 2, 1) @ corner % p).reshape(-1, size)
    out = spec.digit_weights @ planes.reshape(spec.m, -1)
    return out.reshape(r, size)[:, :n].astype(np.int16)
