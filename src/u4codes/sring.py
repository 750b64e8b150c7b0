"""Arithmetic in F_{p^m}[x]/<x^n - 1> for n = p^k, in the s = x-1 basis.

Because n is a power of the characteristic, x^n - 1 = (x-1)^n, so the quotient
is the truncated polynomial ring F_{p^m}[s]/<s^n>.  Storing coefficients of
powers of s makes valuations and unit decompositions first-nonzero-index
scans, which is what all the torsion computations need.  Exponents >= n
truncate to zero; they are never reduced cyclically.

Cost model: every product goes through one kernel, ``_mul_trunc``, which
cuts both operands to their nonzero spans and convolves them at C level
(numpy): over a prime field the encodings themselves, one convolution of the
two span lengths, and over F_{p^m}, m > 1, their base-p digits, m^2
convolutions.  A factor with one nonzero coefficient, c s^e, costs no
convolution: the product is one field-table lookup written from s^e on.
At these lengths a kernel call costs its numpy calls more than its
arithmetic, so products that share a factor take one call: the kernel
multiplies a by a whole stack of rows, each cut to its own span.  A stack of
at least PACK_ROWS nonzero rows against a factor of span at most PACK_SPAN is
packed into one vector (Kronecker substitution) and takes one convolution
(one per digit pair); otherwise the call convolves its nonzero rows one by
one, and looks up the monomial ones.
``SPoly.inverse`` takes its first NEWTON_START = 8 coefficients from a
table recurrence, which makes no kernel call (at precision 2, 4 and 8 a
Newton step's products are tiny, and their cost is the calls, not the
arithmetic), then runs a Newton iteration on the same kernel: two products
per doubling of the precision, O(log(n / 8)) kernel calls in all for a
length-n inverse and none for a constant or for n <= 8.  A caller that
reads an inverse only below some s^prec inverts in F[s]/<s^prec> and pays
O(log prec) calls:
``chain._monic``, the one place that scales a row x by a unit inverse, uses
prec = n - val x (val x the least valuation of x's u-parts) and multiplies
all of x's u-parts by it in one call.  Only the level-1 eliminations of the
closed form call it, once per pivot, so a code inverts at most one series;
the pivot-and-clear step ``chain._clear`` is fraction-free and clears a
whole stack of rows against one head in one call for the unit scale and one
per u-part of the head, so the span oracle inverts no series at all, and a
constant scale is a table lookup.  The closed form's pairwise stage makes
one call per u^2-part member whose unit is not a constant, that unit
against every member's u^3-part, on rows cut to the top s-window the
generators reach.  The x/s
basis change costs K passes of a p x p matrix product over the m digit
planes for n = p^K, and builds no n x n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZero, LengthMismatch, MixedField, MixedLength, OutOfRange
from .galois import FieldSpec

MAX_N = 3125

# SPoly.inverse computes this many coefficients by a table recurrence before
# Newton takes over.  The recurrence to 8 makes at most 63 table lookups
# (about 17 us over F_5) where the Newton steps to precision 2, 4 and 8 make six kernel
# calls of about 15 us each (timeit on a 2-core Xeon).
NEWTON_START = 8


def _valuation(col: np.ndarray) -> int:
    """First nonzero index of a coefficient vector, its length if all zero."""
    nz = col.nonzero()[0]
    return int(nz[0]) if nz.size else col.size


def _frozen_encodings(arr: np.ndarray, q: int) -> np.ndarray:
    """A read-only int16 copy of a nonempty array of encodings, checked to
    lie in [0, q) in its own dtype, before the cast could wrap or truncate.

    The public constructors ``SPoly`` and ``chain.RingElement`` take it.
    The oracle and the closed form compute on bare arrays: ``codes`` builds
    each generator's array once per code, unchecked, and wraps it as a
    ``RingElement`` only for a public caller of ``CyclicCode.generator``."""
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
        """coeff * s^exp, zero for exp >= n (coeff is checked either way)."""
        if exp < 0:
            raise ValueError("negative exponent")
        c, enc = np.zeros(n, dtype=np.int16), spec.element(coeff).encoding
        if exp < n:
            c[exp] = enc
        return cls(spec, n, c)

    @classmethod
    def from_ints(cls, spec: FieldSpec, n: int, values) -> "SPoly":
        """Coefficients given as anything ``FieldSpec.element`` takes: integers
        (reduced mod p), FieldElements of spec or sequences of m integers."""
        enc = [spec.element(v).encoding for v in values]
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

    def __sub__(self, other: "SPoly") -> "SPoly":
        self._check(other)
        return SPoly(self.spec, self.n, self.spec.sub_table[self.coeffs, other.coeffs])

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

        The first min(NEWTON_START, n) coefficients come from the recurrence
        g_k = -g_0 sum_{i=1..k} f_i g_(k-i) on the field's tables, which
        costs no kernel call.  From there, Newton iteration
        g <- g + g (1 - f g): if f g = 1 mod s^k, the update gives f g = 1
        mod s^2k, so ceil(log2(n / NEWTON_START)) steps of two products
        reach n.  A constant f is inverted by the field alone.  The inverse
        is unique, so the start changes no result.
        """
        if not self.is_unit():
            raise DivisionByZero("inverse of a non-unit polynomial")
        spec, n, f = self.spec, self.n, self.coeffs
        g = np.zeros(n, dtype=np.int16)
        g[0] = spec.inv(int(f[0]))
        if not f[1:].any():
            return SPoly(spec, n, g)
        prec = min(NEWTON_START, n)
        mul, add = spec.mul_table, spec.add_table
        head, start = f[:prec].tolist(), [int(g[0])]
        neg_g0 = int(spec.neg_table[start[0]])
        for k in range(1, prec):
            acc = 0
            for i in range(1, k + 1):
                if head[i]:
                    acc = int(add[acc, mul[head[i], start[k - i]]])
            start.append(int(mul[neg_g0, acc]))
        g[:prec] = start
        while prec < n:
            prec = min(2 * prec, n)
            err = spec.neg_table[_mul_trunc(spec, f, g, prec)]
            err[0] = 0  # err = 1 - f g, whose constant term is 1 - 1
            g[:prec] = spec.add_table[g[:prec], _mul_trunc(spec, g, err, prec)]
        return SPoly(spec, n, g)

    # -- valuation ------------------------------------------------------------

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; n for the zero polynomial."""
        return _valuation(self.coeffs)

    # -- display ----------------------------------------------------------------

    def to_string(self, var: str = "s") -> str:
        """The nonzero terms, lowest power first, each coefficient by its
        label in ``spec.labels``; a coefficient 1 is left out before a power."""
        labels, terms = self.spec.labels, []
        nz = self.coeffs.nonzero()[0]
        for i, c in zip(nz.tolist(), self.coeffs[nz].tolist()):
            if i == 0:
                terms.append(labels[c])
                continue
            power = var if i == 1 else f"{var}^{i}"
            terms.append(power if c == 1 else f"{labels[c]}*{power}")
        return " + ".join(terms) if terms else "0"

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"SPoly({self.to_string()})"


# A stack is packed when it has at least PACK_ROWS nonzero rows and the
# shared factor's span is at most PACK_SPAN.  Packing costs about as many
# numpy calls as three products of their own, and the zeros it puts after
# each row (the factor's span less one) cost less than one such product
# while the span is short (measured with np.convolve on a 2-core Xeon).
PACK_ROWS = 4
PACK_SPAN = 128


def _mul_trunc(spec: FieldSpec, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """a times b, truncated at s^n, for a coefficient vector a of encodings
    and b one vector or a stack of them (shape (..., L)); the result has
    shape b.shape[:-1] + (n,).

    a is cut to its nonzero span and every row of b to its own, so the cost
    is that of the spans, not of n.  A monomial a = c s^e convolves
    nothing: the product is every row times c, one ``mul_table`` lookup
    written from s^e on.  With at least PACK_ROWS nonzero rows and a span
    of a at most PACK_SPAN, the rows are packed into one vector
    (``_mul_packed``) and take one call of ``_convolve_digits``; otherwise
    each nonzero row is multiplied on its own, a monomial row c s^e by a
    lookup of a times c and any other row by ``_convolve_digits``.  Over a
    prime field (m = 1) that convolves the encodings themselves, and the
    sums stay below (p - 1)^2 L <= (p - 1)^2 n for L the shorter span:
    under 2^31 for every prime p <= 251 and n = p^k <= MAX_N (15.7 million
    at F_251, n = 251), so they are reduced mod p as int32.  Over F_{p^m},
    m > 1, it convolves each pair of base-p digit vectors, and every sum is
    below (2m - 1) m (p - 1)^3 n.  Both bounds are far under 2^53, so the
    float64 arithmetic of the convolutions is exact.
    """
    rows = b.reshape(-1, b.shape[-1])
    out = np.zeros((rows.shape[0], n), dtype=np.int16)
    nza = a[:n].nonzero()[0]
    if nza.size:
        va, stop = int(nza[0]), int(nza[-1]) + 1
        rows = rows[:, : n - va]  # the columns whose products stay below s^n
        if stop - va == 1:  # a = c s^va
            out[:, va : va + rows.shape[1]] = spec.mul_table[a[va], rows]
            return out.reshape(b.shape[:-1] + (n,))
        live = range(rows.shape[0])
        if rows.shape[0] >= PACK_ROWS and stop - va <= PACK_SPAN:
            alive = rows.any(axis=1)
            live = np.flatnonzero(alive).tolist()
            if len(live) >= PACK_ROWS:
                out = _mul_packed(spec, a[va:stop], va, rows, alive, n)
                return out.reshape(b.shape[:-1] + (n,))
        for r in live:
            nzb = rows[r].nonzero()[0]
            if nzb.size:
                lo = int(nzb[0])
                cut = a[va : min(stop, n - lo)]  # a past s^(n - lo_r) reaches past s^n
                if nzb.size == 1:  # row r is c s^lo
                    prod = spec.mul_table[rows[r, lo], cut]
                else:
                    prod = _convolve_digits(spec, cut, rows[r, lo : int(nzb[-1]) + 1], n - va - lo)
                out[r, va + lo : va + lo + prod.size] = prod
    return out.reshape(b.shape[:-1] + (n,))


def _convolve_digits(spec: FieldSpec, a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """The product of two vectors of encodings, cut after ``width``
    coefficients.  Over a prime field the encodings are the digits: one
    float64 convolution, reduced mod p as int32.  Over F_{p^m} both are
    split into their m base-p digits and each pair of digit vectors is
    convolved; the convolution of digits i and j is a coefficient of
    a^(i+j), which pow_digits reduces back to m digits before the final
    mod p."""
    m = spec.m
    if m == 1:
        conv = np.convolve(a.astype(np.float64), b.astype(np.float64))
        return conv[:width].astype(np.int32) % spec.p
    da, db = spec.digit_rows.take(a, axis=1), spec.digit_rows.take(b, axis=1)
    conv = np.zeros((2 * m - 1, da.shape[1] + db.shape[1] - 1))
    for i in range(m):
        for j in range(m):
            conv[i + j] += np.convolve(da[i], db[j])
    return np.dot(spec.digit_weights, np.dot(spec.pow_digits, conv[:, :width]) % spec.p)


def _mul_packed(spec: FieldSpec, a: np.ndarray, va: int, rows: np.ndarray, alive: np.ndarray,
                n: int) -> np.ndarray:
    """The products of a (its nonzero span, from s^va) with every row of a
    stack, truncated at s^n, from one call of ``_convolve_digits``
    (Kronecker substitution): each nonzero row, cut to its own span, is
    followed by the span of a less one zeros, so no row's product runs
    into the next, and the last row needs none."""
    la = a.size
    live = rows != 0
    lo = live.argmax(axis=1)
    seg = rows.shape[1] + (la - 1) - live[:, ::-1].argmax(axis=1) - lo
    seg *= alive  # row r's product fills seg_r places from start_r
    start = seg.cumsum() - seg
    total = int(start[-1] + seg[-1])
    # from s^lo_r on, seg_r columns of a zero-padded row are its span, then zeros
    stride = n + la
    padded = np.zeros((rows.shape[0], stride), dtype=np.int16)
    padded[:, : rows.shape[1]] = rows
    at = np.arange(total) + np.repeat(np.arange(0, padded.size, stride) + lo - start, seg)
    wide = np.zeros((rows.shape[0], stride), dtype=np.int16)
    wide.reshape(-1)[at + va] = _convolve_digits(spec, a, padded.reshape(-1)[at[: total - la + 1]], total)
    return wide[:, :n]


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
