"""Arithmetic in R[x]/<x^n - 1> for the chain ring R = F_{p^m}[u]/<u^4>.

An element a0 + u*a1 + u^2*a2 + u^3*a3 is one read-only (4, n) int16 array of
s-basis encodings, row b the u^b-part; both truncation rules (u^4 = 0 and
s^n = 0) apply.  The primitives on such arrays live here too, so that this
module alone fixes the layout that ``codes`` and ``torsion`` compute on.
The expression evaluator in ``parsing`` holds a value as its nonzero terms
and writes two values out in this layout only to multiply them: ``_mul``,
the ring product, serves it for the product of two parenthesized sums.
Among them is the one
elimination step that the echelon form and membership test in ``codes`` and
the level-1 eliminations in ``torsion`` all take: ``_clear`` clears column c
of a row, or of a (B, 4, n) stack of rows, against a head h with
h[c] = s^v w, w a unit, fraction-free, by r <- w r - (r[c] >> v) h, so it
inverts no series.  Every product in it shares a factor (w, or a u-part of
h), so a stack costs the kernel calls of one row.  ``_monic`` scales a row
by the inverse of its pivot unit, so that its pivot column is exactly s^v;
only the level-1 eliminations in ``torsion`` take it, once per pivot, since
their results become u^2-part members whose later valuations depend on the
scaling.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistentSet, LengthMismatch, MixedField, MixedLength
from .galois import FieldSpec
from .sring import MAX_N, SPoly, _frozen_encodings, _mul_trunc, _valuation


def _shift(x: np.ndarray, a: int, b: int = 0) -> np.ndarray:
    """u^b s^a x for a (4, n) encoding array, truncated at u^4 and at s^n."""
    n = x.shape[1]
    out = np.zeros_like(x)
    if a < n:
        out[b:, a:] = x[: 4 - b, : n - a]
    return out


def _mul(field: FieldSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The ring product of two (4, n) encoding arrays, truncated at u^4 and
    at s^n: part i + j collects the products of part i of x and part j of y,
    and part i of x multiplies all nonzero parts j < 4 - i of y in one
    kernel call."""
    n = x.shape[1]
    out = np.zeros((4, n), dtype=np.int16)
    y_parts = np.flatnonzero(y.any(axis=1)).tolist()
    for i in np.flatnonzero(x.any(axis=1)).tolist():
        js = [j for j in y_parts if i + j < 4]
        if js:
            prods = _mul_trunc(field, x[i], y[js[0] : js[-1] + 1], n)
            for j in js:
                out[i + j] = field.add_table[out[i + j], prods[j - js[0]]]
    return out


def _lead_one(field: FieldSpec, x: np.ndarray, c: int, v: int) -> np.ndarray:
    """x scaled by the field constant that makes x[c, v] = 1 (x itself if it is)."""
    scale = field.inv(int(x[c, v]))
    return x if scale == 1 else field.mul_table[scale, x]


def _monic(field: FieldSpec, x: np.ndarray, c: int) -> tuple[int, np.ndarray]:
    """(v, h) for a (4, n) array x with x[c] = s^v * unit nonzero: h is x
    times the inverse of that unit, so that h[c] = s^v exactly.

    The unit is inverted only modulo s^(n - val x), val x the least valuation
    over x's columns.  Every column of x starts at s^(>= val x), so x times
    the inverse reads it only below s^(n - val x), and h equals x times the
    full-length inverse.  h[c] is computed as a product like every other
    column and checked to be s^v; a constant unit scales x by its field
    inverse alone.
    """
    n = x.shape[1]
    v = _valuation(x[c])
    unit = x[c, v:]
    if not unit[1:].any():
        return v, _lead_one(field, x, c, v)
    prec = n - _valuation(x.any(axis=0))
    padded = np.zeros(prec, dtype=np.int16)
    padded[: n - v] = unit  # n - v <= prec since v >= val x
    inverse = SPoly(field, prec, padded).inverse().coeffs
    h = _mul_trunc(field, inverse, x, n)
    if h[c, v] != 1 or h[c, v + 1 :].any():
        raise InconsistentSet(f"column {c} of a pivot row is not s^{v} after scaling")
    return v, h


def _clear(field: FieldSpec, r: np.ndarray, c: int, v: int, h: np.ndarray):
    """r <- w r - (r[c] >> v) h in place, for r one (4, n) row or a (B, 4, n)
    stack of rows and a head h, all zero before column c, h[c] = s^v w with w
    a unit, and every r[c] a multiple of s^v.

    This is the fraction-free step of Bareiss (1968) over F[s]/<s^n>: it
    scales r by the unit w instead of h by its inverse, so it inverts
    nothing, and column c of the result is w r[c] - (r[c] >> v) s^v w = 0.
    The result is a unit multiple of r minus a multiple of h, so together
    with h it spans the module that r and h span, and for a module that
    holds h, s^d r is a member exactly when s^d times the result is.  For a
    head that ``_monic`` scaled, w = 1 and the step is r -= (r[c] >> v) h;
    a constant w costs one field-table lookup per coefficient, not a
    product.  Every row of a stack shares the factors w and h[j], so the
    stack takes one kernel call for w and one per nonzero h[j], j > c,
    whatever its height.  The preconditions on column c of every row and
    of h are checked before anything is written, and a failure raises
    ``InconsistentSet``.
    """
    n, col = r.shape[-1], r[..., c, :]
    if col[..., :v].any() or h[c, :v].any() or not h[c, v]:
        raise InconsistentSet(f"column {c} is not cleared by a head at s^{v}")
    w, q = h[c, v:], col[..., v:].copy()  # w and r[c] >> v, cut at s^(n - v)
    col[...] = 0
    later = r[..., c + 1 :, :]
    if w[1:].any():
        if later.any():
            later[...] = _mul_trunc(field, w, later, n)
    elif w[0] != 1:
        later[...] = field.mul_table[w[0], later]
    for j in range(c + 1, 4):
        if h[j].any():
            r[..., j, :] = field.sub_table[r[..., j, :], _mul_trunc(field, h[j], q, n)]


class RingElement:
    """a0 + u*a1 + u^2*a2 + u^3*a3 as a read-only (4, n) array of encodings
    in [0, q).

    Instances are immutable: ``coeffs`` is a frozen copy made on construction.
    """

    __slots__ = ("spec", "n", "coeffs")

    def __init__(self, spec: FieldSpec, n: int, coeffs):
        if not 1 <= n <= MAX_N:
            raise LengthMismatch(f"length {n} outside supported range")
        arr = np.asarray(coeffs)
        if arr.ndim != 2 or arr.shape[0] != 4:
            raise MixedLength("a ring element has exactly four u-adic parts")
        if arr.shape[1] != n:
            raise LengthMismatch(f"expected {n} coefficients per part, got shape {arr.shape}")
        self.spec = spec
        self.n = n
        self.coeffs = _frozen_encodings(arr, spec.q)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_part(cls, level: int, poly: SPoly) -> "RingElement":
        """u^level * poly, zero for level >= 4."""
        if level < 0:
            raise ValueError("negative u-level")
        arr = np.zeros((4, poly.n), dtype=np.int16)
        if level < 4:
            arr[level] = poly.coeffs
        return cls(poly.spec, poly.n, arr)

    # -- basics ------------------------------------------------------------------

    def _check(self, other: "RingElement"):
        if self.spec != other.spec:
            raise MixedField("ring elements over different fields")
        if self.n != other.n:
            raise MixedLength("ring elements of different lengths")

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.spec == other.spec
            and self.n == other.n
            and np.array_equal(self.coeffs, other.coeffs)
        )

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.spec, self.n, self.spec.add_table[self.coeffs, other.coeffs])

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.spec, self.n, self.spec.sub_table[self.coeffs, other.coeffs])

    def poly_mul(self, f: SPoly) -> "RingElement":
        """Multiply every u-adic part by the polynomial f."""
        self._check(f)
        return RingElement(self.spec, self.n, _mul_trunc(self.spec, f.coeffs, self.coeffs, self.n))

    def shift_mul(self, a: int, b: int = 0) -> "RingElement":
        """Multiply by u^b * s^a with both truncation rules applied."""
        if a < 0 or not 0 <= b <= 3:
            raise ValueError("invalid shift")
        return RingElement(self.spec, self.n, _shift(self.coeffs, a, b))

