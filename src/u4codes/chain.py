"""Arithmetic in R[x]/<x^n - 1> for the chain ring R = F_{p^m}[u]/<u^4>.

An element a0 + u*a1 + u^2*a2 + u^3*a3 is one read-only (4, n) int16 array of
s-basis encodings, row b the u^b-part; both truncation rules (u^4 = 0 and
s^n = 0) apply.  The primitives on such arrays live here too, so that this
module alone fixes the layout that ``codes`` and ``torsion`` compute on.
Among them is the one elimination step that the echelon form in ``codes``
and the u^2-part eliminations in ``torsion`` both take: ``_monic`` scales a
row so that its pivot column is exactly s^v, and ``_clear`` subtracts
multiples of it to clear that column from another row.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistentSet, LengthMismatch, MixedField, MixedLength
from .galois import FieldSpec
from .sring import MAX_N, SPoly, _frozen_encodings, _mul_trunc


def _valuation(col: np.ndarray) -> int:
    """First nonzero index of a coefficient vector, its length if all zero."""
    nz = col.nonzero()[0]
    return int(nz[0]) if nz.size else col.size


def _shift(x: np.ndarray, a: int, b: int = 0) -> np.ndarray:
    """u^b s^a x for a (4, n) encoding array, truncated at u^4 and at s^n."""
    n = x.shape[1]
    out = np.zeros_like(x)
    if a < n:
        out[b:, a:] = x[: 4 - b, : n - a]
    return out


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
        scale = field.inv(int(unit[0]))
        return v, x if scale == 1 else field.mul_table[scale, x]
    prec = n - _valuation(x.any(axis=0))
    padded = np.zeros(prec, dtype=np.int16)
    padded[: n - v] = unit  # n - v <= prec since v >= val x
    inverse = SPoly(field, prec, padded).inverse().coeffs
    h = np.zeros_like(x)
    for j in range(4):
        if x[j].any():
            h[j] = _mul_trunc(field, inverse, x[j], n)
    if h[c, v] != 1 or h[c, v + 1 :].any():
        raise InconsistentSet(f"column {c} of a pivot row is not s^{v} after scaling")
    return v, h


def _clear(field: FieldSpec, r: np.ndarray, c: int, v: int, h: np.ndarray):
    """r -= (r[c] >> v) * h in place, for a head h[c] = s^v (``_monic``)
    that is zero before column c, and r[c, :v] zero."""
    n = r.shape[1]
    q = np.zeros(n, dtype=np.int16)
    q[: n - v] = r[c, v:]
    r[c, v:] = 0
    for j in range(c + 1, 4):
        if h[j].any():
            r[j] = field.sub_table[r[j], _mul_trunc(field, q, h[j], n)]


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
    def from_parts(cls, parts) -> "RingElement":
        """The element with u-adic parts (a0, a1, a2, a3), each an SPoly."""
        parts = tuple(parts)
        if len(parts) != 4:
            raise MixedLength("a ring element has exactly four u-adic parts")
        first = parts[0]
        for part in parts[1:]:
            if part.spec != first.spec:
                raise MixedField("u-adic parts over different fields")
            if part.n != first.n:
                raise MixedLength("u-adic parts of different lengths")
        return cls(first.spec, first.n, [part.coeffs for part in parts])

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "RingElement":
        return cls(spec, n, np.zeros((4, n), dtype=np.int16))

    @classmethod
    def from_part(cls, level: int, poly: SPoly) -> "RingElement":
        """u^level * poly, zero for level >= 4."""
        if level < 0:
            raise ValueError("negative u-level")
        arr = np.zeros((4, poly.n), dtype=np.int16)
        if level < 4:
            arr[level] = poly.coeffs
        return cls(poly.spec, poly.n, arr)

    @classmethod
    def constant(cls, spec: FieldSpec, n: int, value) -> "RingElement":
        """An integer (reduced mod p) or FieldElement as a ring element."""
        arr = np.zeros((4, n), dtype=np.int16)
        arr[0, 0] = spec.element(value).encoding
        return cls(spec, n, arr)

    # -- basics ------------------------------------------------------------------

    @property
    def parts(self) -> tuple[SPoly, SPoly, SPoly, SPoly]:
        """The u-adic parts (a0, a1, a2, a3) as SPoly."""
        return tuple(SPoly(self.spec, self.n, row) for row in self.coeffs)

    def _check(self, other: "RingElement"):
        if self.spec != other.spec:
            raise MixedField("ring elements over different fields")
        if self.n != other.n:
            raise MixedLength("ring elements of different lengths")

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.spec == other.spec
            and self.n == other.n
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.spec, self.n, self.coeffs.tobytes()))

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.spec, self.n, self.spec.add_table[self.coeffs, other.coeffs])

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.spec, self.n, self.spec.sub_table[self.coeffs, other.coeffs])

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        spec, n = self.spec, self.n
        out = np.zeros((4, n), dtype=np.int16)
        for i, a in enumerate(self.coeffs):
            if not a.any():
                continue
            for j, b in enumerate(other.coeffs[: 4 - i]):
                if b.any():
                    out[i + j] = spec.add_table[out[i + j], _mul_trunc(spec, a, b, n)]
        return RingElement(spec, n, out)

    def poly_mul(self, f: SPoly) -> "RingElement":
        """Multiply every u-adic part by the polynomial f."""
        self._check(f)
        out = np.zeros((4, self.n), dtype=np.int16)
        for b, a in enumerate(self.coeffs):
            if a.any():
                out[b] = _mul_trunc(self.spec, a, f.coeffs, self.n)
        return RingElement(self.spec, self.n, out)

    def shift_mul(self, a: int, b: int = 0) -> "RingElement":
        """Multiply by u^b * s^a with both truncation rules applied."""
        if a < 0 or not 0 <= b <= 3:
            raise ValueError("invalid shift")
        return RingElement(self.spec, self.n, _shift(self.coeffs, a, b))

    # -- display -------------------------------------------------------------------

    def to_string(self, var: str = "s") -> str:
        chunks = []
        for j, part in enumerate(self.parts):
            if part.is_zero():
                continue
            body = part.to_string(var)
            if j == 0:
                chunks.append(body)
            else:
                u = "u" if j == 1 else f"u^{j}"
                chunks.append(f"{u}*({body})")
        return " + ".join(chunks) if chunks else "0"

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"RingElement({self.to_string()})"
