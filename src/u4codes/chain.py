"""Arithmetic in R[x]/<x^n - 1> for the chain ring R = F_{p^m}[u]/<u^4>.

Elements are stored u-adically as a quadruple of SPoly parts
a0 + u*a1 + u^2*a2 + u^3*a3, so that "the u^2-part" of an element is a plain
component access.  Both truncation rules (u^4 = 0 and s^n = 0) apply.
"""

from __future__ import annotations

import numpy as np

from .errors import MixedField, MixedLength
from .galois import FieldSpec
from .sring import SPoly


class RingElement:
    """Quadruple (a0, a1, a2, a3) of SPoly meaning a0 + u*a1 + u^2*a2 + u^3*a3."""

    __slots__ = ("spec", "n", "parts")

    def __init__(self, parts):
        parts = tuple(parts)
        if len(parts) != 4:
            raise MixedLength("a ring element has exactly four u-adic parts")
        first = parts[0]
        for part in parts[1:]:
            if part.spec != first.spec:
                raise MixedField("u-adic parts over different fields")
            if part.n != first.n:
                raise MixedLength("u-adic parts of different lengths")
        self.spec = first.spec
        self.n = first.n
        self.parts = parts

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "RingElement":
        z = SPoly.zero(spec, n)
        return cls((z, z, z, z))

    @classmethod
    def from_part(cls, level: int, poly: SPoly) -> "RingElement":
        """u^level * poly."""
        z = SPoly.zero(poly.spec, poly.n)
        parts = [z, z, z, z]
        parts[level] = poly
        return cls(parts)

    @classmethod
    def constant(cls, spec: FieldSpec, n: int, value) -> "RingElement":
        return cls.from_part(0, SPoly.from_ints(spec, n, [value]))

    # -- basics ------------------------------------------------------------------

    def _check(self, other: "RingElement"):
        if self.spec != other.spec:
            raise MixedField("ring elements over different fields")
        if self.n != other.n:
            raise MixedLength("ring elements of different lengths")

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.spec == other.spec
            and self.n == other.n
            and all(a == b for a, b in zip(self.parts, other.parts))
        )

    def __hash__(self):
        return hash((self.spec, self.n) + self.parts)

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(tuple(a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(tuple(a - b for a, b in zip(self.parts, other.parts)))

    def __neg__(self) -> "RingElement":
        return RingElement(tuple(-a for a in self.parts))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        z = SPoly.zero(self.spec, self.n)
        out = [z, z, z, z]
        for i, a in enumerate(self.parts):
            if a.is_zero():
                continue
            for j in range(4 - i):
                b = other.parts[j]
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return RingElement(out)

    def poly_mul(self, f: SPoly) -> "RingElement":
        return RingElement(tuple(a * f for a in self.parts))

    def __pow__(self, e: int) -> "RingElement":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        out = RingElement.constant(self.spec, self.n, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def shift_mul(self, a: int, b: int = 0) -> "RingElement":
        """Multiply by u^b * s^a with both truncation rules applied."""
        if a < 0 or not 0 <= b <= 3:
            raise ValueError("invalid shift")
        z = SPoly.zero(self.spec, self.n)
        out = [z, z, z, z]
        for j in range(4 - b):
            out[j + b] = self.parts[j].shift(a)
        return RingElement(out)

    def u_valuation(self) -> int:
        """Smallest j with nonzero u^j-part; 4 for the zero element."""
        for j, part in enumerate(self.parts):
            if not part.is_zero():
                return j
        return 4

    # -- flattening for the linear-algebra oracle -----------------------------------

    def to_vector(self) -> np.ndarray:
        """Concatenation (a0 || a1 || a2 || a3) of s-basis encodings."""
        return np.concatenate([p.coeffs for p in self.parts])

    @classmethod
    def from_vector(cls, spec: FieldSpec, n: int, vec: np.ndarray) -> "RingElement":
        return cls(tuple(SPoly(spec, n, vec[j * n : (j + 1) * n]) for j in range(4)))

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
