"""Cyclic codes over F_{p^m}[u]/<u^4> of length n = p^k.

A code is an ideal of R[x]/<x^n - 1> described by a canonical generator
subset of

    g0 = s^r  + u s^k1 p1 + u^2 s^k2 p2 + u^3 s^k3 p3
    g1 = u s^r1           + u^2 s^k4 p4 + u^3 s^k5 p5
    g2 = u^2 s^r2                       + u^3 s^k6 p6
    g3 = u^3 s^r3

with s = x - 1, degrees r3 <= r2 <= r1 <= r < n restricted to the present
generators, and unit-or-zero correction parts p1..p6.  Each g_i is one (4, n)
array in the ``chain`` layout.  This module also holds the independent
oracle: the code's echelon form, its membership test, the torsional degrees
t_i = min{t : u^i s^t in C}, and, for enumeration in ``weights``, an
F_{p^m}-basis of the code as a subspace of F^(4n).

The oracle comes from generic module algebra, not from the torsion formulas:
the code is the submodule of A^4, A = F[s]/<s^n>, spanned by the at most 10
rows u^b g_i, and their echelon (Howell) form over the chain ring A
(Howell 1986; Storjohann and Mulders 1998) has one leading row
h_c = s^(v_c) e_c + (later columns) per pivot column c.  One reduction on
these heads gives the least d with s^d w in C: 0 for a member, t_i for u^i.
The rows s^j h_c, j < n - v_c, have distinct leading 1s and span C over F,
so they are an F-basis; they are built only to enumerate codewords.  The
echelon form runs on the generators' arrays with the primitives of ``chain``:
``_monic`` scales each pivot row and ``_clear`` clears its column from the
other rows, the same step that the closed form's eliminations take.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    CorrectionDegreeTooLarge,
    CorrectionNotUnit,
    DegreeOrderViolated,
    DegreeOutOfRange,
    EmptyGeneratorSet,
    MalformedGeneratorForm,
    MixedField,
    MixedLength,
)
from .chain import RingElement, _clear, _monic, _shift, _valuation
from .galois import FieldSpec
from .sring import MAX_N, SPoly

# All 15 nonempty generator subsets, principal ideals first.
IDEAL_TYPES: tuple[tuple[int, ...], ...] = (
    (0,), (1,), (2,), (3,),
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    (0, 1, 2, 3),
)


def ideal_type_name(levels) -> str:
    return "<" + ",".join(f"g{i}" for i in sorted(levels)) + ">"


# Correction slot -> (owner generator level, bounding generator level).
# The degree bound k_i < r_bound applies when the bounding generator is
# present; otherwise it relaxes to k_i < n.  The bounding level is also the
# u-level of the correction term inside its owner.
_CORRECTIONS = {
    1: (0, 1),
    2: (0, 2),
    3: (0, 3),
    4: (1, 2),
    5: (1, 3),
    6: (2, 3),
}
# Generator level -> name of its degree field in GeneratorForm.
_DEGREE_NAMES = {0: "r", 1: "r1", 2: "r2", 3: "r3"}


@dataclass(frozen=True)
class GeneratorForm:
    """Degrees and unit correction parts of a canonical generator subset.

    An absent correction (p_i is None) means the whole term is zero and the
    matching k_i must be absent too.  In a validated form each p_i is reduced
    mod s^(n - k_i), so two validated forms are equal exactly when their
    generators are.
    """

    r: Optional[int] = None
    r1: Optional[int] = None
    r2: Optional[int] = None
    r3: Optional[int] = None
    k1: Optional[int] = None
    k2: Optional[int] = None
    k3: Optional[int] = None
    k4: Optional[int] = None
    k5: Optional[int] = None
    k6: Optional[int] = None
    p1: Optional[SPoly] = None
    p2: Optional[SPoly] = None
    p3: Optional[SPoly] = None
    p4: Optional[SPoly] = None
    p5: Optional[SPoly] = None
    p6: Optional[SPoly] = None

    def degree(self, level: int) -> Optional[int]:
        return (self.r, self.r1, self.r2, self.r3)[level]

    def correction(self, i: int) -> tuple[Optional[int], Optional[SPoly]]:
        return getattr(self, f"k{i}"), getattr(self, f"p{i}")

    def present_levels(self) -> tuple[int, ...]:
        return tuple(level for level in range(4) if self.degree(level) is not None)


@dataclass(frozen=True)
class CyclicCode:
    """A validated cyclic code over F_{p^m}[u]/<u^4> of length n = p^k."""

    field: FieldSpec
    k: int
    n: int
    form: GeneratorForm
    ideal_type: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def m(self) -> int:
        return self.field.m

    def type_name(self) -> str:
        return ideal_type_name(self.ideal_type)

    def generator(self, level: int) -> RingElement:
        """Materialize g_level: each of its terms has a u-level row of its own."""
        deg = self.form.degree(level)
        if deg is None:
            raise MalformedGeneratorForm(f"g{level} is not part of this code")
        n = self.n
        g = np.zeros((4, n), dtype=np.int16)
        g[level, deg] = 1
        for i, (owner, ulevel) in _CORRECTIONS.items():
            if owner != level:
                continue
            ki, pi = self.form.correction(i)
            if pi is None:
                continue
            g[ulevel, ki:] = pi.coeffs[: n - ki]
        return RingElement(self.field, n, g)

    def generators(self) -> dict[int, RingElement]:
        return {level: self.generator(level) for level in self.ideal_type}

    def without_g3(self) -> "CyclicCode":
        """The sub-code generated by everything except g3.

        Dropping a generator keeps a validated form canonical (every bound
        it imposed relaxes to k_i < n), so the sub-code is not re-validated.
        """
        if 3 not in self.ideal_type:
            return self
        if self.ideal_type == (3,):
            raise EmptyGeneratorSet("at least one generator must be present")
        return replace(self, form=replace(self.form, r3=None), ideal_type=self.ideal_type[:-1])


def code_length(p: int, k: int) -> int:
    """n = p^k, checked against 1 <= k and n <= MAX_N."""
    if k < 1:
        raise DegreeOutOfRange("k must be >= 1")
    # p >= 2, so k >= bit_length(MAX_N) already means p^k > MAX_N; testing it
    # first keeps a huge k from costing a huge integer power.
    if k >= MAX_N.bit_length() or p**k > MAX_N:
        raise DegreeOutOfRange(f"n = {p}^{k} exceeds the cap {MAX_N}")
    return p**k


def validate_canonical(field: FieldSpec, k: int, form: GeneratorForm) -> CyclicCode:
    """Check every canonical-form invariant, truncate each p_i mod
    s^(n - k_i), and infer the ideal type."""
    n = code_length(field.p, k)

    present = form.present_levels()
    if not present:
        raise EmptyGeneratorSet("at least one generator must be present")

    degrees = [form.degree(level) for level in present]
    for level, deg in zip(present, degrees):
        if not 0 <= deg < n:
            raise DegreeOrderViolated(f"degree of g{level} must lie in [0, {n})")
    # Ascending generator level must have non-increasing degree.
    for (la, da), (lb, db) in zip(zip(present, degrees), zip(present[1:], degrees[1:])):
        if db > da:
            raise DegreeOrderViolated(
                f"degree of g{lb} ({db}) exceeds degree of g{la} ({da})"
            )

    for i, (owner, bounder) in _CORRECTIONS.items():
        ki, pi = form.correction(i)
        if pi is None:
            if ki is not None:
                raise MalformedGeneratorForm(f"k{i} given without p{i}")
            continue
        if ki is None:
            raise MalformedGeneratorForm(f"p{i} given without k{i}")
        if owner not in present:
            raise MalformedGeneratorForm(f"correction p{i} belongs to absent g{owner}")
        if pi.spec != field:
            raise MixedField(f"p{i} lives in a different field")
        if pi.n != n:
            raise MixedLength(f"p{i} has the wrong length")
        if not pi.is_unit():
            raise CorrectionNotUnit(i, "zero constant term in the s-basis")
        bound = form.degree(bounder) if bounder in present else n
        if not 0 <= ki < bound:
            raise CorrectionDegreeTooLarge(i, ki, bound)
        # Coefficients at s^(>= n - k_i) vanish in g_i; k_i < n keeps the unit.
        if pi.coeffs[n - ki :].any():
            form = replace(form, **{f"p{i}": SPoly(field, n, pi.coeffs * (np.arange(n) < n - ki))})

    return CyclicCode(field=field, k=k, n=n, form=form, ideal_type=present)


# --- the independent module-algebra oracle -----------------------------------


@dataclass(frozen=True, eq=False)
class SpanBasis:
    """The code's echelon (Howell) form over A = F[s]/<s^n>: pivot column
    c -> (v_c, h_c), read-only, as ``_echelon`` returns it.

    ``rows``, built on first use, is the code's F-basis in F^(4n): the rows
    s^j h_c as flattened (a0 || a1 || a2 || a3) s-basis vectors.
    """

    field: FieldSpec
    n: int
    heads: dict[int, tuple[int, np.ndarray]]

    @property
    def rank(self) -> int:
        return sum(self.n - v for v, _ in self.heads.values())

    @cached_property
    def rows(self) -> np.ndarray:
        """Block c is s^j h_c for j < n - v_c, with a leading 1 at c*n + v_c + j."""
        heads = [self.heads[c] for c in sorted(self.heads)]
        shifts = [_shift(h, j) for v, h in heads for j in range(self.n - v)]
        rows = np.array(shifts, dtype=np.int16).reshape(self.rank, 4 * self.n)
        rows.flags.writeable = False
        return rows


def _module_rows(code: CyclicCode) -> list[np.ndarray]:
    """The module generators u^b g_i (i + b <= 3) as (4, n) encoding arrays.

    u^b g_i vanishes for i + b >= 4, so these at most 10 rows span the code
    as an F[s]/<s^n>-module."""
    rows = []
    for level in code.ideal_type:
        g = code.generator(level).coeffs
        rows.extend(_shift(g, 0, b) for b in range(4 - level))
    return rows


def _echelon(field: FieldSpec, rows: list[np.ndarray]) -> dict[int, tuple[int, np.ndarray]]:
    """Echelon (Howell) form of a submodule of A^4, A = F[s]/<s^n>.

    Returns column c -> (v_c, h_c), h_c read-only, for the pivot columns: h_c is
    zero before column c and h_c[c] = s^(v_c).  The module is the F-span of
    the rows s^j h_c for j < n - v_c.
    """
    n = rows[0].shape[1]
    heads: dict[int, tuple[int, np.ndarray]] = {}
    for c in range(4):
        vals = [_valuation(r[c]) for r in rows]
        if not rows or min(vals) == n:
            continue
        i = vals.index(min(vals))
        v, h = _monic(field, rows[i], c)
        rest = []
        for idx, r in enumerate(rows):
            if idx == i:
                continue
            if vals[idx] < n:
                _clear(field, r, c, v, h)
            if r.any():
                rest.append(r)
        # s^(n-v) h is zero in column c but may survive in later columns; the
        # F-span of the s^j h with j < n - v misses it, so it stays a generator.
        howell = _shift(h, n - v)
        if howell.any():
            rest.append(howell)
        h.flags.writeable = False
        heads[c] = (v, h)
        rows = rest
    return heads


def span_basis(code: CyclicCode) -> SpanBasis:
    """The code's echelon form over A = F[s]/<s^n>, from the at most 10
    module rows u^b g_i; its dense F-basis ``rows`` is built on first use."""
    return SpanBasis(field=code.field, n=code.n, heads=_echelon(code.field, _module_rows(code)))


def _least_shift(basis: SpanBasis, w: np.ndarray) -> int:
    """The least d with s^d w in the code, for a (4, n) array w.

    A member whose earlier columns are zero has column c a multiple of s^(v_c)
    (zero without a head), so w is shifted until it is, and h_c clears column
    c; by the Howell property the later heads span the rest, so d is exact.
    """
    n = basis.n
    w = np.array(w, dtype=np.int16)
    d = 0
    for c in range(4):
        v, h = basis.heads.get(c, (n, None))
        val = _valuation(w[c])
        if val < v:
            w = _shift(w, v - val)
            d += v - val
        if v < n and w[c].any():
            _clear(basis.field, w, c, v, h)
    return d


def contains(basis: SpanBasis, elem: RingElement) -> bool:
    """Membership: no shift is needed to bring the element into the code."""
    if elem.spec != basis.field:
        raise MixedField("element over a different field")
    if elem.n != basis.n:
        raise MixedLength("element of a different length")
    return _least_shift(basis, elem.coeffs) == 0


def torsion_oracle(code: CyclicCode, i: int, basis: SpanBasis | None = None) -> int:
    """Least t with u^i * (x-1)^t in the code, n if there is none: the least
    shift of the unit vector u^i, which is v_3 for i = 3."""
    if not 0 <= i <= 3:
        raise ValueError("torsion level must lie in 0..3")
    if basis is None:
        basis = span_basis(code)
    unit = np.zeros((4, code.n), dtype=np.int16)
    unit[i, 0] = 1
    return _least_shift(basis, unit)


def torsion_profile(code: CyclicCode, basis: SpanBasis | None = None) -> tuple[int, int, int, int]:
    """(t0, t1, t2, t3), each the least shift of a unit vector (``torsion_oracle``)."""
    if basis is None:
        basis = span_basis(code)
    return tuple(torsion_oracle(code, i, basis) for i in range(4))
