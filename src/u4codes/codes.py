"""Cyclic codes over F_{p^m}[u]/<u^4> of length n = p^k.

A code is an ideal of R[x]/<x^n - 1> described by a canonical generator
subset of

    g0 = s^r  + u s^k1 p1 + u^2 s^k2 p2 + u^3 s^k3 p3
    g1 = u s^r1           + u^2 s^k4 p4 + u^3 s^k5 p5
    g2 = u^2 s^r2                       + u^3 s^k6 p6
    g3 = u^3 s^r3

with s = x - 1, degrees r3 <= r2 <= r1 <= r < n restricted to the present
generators, and unit-or-zero correction parts p1..p6.  This module also holds
the independent linear-algebra oracle: the code as an F_{p^m}-subspace of
F^(4n), its membership test, torsional degrees by witness scan, and codeword
enumeration.

The oracle's basis comes from generic module algebra, not from the torsion
formulas: the code is the submodule of A^4, A = F[s]/<s^n>, spanned by the
at most 10 rows u^b g_i, and their reduced echelon (Howell) form over the
chain ring A (Howell 1986; Storjohann and Mulders 1998) has one leading row
h_c = s^(v_c) e_c + (later columns) per pivot column c.  The rows s^j h_c,
j < n - v_c, are the reduced row-echelon F-basis up to a few scalar row
operations each, so building it costs O(rank * 4n) in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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
    TooLarge,
)
from .chain import RingElement
from .galois import FieldSpec
from .sring import MAX_N, SPoly, _mul_trunc

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
# present; otherwise it relaxes to k_i < n.
_CORRECTIONS = {
    1: (0, 1),
    2: (0, 2),
    3: (0, 3),
    4: (1, 2),
    5: (1, 3),
    6: (2, 3),
}
# Correction slot -> u-level of the correction term inside its generator.
_CORRECTION_ULEVEL = {1: 1, 2: 2, 3: 3, 4: 2, 5: 3, 6: 3}


@dataclass(frozen=True)
class GeneratorForm:
    """Degrees and unit correction parts of a canonical generator subset.

    An absent correction (p_i is None) means the whole term is zero and the
    matching k_i must be absent too.
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
        """Materialize g_level as a ring element."""
        deg = self.form.degree(level)
        if deg is None:
            raise MalformedGeneratorForm(f"g{level} is not part of this code")
        elem = RingElement.from_part(level, SPoly.monomial(self.field, self.n, deg))
        for i, (owner, _) in _CORRECTIONS.items():
            if owner != level:
                continue
            ki, pi = self.form.correction(i)
            if pi is None:
                continue
            elem = elem + RingElement.from_part(_CORRECTION_ULEVEL[i], pi.shift(ki))
        return elem

    def generators(self) -> dict[int, RingElement]:
        return {level: self.generator(level) for level in self.ideal_type}

    def without_g3(self) -> "CyclicCode":
        """The sub-code generated by everything except g3."""
        if 3 not in self.ideal_type:
            return self
        form = GeneratorForm(
            r=self.form.r, r1=self.form.r1, r2=self.form.r2, r3=None,
            k1=self.form.k1, k2=self.form.k2, k3=self.form.k3,
            k4=self.form.k4, k5=self.form.k5, k6=self.form.k6,
            p1=self.form.p1, p2=self.form.p2, p3=self.form.p3,
            p4=self.form.p4, p5=self.form.p5, p6=self.form.p6,
        )
        return validate_canonical(self.field, self.k, form)


def validate_canonical(field: FieldSpec, k: int, form: GeneratorForm) -> CyclicCode:
    """Check every canonical-form invariant and infer the ideal type."""
    if k < 1:
        raise DegreeOutOfRange("k must be >= 1")
    n = field.p**k
    if n > MAX_N:
        raise DegreeOutOfRange(f"n = {field.p}^{k} exceeds the cap {MAX_N}")

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

    return CyclicCode(field=field, k=k, n=n, form=form, ideal_type=present)


# --- the independent linear-algebra oracle -----------------------------------


@dataclass(frozen=True)
class SpanBasis:
    """Reduced row-echelon basis of the code as an F_{p^m}-subspace of F^(4n).

    Rows are flattened (a0 || a1 || a2 || a3) vectors in the s-basis; the code
    is the row space, closed under multiplication by u and s by construction.
    """

    field: FieldSpec
    n: int
    rows: np.ndarray
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _valuation(col: np.ndarray) -> int:
    """First nonzero index of a coefficient vector, its length if all zero."""
    nz = col.nonzero()[0]
    return int(nz[0]) if nz.size else col.size


def _module_rows(code: CyclicCode) -> list[np.ndarray]:
    """The module generators u^b g_i (i + b <= 3) as (4, n) encoding arrays.

    u^b g_i vanishes for i + b >= 4, so these at most 10 rows span the code
    as an F[s]/<s^n>-module."""
    n = code.n
    rows = []
    for level in code.ideal_type:
        g = code.generator(level).to_vector().reshape(4, n)
        for b in range(4 - level):
            row = np.zeros((4, n), dtype=np.int16)
            row[b:] = g[: 4 - b]
            rows.append(row)
    return rows


def _make_monic(field: FieldSpec, h: np.ndarray, c: int, v: int) -> np.ndarray:
    """h times the inverse of the unit part of h[c] = s^v * unit, so that
    column c becomes exactly s^v.  The unit is only needed mod s^(n-v)."""
    n = h.shape[1]
    unit = h[c, v:]
    if not unit[1:].any():
        scale = field.inv(int(unit[0]))
        return h if scale == 1 else field.mul_table[scale, h]
    w = SPoly(field, n - v, unit).inverse().coeffs
    out = np.zeros_like(h)
    out[c, v] = 1
    for j in range(c + 1, 4):
        out[j] = _mul_trunc(field, w, h[j], n)
    return out


def _sub_multiple(field: FieldSpec, r: np.ndarray, q: np.ndarray, h: np.ndarray, first: int):
    """r[j] -= q * h[j] in place for the columns j >= first."""
    n = r.shape[1]
    for j in range(first, 4):
        if h[j].any():
            r[j] = field.sub_table[r[j], _mul_trunc(field, q, h[j], n)]


def _echelon(field: FieldSpec, rows: list[np.ndarray]) -> dict[int, tuple[int, np.ndarray]]:
    """Reduced echelon (Howell) form of a submodule of A^4, A = F[s]/<s^n>.

    Returns column c -> (v_c, h_c) for the columns that have a pivot: h_c is
    zero before column c, h_c[c] = s^(v_c), and h_c is zero on the pivot
    positions (c', j >= v_c') of every other pivot column c'.  The module is
    the F-span of the rows s^j h_c for j < n - v_c.
    """
    n = rows[0].shape[1]
    heads: dict[int, tuple[int, np.ndarray]] = {}
    for c in range(4):
        vals = [_valuation(r[c]) for r in rows]
        if not rows or min(vals) == n:
            continue
        v = min(vals)
        i = vals.index(v)
        h = _make_monic(field, rows[i], c, v)
        rest = []
        for idx, r in enumerate(rows):
            if idx == i:
                continue
            if vals[idx] < n:
                # r[c] = s^v * (r[c] >> v) because val(r[c]) >= v = h's pivot.
                q = np.zeros(n, dtype=np.int16)
                q[: n - v] = r[c, v:]
                r[c] = 0
                _sub_multiple(field, r, q, h, c + 1)
            if r.any():
                rest.append(r)
        # s^(n-v) h is zero in column c but may survive in later columns; the
        # F-span of the s^j h with j < n - v misses it, so it stays a generator.
        howell = np.zeros_like(h)
        howell[:, n - v :] = h[:, :v]
        if howell.any():
            rest.append(howell)
        heads[c] = (v, h)
        rows = rest
    # Clear every pivot column above its pivot row, later columns first, so
    # that each h_c is the leading row of its block of the reduced F-basis.
    for c in sorted(heads, reverse=True):
        v, h = heads[c]
        for c2 in sorted(k for k in heads if k > c):
            v2, h2 = heads[c2]
            if h[c2, v2:].any():
                q = np.zeros(n, dtype=np.int16)
                q[: n - v2] = h[c2, v2:]
                h[c2, v2:] = 0
                _sub_multiple(field, h, q, h2, c2 + 1)
        heads[c] = (v, h)
    return heads


def span_basis(code: CyclicCode) -> SpanBasis:
    """Reduced row-echelon F-basis of the code, built from its echelon form
    over A = F[s]/<s^n>.

    The at most 10 module rows u^b g_i are brought to reduced echelon form
    over A (``_echelon``): a leading row h_c with h_c[c] = s^(v_c) for each
    pivot column c.  Block c of the F-basis is then s^j h_c for j < n - v_c,
    with pivot c*n + v_c + j.  Row j + 1 of a block is s times row j, whose
    only entries on later pivot columns sit at each later block's first pivot
    c'*n + v_c', so at most three scalar multiples of leading rows clear it.
    The cost is O(rank * 4n) table lookups in all: no F-linear elimination.
    """
    field, n = code.field, code.n
    heads = _echelon(field, _module_rows(code))
    width = 4 * n
    rank = sum(n - v for v, _ in heads.values())
    rows = np.zeros((rank, width), dtype=np.int16)
    pivots: list[int] = []
    add, neg_mul = field.add_table, field.mul_table[field.neg_table]
    start = 0
    for c in sorted(heads):
        v, h = heads[c]
        rows[start] = h.reshape(width)
        # (first pivot, span start, span end, -coef * leading row for every coef)
        later = []
        for c2 in sorted(k for k in heads if k > c):
            lead = heads[c2][1].reshape(width)
            end = int(lead.nonzero()[0][-1]) + 1
            lo2 = c2 * n
            later.append((lo2 + heads[c2][0], lo2, end, neg_mul[:, lead[lo2:end]]))
        # Multiplying by u shows v_c' <= v_c for every later column c', so the
        # last entry n - 1 of each column of a reduced row is zero (a later
        # pivot position, or beyond s^(v+j) in column c): the flat shift by
        # one moves nothing across a column boundary.
        lo = c * n
        for r in range(start + 1, start + n - v):
            row = rows[r]
            row[lo + 1 :] = rows[r - 1, lo:-1]
            for idx, a, b, scaled in later:
                coef = row[idx]
                if coef:
                    row[a:b] = add[row[a:b], scaled[coef]]
        pivots.extend(range(lo + v, lo + n))
        start += n - v
    rows.flags.writeable = False
    return SpanBasis(field=field, n=n, rows=rows, pivots=tuple(pivots))


def contains(basis: SpanBasis, elem: RingElement) -> bool:
    """Membership: the flattened element reduces to zero against the rows."""
    if elem.spec != basis.field:
        raise MixedField("element over a different field")
    if elem.n != basis.n:
        raise MixedLength("element of a different length")
    v = elem.to_vector().astype(np.int16)
    sub, mul = basis.field.sub_table, basis.field.mul_table
    for p, b in zip(basis.pivots, basis.rows):
        c = v[p]
        if c:
            v = sub[v, mul[c, b]]
    return not v.any()


def torsion_oracle(code: CyclicCode, i: int, basis: SpanBasis | None = None) -> int:
    """Least s with u^i * (x-1)^s in the code, n if there is none.

    Membership of u^i s^t is monotone in t (multiply by s), so binary search.
    """
    if basis is None:
        basis = span_basis(code)
    n = code.n

    def member(t: int) -> bool:
        witness = RingElement.from_part(i, SPoly.monomial(code.field, n, t))
        return contains(basis, witness)

    if not member(n - 1):
        return n
    lo, hi = 0, n - 1  # member(hi) is True
    while lo < hi:
        mid = (lo + hi) // 2
        if member(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def torsion_profile(code: CyclicCode, basis: SpanBasis | None = None) -> tuple[int, int, int, int]:
    if basis is None:
        basis = span_basis(code)
    return tuple(torsion_oracle(code, i, basis) for i in range(4))


def enumerate_codewords(basis: SpanBasis, cap: int = 2**24) -> Iterator[RingElement]:
    """Yield every codeword exactly once (all field-linear row combinations)."""
    q = basis.field.q
    if q**basis.rank > cap:
        raise TooLarge(basis.rank, cap, q)
    n = basis.n
    width = 4 * n
    add, mul = basis.field.add_table, basis.field.mul_table
    total = q**basis.rank
    for idx in range(total):
        v = np.zeros(width, dtype=np.int16)
        rem = idx
        for row in basis.rows:
            rem, digit = divmod(rem, q)
            if digit:
                v = add[v, mul[digit, row]]
        yield RingElement.from_vector(basis.field, n, v)


def codeword_batches(
    basis: SpanBasis, cap: int, chunk: int = 1 << 14, rows: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Vectorized enumeration: yields (B, width) blocks covering all codewords.

    The zero codeword appears as the first row of the first block.  `rows`
    may substitute a transformed copy of the basis rows (same row count).
    """
    q = basis.field.q
    if q**basis.rank > cap:
        raise TooLarge(basis.rank, cap, q)
    if rows is None:
        rows = basis.rows
    add, mul = basis.field.add_table, basis.field.mul_table
    total = q**basis.rank
    width = rows.shape[1] if basis.rank else 4 * basis.n
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        block = np.zeros((idx.size, width), dtype=np.int16)
        rem = idx
        for row in rows:
            rem, digits = np.divmod(rem, q)
            digits = digits.astype(np.int16)
            if digits.any():
                block = add[block, mul[digits[:, None], row[None, :]]]
        yield block
