"""Cyclic codes over F_{p^m}[u]/<u^4> of length n = p^k.

A code is an ideal of R[x]/<x^n - 1> described by a canonical generator
subset of

    g0 = s^r  + u s^k1 p1 + u^2 s^k2 p2 + u^3 s^k3 p3
    g1 = u s^r1           + u^2 s^k4 p4 + u^3 s^k5 p5
    g2 = u^2 s^r2                       + u^3 s^k6 p6
    g3 = u^3 s^r3

with s = x - 1, degrees r3 <= r2 <= r1 <= r < n restricted to the present
generators, and unit-or-zero correction parts p1..p6.  This module alone
owns that layout: the other modules build a ``GeneratorForm`` from
{level: degree} and {(owner, u-level): (k_i, p_i)} and read back each
generator's terms and each slot's degree bound, never a field name.  A
``CyclicCode`` declares its field, k and form; n, the ideal type and each
g_i as one read-only (4, n) array in the ``chain`` layout are derived once,
on first use.  The oracle and ``torsion`` read the arrays directly, and
``generator`` wraps one as a range-checked ``RingElement`` for public
callers.  This module also holds the independent oracle: the code's
echelon form, its membership test and the torsional degrees
t_i = min{t : u^i s^t in C}.

The oracle comes from generic module algebra, not from the torsion formulas:
the code is the submodule of A^4, A = F[s]/<s^n>, spanned by the at most 10
rows u^b g_i, and their echelon (Howell) form over the chain ring A
(Howell 1986; Storjohann and Mulders 1998) has one leading row
h_c = s^(v_c) w_c e_c + (later columns) per pivot column c, w_c a unit with
constant term 1.  One reduction on these heads gives the least d with
s^d w in C: 0 for a member, t_i for u^i.  The rows s^j h_c, j < n - v_c,
have distinct leading 1s and span C over F, so the heads also determine
an F-basis; ``weights`` builds it, in the x-basis, only to enumerate
codewords.  The echelon form
runs on the generators' arrays with the primitives of ``chain``: each
pivot row is scaled by a field constant only, and one ``_clear`` clears its
column from all the other rows at once, fraction-free (Bareiss 1968), the
same step that the closed form's eliminations take, so the oracle inverts
no series.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
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
from .chain import RingElement, _clear, _lead_one, _shift
from .galois import FieldSpec
from .sring import MAX_N, SPoly, _valuation

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


@dataclass(frozen=True)
class GeneratorForm:
    """Degrees and unit correction parts of a canonical generator subset.

    An absent correction (p_i is None) means the whole term is zero and the
    matching k_i must be absent too.  In a validated form each p_i is reduced
    mod s^(n - k_i), so two validated forms are equal exactly when their
    generators are.  This class alone maps the layout to field names: the
    other modules build a form with ``of``, take each slot's degree bound
    from ``slots`` and read a form with ``degree``, ``terms`` and
    ``degree_fields``.
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

    @classmethod
    def of(cls, degrees: dict, corrections: dict) -> "GeneratorForm":
        """The form of degrees {level: degree} and corrections
        {(owner level, u-level): (k, p)}, the fields in declaration order."""
        ks, ps = zip(*[corrections.get(key, (None, None)) for key in _CORRECTIONS.values()])
        return cls(*map(degrees.get, range(4)), *ks, *ps)

    def degree(self, level: int) -> Optional[int]:
        return (self.r, self.r1, self.r2, self.r3)[level]

    def correction(self, i: int) -> tuple[Optional[int], Optional[SPoly]]:
        return getattr(self, f"k{i}"), getattr(self, f"p{i}")

    def present_levels(self) -> tuple[int, ...]:
        return tuple(level for level in range(4) if self.degree(level) is not None)

    def terms(self, level: int) -> list[tuple[int, int, SPoly]]:
        """(u-level, k_i, p_i) of g_level's present corrections, in slot order."""
        return [(ulevel, *self.correction(i)) for i, (owner, ulevel) in _CORRECTIONS.items()
                if owner == level and self.correction(i)[1] is not None]

    @staticmethod
    def slots(degrees: dict, n: int) -> list[tuple[int, int, int]]:
        """(owner level, u-level, bound) of each correction slot whose owner
        is in degrees {level: degree}, in slot order: k_i < bound, the degree
        of g_(u-level) when that generator is present and n otherwise."""
        return [(owner, ulevel, degrees.get(ulevel, n))
                for owner, ulevel in _CORRECTIONS.values() if owner in degrees]

    def degree_fields(self) -> dict[str, int]:
        """The present degrees by field name, r..r3 then k1..k6."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self)[:10])
        return {name: value for name, value in values if value is not None}


@dataclass(frozen=True)
class CyclicCode:
    """A validated cyclic code over F_{p^m}[u]/<u^4> of length n = p^k.

    ``n``, ``ideal_type`` and the generators' arrays follow from ``k`` and
    ``form`` and are derived once, on first use.
    """

    field: FieldSpec
    k: int
    form: GeneratorForm

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def m(self) -> int:
        return self.field.m

    @cached_property
    def n(self) -> int:
        return self.field.p**self.k

    @cached_property
    def ideal_type(self) -> tuple[int, ...]:
        return self.form.present_levels()

    @cached_property
    def arrays(self) -> dict[int, np.ndarray]:
        """g_level -> its read-only (4, n) int16 array, ascending level."""
        return {level: _generator_array(self, level) for level in self.ideal_type}

    def type_name(self) -> str:
        return ideal_type_name(self.ideal_type)

    def generator(self, level: int) -> RingElement:
        """g_level as a ring element, each of its terms in the row of its u-level."""
        if level not in self.arrays:
            raise MalformedGeneratorForm(f"g{level} is not part of this code")
        return RingElement(self.field, self.n, self.arrays[level])

    def without_g3(self) -> "CyclicCode":
        """The sub-code generated by everything except g3.

        Dropping a generator keeps a validated form canonical (every bound
        it imposed relaxes to k_i < n), so the sub-code is not re-validated,
        and it shares this code's generator arrays.
        """
        if 3 not in self.ideal_type:
            return self
        if self.ideal_type == (3,):
            raise EmptyGeneratorSet("at least one generator must be present")
        sub = replace(self, form=replace(self.form, r3=None))
        sub.__dict__["arrays"] = {level: g for level, g in self.arrays.items() if level != 3}
        return sub


def _generator_array(code: CyclicCode, level: int) -> np.ndarray:
    """g_level as a read-only (4, n) int16 array: u^level s^degree plus each
    correction s^k_i p_i, cut at s^n, in the row of its u-level."""
    n = code.n
    g = np.zeros((4, n), dtype=np.int16)
    g[level, code.form.degree(level)] = 1
    for ulevel, ki, pi in code.form.terms(level):
        g[ulevel, ki:] = pi.coeffs[: n - ki]
    g.flags.writeable = False
    return g


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

    slots = GeneratorForm.slots(dict(zip(present, degrees)), n)
    bounds = {(owner, ulevel): bound for owner, ulevel, bound in slots}
    for i, slot in _CORRECTIONS.items():
        ki, pi = form.correction(i)
        if pi is None:
            if ki is not None:
                raise MalformedGeneratorForm(f"k{i} given without p{i}")
            continue
        if ki is None:
            raise MalformedGeneratorForm(f"p{i} given without k{i}")
        if slot not in bounds:
            raise MalformedGeneratorForm(f"correction p{i} belongs to absent g{slot[0]}")
        if pi.spec != field:
            raise MixedField(f"p{i} lives in a different field")
        if pi.n != n:
            raise MixedLength(f"p{i} has the wrong length")
        if not pi.is_unit():
            raise CorrectionNotUnit(i, "zero constant term in the s-basis")
        bound = bounds[slot]
        if not 0 <= ki < bound:
            raise CorrectionDegreeTooLarge(i, ki, bound)
        # Coefficients at s^(>= n - k_i) vanish in g_i; k_i < n keeps the unit.
        if pi.coeffs[n - ki :].any():
            form = replace(form, **{f"p{i}": SPoly(field, n, pi.coeffs * (np.arange(n) < n - ki))})

    return CyclicCode(field=field, k=k, form=form)


# --- the independent module-algebra oracle -----------------------------------


@dataclass(frozen=True, eq=False)
class SpanBasis:
    """The code's echelon (Howell) form over A = F[s]/<s^n>: pivot column
    c -> (v_c, h_c), read-only, as ``_echelon`` returns it, with
    h_c[c] = s^(v_c) times a unit whose constant term is 1.  The code has
    F-dimension ``rank``, the sum of the n - v_c; the enumerator's dense
    F-basis is the rotations of the heads (``weights._x_rows``).
    """

    field: FieldSpec
    n: int
    heads: dict[int, tuple[int, np.ndarray]]

    @property
    def rank(self) -> int:
        return sum(self.n - v for v, _ in self.heads.values())


def _module_rows(code: CyclicCode) -> list[np.ndarray]:
    """The module generators u^b g_i (i + b <= 3) as (4, n) encoding arrays.

    u^b g_i vanishes for i + b >= 4, so these at most 10 rows span the code
    as an F[s]/<s^n>-module."""
    rows = []
    for level, g in code.arrays.items():
        rows.extend(_shift(g, 0, b) for b in range(4 - level))
    return rows


def _echelon(field: FieldSpec, rows: list[np.ndarray]) -> dict[int, tuple[int, np.ndarray]]:
    """Echelon (Howell) form of a submodule of A^4, A = F[s]/<s^n>.

    Returns column c -> (v_c, h_c), h_c read-only, for the pivot columns: h_c is
    zero before column c and h_c[c] = s^(v_c) w_c, w_c a unit with constant
    term 1.  The module is the F-span of the rows s^j h_c for j < n - v_c.

    Each pivot row is scaled by a field constant only, so that h_c[c, v_c]
    is 1, and one ``_clear`` on the stack of the rows that are nonzero in
    column c replaces each by w_c r - q h_c, a unit multiple of r less a
    multiple of h_c: the module and its invariants (rank, the v_c,
    membership) stay those of the monic heads.
    """
    n = rows[0].shape[1]
    heads: dict[int, tuple[int, np.ndarray]] = {}
    for c in range(4):
        vals = [_valuation(r[c]) for r in rows]
        if not rows or min(vals) == n:
            continue
        i = vals.index(min(vals))
        v = vals[i]
        h = _lead_one(field, rows[i], c, v)
        hit = [idx for idx in range(len(rows)) if idx != i and vals[idx] < n]
        if hit:
            cleared = np.array([rows[idx] for idx in hit])
            _clear(field, cleared, c, v, h)
            for idx, r in zip(hit, cleared):
                rows[idx] = r
        rest = [r for idx, r in enumerate(rows) if idx != i and r.any()]
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
    module rows u^b g_i."""
    return SpanBasis(field=code.field, n=code.n, heads=_echelon(code.field, _module_rows(code)))


def _least_shift(basis: SpanBasis, w: np.ndarray) -> int:
    """The least d with s^d w in the code, for a (4, n) array w.

    A member whose earlier columns are zero has column c a multiple of s^(v_c)
    (zero without a head), so w is shifted until it is, and h_c clears column
    c; by the Howell property the later heads span the rest, so d is exact.
    The clearing step scales w by the unit w_c of h_c[c] = s^(v_c) w_c, which
    keeps every s^d w in or out of the code, so no unit is inverted.
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


def _check_basis(basis: SpanBasis, field: FieldSpec, n: int, what: str):
    """Refuse a span basis whose field or length differs from ``what``'s."""
    if field != basis.field:
        raise MixedField(f"{what} over a different field")
    if n != basis.n:
        raise MixedLength(f"{what} of a different length")


def contains(basis: SpanBasis, elem: RingElement) -> bool:
    """Membership: no shift is needed to bring the element into the code."""
    _check_basis(basis, elem.spec, elem.n, "element")
    return _least_shift(basis, elem.coeffs) == 0


def torsion_oracle(code: CyclicCode, i: int, basis: SpanBasis | None = None) -> int:
    """Least t with u^i * (x-1)^t in the code, n if there is none: the least
    shift of the unit vector u^i, which is v_3 for i = 3."""
    if not 0 <= i <= 3:
        raise ValueError("torsion level must lie in 0..3")
    if basis is None:
        basis = span_basis(code)
    _check_basis(basis, code.field, code.n, "code")
    unit = np.zeros((4, code.n), dtype=np.int16)
    unit[i, 0] = 1
    return _least_shift(basis, unit)


def torsion_profile(code: CyclicCode, basis: SpanBasis | None = None) -> tuple[int, int, int, int]:
    """(t0, t1, t2, t3), each the least shift of a unit vector (``torsion_oracle``,
    which refuses a basis of another field or length)."""
    if basis is None:
        basis = span_basis(code)
    return tuple(torsion_oracle(code, i, basis) for i in range(4))
