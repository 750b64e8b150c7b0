"""Closed-form third torsional degree t3 for every ideal type.

t3 is the least s with u^3 (x-1)^s in the code.  The principal types and
<g1,g2> have direct case formulas; ideals containing g0 go through an
explicit generating set of the "zero 1-part, zero u-part" layer (the
u^2-part set) followed by pairwise eliminations; adjoining g3 caps the
result by its degree.

Every formula here is evaluated by constructing the actual polynomial and
reading its valuation, never by exponent bookkeeping alone: differences of
terms can cancel below their nominal degrees, and the valuation measures the
true offset.  Each candidate fed into a min is the valuation of an explicitly
constructed member of the code (or a value >= some other candidate), so the
minimum is always witnessed.  The g0 path builds those members from the
generators' (4, n) arrays (``chain`` layout) with the primitives the oracle
shares: ``chain._shift``, and ``chain._monic`` and ``_clear``, the step that
also builds the oracle's echelon form.  The case formulas stay on ``SPoly``
because their traces print the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InconsistentSet, WrongIdealType
from .chain import _clear, _monic, _shift, _valuation
from .codes import CyclicCode, GeneratorForm
from .sring import SPoly


@dataclass(frozen=True, eq=False)
class U2Element:
    """A code member of shape u^2 s^omega h1 + u^3 s^omega_tilde h2 (h1, h2
    units), held as a (4, n) encoding array whose rows 0 and 1 are zero; the
    array is made read-only on construction.

    omega / omega_tilde are the valuations of rows 2 and 3, None when the row
    is zero.
    """

    source: str
    element: np.ndarray

    def __post_init__(self):
        if self.element[:2].any():
            raise InconsistentSet(f"{self.source}: nonzero residue or u-part")
        self.element.flags.writeable = False

    @cached_property
    def omega(self) -> Optional[int]:
        return _nonzero_valuation(self.element[2])

    @cached_property
    def omega_tilde(self) -> Optional[int]:
        return _nonzero_valuation(self.element[3])


@dataclass(frozen=True)
class T3Result:
    t3: int
    path: dict


def _nonzero_valuation(col: np.ndarray) -> Optional[int]:
    v = _valuation(col)
    return v if v < col.size else None


def _witnessed(n: int, min_set: list[tuple[str, int]], method: str, **details) -> T3Result:
    """t3 as the least witnessed candidate (n when there is none), traced as
    {"method", *details, "min_set"}."""
    return T3Result(
        t3=min((v for _, v in min_set), default=n),
        path={"method": method, **details, "min_set": [[label, v] for label, v in min_set]},
    )


def _term(spec, n: int, exp: Optional[int], poly: Optional[SPoly]) -> SPoly:
    """s^exp * poly, zero when the unit part is absent or exp >= n.

    A negative exponent inside a taken branch would mean the dispatch is
    wrong, so it raises instead of clamping.
    """
    if poly is None:
        return SPoly.zero(spec, n)
    if exp is None or exp < 0:
        raise InconsistentSet("negative exponent reached a live branch")
    return poly.shift(exp)


# --- principal types and <g1,g2> ----------------------------------------------


def _require(code: CyclicCode, expected: tuple[int, ...]):
    if code.ideal_type != expected:
        raise WrongIdealType(str(expected), str(code.ideal_type))


def t3_g1(code: CyclicCode) -> T3Result:
    """<g1>: one pairwise elimination between u*g1 and s^(n-r1)*g1."""
    _require(code, (1,))
    form, n, spec = code.form, code.n, code.field
    r1, k4, p4, k5, p5 = form.r1, form.k4, form.p4, form.k5, form.p5

    if p4 is None or n - r1 + k4 >= r1:
        case, base = "a", ("r1", r1)
        poly = _term(spec, n, None if p4 is None else n - 2 * r1 + 2 * k4,
                     None if p4 is None else p4 * p4)
        poly = poly - _term(spec, n, n - r1 + k5 if p5 is not None else None, p5)
    else:
        case, base = "b", ("n-r1+k4", n - r1 + k4)
        poly = _term(spec, n, k4, p4 * p4)
        poly = poly - _term(spec, n, r1 - k4 + k5 if p5 is not None else None, p5)

    tau = _nonzero_valuation(poly.coeffs)
    min_set = [base] if tau is None else [base, ("tau", tau)]
    return _witnessed(n, min_set, "g1", case=case, tau_poly=str(poly), tau=tau)


def t3_g2(code: CyclicCode) -> T3Result:
    """<g2>: min of the generator degree and its shifted correction degree."""
    _require(code, (2,))
    form, n = code.form, code.n
    r2, k6, p6 = form.r2, form.k6, form.p6
    min_set = [("r2", r2)]
    if p6 is not None:
        min_set.append(("n-r2+k6", n - r2 + k6))
    return _witnessed(n, min_set, "g2")


def t3_g3(code: CyclicCode) -> T3Result:
    _require(code, (3,))
    return _witnessed(code.n, [("r3", code.form.r3)], "g3")


def t3_g1_g2(code: CyclicCode) -> T3Result:
    """<g1,g2>: the <g1> sub-result plus eliminations against g2."""
    _require(code, (1, 2))
    form, n, spec = code.form, code.n, code.field
    r1, r2 = form.r1, form.r2
    k4, p4, k5, p5, k6, p6 = form.k4, form.p4, form.k5, form.p5, form.k6, form.p6

    # dropping g2 keeps the form canonical, so the sub-code needs no re-validation
    sub = replace(code, form=GeneratorForm(r1=r1, k4=k4, k5=k5, p4=p4, p5=p5), ideal_type=(1,))
    t_sub = t3_g1(sub)

    # elimination of s^(n-r1)*g1 against g2 (u^2 level)
    if p4 is None or n - r1 + k4 > r2:
        branch = "n-r1+k4 > r2"
        poly3 = _term(spec, n, n - r1 + k5 if p5 is not None else None, p5)
        if p4 is not None and p6 is not None:
            poly3 = poly3 - _term(spec, n, n - r1 - r2 + k4 + k6, p4 * p6)
    else:
        branch = "n-r1+k4 <= r2"
        poly3 = _term(spec, n, r2 - k4 + k5 if p5 is not None else None, p5)
        if p6 is not None:
            poly3 = poly3 - _term(spec, n, k6, p4 * p6)
    # elimination of u*g1 against g2
    poly4 = _term(spec, n, k4 if p4 is not None else None, p4)
    poly4 = poly4 - _term(spec, n, r1 - r2 + k6 if p6 is not None else None, p6)

    min_set = [("t", t_sub.t3), ("r2", r2)]
    min_set += [(label, poly.valuation()) for label, poly in (("tau3", poly3), ("tau4", poly4))
                if not poly.is_zero()]
    kappa = min((v for _, v in min_set[2:]), default=None)
    if p4 is not None:
        min_set.append(("n-r1+k4", n - r1 + k4))
        if p5 is not None:
            min_set.append(("n-k4+k5", n - k4 + k5))
    if p6 is not None:
        min_set.append(("n-r2+k6", n - r2 + k6))

    # Values >= n come from vanished witnesses; r2 < n keeps the min honest.
    return _witnessed(n, min_set, "g1g2", branch=branch, t_sub=t_sub.path, kappa=kappa)


# --- ideals containing g0: the u^2-part sets ------------------------------------

_U2_TYPES = frozenset({(0,), (0, 1), (0, 2), (0, 1, 2)})


def u2_part_set(code: CyclicCode) -> list[U2Element]:
    """Generating set of the zero-residue, zero-u-part layer of the code.

    Built from the three base elements with (possibly) nonzero u-part

        sA = s^(n-r) g0,   uB = u g0,   g1,

    via exact pairwise u-part cancellations, the u- and s-shifts that kill a
    u-part outright, and the direct u^2-level generator g2.  Zero results are
    dropped; every member is an explicitly constructed element of the code.
    """
    if code.ideal_type not in _U2_TYPES:
        raise WrongIdealType("a g0-containing, g3-free type", str(code.ideal_type))
    field, n = code.field, code.n
    gens = {level: g.coeffs for level, g in code.generators().items()}
    A = _shift(gens[0], n - code.form.r)
    B = _shift(gens[0], 0, 1)
    D = gens.get(1)

    def elim(x, y):
        # the element of smaller u-part valuation clears the other's u-part
        x, y = sorted((x, y), key=lambda e: _valuation(e[1]))
        out = y.copy()
        _clear(field, out, 1, *_monic(field, x, 1))
        return out

    raw: list[tuple[str, np.ndarray]] = []
    a_val = _valuation(A[1])
    a_has_u = a_val < n

    if D is not None:
        if a_has_u:
            raw.append(("elim(sA,ug0)", elim(A, B)))
            raw.append(("elim(sA,g1)", elim(A, D)))
        else:
            raw.append(("sA", A))
        raw.append(("elim(ug0,g1)", elim(B, D)))
        if a_has_u:
            raw.append(("s-shift(sA)", _shift(A, n - a_val)))
            raw.append(("u*sA", _shift(A, 0, 1)))
        raw.append(("s-shift(g1)", _shift(D, n - _valuation(D[1]))))
        raw.append(("u*ug0", _shift(B, 0, 1)))
        raw.append(("u*g1", _shift(D, 0, 1)))
    else:
        if a_has_u:
            raw.append(("elim(sA,ug0)", elim(A, B)))
            raw.append(("u*sA", _shift(A, 0, 1)))
        else:
            raw.append(("sA", A))
        raw.append(("u*ug0", _shift(B, 0, 1)))

    if 2 in gens:
        raw.append(("g2", gens[2]))

    return [U2Element(src, elem) for src, elem in raw if elem.any()]


def t3_from_u2_set(members: list[U2Element], code: CyclicCode) -> T3Result:
    """nu-case analysis over a u^2-part set.

    Candidates: omega_i (u * f_i), n - omega_i + omega~_i (s^(n-omega_i) f_i),
    omega~ of the pure-u^3 members, and the valuations of all pairwise
    u^2-cancellations.  All are valuations of explicit code members.
    """
    n = code.n
    with_u2 = sorted(
        (f for f in members if f.omega is not None), key=lambda f: (f.omega, f.source)
    )
    u3_only = [f for f in members if f.omega is None]

    min_set: list[tuple[str, int]] = []
    for f in with_u2:
        min_set.append((f"w[{f.source}]", f.omega))
        shifted = _shift(f.element, n - f.omega)
        if shifted[2].any():
            raise InconsistentSet(f"{f.source}: s-shift left a nonzero u^2-part")
        if shifted.any():
            min_set.append((f"shift[{f.source}]", _valuation(shifted[3])))
    for f in u3_only:
        min_set.append((f"u3[{f.source}]", f.omega_tilde))

    taus = []
    for a, fi in enumerate(with_u2[:-1]):
        # one scaled pivot per member, not per pair
        v, h = _monic(code.field, fi.element, 2)
        for fj in with_u2[a + 1 :]:
            elim = fj.element.copy()
            _clear(code.field, elim, 2, v, h)
            if elim.any():
                tau = _valuation(elim[3])
                taus.append(tau)
                min_set.append((f"elim[{fi.source}|{fj.source}]", tau))

    return _witnessed(
        n,
        min_set,
        "u2-set",
        set_size=len(members),
        nu=len(with_u2),
        omegas=[f.omega for f in with_u2],
        taus=sorted(taus),
        m=min(taus, default=None),
        members=[f.source for f in members],
    )


def t3_adjoin_g3(t_hat: int, r3: int) -> int:
    """Adjoining u^3 s^r3 caps the degree at r3."""
    return min(t_hat, r3)


# --- dispatch ------------------------------------------------------------------


def t3(code: CyclicCode) -> T3Result:
    """Third torsional degree of any of the 15 ideal types."""
    t = code.ideal_type
    if t == (1,):
        return t3_g1(code)
    if t == (2,):
        return t3_g2(code)
    if t == (3,):
        return t3_g3(code)
    if t == (1, 2):
        return t3_g1_g2(code)
    if t in _U2_TYPES:
        return t3_from_u2_set(u2_part_set(code), code)
    # remaining types contain g3: compute the sub-code result and cap by r3
    sub = code.without_g3()
    sub_res = t3(sub)
    value = t3_adjoin_g3(sub_res.t3, code.form.r3)
    return T3Result(
        t3=value,
        path={
            "method": "adjoin-g3",
            "r3": code.form.r3,
            "t_hat": sub_res.t3,
            "sub": sub_res.path,
        },
    )
