"""Closed-form third torsional degree t3 for every ideal type.

t3 is the least s with u^3 (x-1)^s in the code.  The principal types and
<g1,g2> have direct case formulas; ideals containing g0 go through an
explicit generating set of the "zero 1-part, zero u-part" layer (the
u^2-part set) followed by pairwise eliminations; adjoining g3 caps the
result by its degree.

Every formula here is evaluated by constructing the actual polynomial and
reading its valuation off a decomposition, never by exponent bookkeeping
alone: differences of terms can cancel below their nominal degrees, and the
decomposition measures the true offset.  Each candidate fed into a min is
the valuation of an explicitly constructed member of the code (or a value
>= some other candidate), so the minimum is always witnessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InconsistentSet, WrongIdealType
from .chain import RingElement
from .codes import CyclicCode, GeneratorForm, validate_canonical
from .sring import SPoly, decompose


@dataclass(frozen=True)
class U2Element:
    """A code member of shape u^2 s^omega h1 + u^3 s^omega_tilde h2.

    omega / omega_tilde are present exactly when the matching part is
    nonzero; h1 / h2 are the unit cofactors (zero polynomials otherwise).
    """

    source: str
    element: RingElement
    omega: Optional[int]
    omega_tilde: Optional[int]
    h1: SPoly
    h2: SPoly


@dataclass(frozen=True)
class T3Result:
    t3: int
    path: dict


def _as_u2_element(source: str, elem: RingElement) -> U2Element:
    if not (elem.parts[0].is_zero() and elem.parts[1].is_zero()):
        raise InconsistentSet(f"{source}: nonzero residue or u-part")
    d2 = decompose(elem.parts[2])
    d3 = decompose(elem.parts[3])
    return U2Element(
        source=source,
        element=elem,
        omega=d2.valuation if d2.valuation < elem.n else None,
        omega_tilde=d3.valuation if d3.valuation < elem.n else None,
        h1=d2.unit_part,
        h2=d3.unit_part,
    )


def _check_u2_element(f: U2Element):
    n = f.element.n
    rebuilt = RingElement.from_part(2, f.h1.shift(f.omega if f.omega is not None else n))
    rebuilt = rebuilt + RingElement.from_part(
        3, f.h2.shift(f.omega_tilde if f.omega_tilde is not None else n)
    )
    if rebuilt != f.element:
        raise InconsistentSet(f"{f.source}: fields do not reassemble the element")
    if (f.omega is None) != f.h1.is_zero() or (f.omega_tilde is None) != f.h2.is_zero():
        raise InconsistentSet(f"{f.source}: degree/unit presence mismatch")


def _elim_u_level(x: RingElement, y: RingElement) -> RingElement:
    """Combination of x and y with the u-parts cancelled exactly.

    Shifts whichever has the smaller u-part valuation up to the other and
    subtracts with the unit ratio, so the u-part vanishes identically.
    """
    dx = decompose(x.parts[1])
    dy = decompose(y.parts[1])
    if dx.valuation <= dy.valuation:
        ratio = dy.unit_part * dx.unit_part.inverse()
        out = y - x.shift_mul(dy.valuation - dx.valuation).poly_mul(ratio)
    else:
        ratio = dx.unit_part * dy.unit_part.inverse()
        out = x - y.shift_mul(dx.valuation - dy.valuation).poly_mul(ratio)
    if not out.parts[1].is_zero():
        raise InconsistentSet("u-part elimination left a nonzero u-part")
    return out


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
        case = "a"
        base = ("r1", r1)
        poly = _term(spec, n, None if p4 is None else n - 2 * r1 + 2 * k4,
                     None if p4 is None else p4 * p4)
        poly = poly - _term(spec, n, n - r1 + k5 if p5 is not None else None, p5)
    else:
        case = "b"
        base = ("n-r1+k4", n - r1 + k4)
        poly = _term(spec, n, k4, p4 * p4)
        poly = poly - _term(spec, n, r1 - k4 + k5 if p5 is not None else None, p5)

    dec = decompose(poly)
    min_set = [base]
    if not dec.unit_part.is_zero():
        min_set.append(("tau", dec.valuation))
    t3 = min(v for _, v in min_set)
    return T3Result(
        t3=t3,
        path={
            "method": "g1",
            "case": case,
            "tau_poly": str(poly),
            "tau": None if dec.unit_part.is_zero() else dec.valuation,
            "min_set": [[label, v] for label, v in min_set],
        },
    )


def t3_g2(code: CyclicCode) -> T3Result:
    """<g2>: min of the generator degree and its shifted correction degree."""
    _require(code, (2,))
    form, n = code.form, code.n
    r2, k6, p6 = form.r2, form.k6, form.p6
    min_set = [("r2", r2)]
    if p6 is not None:
        min_set.append(("n-r2+k6", n - r2 + k6))
    t3 = min(v for _, v in min_set)
    return T3Result(t3=t3, path={"method": "g2", "min_set": [[l, v] for l, v in min_set]})


def t3_g3(code: CyclicCode) -> T3Result:
    _require(code, (3,))
    return T3Result(t3=code.form.r3, path={"method": "g3", "min_set": [["r3", code.form.r3]]})


def t3_g1_g2(code: CyclicCode) -> T3Result:
    """<g1,g2>: the <g1> sub-result plus eliminations against g2."""
    _require(code, (1, 2))
    form, n, spec = code.form, code.n, code.field
    r1, r2 = form.r1, form.r2
    k4, p4, k5, p5, k6, p6 = form.k4, form.p4, form.k5, form.p5, form.k6, form.p6

    sub = validate_canonical(
        code.field, code.k, GeneratorForm(r1=r1, k4=k4, k5=k5, p4=p4, p5=p5)
    )
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

    dec3, dec4 = decompose(poly3), decompose(poly4)
    taus = []
    min_set = [("t", t_sub.t3), ("r2", r2)]
    if not dec3.unit_part.is_zero():
        taus.append(dec3.valuation)
        min_set.append(("tau3", dec3.valuation))
    if not dec4.unit_part.is_zero():
        taus.append(dec4.valuation)
        min_set.append(("tau4", dec4.valuation))
    if p4 is not None:
        min_set.append(("n-r1+k4", n - r1 + k4))
        if p5 is not None:
            min_set.append(("n-k4+k5", n - k4 + k5))
    if p6 is not None:
        min_set.append(("n-r2+k6", n - r2 + k6))

    # Values >= n come from vanished witnesses; r2 < n keeps the min honest.
    t3 = min(v for _, v in min_set)
    return T3Result(
        t3=t3,
        path={
            "method": "g1g2",
            "branch": branch,
            "t_sub": t_sub.path,
            "kappa": min(taus) if taus else None,
            "min_set": [[label, v] for label, v in min_set],
        },
    )


# --- ideals containing g0: the u^2-part sets ------------------------------------

_U2_TYPES = frozenset({(0,), (0, 1), (0, 2), (0, 1, 2)})


def u2_part_set(code: CyclicCode) -> list[U2Element]:
    """Generating set of the zero-residue, zero-u-part layer of the code.

    Built from the three base elements with (possibly) nonzero u-part

        sA = s^(n-r) g0,   uB = u g0,   g1,

    via exact pairwise u-part eliminations, the u- and s-shifts that kill a
    u-part outright, and the direct u^2-level generator g2.  Zero results are
    dropped; every member is an explicitly constructed element of the code.
    """
    if code.ideal_type not in _U2_TYPES:
        raise WrongIdealType("a g0-containing, g3-free type", str(code.ideal_type))
    n = code.n
    g0 = code.generator(0)
    A = g0.shift_mul(n - code.form.r)
    B = g0.shift_mul(0, 1)
    D = code.generator(1) if 1 in code.ideal_type else None

    raw: list[tuple[str, RingElement]] = []
    a_val = decompose(A.parts[1]).valuation
    a_has_u = a_val < n

    if D is not None:
        r1val = decompose(D.parts[1]).valuation
        if a_has_u:
            raw.append(("elim(sA,ug0)", _elim_u_level(A, B)))
            raw.append(("elim(sA,g1)", _elim_u_level(A, D)))
        else:
            raw.append(("sA", A))
        raw.append(("elim(ug0,g1)", _elim_u_level(B, D)))
        if a_has_u:
            raw.append(("s-shift(sA)", A.shift_mul(n - a_val)))
            raw.append(("u*sA", A.shift_mul(0, 1)))
        raw.append(("s-shift(g1)", D.shift_mul(n - r1val)))
        raw.append(("u*ug0", B.shift_mul(0, 1)))
        raw.append(("u*g1", D.shift_mul(0, 1)))
    else:
        if a_has_u:
            raw.append(("elim(sA,ug0)", _elim_u_level(A, B)))
            raw.append(("u*sA", A.shift_mul(0, 1)))
        else:
            raw.append(("sA", A))
        raw.append(("u*ug0", B.shift_mul(0, 1)))

    if 2 in code.ideal_type:
        raw.append(("g2", code.generator(2)))

    return [_as_u2_element(src, elem) for src, elem in raw if not elem.is_zero()]


def t3_from_u2_set(members: list[U2Element], code: CyclicCode) -> T3Result:
    """nu-case analysis over a u^2-part set.

    Candidates: omega_i (u * f_i), n - omega_i + omega~_i (s^(n-omega_i) f_i),
    omega~ of the pure-u^3 members, and the valuations of all pairwise
    u^2-eliminations.  All are valuations of explicit code members.
    """
    n = code.n
    for f in members:
        _check_u2_element(f)
    with_u2 = sorted(
        (f for f in members if f.omega is not None), key=lambda f: (f.omega, f.source)
    )
    u3_only = [f for f in members if f.omega is None]

    min_set: list[tuple[str, int]] = []
    for f in with_u2:
        min_set.append((f"w[{f.source}]", f.omega))
        shifted = f.element.shift_mul(n - f.omega)
        if not shifted.parts[2].is_zero():
            raise InconsistentSet(f"{f.source}: s-shift left a nonzero u^2-part")
        if not shifted.is_zero():
            min_set.append((f"shift[{f.source}]", decompose(shifted.parts[3]).valuation))
    for f in u3_only:
        min_set.append((f"u3[{f.source}]", f.omega_tilde))

    taus = []
    for a, fi in enumerate(with_u2[:-1]):
        h1_inv = fi.h1.inverse()
        for fj in with_u2[a + 1 :]:
            ratio = h1_inv * fj.h1
            elim = fj.element - fi.element.shift_mul(fj.omega - fi.omega).poly_mul(ratio)
            if not elim.parts[2].is_zero():
                raise InconsistentSet(f"elim[{fi.source}|{fj.source}]: nonzero u^2-part")
            if not elim.is_zero():
                tau = decompose(elim.parts[3]).valuation
                taus.append(tau)
                min_set.append((f"elim[{fi.source}|{fj.source}]", tau))

    t3 = min((v for _, v in min_set), default=n)
    return T3Result(
        t3=t3,
        path={
            "method": "u2-set",
            "set_size": len(members),
            "nu": len(with_u2),
            "omegas": [f.omega for f in with_u2],
            "taus": sorted(taus),
            "m": min(taus) if taus else None,
            "members": [f.source for f in members],
            "min_set": [[label, v] for label, v in min_set],
        },
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
