"""Closed-form third torsional degree t3 for every ideal type.

t3 is the least s with u^3 (x-1)^s in the code.  The principal types and
<g1,g2> have direct case formulas; ideals containing g0 go through an
explicit generating set of the "zero 1-part, zero u-part" layer (the
u^2-part set) followed by pairwise eliminations; adjoining g3 caps the
result by its degree.

Every formula with a difference of terms is evaluated by constructing the
actual polynomial and reading its valuation, never by exponent bookkeeping
alone: differences can cancel below their nominal degrees, and the
valuation measures the true offset.  (An s-shift cancels nothing, so the
valuations of a shifted member follow from its own.)  Each candidate fed
into a min is the valuation of an explicitly constructed member of the code
(or a value >= some other candidate), so the minimum is always witnessed.
The g0 path builds those members from the code's generator arrays
(``CyclicCode.arrays``, built once per code, in the ``chain`` layout),
divided by s^v0 for v0 the least valuation over their columns:
x -> x / s^v0 maps s^v0 F[s]/<s^n> onto F[s]/<s^(n-v0)> and commutes with
products, shifts and ``chain._clear``, so the path computes on
(4, n - v0) arrays and adds v0 back to every valuation it reports.  The
level-1 eliminations take the oracle's own fraction-free step
``chain._clear``, each pivot first scaled with ``chain._monic`` (their
results become members, and a unit multiple of a member would move later
valuations) and then clearing all of its rows in one stacked step.  Only
the u-part of sA = s^(n-r) g0 can carry a non-constant unit (those of u g0
and g1 are monomials), so a code inverts at most one series.  Every pairwise
u^2-cancellation is read off one product table of each member's u^2 unit
times every member's u^3-part: one kernel call per member whose unit is not
a constant, whatever the number of pairs.  The case formulas stay on
``SPoly`` because their traces print the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import InconsistentSet, MixedLength, OutOfRange, WrongIdealType
from .chain import _clear, _monic, _shift
from .codes import CyclicCode
from .sring import SPoly, _mul_trunc, _valuation


@dataclass(frozen=True, eq=False)
class U2Element:
    """A code member of shape u^2 s^omega h1 + u^3 s^omega_tilde h2 (h1, h2
    units), held as the (4, n - offset) encoding array of the member divided
    by s^offset; rows 0 and 1 are zero, and the array is made read-only on
    construction.  Any array-like is taken through ``np.asarray``.  An
    array of a non-integer dtype (OutOfRange), one that is not four rows or
    an offset that is not a whole number >= 0 (MixedLength), and a zero
    member (InconsistentSet) are refused; whether
    the encodings lie in the field is checked by ``t3_from_u2_set``, which
    knows the field.

    omega / omega_tilde are the valuations of the member's rows 2 and 3
    (offset included), None when the row is zero.
    """

    source: str
    element: np.ndarray
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "element", np.asarray(self.element))
        if self.element.dtype.kind not in "iu":
            raise OutOfRange(f"{self.source}: encodings of dtype {self.element.dtype}, not integers")
        if (self.element.ndim != 2 or self.element.shape[0] != 4
                or not isinstance(self.offset, (int, np.integer)) or self.offset < 0):
            raise MixedLength(f"{self.source}: not four u-adic parts at a whole window offset >= 0")
        if self.element[:2].any():
            raise InconsistentSet(f"{self.source}: nonzero residue or u-part")
        if not self.element.any():
            raise InconsistentSet(f"{self.source}: zero member")
        self.element.flags.writeable = False

    @cached_property
    def omega(self) -> Optional[int]:
        return self._valuation(2)

    @cached_property
    def omega_tilde(self) -> Optional[int]:
        return self._valuation(3)

    def _valuation(self, row: int) -> Optional[int]:
        v = _valuation(self.element[row])
        return None if v == self.element.shape[1] else v + self.offset


@dataclass(frozen=True)
class T3Result:
    t3: int
    path: dict


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

    tau = None if poly.is_zero() else poly.valuation()
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
    sub = replace(code, form=replace(form, r2=None, k6=None, p6=None))
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

    Built from the base elements with a nonzero u-part, in this order,

        sA = s^(n-r) g0 (when its u-part is nonzero),   ug0 = u g0,   g1,

    via exact u-part cancellations of each pair (in a pair the element of
    smaller u-part valuation pivots, ties to the first; each pivot is scaled
    once and clears all of its rows in one stacked step), the u- and
    s-shifts that kill a u-part outright, and the direct u^2-level generator
    g2.  Zero results are dropped; every member is an explicitly constructed
    element of the code.  Each is held on the top s-window that ``t3``
    computes on: divided by s^v0, v0 the least valuation over the
    generators' columns, with offset v0 (omega and omega_tilde count it).
    """
    if code.ideal_type not in _U2_TYPES:
        raise WrongIdealType("a g0-containing, g3-free type", str(code.ideal_type))
    v0 = min(_valuation(x.any(axis=0)) for x in code.arrays.values())
    gens = {level: x[:, v0:] for level, x in code.arrays.items()}
    field, n = code.field, code.n - v0
    A = _shift(gens[0], code.n - code.form.r)
    B = _shift(gens[0], 0, 1)
    D = gens.get(1)
    a_val = _valuation(A[1])

    base = {"sA": A} if a_val < n else {}
    base["ug0"] = B
    if D is not None:
        base["g1"] = D
    vals = {name: _valuation(x[1]) for name, x in base.items()}
    pairs = list(combinations(base, 2))
    pivot_of = {pair: min(pair, key=vals.get) for pair in pairs}
    cleared = {}
    for pivot in dict.fromkeys(pivot_of.values()):
        mine = [pair for pair in pairs if pivot_of[pair] == pivot]
        stack = np.array([base[y if x == pivot else x] for x, y in mine])
        _clear(field, stack, 1, *_monic(field, base[pivot], 1))
        stack.flags.writeable = False  # frozen before its rows become members
        cleared.update(zip(mine, stack))

    raw = [] if "sA" in base else [("sA", A)]
    raw += [(f"elim({x},{y})", cleared[x, y]) for x, y in pairs]
    if "sA" in base and D is not None:
        raw.append(("s-shift(sA)", _shift(A, n - a_val)))
    if "sA" in base:
        raw.append(("u*sA", _shift(A, 0, 1)))
    if D is not None:
        raw.append(("s-shift(g1)", _shift(D, n - vals["g1"])))
    raw.append(("u*ug0", _shift(B, 0, 1)))
    if D is not None:
        raw.append(("u*g1", _shift(D, 0, 1)))
    if 2 in gens:
        raw.append(("g2", gens[2]))

    return [U2Element(src, elem, v0) for src, elem in raw if elem.any()]


def _pair_eliminations(field, with_u2: list[U2Element]) -> np.ndarray:
    """Row 3 of the u^2-cancellation of every pair i < j of members sorted
    by omega, in ``combinations`` order, as a (pairs, width) array; rows 0
    to 2 of each cancellation are zero.

    With w_x = f_x[2] >> omega_x (a unit) and b_x = f_x[3], the cancellation
    is the fraction-free step w_i f_j - (f_j[2] >> omega_i) f_i of
    ``chain._clear``, and since f_j[2] >> omega_i = s^(omega_j - omega_i) w_j
    its row 3 is w_i b_j - s^(omega_j - omega_i) w_j b_i.  So every pair
    reads two entries of the table P[x, y] = w_x b_y, x != y: one stacked
    kernel call per member whose unit is not a constant, against the
    nonzero b_y of the other members, and a field-table lookup for a
    constant one.
    """
    local = [f.omega - f.offset for f in with_u2]
    b = np.array([f.element[3] for f in with_u2])
    width = b.shape[1]
    table = np.zeros((len(with_u2),) + b.shape, dtype=np.int16)
    live = np.flatnonzero(b.any(axis=1)).tolist()
    for x, (f, v) in enumerate(zip(with_u2, local)):
        w, ys = f.element[2, v:], [y for y in live if y != x]
        if ys:
            table[x, ys] = _mul_trunc(field, w, b[ys], width) if w[1:].any() else field.mul_table[w[0], b[ys]]
    pairs = list(combinations(range(len(with_u2)), 2))
    i, j = np.array(pairs).T
    lower = np.zeros((len(pairs), width), dtype=np.int16)  # s^(omega_j - omega_i) w_j b_i
    for k, (x, y) in enumerate(pairs):
        d = local[y] - local[x]
        lower[k, d:] = table[y, x, : width - d]
    return field.sub_table[table[i, j], lower]


def t3_from_u2_set(members: list[U2Element], code: CyclicCode) -> T3Result:
    """nu-case analysis over a u^2-part set.

    Candidates: omega_i (u * f_i), n - omega_i + omega~_i (s^(n-omega_i) f_i,
    whose u^2-part the shift truncates; nonzero only when omega~_i <
    omega_i, so read off the cached valuations), omega~ of the pure-u^3
    members, and the valuations of all pairwise u^2-cancellations.  All are
    valuations of explicit code members.  The members must share one
    window offset v0 and be of width n - v0, and hold encodings of the
    code's field; every valuation is reported with v0 added back.
    """
    n, q = code.n, code.field.q
    offsets = {f.offset for f in members}
    if len(offsets) > 1 or any(f.element.shape[1] + f.offset != n for f in members):
        raise MixedLength(f"u^2-part members of another length or window than n = {n}")
    # one reduction for all members: as int64 read unsigned, a negative
    # encoding (or a uint64 one past 2^63) is at least q too
    if members and np.array([f.element for f in members], np.int64).view(np.uint64).max() >= q:
        raise OutOfRange(f"u^2-part member with an encoding outside [0, {q})")
    return _t3_u2_set(members, code)


def _t3_u2_set(members: list[U2Element], code: CyclicCode) -> T3Result:
    """``t3_from_u2_set`` on members known to share one window and hold
    encodings of the code's field, as ``u2_part_set`` builds them."""
    n = code.n
    v0 = members[0].offset if members else 0
    with_u2 = sorted(
        (f for f in members if f.omega is not None), key=lambda f: (f.omega, f.source)
    )
    u3_only = [f for f in members if f.omega is None]

    min_set: list[tuple[str, int]] = []
    for f in with_u2:
        min_set.append((f"w[{f.source}]", f.omega))
        if f.omega_tilde is not None and f.omega_tilde < f.omega:
            min_set.append((f"shift[{f.source}]", n - f.omega + f.omega_tilde))
    for f in u3_only:
        min_set.append((f"u3[{f.source}]", f.omega_tilde))

    taus = []
    if len(with_u2) > 1:
        nonzero = _pair_eliminations(code.field, with_u2) != 0
        pairs = combinations(with_u2, 2)
        for (fi, fj), kept, tau in zip(pairs, nonzero.any(axis=1), nonzero.argmax(axis=1)):
            if kept:
                taus.append(v0 + int(tau))
                min_set.append((f"elim[{fi.source}|{fj.source}]", taus[-1]))

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
        return _t3_u2_set(u2_part_set(code), code)
    # remaining types contain g3: adjoining u^3 s^r3 caps the sub-code's degree at r3
    sub_res = t3(code.without_g3())
    return T3Result(
        t3=min(sub_res.t3, code.form.r3),
        path={
            "method": "adjoin-g3",
            "r3": code.form.r3,
            "t_hat": sub_res.t3,
            "sub": sub_res.path,
        },
    )
