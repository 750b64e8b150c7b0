import random

import numpy as np
import pytest

import u4codes as u
from u4codes.chain import RingElement, _clear, _monic, _valuation
from u4codes.errors import InconsistentSet, WrongIdealType
from u4codes.sring import SPoly, decompose
from conftest import (
    dense_unit,
    golden_g0_f3,
    golden_g0_g1_f2,
    golden_g1_f4,
    golden_g1_g2_f4,
    golden_g2_f25,
)


def oracle_t3(code):
    return u.torsion_oracle(code, 3)


def as_ring_element(code, arr):
    """A (4, n) u^2-part member as the RingElement that ``contains`` takes."""
    return RingElement(code.field, code.n, arr)


# --- t3_g1 -----------------------------------------------------------------------


def test_t3_g1_golden(F4):
    res = u.t3_g1(golden_g1_f4(F4))
    assert res.t3 == 1
    assert res.path["case"] == "b"
    assert res.path["tau"] == 1
    assert ["n-r1+k4", 3] in res.path["min_set"]


def test_t3_g1_pure_power(F2):
    code = u.validate_canonical(F2, 3, u.GeneratorForm(r1=5))
    assert u.t3_g1(code).t3 == 5
    assert oracle_t3(code) == 5


def test_t3_g1_derived_socle_hits_zero(F2):
    code = u.validate_canonical(F2, 2, u.GeneratorForm(r1=3, k4=0, p4=SPoly.one(F2, 4)))
    res = u.t3_g1(code)
    assert res.path["case"] == "b"
    assert res.path["tau"] == 0
    assert res.t3 == 0 == oracle_t3(code)


def test_t3_g1_wrong_type(F2):
    with pytest.raises(WrongIdealType):
        u.t3_g1(u.validate_canonical(F2, 2, u.GeneratorForm(r2=1)))


# --- t3_g1_g2 --------------------------------------------------------------------


def test_t3_g1_g2_golden(F4):
    res = u.t3_g1_g2(golden_g1_g2_f4(F4))
    assert res.t3 == 0
    assert res.path["kappa"] == 0
    labels = dict((l, v) for l, v in res.path["min_set"])
    assert labels["t"] == 1
    assert labels["r2"] == 4
    assert labels["n-r1+k4"] == 3
    assert labels["n-k4+k5"] == 9
    assert res.t3 == oracle_t3(golden_g1_g2_f4(F4))


def test_t3_g1_g2_no_corrections(F2):
    code = u.validate_canonical(F2, 3, u.GeneratorForm(r1=5, r2=3))
    assert u.t3_g1_g2(code).t3 == 3 == oracle_t3(code)


def test_t3_g1_g2_derived(F2):
    code = u.validate_canonical(
        F2, 2, u.GeneratorForm(r1=3, r2=2, k4=0, p4=SPoly.one(F2, 4))
    )
    assert u.t3_g1_g2(code).t3 == oracle_t3(code)


# --- t3_g2 / t3_g3 ---------------------------------------------------------------


def test_t3_g2_golden(F25):
    res = u.t3_g2(golden_g2_f25(F25))
    assert res.t3 == 51
    assert sorted(v for _, v in res.path["min_set"]) == [51, 141]


def test_t3_g2_small_cases(F2):
    assert u.t3_g2(u.validate_canonical(F2, 3, u.GeneratorForm(r2=0))).t3 == 0
    code = u.validate_canonical(F2, 3, u.GeneratorForm(r2=4, k6=1, p6=SPoly.one(F2, 8)))
    assert u.t3_g2(code).t3 == 4 == oracle_t3(code)


def test_t3_g3(F3):
    for r3 in (0, 5, 8):
        code = u.validate_canonical(F3, 2, u.GeneratorForm(r3=r3))
        assert u.t3_g3(code).t3 == r3 == oracle_t3(code)


# --- u2_part_set ------------------------------------------------------------------


def test_u2_set_golden_g0_g1(F2):
    code = golden_g0_g1_f2(F2)
    members = u.u2_part_set(code)
    assert len(members) == 8
    pure_u3 = [f for f in members if f.omega is None]
    assert any(f.omega_tilde == 0 for f in pure_u3)
    # all members really sit in the code
    basis = u.span_basis(code)
    for f in members:
        assert u.contains(basis, as_ring_element(code, f.element))


def test_u2_set_golden_g0_f3(F3):
    code = golden_g0_f3(F3)
    members = u.u2_part_set(code)
    assert len(members) == 3
    basis = u.span_basis(code)
    for f in members:
        assert u.contains(basis, as_ring_element(code, f.element))
    # the reference elimination of the two plain members is present: the
    # shift-and-subtract of u^2 s^5 + ... against u^2 s^6 (1+2s) has value 3
    res = u.t3_from_u2_set(members, code)
    assert 3 in res.path["taus"]
    # ... but the full pair analysis finds the smaller witness at 2
    assert res.t3 == 2 == oracle_t3(code)
    assert res.path["m"] == 2


def test_u2_set_bare_g0(F3):
    code = u.validate_canonical(F3, 2, u.GeneratorForm(r=5))
    members = u.u2_part_set(code)
    assert len(members) == 1
    assert members[0].omega == 5 and members[0].omega_tilde is None
    assert not members[0].element.flags.writeable


def test_u2_set_wrong_type(F2):
    with pytest.raises(WrongIdealType):
        u.u2_part_set(u.validate_canonical(F2, 2, u.GeneratorForm(r1=1)))


def test_t3_from_u2_set_singleton_u3(F2):
    code = u.validate_canonical(F2, 3, u.GeneratorForm(r=4))
    # fabricate a pure-u^3 witness set
    elem = RingElement.from_part(3, SPoly.monomial(F2, 8, 5)).coeffs
    res = u.t3_from_u2_set([u.U2Element("w", elem)], code)
    assert res.t3 == 5
    assert res.path["nu"] == 0
    # degrees are read off the array, which may not carry a residue or u-part
    with pytest.raises(InconsistentSet):
        u.U2Element("w", RingElement.from_part(1, SPoly.monomial(F2, 8, 5)).coeffs)


def test_u2_set_elimination_members_in_code():
    # every intermediate the engine builds must itself be a code member
    for (p, m, k) in [(2, 1, 2), (3, 1, 2)]:
        spec = u.field_make(p, m)
        rng = random.Random(31)
        done = 0
        while done < 40:
            code = u.random_code(rng, spec, k)
            if 0 not in code.ideal_type or 3 in code.ideal_type:
                continue
            done += 1
            basis = u.span_basis(code)
            members = u.u2_part_set(code)
            for f in members:
                assert u.contains(basis, as_ring_element(code, f.element))
            with_u2 = sorted(
                (f for f in members if f.omega is not None), key=lambda f: f.omega
            )
            for i in range(len(with_u2)):
                for j in range(i + 1, len(with_u2)):
                    fi, fj = with_u2[i], with_u2[j]
                    ei, ej = as_ring_element(code, fi.element), as_ring_element(code, fj.element)
                    # the reference elimination on ring elements
                    ratio = decompose(ei.parts[2]).unit_part.inverse() * decompose(ej.parts[2]).unit_part
                    elim = ej - ei.shift_mul(fj.omega - fi.omega).poly_mul(ratio)
                    assert u.contains(basis, elim)
                    fast = fj.element.copy()
                    _clear(spec, fast, 2, *_monic(spec, fi.element, 2))
                    assert np.array_equal(fast, elim.coeffs)


# --- unit inverses bounded by the precision their multiples reach ---------------


@pytest.mark.parametrize("p,m,k", [(2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (5, 2, 1)])
def test_bounded_inverse_cancels_like_the_full_one(p, m, k):
    # every pair of each u^2-part set, equal omegas (d = 0) included: the
    # pivot scaled by the inverse mod s^(n - val x) clears like the full one
    spec = u.field_make(p, m)
    rng = random.Random(4100 + 100 * p + 10 * m + k)
    done = bounded = 0
    while done < 30:
        code = u.random_code(rng, spec, k)
        if 0 not in code.ideal_type or 3 in code.ideal_type:
            continue
        done += 1
        with_u2 = sorted((f for f in u.u2_part_set(code) if f.omega is not None), key=lambda f: f.omega)
        for a, fi in enumerate(with_u2):
            x = fi.element
            prec = code.n - min(_valuation(row) for row in x)
            full = decompose(SPoly(spec, code.n, x[2])).unit_part.inverse()
            v, h = _monic(spec, x, 2)
            assert v == fi.omega
            assert np.array_equal(h, as_ring_element(code, x).poly_mul(full).coeffs)
            bounded += prec < code.n
            for fj in with_u2[a + 1 :]:
                ratio = full * decompose(SPoly(spec, code.n, fj.element[2])).unit_part
                want = as_ring_element(code, fj.element) - as_ring_element(code, x).shift_mul(
                    fj.omega - v
                ).poly_mul(ratio)
                got = fj.element.copy()
                _clear(spec, got, 2, v, h)
                assert np.array_equal(got, want.coeffs)
    assert bounded >= 10


@pytest.mark.parametrize("degrees", [{"r": 620, "r1": 600, "r2": 580}, {"r": 615, "r1": 605}])
def test_formula_equals_oracle_at_high_degree(F5, degrees):
    # n = 625 with every generator degree near n: each u^2-part member has
    # valuation far above 0, so n - val x is a small share of n
    n, rng = 625, random.Random(sum(degrees.values()))
    owners = {1: "r", 2: "r", 3: "r", 4: "r1", 5: "r1", 6: "r2"}
    bounds = {1: "r1", 2: "r2", 3: "r3", 4: "r2", 5: "r3", 6: "r3"}  # n when absent
    fields = dict(degrees)
    for i in range(1, 7):
        if owners[i] in degrees:
            fields[f"k{i}"] = degrees.get(bounds[i], n) * 19 // 20
            fields[f"p{i}"] = dense_unit(rng, F5, n)
    code = u.validate_canonical(F5, 4, u.GeneratorForm(**fields))
    members = u.u2_part_set(code)
    assert max(n - min(_valuation(row) for row in f.element) for f in members) < n // 4
    assert u.t3(code).t3 == u.torsion_profile(code, u.span_basis(code))[3]


# --- adjoining g3 ------------------------------------------------------------------


def test_t3_adjoin_is_min():
    assert u.t3_adjoin_g3(5, 7) == 5
    assert u.t3_adjoin_g3(5, 2) == 2
    assert u.t3_adjoin_g3(0, 0) == 0
    for a in range(8):
        for b in range(8):
            assert u.t3_adjoin_g3(a, b) == min(a, b)


def test_dispatch_g3_composites_match_oracle():
    for (p, m, k) in [(2, 1, 2), (3, 1, 2)]:
        spec = u.field_make(p, m)
        rng = random.Random(55)
        done = 0
        while done < 60:
            code = u.random_code(rng, spec, k)
            if 3 not in code.ideal_type or code.ideal_type == (3,):
                continue
            done += 1
            res = u.t3(code)
            assert res.path["method"] == "adjoin-g3"
            assert res.t3 == oracle_t3(code)


# --- the master property -------------------------------------------------------------


@pytest.mark.parametrize("p,m,k,trials", [(2, 1, 2, 150), (2, 2, 2, 100), (3, 1, 2, 100), (5, 1, 1, 100), (2, 1, 3, 100)])
def test_formula_equals_oracle_random(p, m, k, trials):
    spec = u.field_make(p, m)
    rng = random.Random(1000 + p * 10 + m + k)
    for _ in range(trials):
        code = u.random_code(rng, spec, k)
        res = u.t3(code)
        basis = u.span_basis(code)
        assert res.t3 == u.torsion_oracle(code, 3, basis), (
            code.type_name(),
            code.form,
        )
        # witness check: u^3 s^t3 in C, u^3 s^(t3-1) not
        if res.t3 < code.n:
            wit = RingElement.from_part(3, SPoly.monomial(spec, code.n, res.t3))
            assert u.contains(basis, wit)
        if 0 < res.t3 <= code.n - 1:
            below = RingElement.from_part(3, SPoly.monomial(spec, code.n, res.t3 - 1))
            assert not u.contains(basis, below)


def test_adjoining_generator_never_increases_t3(F2):
    # the ideal only grows when g3 is adjoined, provided the existing
    # generators are untouched; that needs r3 above every k3/k5/k6 in use
    rng = random.Random(77)
    checked = 0
    for _ in range(300):
        code = u.random_code(rng, F2, 3)
        if 3 in code.ideal_type:
            continue
        lower = max(
            (getattr(code.form, kf) + 1 for kf in ("k3", "k5", "k6")
             if getattr(code.form, kf) is not None),
            default=0,
        )
        upper = min(
            v for v in (code.form.r, code.form.r1, code.form.r2) if v is not None
        )
        if lower > upper:
            continue
        checked += 1
        base = u.t3(code).t3
        r3 = rng.randrange(lower, upper + 1)
        fields = {
            f: getattr(code.form, f)
            for f in ("r", "r1", "r2", "k1", "k2", "k3", "k4", "k5", "k6",
                      "p1", "p2", "p3", "p4", "p5", "p6")
            if getattr(code.form, f) is not None
        }
        grown = u.validate_canonical(F2, 3, u.GeneratorForm(r3=r3, **fields))
        assert u.t3(grown).t3 <= base
    assert checked >= 40
