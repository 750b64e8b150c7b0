import importlib.util
import random
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import u4codes as u
from u4codes import chain, torsion
from u4codes.chain import RingElement, _clear, _monic
from u4codes.errors import InconsistentSet, MixedLength, OutOfRange, WrongIdealType
from u4codes.sring import SPoly, _valuation, decompose
from conftest import (
    dense_unit,
    golden_g0_f3,
    golden_g0_g1_f2,
    golden_g1_f4,
    golden_g1_g2_f4,
    golden_g2_f25,
    padded,
)


def oracle_t3(code):
    return u.torsion_oracle(code, 3)


def as_ring_element(code, arr):
    """A (4, n) u^2-part member as the RingElement that ``contains`` takes."""
    return RingElement(code.field, code.n, arr)


def full_length(members, n):
    """The members times s^offset, as full-length members (offset 0)."""
    return [u.U2Element(f.source, padded(f, n)) for f in members]


# --- <g1> -------------------------------------------------------------------------


def test_t3_g1_golden(F4):
    res = u.t3(golden_g1_f4(F4))
    assert res.t3 == 1
    assert res.path["case"] == "b"
    assert res.path["tau"] == 1
    assert ["n-r1+k4", 3] in res.path["min_set"]


def test_t3_g1_pure_power(F2):
    code = u.validate_canonical(F2, 3, u.GeneratorForm(r1=5))
    assert u.t3(code).t3 == 5
    assert oracle_t3(code) == 5


def test_t3_g1_derived_socle_hits_zero(F2):
    code = u.validate_canonical(F2, 2, u.GeneratorForm(r1=3, k4=0, p4=SPoly.one(F2, 4)))
    res = u.t3(code)
    assert res.path["case"] == "b"
    assert res.path["tau"] == 0
    assert res.t3 == 0 == oracle_t3(code)


# --- <g1,g2> ----------------------------------------------------------------------


def test_t3_g1_g2_golden(F4):
    res = u.t3(golden_g1_g2_f4(F4))
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
    assert u.t3(code).t3 == 3 == oracle_t3(code)


def test_t3_g1_g2_derived(F2):
    code = u.validate_canonical(
        F2, 2, u.GeneratorForm(r1=3, r2=2, k4=0, p4=SPoly.one(F2, 4))
    )
    assert u.t3(code).t3 == oracle_t3(code)


# --- <g2> / <g3> ------------------------------------------------------------------


def test_t3_g2_golden(F25):
    res = u.t3(golden_g2_f25(F25))
    assert res.t3 == 51
    assert sorted(v for _, v in res.path["min_set"]) == [51, 141]


def test_t3_g2_small_cases(F2):
    assert u.t3(u.validate_canonical(F2, 3, u.GeneratorForm(r2=0))).t3 == 0
    code = u.validate_canonical(F2, 3, u.GeneratorForm(r2=4, k6=1, p6=SPoly.one(F2, 8)))
    assert u.t3(code).t3 == 4 == oracle_t3(code)


def test_t3_g3(F3):
    for r3 in (0, 5, 8):
        code = u.validate_canonical(F3, 2, u.GeneratorForm(r3=r3))
        assert u.t3(code).t3 == r3 == oracle_t3(code)


# --- the case formulas against their SPoly reference ------------------------------


def reference_term(spec, n, exp, poly):
    """s^exp * poly as an SPoly, zero when the unit part is absent."""
    return SPoly.zero(spec, n) if poly is None else poly.shift(exp)


def reference_g1_path(code):
    """The <g1> trace as the case formula built it from SPoly values before
    it computed on arrays, kept as the reference the arrays must match."""
    form, n, spec = code.form, code.n, code.field
    r1, k4, p4, k5, p5 = form.r1, form.k4, form.p4, form.k5, form.p5
    if p4 is None or n - r1 + k4 >= r1:
        case, base = "a", ["r1", r1]
        poly = reference_term(spec, n, None if p4 is None else n - 2 * r1 + 2 * k4,
                              None if p4 is None else p4 * p4)
        poly = poly - reference_term(spec, n, n - r1 + k5 if p5 is not None else None, p5)
    else:
        case, base = "b", ["n-r1+k4", n - r1 + k4]
        poly = reference_term(spec, n, k4, p4 * p4)
        poly = poly - reference_term(spec, n, r1 - k4 + k5 if p5 is not None else None, p5)
    tau = None if poly.is_zero() else poly.valuation()
    min_set = [base] if tau is None else [base, ["tau", tau]]
    return {"method": "g1", "case": case, "tau_poly": str(poly), "tau": tau, "min_set": min_set}


def reference_g1_g2_path(code):
    """The <g1,g2> trace as the SPoly case formula built it, its <g1> part
    on the code itself."""
    form, n, spec = code.form, code.n, code.field
    r1, r2 = form.r1, form.r2
    k4, p4, k5, p5, k6, p6 = form.k4, form.p4, form.k5, form.p5, form.k6, form.p6
    t_sub = reference_g1_path(code)
    if p4 is None or n - r1 + k4 > r2:
        branch = "n-r1+k4 > r2"
        poly3 = reference_term(spec, n, n - r1 + k5 if p5 is not None else None, p5)
        if p4 is not None and p6 is not None:
            poly3 = poly3 - reference_term(spec, n, n - r1 - r2 + k4 + k6, p4 * p6)
    else:
        branch = "n-r1+k4 <= r2"
        poly3 = reference_term(spec, n, r2 - k4 + k5 if p5 is not None else None, p5)
        if p6 is not None:
            poly3 = poly3 - reference_term(spec, n, k6, p4 * p6)
    poly4 = reference_term(spec, n, k4 if p4 is not None else None, p4)
    poly4 = poly4 - reference_term(spec, n, r1 - r2 + k6 if p6 is not None else None, p6)
    min_set = [["t", min(v for _, v in t_sub["min_set"])], ["r2", r2]]
    min_set += [[label, poly.valuation()] for label, poly in (("tau3", poly3), ("tau4", poly4))
                if not poly.is_zero()]
    kappa = min((v for _, v in min_set[2:]), default=None)
    if p4 is not None:
        min_set.append(["n-r1+k4", n - r1 + k4])
        if p5 is not None:
            min_set.append(["n-k4+k5", n - k4 + k5])
    if p6 is not None:
        min_set.append(["n-r2+k6", n - r2 + k6])
    return {"method": "g1g2", "branch": branch, "t_sub": t_sub, "kappa": kappa, "min_set": min_set}


# F_2 to F_9 at every length up to 27
CASE_FIELDS = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 1), (3, 1, 2), (3, 1, 3),
               (2, 2, 1), (2, 2, 2), (5, 1, 1), (5, 1, 2), (7, 1, 1), (2, 3, 1), (3, 2, 1)]
G1_TYPES = [(1,), (1, 2), (1, 3), (1, 2, 3)]


def random_code_of_type(rng, spec, k, itype):
    """A random code of the given type: ordered random degrees, each
    correction absent with probability 1/3, otherwise a random unit at a
    random degree below its bound."""
    n = spec.p**k
    degrees = dict(zip(itype, sorted((rng.randrange(n) for _ in itype), reverse=True)))
    corrections = {}
    for owner, ulevel, bound in u.GeneratorForm.slots(degrees, n):
        if bound and rng.random() < 2 / 3:
            corrections[owner, ulevel] = rng.randrange(bound), u.random_unit(rng, spec, n)
    return u.validate_canonical(spec, k, u.GeneratorForm.of(degrees, corrections))


def cancelling_code(rng, spec, k):
    """A random <g1,g2> code whose two poly3 terms, s^e p5 and s^e p4 p6 at
    the same e, cancel: k5 = k4 + k6 - r2 and p5 = p4 p6 (random draws
    rarely line the two up, and only then does the sign between them
    show)."""
    while True:
        form = random_code_of_type(rng, spec, k, (1, 2)).form
        if form.p4 is not None and form.p6 is not None and 0 <= form.k4 + form.k6 - form.r2:
            form = replace(form, k5=form.k4 + form.k6 - form.r2, p5=form.p4 * form.p6)
            return u.validate_canonical(spec, k, form)


def g1_case_codes():
    """Random codes of the four g0-free types with g1 over F_2 to F_9 at
    n <= 27, among them <g1,g2> codes whose poly3 terms cancel, and the
    analyze_large benchmark codes of those types (n = 625 and 256), units
    drawn from two seeds."""
    codes = []
    for p, m, k in CASE_FIELDS:
        spec, rng = u.field_make(p, m), random.Random(3500 + 100 * p + 10 * m + k)
        codes += [random_code_of_type(rng, spec, k, itype) for itype in G1_TYPES for _ in range(25)]
        codes += [cancelling_code(rng, spec, k) for _ in range(10)]
    workloads = perfbench_workloads()
    return codes + [workloads.make_code(random.Random(seed), shape)
                    for seed in (1, 2) for shape in workloads.ANALYZE_LARGE_SHAPES
                    if 1 in shape.degrees and 0 not in shape.degrees]


def test_case_formulas_equal_their_spoly_reference():
    # the array formulas give the SPoly formulas' trace, key for key, on both
    # <g1> cases, both <g1,g2> branches (each with poly3 cancelling to 0),
    # with and without each of p4, p5 and p6, alone and under an adjoined g3
    seen = Counter()
    for code in g1_case_codes():
        path = u.t3(code).path
        if 3 in code.ideal_type:
            path, code = path["sub"], code.without_g3()
        if code.ideal_type == (1,):
            want = reference_g1_path(code)
            seen["case " + want["case"]] += 1
        else:
            want = reference_g1_g2_path(code)
            seen[want["branch"]] += 1
            seen["p6 absent"] += code.form.p6 is None
            if None not in (code.form.p4, code.form.p5, code.form.p6):
                seen[want["branch"] + ", poly3 = 0"] += all(label != "tau3" for label, _ in path["min_set"])
        assert path == want, code.form
        seen["p4 absent"] += code.form.p4 is None
        seen["p5 absent"] += code.form.p5 is None
        seen["tau3"] += any(label == "tau3" for label, _ in path["min_set"])
        seen["n >= 256"] += code.n >= 256
    assert seen.pop("n >= 256") == 6
    assert len(seen) == 10 and min(seen.values()) >= 10, seen


def test_case_formulas_build_only_the_printed_polynomial(monkeypatch):
    # no intermediate SPoly: a type with g1 builds the one tau_poly it
    # prints, and <g2>, <g3> and <g2,g3> build none
    rng = random.Random(36)
    codes = g1_case_codes()
    for p, m, k in CASE_FIELDS:
        spec = u.field_make(p, m)
        codes += [random_code_of_type(rng, spec, k, itype) for itype in [(2,), (3,), (2, 3)]]
    built, init = [], SPoly.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(SPoly, "__init__", counted)
    for code in codes:
        built.clear()
        u.t3(code)
        assert len(built) == (1 in code.ideal_type), (code.ideal_type, len(built))


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
        assert u.contains(basis, as_ring_element(code, padded(f, code.n)))


def test_u2_set_golden_g0_f3(F3):
    code = golden_g0_f3(F3)
    members = u.u2_part_set(code)
    assert len(members) == 3
    basis = u.span_basis(code)
    for f in members:
        assert u.contains(basis, as_ring_element(code, padded(f, code.n)))
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


def test_u2_element_refuses_a_zero_member_and_a_wrong_row_count(F2):
    # either array would pass construction and break t3_from_u2_set later:
    # a zero member in the sort by omega, three rows in the u^3-part read
    code = u.validate_canonical(F2, 3, u.GeneratorForm(r=4))
    with pytest.raises(InconsistentSet):
        u.U2Element("zero", np.zeros((4, 8), dtype=np.int16))
    with pytest.raises(MixedLength):
        u.U2Element("three rows", RingElement.from_part(2, SPoly.one(F2, 8)).coeffs[1:])
    with pytest.raises(MixedLength):
        u.U2Element("one row", SPoly.one(F2, 8).coeffs)
    member = u.U2Element("u^2", RingElement.from_part(2, SPoly.monomial(F2, 8, 3)).coeffs)
    assert u.t3_from_u2_set([member], code).t3 == 3


def test_u2_element_takes_array_likes_and_refuses_non_integers(F2):
    # a nested list is an array like any other; a float array is refused
    # whatever its values, since an encoding is an integer
    code = u.validate_canonical(F2, 3, u.GeneratorForm(r=4))
    listed = u.U2Element("w", RingElement.from_part(2, SPoly.monomial(F2, 8, 3)).coeffs.tolist())
    assert listed.element.shape == (4, 8) and not listed.element.flags.writeable
    assert (listed.omega, listed.omega_tilde) == (3, None)
    assert u.t3_from_u2_set([listed], code).t3 == 3
    for value in (1.5, 1.0):
        elem = np.zeros((4, 8))
        elem[2, 3] = value
        with pytest.raises(OutOfRange):
            u.U2Element("w", elem)
    # a window offset counts whole columns: a float one is refused here, not
    # left to fail as a slice index inside t3_from_u2_set
    window = RingElement.from_part(2, SPoly.monomial(F2, 8, 3)).coeffs[:, 1:]
    assert u.t3_from_u2_set([u.U2Element("w", window, np.int64(1))], code).t3 == 3
    with pytest.raises(MixedLength):
        u.U2Element("w", window, 1.0)


def test_t3_from_u2_set_refuses_encodings_outside_the_field(F2, F4):
    # an encoding below 0 or at q names no field element (over F_2 the lone
    # member 5 u^2 s^3 would read as t3 = 3), in any integer dtype, alone or
    # beside a valid member
    for field, bad in ((F2, (2, 5, -1)), (F4, (4, -3))):
        code = u.validate_canonical(field, 3, u.GeneratorForm(r=4))
        good = np.zeros((4, 8), dtype=np.int16)
        good[2, 3] = field.q - 1
        for value in bad:
            for dtype in (np.int16, np.int64, ">i2"):
                lone, paired = good.astype(dtype), good.astype(dtype)
                lone[2, 3] = value
                paired[3, 5] = value
                with pytest.raises(OutOfRange):
                    u.t3_from_u2_set([u.U2Element("bad", lone)], code)
                with pytest.raises(OutOfRange):
                    u.t3_from_u2_set([u.U2Element("ok", good.copy()), u.U2Element("bad", paired)], code)
        assert u.t3_from_u2_set([u.U2Element("ok", good.astype(">i2"))], code).t3 == 3
    unsigned = np.zeros((4, 8), dtype=np.uint8)
    unsigned[2:] = 2
    with pytest.raises(OutOfRange):
        u.t3_from_u2_set([u.U2Element("w", unsigned)], u.validate_canonical(F2, 3, u.GeneratorForm(r=4)))


def test_t3_from_u2_set_refuses_members_of_another_length_or_window(F2):
    # members of the n = 8 code read against the n = 16 one would be
    # shifted by n = 16 amounts and give a t3 for neither code
    short, long = (u.validate_canonical(F2, k, u.GeneratorForm(r=5, k1=1, p1=SPoly.one(F2, 2**k)))
                   for k in (3, 4))
    with pytest.raises(MixedLength):
        u.t3_from_u2_set(u.u2_part_set(short), long)
    with pytest.raises(MixedLength):
        u.t3_from_u2_set(u.u2_part_set(long), short)
    top = u.u2_part_set(short)
    full = full_length(top, short.n)
    assert top[0].offset > 0
    with pytest.raises(MixedLength):
        u.t3_from_u2_set(full[:1] + top[1:], short)
    with pytest.raises(MixedLength):  # a window's offset must match its width
        u.t3_from_u2_set([u.U2Element(f.source, f.element, 0) for f in top], short)
    assert u.t3_from_u2_set(full, short) == u.t3_from_u2_set(top, short) == u.t3(short)


def test_t3_reads_its_own_members_without_the_public_checks(F5, monkeypatch):
    # t3 takes the members u2_part_set builds from a validated code straight
    # to the case analysis: the same result as the public entry point, which
    # it no longer calls
    codes = u2_codes(F5)
    public = [u.t3_from_u2_set(u.u2_part_set(code), code) for code in codes]

    def refused(*args):
        raise AssertionError("t3 re-checked members it built itself")

    monkeypatch.setattr(torsion, "t3_from_u2_set", refused)
    assert [u.t3(code) for code in codes] == public


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
            members = full_length(u.u2_part_set(code), code.n)
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
                    ratio = (decompose(SPoly(spec, code.n, fi.element[2])).unit_part.inverse()
                             * decompose(SPoly(spec, code.n, fj.element[2])).unit_part)
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
        members = full_length(u.u2_part_set(code), code.n)
        with_u2 = sorted((f for f in members if f.omega is not None), key=lambda f: f.omega)
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
    assert max(n - min(_valuation(row) for row in padded(f, n)) for f in members) < n // 4
    assert u.t3(code).t3 == u.torsion_profile(code, u.span_basis(code))[3]


def closed_form_shape_code(F5, rng):
    """A <g0,g1,g2,g3> code at n = 625 with the degrees 620/600/580/560 and
    every correction at 95 % of its bound, each unit a random constant and
    four random coefficients above it (the first closed-form benchmark
    shape)."""
    n = 625
    bounds = {1: "r1", 2: "r2", 3: "r3", 4: "r2", 5: "r3", 6: "r3"}
    fields = {"r": 620, "r1": 600, "r2": 580, "r3": 560}
    for i in range(1, 7):
        fields[f"k{i}"] = int(fields[bounds[i]] * 0.95)
        unit = [rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(4)]
        fields[f"p{i}"] = SPoly.from_ints(F5, n, unit)
    return u.validate_canonical(F5, 4, u.GeneratorForm(**fields))


def test_pairwise_stage_takes_one_kernel_call_per_non_constant_unit(F5, kernel_calls):
    # the <g0,g1,g2> part, which t3 reduces to, of the closed-form shape
    # code (nine u^2-part members, six of whose u^2 units are not
    # constants): the product table takes one stacked kernel call for each
    # such unit against every member's u^3-part, and a table lookup for a
    # constant one, so the stage may not fall back to a call per pivot or
    # per pair
    code = closed_form_shape_code(F5, random.Random(560)).without_g3()
    members = u.u2_part_set(code)
    non_constant = sum(f.omega is not None and f.element[2, f.omega - f.offset + 1 :].any()
                       for f in members)
    kernel_calls.clear()
    result = torsion.t3_from_u2_set(members, code)
    assert result.path["nu"] == 9
    assert 0 < len(kernel_calls) <= non_constant == 6
    assert result.t3 == oracle_t3(code)


def reference_u2_part_set(code):
    """The u^2-part set as two separate eliminations build it, each scaling
    its own pivot: the construction before the level-1 heads were shared."""
    field, n = code.field, code.n
    gens = code.arrays
    A = chain._shift(gens[0], n - code.form.r)
    B = chain._shift(gens[0], 0, 1)
    D = gens.get(1)

    def elim(x, y):
        x, y = sorted((x, y), key=lambda e: _valuation(e[1]))
        out = y.copy()
        _clear(field, out, 1, *_monic(field, x, 1))
        return out

    raw = []
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
            raw.append(("s-shift(sA)", chain._shift(A, n - a_val)))
            raw.append(("u*sA", chain._shift(A, 0, 1)))
        raw.append(("s-shift(g1)", chain._shift(D, n - _valuation(D[1]))))
        raw.append(("u*ug0", chain._shift(B, 0, 1)))
        raw.append(("u*g1", chain._shift(D, 0, 1)))
    else:
        if a_has_u:
            raw.append(("elim(sA,ug0)", elim(A, B)))
            raw.append(("u*sA", chain._shift(A, 0, 1)))
        else:
            raw.append(("sA", A))
        raw.append(("u*ug0", chain._shift(B, 0, 1)))
    if 2 in gens:
        raw.append(("g2", gens[2]))
    return [(src, elem) for src, elem in raw if elem.any()]


def level1_pivots(code):
    """How many level-1 eliminations each base element pivots, read off the
    generator degrees: the pairs of sA = s^(n-r) g0 (when its u-part is
    nonzero), ug0 and g1 in that order, the element of smaller u-part
    valuation pivoting and ties going to the first."""
    n, form = code.n, code.form
    a_val = _valuation(chain._shift(code.arrays[0], n - form.r)[1])
    vals = ([("sA", a_val)] if a_val < n else []) + [("ug0", form.r)]
    if form.r1 is not None:
        vals.append(("g1", form.r1))
    counts = dict.fromkeys([name for name, _ in vals], 0)
    for i, (x, vx) in enumerate(vals):
        for y, vy in vals[i + 1 :]:
            counts[x if vx <= vy else y] += 1
    return counts


U2_FIELDS = [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (7, 1, 1), (2, 3, 2), (3, 2, 1)]


def u2_codes(F5):
    """Two closed-form shape codes and 1,050 random codes, of which those
    with g0, their g3 dropped."""
    codes = [closed_form_shape_code(F5, random.Random(seed)) for seed in (1, 2)]
    for p, m, k in U2_FIELDS:
        spec, rng = u.field_make(p, m), random.Random(900 + 10 * p + m)
        codes += [u.random_code(rng, spec, k) for _ in range(150)]
    return [code.without_g3() if 3 in code.ideal_type else code
            for code in codes if 0 in code.ideal_type]


def test_u2_members_equal_the_two_elimination_construction(F5):
    # every member as the separate eliminations build it, and read-only down
    # to the array it views, whichever element pivots how many eliminations:
    # sA pivoting both, one or neither of ug0 and g1, and ug0 or g1 pivoting
    # two
    pivots = {0: 0, 1: 0, 2: 0}
    pivots_two = {"ug0": 0, "g1": 0}
    for code in u2_codes(F5):
        members = u.u2_part_set(code)
        assert [(f.source, padded(f, code.n).tolist()) for f in members] == [
            (src, elem.tolist()) for src, elem in reference_u2_part_set(code)
        ]
        for f in members:
            arr = f.element
            while arr is not None:
                assert not arr.flags.writeable, f.source
                arr = arr.base
        counts = level1_pivots(code)
        if 1 in code.ideal_type:
            pivots[counts.get("sA", 0)] += 1
        for name in pivots_two:
            pivots_two[name] += counts.get(name) == 2
    assert min(pivots.values()) >= 10, pivots
    assert min(pivots_two.values()) >= 10, pivots_two


def perfbench_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def closed_form_sub_codes():
    """The g3-free sub-codes of the closed-form benchmark shapes
    (``CLOSED_FORM_SHAPES``, n = 625 and 3125), units drawn from two seeds."""
    workloads = perfbench_workloads()
    return [workloads.make_code(random.Random(seed), shape).without_g3()
            for seed in (1, 2) for shape in workloads.CLOSED_FORM_SHAPES]


def test_public_members_are_code_members(F5):
    # every member u2_part_set returns, times s^offset, is in the code and
    # has the omegas of that full-length array, and t3_from_u2_set on the
    # public set is t3, path for path: random g0 codes over F_2 to F_9 and
    # the closed-form benchmark codes
    codes = u2_codes(F5) + closed_form_sub_codes()
    windows = set()
    for code in codes:
        n, basis = code.n, u.span_basis(code)
        members = u.u2_part_set(code)
        for f in members:
            full = padded(f, n)
            assert u.contains(basis, as_ring_element(code, full)), (code.form, f.source)
            omegas = tuple(None if v == n else v for v in map(_valuation, full[2:]))
            assert (f.omega, f.omega_tilde) == omegas
        assert u.t3_from_u2_set(members, code) == u.t3(code)
        windows.add((members[0].offset > 0, n))
    assert {(True, 625), (True, 3125), (False, 8)} <= windows, windows


def test_each_level1_pivot_is_scaled_once_and_clears_once(F5, monkeypatch):
    # one _monic and one stacked _clear per distinct pivot, whichever
    # element it is and however many rows it clears
    calls = {"monic": 0, "clear": 0}
    monic, clear = torsion._monic, torsion._clear

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(torsion, "_monic", counted("monic", monic))
    monkeypatch.setattr(torsion, "_clear", counted("clear", clear))
    g1_pivots_two = 0
    for code in u2_codes(F5):
        calls.update(monic=0, clear=0)
        u.u2_part_set(code)
        counts = level1_pivots(code)
        distinct = sum(c > 0 for c in counts.values())
        assert calls == {"monic": distinct, "clear": distinct}, (code.form, counts)
        g1_pivots_two += counts.get("g1") == 2
    assert g1_pivots_two >= 10


def test_closed_form_inverts_at_most_one_series_per_code(F5, monkeypatch):
    # the level-1 eliminations share their pivot's head, so a t3 call
    # inverts at most the one unit of sA's u-part, however many members it
    # clears; the other pivots' u-parts are monomials
    codes = [closed_form_shape_code(F5, random.Random(seed)) for seed in range(3)]
    for p, m, k in U2_FIELDS + [(2, 1, 2), (3, 2, 2), (7, 1, 2)]:
        spec, rng = u.field_make(p, m), random.Random(1300 + 10 * p + m)
        codes += [u.random_code(rng, spec, k) for _ in range(100)]
    counts, inverse = [], SPoly.inverse

    def counted(f):
        counts[-1] += 1
        return inverse(f)

    monkeypatch.setattr(SPoly, "inverse", counted)
    for code in codes:
        counts.append(0)
        u.t3(code)
    monkeypatch.undo()
    assert max(counts) == 1
    assert counts[:3] == [1, 1, 1]
    assert sum(counts) >= 50


# --- the top s-window and the product table ------------------------------------


def high_degree_code(rng, spec, k):
    """A random code with g0 whose generator degrees lie among the top few,
    the top sixteenth, the top quarter or all of the n = p^k columns; each
    correction is present with probability 2/3, at 90 % or more of its
    bound (at s^0 one time in ten), with a constant, a
    five-term or a dense unit.  Its generators lie in s^v0 F[s] for a v0
    near n, or for v0 = 0 when a correction sits at s^0."""
    n = spec.p**k
    itype = rng.choice([t for t in u.IDEAL_TYPES if 0 in t])
    span = max(len(itype), rng.choice([1, 3, n // 16, n // 4, n]))
    names = {0: "r", 1: "r1", 2: "r2", 3: "r3"}
    fields = dict(zip((names[level] for level in itype),
                      sorted((rng.randrange(n - span, n) for _ in itype), reverse=True)))
    owners = {1: "r", 2: "r", 3: "r", 4: "r1", 5: "r1", 6: "r2"}
    bounds = {1: "r1", 2: "r2", 3: "r3", 4: "r2", 5: "r3", 6: "r3"}
    for i in range(1, 7):
        bound = fields.get(bounds[i], n)
        if owners[i] not in fields or bound == 0 or rng.random() < 1 / 3:
            continue
        fields[f"k{i}"] = 0 if rng.random() < 0.1 else rng.randrange(bound * 9 // 10, bound)
        unit = np.zeros(n, dtype=np.int16)
        unit[0] = rng.randrange(1, spec.q)
        top = rng.choice([1, min(5, n), n])
        unit[1:top] = [rng.randrange(spec.q) for _ in range(top - 1)]
        fields[f"p{i}"] = SPoly(spec, n, unit)
    return u.validate_canonical(spec, k, u.GeneratorForm(**fields))


@pytest.mark.parametrize("p,m,ks", [
    (2, 1, (3, 7, 11)), (3, 1, (2, 5, 7)), (2, 2, (3, 6, 10)),
    (5, 1, (2, 4, 5)), (2, 3, (3, 5, 8)), (3, 2, (2, 4, 6)),
])
def test_top_window_equals_the_full_length_path(p, m, ks):
    # t3 runs the g0 path on the generators divided by s^v0; each of its
    # members times s^v0 is the full-length member of the reference
    # construction, with the same (absolute) omegas, and the trace is the
    # full-length path's
    spec = u.field_make(p, m)
    rng = random.Random(2300 + 10 * p + m)
    windows = set()
    for k in ks:
        n = p**k
        codes = [u.validate_canonical(spec, k, u.GeneratorForm(r=n - 1))]  # one column
        codes += [high_degree_code(rng, spec, k) for _ in range(8)]
        for code in codes:
            code = code.without_g3()
            top = u.u2_part_set(code)
            full = [u.U2Element(src, elem) for src, elem in reference_u2_part_set(code)]
            v0 = top[0].offset
            assert [f.source for f in top] == [f.source for f in full]
            for f, g in zip(top, full):
                assert f.offset == v0 and g.offset == 0 and f.element.shape == (4, n - v0)
                assert not g.element[:, :v0].any() and np.array_equal(g.element[:, v0:], f.element)
                assert (f.omega, f.omega_tilde) == (g.omega, g.omega_tilde)
            assert u.t3(code).path == u.t3_from_u2_set(full, code).path
            windows.add("n" if v0 == 0 else "1" if v0 == n - 1 else "between")
    assert windows == {"n", "1", "between"}


def test_shift_candidates_equal_the_array_read_off(F5):
    # t3_from_u2_set reads the candidate of s^(n - omega) f off the cached
    # valuations, n - omega + omega~ when omega~ < omega; the reference
    # shifts each member's array and reads the valuation of what is left,
    # which never keeps a u^2-part: random g0 codes over F_2 to F_9, the
    # closed-form benchmark codes, at full length and on the top window
    seen = {"kept": 0, "vanished": 0}
    for code in u2_codes(F5) + closed_form_sub_codes():
        n = code.n
        top = u.u2_part_set(code)
        for members in (full_length(top, n), top):
            want = []
            for f in sorted((f for f in members if f.omega is not None),
                            key=lambda f: (f.omega, f.source)):
                shifted = chain._shift(f.element, n - f.omega)
                assert not shifted[2].any()
                if shifted.any():
                    want.append([f"shift[{f.source}]", f.offset + _valuation(shifted[3])])
                seen["kept" if shifted.any() else "vanished"] += 1
            got = u.t3_from_u2_set(members, code).path["min_set"]
            assert [c for c in got if c[0].startswith("shift[")] == want, code.form
    assert min(seen.values()) >= 100, seen


def reference_pair_eliminations(field, with_u2):
    """The pairwise stage as one fraction-free clear per pivot: the later
    members stacked and cleared against the pivot unscaled, as the stage
    ran before the product table."""
    out = []
    for a, fi in enumerate(with_u2[:-1]):
        elims = np.array([fj.element for fj in with_u2[a + 1 :]])
        _clear(field, elims, 2, fi.omega - fi.offset, fi.element)
        out.extend(elims)
    return np.array(out)


def test_product_table_equals_the_per_pivot_clears(F5):
    # every pair of 1,000 codes with g0 (full length and top window), among
    # them members with a constant unit, pairs with equal omegas and
    # cancellations that vanish
    seen = {"constant unit": 0, "equal omegas": 0, "vanished": 0, "pairs": 0}
    codes = u2_codes(F5)
    rng = random.Random(2400)
    while len(codes) < 1000:
        spec = u.field_make(*rng.choice(U2_FIELDS)[:2])
        code = u.random_code(rng, spec, 2)
        if 0 in code.ideal_type:
            codes.append(code.without_g3())
    for code in codes:
        top = u.u2_part_set(code)
        for members in (full_length(top, code.n), top):
            with_u2 = sorted((f for f in members if f.omega is not None),
                             key=lambda f: (f.omega, f.source))
            if len(with_u2) < 2:
                continue
            want = reference_pair_eliminations(code.field, with_u2)
            got = torsion._pair_eliminations(code.field, with_u2)
            assert not want[:, :3].any()
            assert np.array_equal(got, want[:, 3]), code.form
            seen["pairs"] += len(got)
            seen["vanished"] += int((~got.any(axis=1)).sum())
            seen["constant unit"] += sum(not f.element[2, f.omega - f.offset + 1 :].any()
                                         for f in with_u2)
            omegas = [f.omega for f in with_u2]
            seen["equal omegas"] += len(omegas) - len(set(omegas))
    assert min(seen.values()) >= 100, seen


# --- adjoining g3 ------------------------------------------------------------------


def test_t3_adjoin_is_min():
    # a g3 type's t3 is the sub-code's t3 capped at r3, with either one the
    # least on some codes
    rng = random.Random(56)
    least = Counter()
    while min(least["t_hat"], least["r3"]) < 20:
        code = u.random_code(rng, u.field_make(2, 1), 3)
        if 3 not in code.ideal_type or code.ideal_type == (3,):
            continue
        res, t_hat = u.t3(code), u.t3(code.without_g3()).t3
        assert (res.path["t_hat"], res.path["r3"]) == (t_hat, code.form.r3)
        assert res.t3 == min(t_hat, code.form.r3)
        least["t_hat" if t_hat < code.form.r3 else "r3"] += 1


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
