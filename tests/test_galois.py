import itertools

import numpy as np
import pytest

import u4codes as u
from u4codes.errors import DegreeOutOfRange, DivisionByZero, NonPrime, NotMonic, OutOfRange, Reducible
from u4codes import galois
from u4codes.galois import FieldElement


def test_field_make_f4():
    spec = u.field_make(2, 2, [1, 1, 1])
    assert spec.q == 4
    a = spec.gen().encoding
    assert str(spec.from_encoding(spec.mul_table[a, a])) == "a+1"   # forced by a^2 + a + 1 = 0


def test_field_make_prime_field():
    spec = u.field_make(3, 1, [0, 1])
    assert spec.q == 3
    assert spec.from_encoding(spec.mul_table[2, 2]).coeffs == (1,)


def test_field_make_rejects_reducible():
    with pytest.raises(Reducible):
        u.field_make(2, 2, [0, 0, 1])   # a^2 = a * a


def test_field_make_rejects_nonprime_nonmonic_degree():
    with pytest.raises(NonPrime):
        u.field_make(4, 1, [0, 1])
    with pytest.raises(NotMonic):
        u.field_make(2, 2, [1, 1, 0])
    with pytest.raises(DegreeOutOfRange):
        u.field_make(2, 9, [1] + [0] * 8 + [1])
    with pytest.raises(DegreeOutOfRange):
        u.field_make(257, 1, [0, 1])


# The moduli that were once a fixed table; the rule must keep every one of them.
PINNED_MODULI = {
    (2, 1): (0, 1),
    (3, 1): (0, 1),
    (5, 1): (0, 1),
    (2, 2): (1, 1, 1),      # a^2 + a + 1
    (5, 2): (2, 0, 1),      # a^2 + 2
    (2, 3): (1, 1, 0, 1),   # a^3 + a + 1
    (3, 2): (1, 0, 1),      # a^2 + 1
}


def test_default_moduli_all_valid():
    for (p, m) in PINNED_MODULI:
        spec = u.field_make(p, m)
        assert spec.q == p**m


def test_default_moduli_by_rule():
    for (p, m), modulus in PINNED_MODULI.items():
        assert u.field_make(p, m).modulus == modulus
    # fields outside the old table: the first irreducible in enumeration order
    assert u.field_make(7, 1).modulus == (0, 1)
    assert u.field_make(2, 4).modulus == (1, 1, 0, 0, 1)        # a^4 + a + 1
    assert u.field_make(3, 3).modulus == (1, 2, 0, 1)           # a^3 + 2a + 1
    # every supported field has a default, and each is irreducible
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 9):
            if p**m <= 256:
                spec = u.field_make(p, m)
                assert u.field_make(p, m, spec.modulus) == spec
    with pytest.raises(DegreeOutOfRange):
        u.field_make(2, 9)
    with pytest.raises(NonPrime):
        u.field_make(6, 1)


def test_field_make_validates_once(monkeypatch):
    # the size is checked once, and the default modulus is trial-divided only
    # in its own search, not again once chosen; on an empty field cache, so
    # that the field is built here
    monkeypatch.setattr(galois, "_FIELDS", {})
    calls = {"_check_size": [], "_factor": []}
    for name, seen in calls.items():
        real = getattr(galois, name)
        monkeypatch.setattr(galois, name, lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    spec = u.field_make(2, 4)
    tried = [tuple(f) for f, _ in calls["_factor"]]
    assert len(calls["_check_size"]) == 1
    assert tried[-1] == spec.modulus and len(set(tried)) == len(tried)


def test_field_make_builds_each_field_once():
    # one FieldSpec per (p, m, modulus mod p): the default, the same modulus
    # written out and written with coefficients past p name one instance
    spec = u.field_make(3, 2)
    assert u.field_make(3, 2) is spec
    assert u.field_make(3, 2, list(spec.modulus)) is spec
    assert u.field_make(3, 2, [c + 3 for c in spec.modulus]) is spec
    # a different modulus gets its own spec: a^2 + a + 2 against a^2 + 1
    other = u.field_make(3, 2, [2, 1, 1])
    assert other is not spec and other.modulus == (2, 1, 1) != spec.modulus
    # equality and hashing are still by (p, m, modulus): a spec built
    # directly equals the shared one
    direct = galois.FieldSpec(3, 2, None)
    assert direct is not spec and direct == spec and hash(direct) == hash(spec)
    assert other != spec and other != direct and len({spec, direct, other}) == 2
    # a rejected modulus is not kept: it raises on every call
    for _ in range(2):
        with pytest.raises(Reducible):
            u.field_make(2, 2, [0, 0, 1])


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (5, 2)])
def test_field_tables_are_read_only(p, m):
    # the shared instance is immutable: every table refuses writes, also
    # those of a spec built directly
    for spec in (u.field_make(p, m), galois.FieldSpec(p, m, None)):
        tables = {name: v for name, v in vars(spec).items() if isinstance(v, np.ndarray)}
        assert {"add_table", "sub_table", "neg_table", "mul_table", "inv_table"} <= set(tables)
        for table in tables.values():
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                table += 0


def test_f4_multiplication_against_bruteforce():
    # Independent oracle: polynomial multiplication mod (a^2+a+1) mod 2.
    spec = u.field_make(2, 2)

    def slow_mul(x, y):
        prod = [0, 0, 0]
        for i, ci in enumerate(x):
            for j, cj in enumerate(y):
                prod[i + j] ^= ci & cj
        # a^2 = a + 1
        return ((prod[0] ^ prod[2]), (prod[1] ^ prod[2]))

    elem = spec.from_encoding
    for x, y in itertools.product(range(spec.q), repeat=2):
        assert elem(spec.mul_table[x, y]).coeffs == slow_mul(elem(x).coeffs, elem(y).coeffs)


def test_derived_square_of_a_plus_1():
    spec = u.field_make(2, 2)
    a = spec.gen().encoding
    b = spec.add_table[a, 1]
    assert spec.mul_table[b, b] == a


def test_additive_identity():
    for spec in (u.field_make(2, 2), u.field_make(5, 1)):
        elems = np.arange(spec.q)
        assert np.array_equal(spec.add_table[elems, 0], elems)
        assert np.array_equal(spec.sub_table[elems, elems], np.zeros(spec.q))
        assert np.array_equal(spec.add_table[elems, spec.neg_table], np.zeros(spec.q))


@pytest.mark.parametrize(
    "p,m,modulus",
    [(2, 1, None), (2, 2, None), (3, 1, None), (2, 3, None), (5, 1, None),
     (3, 2, None), (2, 4, [1, 1, 0, 0, 1])],
)
def test_field_axioms_exhaustive_small(p, m, modulus):
    spec = u.field_make(p, m, modulus)
    add, mul = spec.add_table, spec.mul_table
    assert add.shape == mul.shape == (spec.q, spec.q)
    # x on axis 0, y on axis 1, z on axis 2
    x, y, z = np.ix_(*[np.arange(spec.q)] * 3)
    assert np.array_equal(add[add[x, y], z], add[x, add[y, z]])
    assert np.array_equal(mul[mul[x, y], z], mul[x, mul[y, z]])
    assert np.array_equal(mul[x, add[y, z]], add[mul[x, y], mul[x, z]])
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)


@pytest.mark.parametrize("p,m", [(5, 2), (3, 2)])
def test_field_axioms_random_larger(p, m):
    spec = u.field_make(p, m)
    add, mul = spec.add_table, spec.mul_table
    x, y, z = np.random.default_rng(2024).integers(spec.q, size=(3, 10_000))
    assert np.array_equal(add[add[x, y], z], add[x, add[y, z]])
    assert np.array_equal(mul[mul[x, y], z], mul[x, mul[y, z]])
    assert np.array_equal(mul[x, add[y, z]], add[mul[x, y], mul[x, z]])


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
def test_inverses_and_unit_group_order(p, m):
    spec = u.field_make(p, m)
    with pytest.raises(DivisionByZero):
        spec.inv(0)
    for x in range(1, spec.q):
        assert spec.mul_table[x, spec.inv(x)] == 1
        assert spec.pow(x, spec.q - 1) == 1


def test_element_operators():
    spec = u.field_make(2, 2)
    a = spec.gen().encoding
    assert spec.mul_table[a, a] == spec.add_table[a, 1]
    assert spec.pow(a, 3) == 1 and spec.pow(a, 0) == 1
    assert spec.mul_table[a, spec.inv(a)] == 1
    with pytest.raises(ValueError):
        spec.pow(a, -1)


def test_element_holds_an_encoding_in_range():
    spec = u.field_make(3, 2)
    for e in range(spec.q):
        x = spec.from_encoding(e)
        assert x.encoding == e and x == spec.element(x.coeffs)
        assert x.coeffs == tuple((e // 3**i) % 3 for i in range(2))
    for bad in (spec.q, -1, 10**9):
        with pytest.raises(OutOfRange):
            FieldElement(spec, bad)
    with pytest.raises(DegreeOutOfRange):
        spec.element([1, 2, 0])


def test_element_refuses_an_encoding_that_is_not_an_integer():
    spec = u.field_make(2, 2)
    for bad in (1.5, 1.0, "1", None):
        with pytest.raises(OutOfRange):
            FieldElement(spec, bad)
    assert FieldElement(spec, np.int16(3)) == spec.from_encoding(3)


def test_element_refuses_values_that_are_not_integers():
    F5, F4 = u.field_make(5, 1), u.field_make(2, 2)
    for spec, bad in [(F5, "3"), (F5, 1.5), (F5, np.float64(2.0)), (F5, None), (F4, [1.5, 1]),
                      (F4, ["1", "0"]), (F4, "10"), (F4, np.array([1.0, 1.0])), (F4, {1: 0}),
                      (F5, np.array(3)), (F4, np.array([[1, 0]]))]:
        with pytest.raises(OutOfRange):
            spec.element(bad)
    assert F5.element(np.int16(7)).encoding == 2 and F5.element(-1).encoding == 4
    assert F4.element([1, 1]).encoding == F4.element((np.int64(1), 1)).encoding == 3
    assert F4.element(np.array([0, 1])).encoding == 2


def test_element_display():
    spec = u.field_make(5, 2)
    assert str(spec.from_encoding(0)) == "0"
    assert str(spec.from_encoding(1)) == "1"
    assert str(spec.gen()) == "a"
    assert str(spec.element([2, 3])) == "3*a+2"
    assert str(u.field_make(2, 3).element([0, 0, 1])) == "a^2"
