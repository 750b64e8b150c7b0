"""The front end of ``analyze``: coefficient labels in ``SPoly.to_string``
against the per-coefficient ``FieldElement`` rendering they replace, and
``format_code_file`` output parsed back over every field size."""

import random

import numpy as np
import pytest

import u4codes as u
from u4codes.parsing import format_code_file, parse_code_file
from u4codes.sring import SPoly

# (p, m): F_2, F_3, F_4, F_8, F_9, F_16, F_25, F_27, F_125, F_251, F_256
FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (5, 3), (251, 1), (2, 8)]


def reference_to_string(poly, var):
    """``SPoly.to_string`` as it rendered each nonzero coefficient: ``str``
    of its ``FieldElement``, in parentheses when that is a sum."""
    terms = []
    for i in np.nonzero(poly.coeffs)[0]:
        cs = str(poly.spec.from_encoding(int(poly.coeffs[i])))
        if "+" in cs:
            cs = f"({cs})"
        if i == 0:
            terms.append(cs)
            continue
        power = var if i == 1 else f"{var}^{i}"
        terms.append(power if cs == "1" else f"{cs}*{power}")
    return " + ".join(terms) if terms else "0"


def length_at_least(p, size):
    """The least p^k >= size."""
    n = p
    while n < size:
        n *= p
    return n


@pytest.mark.parametrize("p,m", FIELDS)
def test_to_string_labels_every_encoding_as_the_field_element_did(p, m):
    spec = u.field_make(p, m)
    n = length_at_least(p, max(spec.q, 4))
    rng = random.Random(p * 1000 + m)
    shuffled = rng.sample(range(spec.q), spec.q)
    polys = [SPoly(spec, n, [e, e, e] + [0] * (n - 3)) for e in range(spec.q)]  # s^0, s^1 and s^2
    polys += [SPoly(spec, n, shuffled + [0] * (n - spec.q)), SPoly.zero(spec, n)]
    for poly in polys:
        for var in ("s", "(x-1)"):
            assert poly.to_string(var) == reference_to_string(poly, var)


@pytest.mark.parametrize("p,m", FIELDS)
def test_format_code_file_round_trips_over_every_field(p, m):
    spec, rng = u.field_make(p, m), random.Random(7 * p + m)
    k = {2: 3, 3: 2, 5: 2}.get(p, 1)
    for _ in range(4):
        code = u.random_code(rng, spec, k)
        assert parse_code_file(format_code_file(code)) == (spec, code)


def dense_correction_code(k):
    """<g0> over F_5 at n = 5^k whose correction p1 keeps every one of its
    n - k1 coefficients nonzero."""
    spec, n = u.field_make(5, 1), 5**k
    p1 = SPoly(spec, n, [1 + i % 4 for i in range(n)])
    return u.validate_canonical(spec, k, u.GeneratorForm(r=n - 1, k1=2, p1=p1))


@pytest.mark.parametrize("k", [4, 5])
def test_a_dense_correction_parses_to_the_code_that_was_written(k):
    code = dense_correction_code(k)
    assert np.count_nonzero(code.form.p1.coeffs) == code.n - 2
    assert parse_code_file(format_code_file(code))[1] == code
