"""Seeded random canonical codes for cross-validation sweeps.

The sampler draws the ideal type uniformly from all 15 generator subsets,
degrees uniformly subject to the ordering constraint (equivalently: a
uniform multiset, since the ordering forces the assignment), and each
correction as absent with probability 1/3, otherwise a random unit below its
degree bound.  The draw order is fixed so a seed pins the whole stream.
"""

from __future__ import annotations

import random

import numpy as np

from .codes import IDEAL_TYPES, CyclicCode, GeneratorForm, code_length, validate_canonical
from .galois import FieldSpec
from .sring import SPoly

_MAX_EXTRA_DEGREE = 4


def random_unit(rng: random.Random, spec: FieldSpec, n: int) -> SPoly:
    """A random unit: nonzero constant term, a few random higher coefficients."""
    extra = rng.randrange(min(n, _MAX_EXTRA_DEGREE + 1))
    coeffs = np.zeros(n, dtype=np.int16)
    coeffs[0] = rng.randrange(1, spec.q)
    for i in range(1, extra + 1):
        coeffs[i] = rng.randrange(spec.q)
    return SPoly(spec, n, coeffs)


def random_code(rng: random.Random, spec: FieldSpec, k: int) -> CyclicCode:
    n = code_length(spec.p, k)
    itype = IDEAL_TYPES[rng.randrange(len(IDEAL_TYPES))]
    degrees = dict(zip(itype, sorted((rng.randrange(n) for _ in itype), reverse=True)))
    corrections = {}
    for owner, ulevel, bound in GeneratorForm.slots(degrees, n):
        if bound == 0 or rng.random() < 1 / 3:
            continue
        corrections[owner, ulevel] = rng.randrange(bound), random_unit(rng, spec, n)
    return validate_canonical(spec, k, GeneratorForm.of(degrees, corrections))
