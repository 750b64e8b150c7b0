"""Cyclic codes over F_{p^m}[u]/<u^4> of length p^k: third torsional degrees
and minimum symbol-pair / Rosenbloom-Tsfasman weights, with every closed form
cross-checkable against an exhaustive linear-algebra oracle."""

from .errors import U4CodesError
from .galois import FieldElement, FieldSpec, field_make
from .sring import Decomposition, SPoly, decompose
from .chain import RingElement
from .codes import (
    IDEAL_TYPES,
    CyclicCode,
    GeneratorForm,
    SpanBasis,
    contains,
    span_basis,
    torsion_oracle,
    torsion_profile,
    validate_canonical,
)
from .torsion import (
    T3Result,
    U2Element,
    t3,
    t3_from_u2_set,
    u2_part_set,
)
from .weights import (
    WeightReport,
    analyze,
    min_weights,
    wt_rt_from_t3,
    wt_sp_from_t3,
)
from .parsing import format_code_file, parse_code_file
from .randgen import random_code, random_unit

__all__ = [
    "U4CodesError",
    "FieldElement", "FieldSpec", "field_make",
    "Decomposition", "SPoly", "decompose",
    "RingElement",
    "IDEAL_TYPES", "CyclicCode", "GeneratorForm", "SpanBasis", "contains",
    "span_basis", "torsion_oracle", "torsion_profile", "validate_canonical",
    "T3Result", "U2Element", "t3", "t3_from_u2_set", "u2_part_set",
    "WeightReport", "analyze", "min_weights",
    "wt_rt_from_t3", "wt_sp_from_t3",
    "format_code_file", "parse_code_file",
    "random_code", "random_unit",
]
