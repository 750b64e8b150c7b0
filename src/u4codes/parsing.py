"""Code-specification files and the generator expression grammar.

File format (whitespace-insensitive, '#' starts a comment):

    field: p=2 m=2 modulus=[1,1,1]
    length: k=3
    g1: u*(x-1)^6 + u^2*(x-1)*(1+(x-1)) + u^3*a*(x-1)^2

Expression grammar:

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := 'u' ['^' int] | '(x-1)' ['^' int] | 's' ['^' int]
            | felem | '(' expr ')'
    felem  := int | 'a' ['^' int]

The field line takes the keys p, m and modulus, the length line the key k,
each at most once.  Expressions are evaluated on (4, n) int16 encoding
arrays, the ``chain`` layout, without building a ``RingElement`` (a power
u^e, s^e, (x-1)^e or a^e is one monomial or constant, whatever e).  The
degree of g_level is the valuation of its u^level row, which must be exactly
a power of s, and each later row u^j is s^k_i times the correction p_i, so
algebraically equal inputs parse to equal codes regardless of how they are
spelled.  Only ``parse_expression`` wraps its value as a ``RingElement``.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import (
    DegreeOutOfRange,
    DuplicateGenerator,
    NotCanonical,
    ParseError,
    UnknownDirective,
)
from .chain import RingElement, _mul, _valuation
from .codes import (
    _CORRECTIONS,
    _DEGREE_NAMES,
    CyclicCode,
    GeneratorForm,
    code_length,
    validate_canonical,
)
from .galois import FieldSpec, field_make
from .sring import MAX_N, SPoly

# One named group per token kind; "(x-1)" is tried before "(".
_TOKEN = re.compile(
    r"(?P<XM1>\(\s*x\s*-\s*1\s*\))|(?P<INT>\d+)|(?P<U>u)|(?P<S>s)|(?P<A>a)|(?P<PLUS>\+)"
    r"|(?P<STAR>\*)|(?P<CARET>\^)|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<SPACE>\s+)|(?P<BAD>.)",
    re.DOTALL,
)

# (owner generator level, u-level of the term) -> correction slot.
_SLOT_BY = {levels: i for i, levels in _CORRECTIONS.items()}


class _ExprParser:
    """Recursive descent over the tokens of one expression, evaluated on
    (4, n) int16 encoding arrays in the ``chain`` layout: a factor is one
    encoding in a zero array, '+' indexes the field's add table and '*' is
    the ring product ``chain._mul``.  Token positions are 1-based columns."""

    def __init__(self, spec: FieldSpec, n: int, text: str, line: int, col_offset: int = 0):
        self.spec = spec
        self.n = n
        self.line = line
        self.start = col_offset + 1
        self.toks: list[tuple[str, object, int]] = []
        for match in _TOKEN.finditer(text):
            kind, col = match.lastgroup, col_offset + match.start() + 1
            if kind == "BAD":
                raise ParseError(line, col, "one of u, s, a, (x-1), integer, + * ^ ( )")
            if kind == "INT":
                self.toks.append((kind, _int(match.group(), line, "a shorter integer", col), col))
            elif kind != "SPACE":
                self.toks.append((kind, None, col))
        self.toks.append(("EOF", None, col_offset + len(text) + 1))
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def next(self) -> tuple[str, object, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(self.line, tok[2], what)
        return tok

    def parse(self) -> np.ndarray:
        try:
            value = self.expr()
            self.expect("EOF", "end of expression")
        except RecursionError:
            raise ParseError(self.line, self.start, "an expression nested less deeply") from None
        return value

    def expr(self) -> np.ndarray:
        value = self.term()
        while self.peek() == "PLUS":
            self.next()
            value = self.spec.add_table[value, self.term()]
        return value

    def term(self) -> np.ndarray:
        value = self.factor()
        while self.peek() == "STAR":
            self.next()
            value = _mul(self.spec, value, self.factor())
        return value

    def _opt_exponent(self) -> int:
        if self.peek() == "CARET":
            self.next()
            return int(self.expect("INT", "integer exponent")[1])
        return 1

    def factor(self) -> np.ndarray:
        """u^e, s^e, (x-1)^e and a^e are each one monomial or constant, whatever e."""
        kind, value, col = self.next()
        spec = self.spec
        if kind == "LPAREN":
            inner = self.expr()
            self.expect("RPAREN", "closing parenthesis")
            return inner
        if kind == "U":
            level, exp, enc = self._opt_exponent(), 0, 1
        elif kind in ("S", "XM1"):
            level, exp, enc = 0, self._opt_exponent(), 1
        elif kind == "A":
            level, exp, enc = 0, 0, (spec.gen() ** self._opt_exponent()).encoding
        elif kind == "INT":
            level, exp, enc = 0, 0, value % spec.p
        else:
            raise ParseError(self.line, col, "a factor (u, s, (x-1), a, integer, or '(')")
        out = np.zeros((4, self.n), dtype=np.int16)
        if level < 4 and exp < self.n:
            out[level, exp] = enc
        return out


def parse_expression(spec: FieldSpec, n: int, text: str, line: int = 1, col_offset: int = 0) -> RingElement:
    """The value of one expression in R[x]/<x^n - 1>; a ParseError carries
    its line and the column counted from ``col_offset``."""
    return RingElement(spec, n, _ExprParser(spec, n, text, line, col_offset).parse())


def parse_field_element(spec: FieldSpec, text: str):
    """Parse the field-element sub-grammar: integers, a, + * ^ and parentheses."""
    parser = _ExprParser(spec, 1, text, 1)
    for kind, _, col in parser.toks:
        if kind in ("U", "S", "XM1"):
            raise ParseError(1, col, "a field element (no u, s or (x-1) factors)")
    return spec.from_encoding(parser.parse()[0, 0])


# --- code files -------------------------------------------------------------------


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _int(text: str, line_no: int, expected: str, col: int = 1) -> int:
    """int(text), or a ParseError: also for digit strings longer than
    Python's conversion limit (sys.get_int_max_str_digits)."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(line_no, col, expected) from None


def _parse_kv(body: str, line_no: int, keys: tuple[str, ...], expected: str) -> dict[str, str]:
    """The key=value pairs of a field or length line: each key one of keys
    and given once, every key but modulus present; else a ParseError that
    expects ``expected``."""
    out = {}
    for chunk in body.split():
        if "=" not in chunk:
            raise ParseError(line_no, 1, "key=value pairs")
        key, val = chunk.split("=", 1)
        if key not in keys or key in out:
            raise ParseError(line_no, 1, expected)
        out[key] = val
    if any(key not in out for key in keys if key != "modulus"):
        raise ParseError(line_no, 1, expected)
    return out


def parse_code_file(text: str) -> tuple[FieldSpec, CyclicCode]:
    """Parse a code file into its field and validated cyclic code."""
    spec = None
    k = None
    gen_lines: list[tuple[int, int, str, int]] = []  # (line_no, level, expr text, its column offset)
    seen_levels = set()

    for line_no, rawline in enumerate(text.splitlines(), start=1):
        line = _strip(rawline)
        if not line:
            continue
        if ":" not in line:
            raise UnknownDirective(f"line {line_no}: expected 'name: ...'")
        head_raw, body = line.split(":", 1)
        head = head_raw.strip()
        if head == "field":
            if spec is not None:
                raise ParseError(line_no, 1, "a single field line")
            kv = _parse_kv(body, line_no, ("p", "m", "modulus"), "field: p=.. m=.. [modulus=[..]]")
            modulus = None
            if "modulus" in kv:
                inner = kv["modulus"]
                if not (inner.startswith("[") and inner.endswith("]")):
                    raise ParseError(line_no, 1, "modulus=[c0,c1,...]")
                modulus = [
                    _int(c, line_no, "modulus=[c0,c1,...] of integers") for c in inner[1:-1].split(",")
                ]
            p, m = (_int(kv[key], line_no, f"an integer {key}") for key in ("p", "m"))
            spec = field_make(p, m, modulus)
        elif head == "length":
            if k is not None:
                raise ParseError(line_no, 1, "a single length line")
            kv = _parse_kv(body, line_no, ("k",), "length: k=..")
            k = _int(kv["k"], line_no, "an integer k")
            length_line = line_no
        elif len(head) == 2 and head[0] == "g" and head[1] in "0123":
            level = int(head[1])
            if level in seen_levels:
                raise DuplicateGenerator(level)
            seen_levels.add(level)
            # the body's columns count from the start of the raw line
            offset = len(rawline) - len(rawline.lstrip()) + len(head_raw) + 1
            gen_lines.append((line_no, level, body, offset))
        else:
            raise UnknownDirective(f"line {line_no}: unknown directive {head!r}")

    if spec is None:
        raise ParseError(1, 1, "a field line")
    if k is None:
        raise ParseError(1, 1, "a length line")
    if not gen_lines:
        raise ParseError(1, 1, "at least one generator line")

    # Checked before any length-n array exists.
    try:
        n = code_length(spec.p, k)
    except DegreeOutOfRange:
        raise ParseError(length_line, 1, f"k >= 1 with {spec.p}^k <= {MAX_N}") from None
    fields: dict = {}

    for line_no, level, body, offset in gen_lines:
        g = _ExprParser(spec, n, body, line_no, offset).parse()
        for j in range(level):
            if g[j].any():
                raise NotCanonical(f"line {line_no}: g{level} has a nonzero u^{j} component")
        degree = _valuation(g[level])
        if degree == n:
            raise NotCanonical(f"line {line_no}: g{level} has a zero u^{level} component")
        if g[level, degree] != 1 or g[level, degree + 1 :].any():
            raise NotCanonical(
                f"line {line_no}: the u^{level} component of g{level} must be a plain "
                f"power of (x-1)"
            )
        fields[_DEGREE_NAMES[level]] = degree
        # each later part is s^k_i times a unit: its correction p_i
        for j in range(level + 1, 4):
            ki = _valuation(g[j])
            if ki < n:
                slot = _SLOT_BY[(level, j)]
                unit = np.zeros(n, dtype=np.int16)
                unit[: n - ki] = g[j, ki:]
                fields[f"k{slot}"] = ki
                fields[f"p{slot}"] = SPoly(spec, n, unit)

    code = validate_canonical(spec, k, GeneratorForm(**fields))
    return spec, code


# --- formatting -------------------------------------------------------------------


def _format_term(ulevel: int, exp: int, poly: SPoly | None) -> str:
    factors = []
    if ulevel:
        factors.append("u" if ulevel == 1 else f"u^{ulevel}")
    if exp:
        factors.append("(x-1)" if exp == 1 else f"(x-1)^{exp}")
    if poly is not None and not (poly.coeffs[0] == 1 and not poly.coeffs[1:].any()):
        factors.append(f"({poly.to_string('(x-1)')})")
    return "*".join(factors) if factors else "1"


def format_generator(code: CyclicCode, level: int) -> str:
    form = code.form
    chunks = [_format_term(level, form.degree(level), None)]
    for i, (owner, ulevel) in _CORRECTIONS.items():
        if owner != level:
            continue
        ki, pi = form.correction(i)
        if pi is None:
            continue
        chunks.append(_format_term(ulevel, ki, pi))
    return " + ".join(chunks)


def format_code_file(code: CyclicCode) -> str:
    spec = code.field
    lines = [
        f"field: p={spec.p} m={spec.m} modulus=[{','.join(str(c) for c in spec.modulus)}]",
        f"length: k={code.k}",
    ]
    for level in code.ideal_type:
        lines.append(f"g{level}: {format_generator(code, level)}")
    return "\n".join(lines) + "\n"
