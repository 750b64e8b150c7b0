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

Expressions are evaluated to full ring elements ((4, n) arrays, see ``chain``;
a power u^e, s^e, (x-1)^e or a^e is one monomial or constant, whatever e) and
then decomposed into the canonical degrees/corrections, so algebraically equal
inputs parse to equal codes regardless of how they are spelled.
"""

from __future__ import annotations

import re

from .errors import (
    DegreeOutOfRange,
    DuplicateGenerator,
    NotCanonical,
    ParseError,
    UnknownDirective,
)
from .chain import RingElement
from .codes import (
    _CORRECTIONS,
    _DEGREE_NAMES,
    CyclicCode,
    GeneratorForm,
    code_length,
    validate_canonical,
)
from .galois import FieldSpec, field_make
from .sring import MAX_N, SPoly, decompose

# One named group per token kind; "(x-1)" is tried before "(".
_TOKEN = re.compile(
    r"(?P<XM1>\(\s*x\s*-\s*1\s*\))|(?P<INT>\d+)|(?P<U>u)|(?P<S>s)|(?P<A>a)|(?P<PLUS>\+)"
    r"|(?P<STAR>\*)|(?P<CARET>\^)|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<SPACE>\s+)|(?P<BAD>.)",
    re.DOTALL,
)

# (owner generator level, u-level of the term) -> correction slot.
_SLOT_BY = {levels: i for i, levels in _CORRECTIONS.items()}


class _Tokens:
    """Token stream over one expression; positions are 1-based columns."""

    def __init__(self, text: str, line: int, col_offset: int = 0):
        self.line = line
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


class _ExprParser:
    def __init__(self, spec: FieldSpec, n: int, tokens: _Tokens):
        self.spec = spec
        self.n = n
        self.t = tokens

    def parse(self) -> RingElement:
        value = self.expr()
        self.t.expect("EOF", "end of expression")
        return value

    def expr(self) -> RingElement:
        value = self.term()
        while self.t.peek() == "PLUS":
            self.t.next()
            value = value + self.term()
        return value

    def term(self) -> RingElement:
        value = self.factor()
        while self.t.peek() == "STAR":
            self.t.next()
            value = value * self.factor()
        return value

    def _opt_exponent(self) -> int:
        if self.t.peek() == "CARET":
            self.t.next()
            return int(self.t.expect("INT", "integer exponent")[1])
        return 1

    def factor(self) -> RingElement:
        kind, value, col = self.t.next()
        spec, n = self.spec, self.n
        if kind == "U":
            return RingElement.from_part(self._opt_exponent(), SPoly.one(spec, n))
        if kind in ("S", "XM1"):
            return RingElement.from_part(0, SPoly.monomial(spec, n, self._opt_exponent()))
        if kind == "A":
            return RingElement.constant(spec, n, spec.gen() ** self._opt_exponent())
        if kind == "INT":
            return RingElement.constant(spec, n, value)
        if kind == "LPAREN":
            inner = self.expr()
            self.t.expect("RPAREN", "closing parenthesis")
            return inner
        raise ParseError(self.t.line, col, "a factor (u, s, (x-1), a, integer, or '(')")


def parse_expression(spec: FieldSpec, n: int, text: str, line: int = 1, col_offset: int = 0) -> RingElement:
    try:
        return _ExprParser(spec, n, _Tokens(text, line, col_offset)).parse()
    except RecursionError:
        raise ParseError(line, col_offset + 1, "an expression nested less deeply") from None


def parse_field_element(spec: FieldSpec, text: str):
    """Parse the field-element sub-grammar: integers, a, + * ^ and parentheses."""
    for kind, _, col in _Tokens(text, 1).toks:
        if kind in ("U", "S", "XM1"):
            raise ParseError(1, col, "a field element (no u, s or (x-1) factors)")
    return spec.from_encoding(int(parse_expression(spec, 1, text).coeffs[0, 0]))


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


def _parse_kv(body: str, line_no: int) -> dict[str, str]:
    out = {}
    for chunk in body.split():
        if "=" not in chunk:
            raise ParseError(line_no, 1, "key=value pairs")
        key, val = chunk.split("=", 1)
        out[key] = val
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
            kv = _parse_kv(body, line_no)
            if "p" not in kv or "m" not in kv:
                raise ParseError(line_no, 1, "field: p=.. m=.. [modulus=[..]]")
            modulus = None
            if "modulus" in kv:
                inner = kv["modulus"].strip()
                if not (inner.startswith("[") and inner.endswith("]")):
                    raise ParseError(line_no, 1, "modulus=[c0,c1,...]")
                modulus = [
                    _int(c, line_no, "modulus=[c0,c1,...] of integers")
                    for c in inner[1:-1].split(",")
                    if c.strip() != ""
                ]
            p, m = (_int(kv[key], line_no, f"an integer {key}") for key in ("p", "m"))
            spec = field_make(p, m, modulus)
        elif head == "length":
            if k is not None:
                raise ParseError(line_no, 1, "a single length line")
            kv = _parse_kv(body, line_no)
            if "k" not in kv:
                raise ParseError(line_no, 1, "length: k=..")
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
        parts = parse_expression(spec, n, body, line=line_no, col_offset=offset).parts
        for j in range(level):
            if not parts[j].is_zero():
                raise NotCanonical(
                    f"line {line_no}: g{level} has a nonzero u^{j} component"
                )
        lead = decompose(parts[level])
        if lead.unit_part.is_zero():
            raise NotCanonical(f"line {line_no}: g{level} has a zero u^{level} component")
        if not lead.unit_part == SPoly.one(spec, n):
            raise NotCanonical(
                f"line {line_no}: the u^{level} component of g{level} must be a plain "
                f"power of (x-1)"
            )
        fields[_DEGREE_NAMES[level]] = lead.valuation
        for j in range(level + 1, 4):
            part = parts[j]
            if part.is_zero():
                continue
            slot = _SLOT_BY[(level, j)]
            d = decompose(part)
            fields[f"k{slot}"] = d.valuation
            fields[f"p{slot}"] = d.unit_part

    code = validate_canonical(spec, k, GeneratorForm(**fields))
    return spec, code


# --- formatting -------------------------------------------------------------------


def _format_term(ulevel: int, exp: int, poly: SPoly | None) -> str:
    factors = []
    if ulevel:
        factors.append("u" if ulevel == 1 else f"u^{ulevel}")
    if exp:
        factors.append("(x-1)" if exp == 1 else f"(x-1)^{exp}")
    if poly is not None and not poly == SPoly.one(poly.spec, poly.n):
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
