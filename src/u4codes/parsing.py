"""Code-specification files and the generator expression grammar.

File format ('#' starts a comment):

    field: p=2 m=2 modulus=[1,1,1]
    length: k=3
    g1: u*(x-1)^6 + u^2*(x-1)*(1+(x-1)) + u^3*a*(x-1)^2

Generator expressions ignore whitespace.  The field and length lines are
whitespace-separated key=value pairs, and a pair contains no whitespace:
``modulus=[1, 1, 1]`` and ``p = 2`` are parse errors.

Expression grammar:

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := 'u' ['^' int] | '(x-1)' ['^' int] | 's' ['^' int]
            | felem | '(' expr ')'
    felem  := int | 'a' ['^' int]

The field line takes the keys p, m and modulus, the length line the key k,
each at most once.  An expression is evaluated on its nonzero terms, a dict
{(u-level, s-exponent): encoding}, without building a ``RingElement`` or a
length-n array.  Every factor but a parenthesized sum is one monomial
c u^e s^f, whatever its exponent, and a term folds its monomials into one
with integer sums and a scalar lookup in the field's Python tables
(``FieldSpec.mul_rows``): the one path is that monomial times the product
of the term's parenthesized factors.  A sum adds terms with scalar
``add_rows`` lookups and drops those that cancel.  Only a product of two
parenthesized sums is a ring product: both are written out as (4, n)
arrays in the ``chain`` layout for ``chain._mul``, so a file written by
``format_code_file`` parses without a product-kernel call.  The degree of
g_level is the s-exponent of its one u^level term, which must be exactly a
power of s, and each later part u^j is s^k_i times the correction p_i, k_i
its least s-exponent, so algebraically equal inputs parse to equal codes
regardless of how they are spelled.
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
from .chain import _mul
from .codes import CyclicCode, GeneratorForm, code_length, validate_canonical
from .galois import FieldSpec, field_make
from .sring import MAX_N, SPoly

# One named group per token kind; "(x-1)" is tried before "(".
_TOKEN = re.compile(
    r"(?P<XM1>\(\s*x\s*-\s*1\s*\))|(?P<INT>\d+)|(?P<U>u)|(?P<S>s)|(?P<A>a)|(?P<PLUS>\+)"
    r"|(?P<STAR>\*)|(?P<CARET>\^)|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<SPACE>\s+)|(?P<BAD>.)",
    re.DOTALL,
)


def _dense(terms: dict, n: int) -> np.ndarray:
    """The (4, n) int16 encoding array, in the ``chain`` layout, of a dict
    {(u-level, s-exponent): encoding}."""
    out = np.zeros((4, n), dtype=np.int16)
    if terms:
        out[tuple(zip(*terms))] = list(terms.values())
    return out


def _terms(x: np.ndarray) -> dict:
    """The nonzero terms of a (4, n) encoding array."""
    levels, exps = x.nonzero()
    return dict(zip(zip(levels.tolist(), exps.tolist()), x[levels, exps].tolist()))


class _ExprParser:
    """Recursive descent over the tokens of one expression.  Token positions
    are 1-based columns.

    A value is a dict of nonzero terms {(u-level, s-exponent): encoding}
    with u-level < 4 and s-exponent < n.  A factor other than '(' expr ')'
    is a monomial ``(level, exp, enc)``, enc u^level s^exp with enc a field
    encoding.  A term folds its monomials into one with Python ints and a
    ``mul_rows`` lookup each, multiplies its parenthesized sums with
    ``chain._mul`` (only a product of two of them calls it), and applies
    the folded monomial to that product's terms.  A sum adds each term with
    one ``add_rows`` lookup."""

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
        """The expression's value as a (4, n) int16 array in the ``chain`` layout."""
        return _dense(self.terms(), self.n)

    def terms(self) -> dict:
        """The expression's value as its nonzero terms."""
        try:
            value = self.expr()
            self.expect("EOF", "end of expression")
        except RecursionError:
            raise ParseError(self.line, self.start, "an expression nested less deeply") from None
        return value

    def expr(self) -> dict:
        add = self.spec.add_rows
        value = {}
        while True:
            for key, enc in self.term().items():
                enc = add[value.get(key, 0)][enc]
                if enc:
                    value[key] = enc
                else:  # a term's encodings are nonzero, so key was present
                    del value[key]
            if self.peek() != "PLUS":
                return value
            self.next()

    def term(self) -> dict:
        """The term's nonzero terms: none once its monomial's u-level reaches
        4, its exponent n or its coefficient 0."""
        mul = self.spec.mul_rows
        level, exp, enc, product = 0, 0, 1, None
        while True:
            factor = self.factor()
            if type(factor) is tuple:
                level += factor[0]
                exp += factor[1]
                enc = mul[enc][factor[2]]
            elif product is None:
                product = factor
            else:
                product = _terms(_mul(self.spec, _dense(product, self.n), _dense(factor, self.n)))
            if self.peek() != "STAR":
                break
            self.next()
        if level >= 4 or exp >= self.n or not enc:
            return {}
        if product is None:
            return {(level, exp): enc}
        n, scale = self.n, mul[enc]
        return {(i + level, j + exp): scale[c] for (i, j), c in product.items()
                if i + level < 4 and j + exp < n}

    def _opt_exponent(self) -> int:
        if self.peek() == "CARET":
            self.next()
            return int(self.expect("INT", "integer exponent")[1])
        return 1

    def factor(self) -> tuple[int, int, int] | dict:
        """u^e, s^e, (x-1)^e, a^e and an integer are each one monomial, whatever e."""
        kind, value, col = self.next()
        spec = self.spec
        if kind == "LPAREN":
            inner = self.expr()
            self.expect("RPAREN", "closing parenthesis")
            return inner
        if kind == "U":
            return self._opt_exponent(), 0, 1
        if kind in ("S", "XM1"):
            return 0, self._opt_exponent(), 1
        if kind == "A":
            return 0, 0, spec.pow(spec.gen().encoding, self._opt_exponent())
        if kind == "INT":
            return 0, 0, value % spec.p
        raise ParseError(self.line, col, "a factor (u, s, (x-1), a, integer, or '(')")


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
    degrees, corrections = {}, {}
    for line_no, level, body, offset in gen_lines:
        parts = [[], [], [], []]  # (s-exponent, encoding) of each u-level
        for (j, exp), enc in _ExprParser(spec, n, body, line_no, offset).terms().items():
            parts[j].append((exp, enc))
        for j in range(level):
            if parts[j]:
                raise NotCanonical(f"line {line_no}: g{level} has a nonzero u^{j} component")
        if not parts[level]:
            raise NotCanonical(f"line {line_no}: g{level} has a zero u^{level} component")
        if len(parts[level]) != 1 or parts[level][0][1] != 1:
            raise NotCanonical(
                f"line {line_no}: the u^{level} component of g{level} must be a plain "
                f"power of (x-1)"
            )
        degrees[level] = parts[level][0][0]
        # each later part is s^k_i times a unit: its correction p_i
        for j in range(level + 1, 4):
            if parts[j]:
                exps, encs = zip(*parts[j])
                ki = min(exps)
                unit = np.zeros(n, dtype=np.int16)
                unit[np.array(exps) - ki] = encs
                corrections[level, j] = ki, SPoly(spec, n, unit)

    code = validate_canonical(spec, k, GeneratorForm.of(degrees, corrections))
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
    chunks = [_format_term(level, code.form.degree(level), None)]
    chunks += [_format_term(ulevel, ki, pi) for ulevel, ki, pi in code.form.terms(level)]
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
