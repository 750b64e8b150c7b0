"""The code-file parser, which evaluates on (4, n) encoding arrays, against a
reference that evaluates with ``RingElement`` operators and takes the value
apart with ``.parts`` and ``decompose``: the evaluator the parser had before.

Both must give equal ring elements, equal generator forms, and the same
error (type and message) on the same input.
"""

import random
import re

import pytest
from hypothesis import given, settings

import u4codes as u
from u4codes.chain import RingElement
from u4codes.codes import _DEGREE_NAMES, GeneratorForm, validate_canonical
from u4codes.errors import NotCanonical, ParseError, U4CodesError
from u4codes.parsing import _SLOT_BY, _ExprParser, format_code_file, parse_code_file, parse_expression
from u4codes.sring import SPoly, decompose
from test_cli import GOLDEN_G0_F3_FILE, GOLDEN_G0_G1_FILE, GOLDEN_G1_FILE, GOLDEN_G2_F25_FILE, GOLDEN_G3_FILE
from test_properties import random_generator_files


class ReferenceEvaluator:
    """The grammar of ``parsing`` on RingElement values, over the parser's own
    token list (so tokenizer errors are shared, grammar errors are not)."""

    def __init__(self, spec, n, text, line=1, col_offset=0):
        self.spec, self.n, self.line = spec, n, line
        self.toks, self.pos = _ExprParser(spec, n, text, line, col_offset).toks, 0

    def next(self):
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(self.line, tok[2], what)
        return tok

    def parse(self):
        value = self.expr()
        self.expect("EOF", "end of expression")
        return value

    def expr(self):
        value = self.term()
        while self.toks[self.pos][0] == "PLUS":
            self.next()
            value = value + self.term()
        return value

    def term(self):
        value = self.factor()
        while self.toks[self.pos][0] == "STAR":
            self.next()
            value = value * self.factor()
        return value

    def exponent(self):
        if self.toks[self.pos][0] == "CARET":
            self.next()
            return self.expect("INT", "integer exponent")[1]
        return 1

    def factor(self):
        kind, value, col = self.next()
        spec, n = self.spec, self.n
        if kind == "U":
            return RingElement.from_part(self.exponent(), SPoly.one(spec, n))
        if kind in ("S", "XM1"):
            return RingElement.from_part(0, SPoly.monomial(spec, n, self.exponent()))
        if kind == "A":
            return RingElement.from_part(0, SPoly.monomial(spec, n, 0, spec.gen() ** self.exponent()))
        if kind == "INT":
            return RingElement.from_part(0, SPoly.monomial(spec, n, 0, value))
        if kind == "LPAREN":
            inner = self.expr()
            self.expect("RPAREN", "closing parenthesis")
            return inner
        raise ParseError(self.line, col, "a factor (u, s, (x-1), a, integer, or '(')")


def reference_form(spec, n, gen_lines):
    """The GeneratorForm fields of (line_no, level, body, offset) generator
    lines, decomposed part by part."""
    fields = {}
    for line_no, level, body, offset in gen_lines:
        parts = ReferenceEvaluator(spec, n, body, line_no, offset).parse().parts
        for j in range(level):
            if not parts[j].is_zero():
                raise NotCanonical(f"line {line_no}: g{level} has a nonzero u^{j} component")
        lead = decompose(parts[level])
        if lead.unit_part.is_zero():
            raise NotCanonical(f"line {line_no}: g{level} has a zero u^{level} component")
        if not lead.unit_part == SPoly.one(spec, n):
            raise NotCanonical(
                f"line {line_no}: the u^{level} component of g{level} must be a plain power of (x-1)"
            )
        fields[_DEGREE_NAMES[level]] = lead.valuation
        for j in range(level + 1, 4):
            if not parts[j].is_zero():
                slot, d = _SLOT_BY[(level, j)], decompose(parts[j])
                fields[f"k{slot}"] = d.valuation
                fields[f"p{slot}"] = d.unit_part
    return fields


def header(text):
    """(spec, k) of a file whose field line carries its modulus."""
    field = re.search(r"field: p=(\d+) m=(\d+) modulus=\[([\d,]+)\]", text)
    p, m, modulus = int(field.group(1)), int(field.group(2)), field.group(3).split(",")
    return u.field_make(p, m, [int(c) for c in modulus]), int(re.search(r"length: k=(\d+)", text).group(1))


def reference_parse(text):
    """(spec, code) of a file with well-formed field and length lines, its
    generator lines evaluated by the reference."""
    spec, k = header(text)
    gen_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        head, _, body = raw.partition(":")
        if head.startswith("g"):
            gen_lines.append((line_no, int(head[1]), body, len(head) + 1))
    return spec, validate_canonical(spec, k, GeneratorForm(**reference_form(spec, spec.p**k, gen_lines)))


def outcome(parse, *args):
    """The parse result, or the type and message of the library error it raised."""
    try:
        return parse(*args)
    except U4CodesError as exc:
        return type(exc), str(exc)


def assert_parses_like_the_reference(text):
    assert outcome(parse_code_file, text) == outcome(reference_parse, text)
    spec, k = header(text)
    for line in text.splitlines():
        if line.startswith("g"):
            args = (spec, spec.p**k, line.partition(":")[2])
            assert outcome(parse_expression, *args) == outcome(lambda *a: ReferenceEvaluator(*a).parse(), *args)


GOLDEN_FILES = [GOLDEN_G1_FILE, GOLDEN_G3_FILE, GOLDEN_G2_F25_FILE, GOLDEN_G0_F3_FILE, GOLDEN_G0_G1_FILE]


@settings(max_examples=200)
@given(random_generator_files())
def test_random_generator_files_parse_like_the_reference(text):
    assert_parses_like_the_reference(text)


@pytest.mark.parametrize("p,m,k", [(2, 1, 4), (2, 2, 3), (2, 3, 2), (3, 2, 2), (5, 2, 2)])
def test_random_code_files_parse_like_the_reference(p, m, k):
    spec, rng = u.field_make(p, m), random.Random(31 * p + m + k)
    for _ in range(30):
        code = u.random_code(rng, spec, k)
        text = format_code_file(code)
        assert_parses_like_the_reference(text)
        assert parse_code_file(text)[1] == code


def test_parse_code_file_builds_no_ring_element(monkeypatch):
    built = []
    real_init = RingElement.__init__

    def counted(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(RingElement, "__init__", counted)
    texts = GOLDEN_FILES + [format_code_file(u.random_code(random.Random(s), u.field_make(5, 1), 2))
                            for s in range(20)]
    for text in texts:
        parse_code_file(text)
    assert built == []
    parse_expression(u.field_make(2, 1), 4, "u*s")
    assert len(built) == 1
