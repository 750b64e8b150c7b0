"""The code-file parser, which folds the monomial factors of a term into one
and multiplies only its parenthesized factors, against a reference that
evaluates every factor as a (4, n) array, multiplies every pair of factors
with ``chain._mul``, and takes the value apart into ``SPoly`` parts with
``decompose``.

Both must give equal arrays, equal generator forms, and the same error
(type and message) on the same input.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import u4codes as u
from u4codes.chain import RingElement, _mul
from u4codes.codes import GeneratorForm, validate_canonical
from u4codes.errors import NotCanonical, ParseError, U4CodesError
from u4codes.parsing import _ExprParser, format_code_file, parse_code_file
from u4codes.sring import SPoly, decompose
from conftest import golden_g0_f3, golden_g0_g1_f2, golden_g1_f4, golden_g1_g2_f4, golden_g2_f25
from test_cli import GOLDEN_G0_F3_FILE, GOLDEN_G0_G1_FILE, GOLDEN_G1_FILE, GOLDEN_G2_F25_FILE, GOLDEN_G3_FILE
from test_properties import random_generator_files


class ReferenceEvaluator:
    """The grammar of ``parsing`` on (4, n) encoding arrays, each factor its
    own array, over the parser's own token list (so tokenizer errors are
    shared, grammar errors are not)."""

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
            value = self.spec.add_table[value, self.term()]
        return value

    def term(self):
        value = self.factor()
        while self.toks[self.pos][0] == "STAR":
            self.next()
            value = _mul(self.spec, value, self.factor())
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
            return RingElement.from_part(self.exponent(), SPoly.one(spec, n)).coeffs
        if kind in ("S", "XM1"):
            return RingElement.from_part(0, SPoly.monomial(spec, n, self.exponent())).coeffs
        if kind == "A":
            a_e = spec.from_encoding(spec.pow(spec.gen().encoding, self.exponent()))
            return RingElement.from_part(0, SPoly.monomial(spec, n, 0, a_e)).coeffs
        if kind == "INT":
            return RingElement.from_part(0, SPoly.monomial(spec, n, 0, value)).coeffs
        if kind == "LPAREN":
            inner = self.expr()
            self.expect("RPAREN", "closing parenthesis")
            return inner
        raise ParseError(self.line, col, "a factor (u, s, (x-1), a, integer, or '(')")

# Generator level -> its degree field, and (owner level, u-level of the
# term) -> correction slot, written out here so that the reference does not
# read the layout off the library it checks.
_DEGREE_NAMES = {0: "r", 1: "r1", 2: "r2", 3: "r3"}
_SLOT_BY = {(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 4, (1, 3): 5, (2, 3): 6}


def reference_form(spec, n, gen_lines):
    """The GeneratorForm fields of (line_no, level, body, offset) generator
    lines, decomposed part by part."""
    fields = {}
    for line_no, level, body, offset in gen_lines:
        parts = [SPoly(spec, n, row) for row in ReferenceEvaluator(spec, n, body, line_no, offset).parse()]
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
            assert outcome(lambda *a: _ExprParser(*a, 1).parse().tolist(), *args) == outcome(
                lambda *a: ReferenceEvaluator(*a).parse().tolist(), *args)


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
    parse_code_file(GOLDEN_G3_FILE)[1].generator(3)
    assert len(built) == 1


# --- the cases the folding of monomials handles -------------------------------------

HUGE = 99999999999


def edge_file(p, m, k, *lines):
    """A code file over field_make(p, m) at length p^k with these generator lines."""
    modulus = ",".join(str(c) for c in u.field_make(p, m).modulus)
    return "\n".join([f"field: p={p} m={m} modulus=[{modulus}]", f"length: k={k}", *lines]) + "\n"


def edge_bodies(p, n):
    """Sums of products of factors drawn where a term's folded monomial meets
    its limits: exponents 0, n - 1, n, n + 1 and 10^11 around parenthesized
    factors (nested two deep), u-levels summing past 4, constants that
    vanish mod p, and products of several parenthesized sums."""
    atom = st.sampled_from(
        ["u", "s", "(x-1)", "a"]
        + [f"u^{e}" for e in (0, 1, 2, 3, 4, HUGE)]
        + [f"{var}^{e}" for var in ("s", "(x-1)") for e in (0, 1, 2, n - 1, n, n + 1, HUGE)]
        + [f"a^{e}" for e in (0, 2, HUGE)]
        + [str(c) for c in sorted({0, 1, 2, p - 1, p, p + 1, 2 * p})]
    )

    def sums(factors):
        product = st.lists(factors, min_size=1, max_size=4).map("*".join)
        return st.lists(product, min_size=1, max_size=3).map(" + ".join)

    factor = atom
    for _ in range(2):
        factor = st.one_of(atom, atom, sums(factor).map("({})".format))
    return sums(factor)


EDGE_BODIES = {(p, m, k): edge_bodies(p, p**k)
               for p, m, k in [(2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2), (2, 2, 2), (5, 1, 1)]}


@st.composite
def edge_generator_files(draw):
    """Code files of ``edge_bodies`` generator lines: a line either is such a
    sum or puts one under a canonical head."""
    p, m, k = draw(st.sampled_from(sorted(EDGE_BODIES)))
    lines = []
    for level in draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True)):
        line = draw(EDGE_BODIES[p, m, k])
        if draw(st.booleans()):
            line = f"u^{level}*(x-1)^{draw(st.integers(0, p**k - 1))} + u^{level + 1}*{line}"
        lines.append(f"g{level}: {line}")
    return edge_file(p, m, k, *lines)


@settings(max_examples=250)
@given(edge_generator_files())
def test_edge_generator_files_parse_like_the_reference(text):
    assert_parses_like_the_reference(text)


EDGE_EXPRESSIONS = [
    (2, 1, 2, "(x-1)^3*(1+(x-1))*(x-1)^3"),  # the exponent sum passes n = 4
    (2, 1, 2, "(x-1)^2*(1+(x-1))*(x-1)^2"),  # it is n
    (2, 1, 2, "(x-1)^2*(1+(x-1))*(x-1)"),  # it stops at n - 1
    (2, 1, 2, "1 + s^2*s^2"),
    (2, 2, 2, "u^2*(a+u)*u^2"),  # the u-level sum reaches 4
    (2, 2, 2, "u*(a+u)*u^2"),
    (3, 1, 2, "0"),
    (3, 1, 2, "3"),  # vanishes mod 3
    (3, 1, 2, "3*(1+s) + u*s"),
    (2, 1, 2, "2*2"),
    (2, 1, 2, "(1+s)*2*(1+u)"),
    (2, 1, 3, "u^0"),
    (2, 1, 3, "(x-1)^0 + u^0*s^0*u"),
    (5, 1, 1, "s^99999999999"),
    (5, 1, 1, "u^99999999999 + a^99999999999*s"),
    (2, 2, 2, "(1+s)*(a+u*s)"),  # two parenthesized sums
    (2, 2, 2, "u*(1+s)*s*(a+u*s)*(1+u^2+s^3)"),  # three, around monomials
    (3, 1, 2, "(1+2*s)*(2+s)*(1+s^8)*s^0"),
    (5, 1, 1, "(x-1) + 4*(x-1)"),  # terms that cancel exactly
    (5, 1, 1, "u*(1+s) + u*(4+4*s)"),
    (5, 1, 1, "(s + u)*(u^3*s^3 + 4*u^2*s^4)"),  # a product of two sums that cancels to zero
    # <g0> files as format_code_file writes them, their correction dense (all
    # n - k1 coefficients nonzero), at n = 625 and n = 3125
    *[pytest.param(5, 1, k, format_code_file(u.validate_canonical(u.field_make(5, 1), k, u.GeneratorForm(
        r=5**k - 1, k1=2, p1=SPoly(u.field_make(5, 1), 5**k, [1 + i % 4 for i in range(5**k)])))
    ).partition("g0: ")[2].rstrip(), id=f"dense-correction-n{5**k}") for k in (4, 5)],
]


@pytest.mark.parametrize("p, m, k, text", EDGE_EXPRESSIONS)
def test_edge_expressions_parse_like_the_reference(p, m, k, text):
    n = p**k
    assert_parses_like_the_reference(edge_file(p, m, k, f"g0: {text}"))
    assert_parses_like_the_reference(edge_file(p, m, k, f"g1: u*(x-1)^{n - 1} + u^2*({text})"))
    assert_parses_like_the_reference(edge_file(p, m, k, f"g2: u^2*(x-1)^{n // 2} + u^3*{text}"))


def test_format_code_file_output_parses_without_a_kernel_call(kernel_calls, F2, F3, F4, F5, F25):
    codes = [golden_g1_f4(F4), golden_g1_g2_f4(F4), golden_g0_g1_f2(F2), golden_g0_f3(F3), golden_g2_f25(F25)]
    rng = random.Random(11)
    codes += [u.random_code(rng, spec, k) for spec, k in [(F2, 4), (F3, 2), (F4, 3), (F25, 2)] for _ in range(10)]
    # two corrections each, at n = 625 and n = 3125
    codes += [u.random_code(random.Random(2), F5, k) for k in (4, 5)]
    texts = [format_code_file(code) for code in codes]
    kernel_calls.clear()
    for text, code in zip(texts, codes):
        assert parse_code_file(text)[1] == code
    assert kernel_calls == []
    # a product of two parenthesized sums is a ring product: the counter is live
    parse_code_file(edge_file(2, 1, 2, "g1: u*(x-1)^3 + u^2*(1+(x-1))*(1+u)"))
    assert kernel_calls
