"""Text syntax for polynomials and scalars.

Grammar (whitespace-insensitive):

    expr   := [+|-] term ((+|-) term)*
    term   := factor (* factor)*
    factor := atom [^ INTEGER]
    atom   := NUMBER [/ NUMBER] | NAME | ( expr )

NAME is a ring variable or the reserved generator token "w" (the cyclotomic
generator, or the distinguished root of a prime field in fast mode).  The
printer in ``Polynomial.__str__`` emits exactly this syntax, so printing and
reparsing round-trips.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MissingRootsError, PolynomialSyntaxError, UnknownSymbolError
from .fields import Field
from .polynomials import PolyRing, Polynomial

_SYMBOL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def _tokenize(text):
    tokens = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j]), i))
            i = j
            continue
        if c in _SYMBOL_CHARS:
            j = i
            while j < n and (text[j] in _SYMBOL_CHARS or text[j].isdigit()):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in "+-*^/()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise PolynomialSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise PolynomialSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.advance()[0] == "-" else 1
        out = self.parse_term()
        if sign < 0:
            out = -out
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            term = self.parse_term()
            out = out - term if op == "-" else out + term
        return out

    def parse_term(self):
        out = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            out = out * self.parse_factor()
        return out

    def parse_factor(self):
        base = self.parse_atom()
        while self.peek()[0] == "^":
            self.advance()
            tok = self.advance()
            if tok[0] != "num":
                raise PolynomialSyntaxError("exponent must be an integer", tok[2])
            base = base**tok[1]
        return base

    def parse_atom(self):
        kind, value, pos = self.advance()
        ring = self.ring
        if kind == "num":
            if self.peek()[0] == "/":
                self.advance()
                tok = self.advance()
                if tok[0] != "num" or tok[1] == 0:
                    raise PolynomialSyntaxError("bad rational literal", tok[2])
                return ring.constant(ring.field.from_fraction(Fraction(value, tok[1])))
            return ring.from_int(value)
        if kind == "name":
            if value in ring.variables:
                return ring.var(value)
            if value == "w":
                try:
                    return ring.constant(ring.field.generator())
                except MissingRootsError:
                    raise UnknownSymbolError(
                        "the generator token 'w' has no meaning over this field", pos
                    ) from None
            raise UnknownSymbolError(f"unknown symbol {value!r}", pos)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise PolynomialSyntaxError(f"unexpected token {value!r}", pos)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse polynomial text over the given ring."""
    if not isinstance(text, str):
        raise PolynomialSyntaxError(f"polynomial text must be a string, not {text!r}", 0)
    if not text.strip():
        raise PolynomialSyntaxError("empty polynomial text", 0)
    parser = _Parser(_tokenize(text), ring)
    out = parser.parse_expr()
    end = parser.advance()
    if end[0] != "end":
        raise PolynomialSyntaxError(f"trailing input {end[1]!r}", end[2])
    return out


def parse_scalar(text: str, field: Field):
    """Parse a scalar ("3/2", "w^2", "-1", ...) over the given field."""
    ring = PolyRing(field, ())
    poly = parse_polynomial(text, ring)
    return poly.constant_term()
