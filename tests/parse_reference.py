"""The Polynomial lowering of the expression grammar: the reference for cli.parse_poly.

Each rule returns a Polynomial: sums and differences are taken pairwise
with Polynomial + and -, products term pair by term pair with
reference_product, powers by repeated multiplication, and literals, i
and variables through the Polynomial constructors.  It shares no
arithmetic with cli, which lowers into one GaussianForm; it reads valid
input only (no error positions, no nesting or size bounds).
"""

from fractions import Fraction

from prymcert.cli import _tokenize
from prymcert.exactnum import IMAG_UNIT
from prymcert.multipoly import Polynomial

from product_reference import reference_product


def reference_parse(text, registry):
    """The Polynomial of a valid expression text, lowered rule by rule."""
    tokens = _tokenize(text)
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        value = term()
        while tokens[pos].kind in ("+", "-"):
            value = value + term() if take().kind == "+" else value - term()
        return value

    def term():
        value = factor()
        while tokens[pos].kind == "*":
            take()
            value = reference_product(value, factor())
        return value

    def factor():
        value = base()
        if tokens[pos].kind != "^":
            return value
        take()
        result = Polynomial.constant(registry, 1)
        for _ in range(int(take().text)):
            result = reference_product(result, value)
        return result

    def base():
        tok = take()
        if tok.kind == "(":
            inner = expr()
            take()  # ")"
            return inner
        if tok.kind == "ident":
            if tok.text == "i":
                return Polynomial.constant(registry, IMAG_UNIT)
            return Polynomial.variable(registry, tok.text)
        numerator = -int(take().text) if tok.kind == "-" else int(tok.text)
        if tokens[pos].kind == "/":
            take()
            return Polynomial.constant(registry, Fraction(numerator, int(take().text)))
        return Polynomial.constant(registry, numerator)

    return expr()
