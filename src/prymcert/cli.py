"""Command-line interface and the polynomial expression parser.

Grammar (LL(1), whitespace-insensitive):

    expr       := term (("+" | "-") term)*
    term       := factor ("*" factor)*      # no implicit multiplication
    factor     := base ("^" uint)?
    base       := rational | "i" | identifier | "(" expr ")"
    rational   := int ("/" uint)?           # sign only on the numerator
    identifier := [A-Za-z_][A-Za-z0-9_]*    # ASCII only

"i" is the imaginary unit, never a variable.  The parser lowers as it
reads: each rule returns the GaussianForm (Gaussian integers over one
scale) of the text it read, a sum is taken once over all its terms, the
Polynomial is built once, at the end, and no syntax tree is built.
Parse errors carry the line and column and the tokens that would have
been accepted.  Hostile input is bounded: parentheses nest at most
MAX_NESTING deep, and a power or a product whose size bound exceeds
MAX_POWER_SIZE is refused before it is computed.  An input with several
faults (syntax, unknown variable, size) is reported at the first one in
reading order.

Subcommands (exit 0 iff the requested verdicts all pass, 1 on a failed
check, 2 on usage errors):

    verify identities | eigenspaces | diagonal | genus | freeness
    detm --symbolic | --at A1,A2,A3,B1,B2,B3,C1,C2,C3
    quadric --at ...      fpf --at ...
    certify --seed N [--max-attempts K] [--out FILE]
    recheck --cert FILE
    parse --expr STR [--vars s,t,x,y]

Every subcommand accepts --json, which switches the output to the
certificate field schema.  A usage error, argparse's own included, prints
one "error: <message>" line on stderr.  An option that takes a value
reads "--at -1,..." as "--at=-1,..." and "--expr -1*s" as "--expr=-1*s".
A failed check (prymcert.CheckFailed, such as a base point on the
diagonal, an identity with a nonzero residual or a certificate field that
recheck recomputes differently) stops the run and prints one line
"Fail <check>: <message>", where <check> is the verify check or else the
subcommand, or {"error": "<message>"} under --json, and exits 1; a
failing certify writes no certificate.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import comb
from typing import Sequence

from . import CheckFailed
from .exactnum import GaussianRational, rational_from_text
from .multipoly import GaussianForm, Polynomial, UnknownVariable, VariableRegistry

# The certify, weil_model and freeness modules are imported by the
# subcommands that use them, so that `parse` does not pay for loading them
# and only `verify freeness` loads the freeness theorem's check.


class ParseError(ValueError):
    """Syntax error with position and the expected token kinds."""

    def __init__(self, message: str, line: int, column: int, expected: "tuple[str, ...]" = ()):
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_PUNCT = set("+-*^/()")

# the one rule for variable names: what the lexer reads and what --vars may name
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # "int", "ident", one of + - * ^ / ( ), or "end"
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> "list[_Token]":
    tokens: list[_Token] = []
    line, col = 1, 1
    k = 0
    while k < len(text):
        ch = text[k]
        if ch == "\n":
            line += 1
            col = 1
            k += 1
            continue
        if ch.isspace():
            col += 1
            k += 1
            continue
        if "0" <= ch <= "9":
            start = k
            while k < len(text) and "0" <= text[k] <= "9":
                k += 1
            tokens.append(_Token("int", text[start:k], line, col))
            col += k - start
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            k += 1
            continue
        name = _IDENTIFIER.match(text, k)
        if name:
            tokens.append(_Token("ident", name.group(), line, col))
            col += name.end() - k
            k = name.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

MAX_NESTING = 100
"""Deepest parenthesis nesting the parser accepts (it recurses once per level)."""

MAX_POWER_SIZE = 1 << 20
"""Largest size (terms times coefficient bits) a power or a product may be bounded by."""


def _exact_bits(form: GaussianForm) -> int:
    """Largest coefficient bits of the form's Polynomial: numerator plus
    denominator bits, of both parts in Q(i)."""
    return max([c.re.numerator.bit_length() + c.re.denominator.bit_length()
                + c.im.numerator.bit_length() + c.im.denominator.bit_length()
                if type(c) is GaussianRational
                else c.numerator.bit_length() + c.denominator.bit_length()
                for _, c in form.polynomial().items()], default=0)


def _screen_bits(form: GaussianForm) -> int:
    """An upper bound on _exact_bits read from the ints: the bits of re and im
    plus twice the bits of the scale, which each reduced denominator divides."""
    return max([re.bit_length() + im.bit_length() for re, im in form.terms.values()],
               default=0) + 2 * form.scale.bit_length()


def _decided(size, *forms: GaussianForm) -> int:
    """size(*bits) on the screen bits of the forms, or on their exact bits when
    that exceeds MAX_POWER_SIZE, so each refusal is the one the exact bits give."""
    bound = size(*map(_screen_bits, forms))
    return bound if bound <= MAX_POWER_SIZE else size(*map(_exact_bits, forms))


def _variables_used(*forms: GaussianForm) -> int:
    """How many registry variables occur in some term of the forms."""
    return sum(map(any, zip(*[m for form in forms for m in form.terms])))


def power_size_bound(base: GaussianForm, exponent: int) -> int:
    """An upper bound on the size of base ** exponent, found without computing it.

    Size is terms times coefficient bits.  A monomial's power has one
    term; otherwise the result has at most as many terms as there are
    monomials of degree <= degree(base) * exponent in the variables base
    uses.  Each coefficient is a sum of at most t^exponent products of
    exponent coefficients of base (t terms), so its bit length is at most
    exponent * (largest coefficient bits + bits of t).
    """
    terms = len(base.terms)
    count = 1
    if terms > 1:
        used = _variables_used(base)
        count = comb(used + max(map(sum, base.terms)) * exponent, used)
    return _decided(lambda bits: count * exponent * (bits + terms.bit_length()), base)


def product_size_bound(left: GaussianForm, right: GaussianForm) -> int:
    """An upper bound on the size of left * right, found in time linear in their terms.

    Size is terms times coefficient bits.  With t1 and t2 terms, the
    product has at most t1 * t2 terms, and at most as many as there are
    monomials of degree <= d1 + d2 in the variables either factor uses.
    Each coefficient is a sum of at most min(t1, t2) products of one
    coefficient of each factor, so its bit length is at most the sum of
    their largest coefficient bits plus the bits of min(t1, t2).
    """
    t1, t2 = len(left.terms), len(right.terms)
    count = t1 * t2
    if count > 1:
        used = _variables_used(left, right)
        degree = max(map(sum, left.terms)) + max(map(sum, right.terms))
        count = min(count, comb(used + degree, used))
    return _decided(lambda b1, b2: count * (b1 + b2 + min(t1, t2).bit_length()), left, right)


class _Parser:
    """Recursive descent that lowers as it reads: each rule returns the
    GaussianForm, in the registry, of the text it consumed."""

    def __init__(self, tokens: "list[_Token]", registry: VariableRegistry):
        self.tokens = tokens
        self.registry = registry
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: "tuple[str, ...]") -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.kind} {tok.text!r}",
                             tok.line, tok.column, expected)
        return self.advance()

    def parse(self) -> GaussianForm:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.kind} {tok.text!r}",
                             tok.line, tok.column, ("+", "-", "end of input"))
        return value

    def expr(self) -> GaussianForm:
        signed = [(1, self.term())]
        while self.peek().kind in ("+", "-"):
            signed.append((1 if self.advance().kind == "+" else -1, self.term()))
        return signed[0][1] if len(signed) == 1 else GaussianForm.sum(signed)

    def term(self) -> GaussianForm:
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            right = self.factor()
            if product_size_bound(value, right) > MAX_POWER_SIZE:
                raise ValueError(f"product too large to compute: its size bound exceeds "
                                 f"{MAX_POWER_SIZE} (terms times coefficient bits)")
            value = value * right
        return value

    def factor(self) -> GaussianForm:
        value = self.base()
        if self.peek().kind == "^":
            self.advance()
            exponent = int(self.expect("int", ("unsigned integer exponent",)).text)
            if power_size_bound(value, exponent) > MAX_POWER_SIZE:
                raise ValueError(f"power too large to compute: its size bound exceeds "
                                 f"{MAX_POWER_SIZE} (terms times coefficient bits)")
            value = value ** exponent
        return value

    def base(self) -> GaussianForm:
        tok = self.peek()
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok.line, tok.column)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")", (")",))
            return inner
        if tok.kind == "-":  # signed integer literal: only inside rational
            self.advance()
            num = self.expect("int", ("integer after unary '-'",))
            return self._rational(-int(num.text))
        if tok.kind == "int":
            self.advance()
            return self._rational(int(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return GaussianForm(self.registry, {self.registry.unit_monomial(): (0, 1)})
            if tok.text not in self.registry:
                raise UnknownVariable(
                    f"unknown variable {tok.text!r} at line {tok.line}, "
                    f"column {tok.column} (registry {self.registry.names})")
            mono = tuple(int(name == tok.text) for name in self.registry.names)
            return GaussianForm(self.registry, {mono: (1, 0)})
        raise ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.column,
                         ("rational", "i", "identifier", "("))

    def _rational(self, numerator: int) -> GaussianForm:
        denominator = 1
        if self.peek().kind == "/":
            self.advance()
            tok = self.expect("int", ("unsigned integer denominator",))
            denominator = int(tok.text)
            if denominator == 0:
                raise ParseError("zero denominator", tok.line, tok.column)
        return GaussianForm(self.registry, {self.registry.unit_monomial(): (numerator, 0)},
                            denominator)


def parse_poly(text: str, registry: VariableRegistry) -> Polynomial:
    """Parse an expression into a Polynomial in the registry, whose names
    must be identifiers of the grammar other than 'i' (else ValueError).

    ParseError, UnknownVariable, or ValueError for a power or a product
    whose size bound exceeds MAX_POWER_SIZE (before it is computed):
    whichever fault comes first in reading order.
    """
    if "i" in registry:
        raise ValueError("'i' is the imaginary unit and cannot be a variable")
    for name in registry.names:
        if not _IDENTIFIER.fullmatch(name):
            raise ValueError(f"variable name {name!r} is not an ASCII identifier")
    return _Parser(_tokenize(text), registry).parse().polynomial()


# ---------------------------------------------------------------------------
# subcommands
#
# Each handler returns (exit code, JSON document, text lines) and main prints
# one of the two.  Bad input raises UsageError, a failed check of the model
# raises CheckFailed; main turns each into its one line.
# ---------------------------------------------------------------------------

class UsageError(ValueError):
    """Bad user input: main prints "error: <message>" on stderr and exits 2."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError on bad arguments; add_subparsers inherits the class."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


_VALUE_OPTIONS = ("--at", "--seed", "--max-attempts", "--out", "--cert", "--expr", "--vars")


def _join_values(argv: "Sequence[str]") -> "list[str]":
    """argv with "--opt" "-V" read as "--opt=-V" for each option that takes a value
    (argparse takes -V for an option); a word starting with "--" is never joined."""
    joined: "list[str]" = []
    for arg in argv:
        if joined and joined[-1] in _VALUE_OPTIONS and arg[:1] == "-" and arg[:2] != "--":
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def _parse_triple(text: str):
    from .weil_model import CoefficientTriple

    parts = text.split(",")
    if len(parts) != 9:
        raise UsageError(f"need 9 comma-separated rationals, got {len(parts)}")
    try:
        return CoefficientTriple.from_rationals([rational_from_text(p) for p in parts])
    except ValueError as exc:
        raise UsageError(exc) from None


def _cmd_verify(args):
    if args.check == "freeness":
        from .freeness import check_freeness

        checked = check_freeness()  # raises unless every fact of the theorem holds
        return 0, {"freeness": checked}, [
            *(f"Pass chart identity {chart}" for chart in checked["chart_identities"]),
            f"Pass Jacobian rank {checked['jacobian_rank']}",
            f"Pass det M on the recorded line: degree {checked['line_degree']}, "
            f"irreducible modulo {checked['prime']}",
            "Pass det M = 0 exactly where the curve meets the diagonal"]
    from .weil_model import (
        EIGENVALUE_LABELS,
        check_identities,
        eigen_decomposition,
        genus_check,
        verify_diagonal,
    )

    if args.check == "identities":
        names = check_identities()  # raises unless every residual is zero
        return 0, {"identity_verdicts": dict.fromkeys(names, "Pass")}, [
            f"Pass {name}" for name in names]
    if args.check == "eigenspaces":
        dims = eigen_decomposition()
        return 0, {"eigenspace_dims": list(dims)}, [
            f"Pass eigenspace({label}) dimension {dim}"
            for label, dim in zip(EIGENVALUE_LABELS, dims)]
    if args.check == "diagonal":
        factors = verify_diagonal()  # raises unless base-point-free
        return 0, {"diagonal_factors": [str(f) for f in factors],
                   "base_point_free": True}, [
            *(f"Pass {name}|diagonal factor {factor}" for name, factor
              in zip(("a1", "a2", "a3", "a4", "a5", "a6"), factors)),
            "Pass base-point-free"]
    top, genus = genus_check()
    return 0, {"chow_coefficient": top, "genus": genus}, [
        f"Pass chow coefficient {top}", f"Pass genus {genus}"]


def _cmd_detm(args):
    from .weil_model import CoefficientTriple, determinant_at, elimination_determinant

    if args.symbolic:
        det = elimination_determinant()
        text = det.render()
        return 0 if det else 1, {
            "det_m": text,
            "det_m_term_count": det.term_count(),
            "det_m_nonzero": bool(det),
            "det_m_at_origin": str(determinant_at(CoefficientTriple.origin())),
        }, [text]
    value = determinant_at(_parse_triple(args.at))
    return 0 if value != 0 else 1, {"det_m_value": str(value)}, [str(value)]


def _cmd_quadric(args):
    from .weil_model import KernelNotUnique, vanishing_quadric

    triple = _parse_triple(args.at)
    try:
        relation = [str(v) for v in vanishing_quadric(triple)]
    except KernelNotUnique as exc:
        return 1, {"quadric_kernel_dim": exc.dimension}, [
            f"Fail kernel dimension {exc.dimension} (degenerate triple)"]
    return 0, {"quadric_kernel_dim": 1, "quadric_relation": relation}, [
        "Pass kernel dimension 1", "Q = (" + ", ".join(relation) + ")"]


def _cmd_fpf(args):
    from .weil_model import CERTIFIED_EMPTY, fixed_point_free_check

    verdict = fixed_point_free_check(_parse_triple(args.at))
    return 0 if verdict == CERTIFIED_EMPTY else 1, {"fixed_point_free": verdict}, [verdict]


def _cmd_certify(args):
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    if args.max_attempts < 0:
        raise UsageError(f"--max-attempts must be non-negative, got {args.max_attempts}")
    # a path that cannot be written fails before the pipeline runs; "a" opens
    # without truncating, so a failed check leaves an existing file as it was
    # (and removes a file that the open created)
    import os
    created = bool(args.out) and not os.path.exists(args.out)
    try:
        out = open(args.out, "a", encoding="utf-8") if args.out else None
    except OSError as exc:
        raise UsageError(f"cannot write certificate: {exc}") from None
    from .certify import run_pipeline

    try:
        cert = run_pipeline(args.seed, args.max_attempts)
        text = cert.to_json()
        if out is not None:
            out.truncate(0)
            out.write(text)
    except BaseException:
        if created:
            out.close()
            os.remove(args.out)
        raise
    finally:
        if out is not None:
            out.close()
    identities = len(cert.identity_verdicts)  # run_pipeline raised unless all held
    if cert.witness_triple is not None:
        triple = ", ".join(str(v) for v in cert.witness_triple.values())
        witness = (f"Pass witness ({triple}) det {cert.witness_det_m} "
                   f"kernel {cert.witness_quadric_kernel_dim} {cert.fixed_point_free}")
    else:
        witness = f"Fail witness (none within {args.max_attempts} attempts)"
    return 0 if cert.overall == "Pass" else 1, text, [
        f"Pass identities ({identities}/{identities})",
        f"Pass eigenspace dims {cert.eigenspace_dims}",
        f"Pass diagonal factors ({', '.join(str(f) for f in cert.diagonal_factors)})",
        f"Pass chow coefficient {cert.chow_coefficient}",
        f"Pass genus {cert.genus}",
        f"Pass det at origin {cert.det_m_at_origin}",
        f"Pass det nonzero ({cert.det_m_term_count} terms)",
        witness,
        f"{cert.overall} overall"]


def _cmd_recheck(args):
    from .certify import Certificate, verify_certificate

    try:
        with open(args.cert, "r", encoding="utf-8") as handle:
            cert = Certificate.from_json(handle.read())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load certificate: {exc}") from None
    verify_certificate(cert)  # raises CheckFailed on the first failure
    return 0, {"recheck": "Pass"}, ["Pass recheck"]


def _cmd_parse(args):
    names = tuple(n.strip() for n in args.vars.split(",") if n.strip())
    try:  # ParseError and UnknownVariable are ValueErrors, as is a result past 4300 digits
        text = parse_poly(args.expr, VariableRegistry(names)).render()
    except ValueError as exc:
        raise UsageError(exc) from None
    return 0, {"polynomial": text}, [text]


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="prymcert",
        description="Exact certification of the eigenspace elimination on (P^1)^4.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--json", action="store_true",
                       help="emit certificate-schema JSON instead of text")
        return p

    verify = with_json(sub.add_parser(
        "verify", help="run one family of universal checks"))
    verify.add_argument("check",
                        choices=["identities", "eigenspaces", "diagonal", "genus",
                                 "freeness"])
    verify.set_defaults(handler=_cmd_verify)

    detm = with_json(sub.add_parser(
        "detm", help="the 6x6 elimination determinant"))
    mode = detm.add_mutually_exclusive_group(required=True)
    mode.add_argument("--symbolic", action="store_true",
                      help="print the full symbolic determinant")
    mode.add_argument("--at", metavar="A1,..,C3",
                      help="evaluate at 9 comma-separated rationals")
    detm.set_defaults(handler=_cmd_detm)

    quadric = with_json(sub.add_parser(
        "quadric", help="the vanishing linear relation among b-products"))
    quadric.add_argument("--at", metavar="A1,..,C3", required=True)
    quadric.set_defaults(handler=_cmd_quadric)

    fpf = with_json(sub.add_parser(
        "fpf", help="certify empty intersection with the diagonal"))
    fpf.add_argument("--at", metavar="A1,..,C3", required=True)
    fpf.set_defaults(handler=_cmd_fpf)

    certify = with_json(sub.add_parser(
        "certify", help="run the full pipeline and emit a certificate"))
    certify.add_argument("--seed", type=int, required=True)
    certify.add_argument("--max-attempts", type=int, default=100)
    certify.add_argument("--out", metavar="FILE")
    certify.set_defaults(handler=_cmd_certify)

    recheck = with_json(sub.add_parser(
        "recheck", help="re-validate a stored certificate"))
    recheck.add_argument("--cert", metavar="FILE", required=True)
    recheck.set_defaults(handler=_cmd_recheck)

    parse_cmd = with_json(sub.add_parser(
        "parse", help="parse an expression and print its canonical form"))
    parse_cmd.add_argument("--expr", required=True)
    parse_cmd.add_argument("--vars", default="s,t,x,y",
                           help="comma-separated variable names (default s,t,x,y)")
    parse_cmd.set_defaults(handler=_cmd_parse)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    """Run one subcommand and print its outcome; returns the exit code."""
    try:
        args = build_parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
        code, doc, lines = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        code, doc = 1, {"error": str(exc)}
        lines = [f"Fail {getattr(args, 'check', args.command)}: {exc}"]
    if not args.json:
        print("\n".join(lines))
    elif isinstance(doc, str):  # certify: the certificate bytes as written
        sys.stdout.write(doc)
    else:
        print(json.dumps(doc, indent=2))
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
