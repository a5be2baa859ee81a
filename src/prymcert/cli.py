"""Command-line interface and the polynomial expression parser.

Grammar (LL(1), whitespace-insensitive):

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*        # no implicit multiplication
    factor   := base ("^" uint)?
    base     := rational | "i" | identifier | "(" expr ")"
    rational := int ("/" uint)?             # sign only on the numerator

"i" is the imaginary unit, never a variable.  Parse errors carry the
line and column and the tokens that would have been accepted.

Subcommands (exit 0 iff the requested verdicts all pass, 1 on a failed
check, 2 on usage errors):

    verify identities | eigenspaces | diagonal | genus
    detm --symbolic | --at A1,A2,A3,B1,B2,B3,C1,C2,C3
    quadric --at ...      fpf --at ...
    certify --seed N [--max-attempts K] [--out FILE]
    recheck --cert FILE
    parse --expr STR [--vars s,t,x,y]

Every subcommand accepts --json, which switches the output to the
certificate field schema.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .certify import (
    Certificate,
    CertificateMismatch,
    MissingWitness,
    run_pipeline,
    verify_certificate,
)
from .exactnum import IMAG_UNIT, rational_from_text
from .multipoly import Polynomial, UnknownVariable, VariableRegistry
from .weil_model import (
    CERTIFIED_EMPTY,
    CoefficientTriple,
    EigenbasisMismatch,
    EIGENVALUE_LABELS,
    IdentityFailed,
    BasePointFound,
    KernelNotUnique,
    check_identities,
    determinant_at,
    eigen_decomposition,
    elimination_determinant,
    fixed_point_free_check,
    genus_check,
    vanishing_quadric,
    verify_diagonal,
)


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
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalLiteral:
    value: Fraction


@dataclass(frozen=True)
class ImaginaryUnit:
    pass


@dataclass(frozen=True)
class VariableReference:
    name: str
    line: int
    column: int


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Difference:
    left: object
    right: object


@dataclass(frozen=True)
class Product:
    left: object
    right: object


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


@dataclass(frozen=True)
class Group:
    inner: object


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_PUNCT = set("+-*^/()")


@dataclass(frozen=True)
class _Token:
    kind: str       # "int", "ident", one of + - * ^ / ( ), or "end"
    text: str
    line: int
    column: int


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
        if ch.isdigit():
            start = k
            while k < len(text) and text[k].isdigit():
                k += 1
            tokens.append(_Token("int", text[start:k], line, col))
            col += k - start
            continue
        if ch.isalpha() or ch == "_":
            start = k
            while k < len(text) and (text[k].isalnum() or text[k] == "_"):
                k += 1
            tokens.append(_Token("ident", text[start:k], line, col))
            col += k - start
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: "list[_Token]"):
        self.tokens = tokens
        self.pos = 0

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

    def parse(self) -> object:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.kind} {tok.text!r}",
                             tok.line, tok.column, ("+", "-", "end of input"))
        return node

    def expr(self) -> object:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            node = Sum(node, right) if op.kind == "+" else Difference(node, right)
        return node

    def term(self) -> object:
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = Product(node, self.factor())
        return node

    def factor(self) -> object:
        node = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("int", ("unsigned integer exponent",))
            node = Power(node, int(tok.text))
        return node

    def base(self) -> object:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")", (")",))
            return Group(inner)
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
                return ImaginaryUnit()
            return VariableReference(tok.text, tok.line, tok.column)
        raise ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.column,
                         ("rational", "i", "identifier", "("))

    def _rational(self, numerator: int) -> RationalLiteral:
        if self.peek().kind == "/":
            self.advance()
            tok = self.expect("int", ("unsigned integer denominator",))
            if int(tok.text) == 0:
                raise ParseError("zero denominator", tok.line, tok.column)
            return RationalLiteral(Fraction(numerator, int(tok.text)))
        return RationalLiteral(Fraction(numerator))


def parse_expression(text: str) -> object:
    """Parse the expression grammar into an AST."""
    return _Parser(_tokenize(text)).parse()


def lower(node: object, registry: VariableRegistry) -> Polynomial:
    """Lower an AST to a Polynomial in the given registry."""
    if isinstance(node, RationalLiteral):
        return Polynomial.constant(registry, node.value)
    if isinstance(node, ImaginaryUnit):
        return Polynomial.constant(registry, IMAG_UNIT)
    if isinstance(node, VariableReference):
        if node.name not in registry:
            raise UnknownVariable(
                f"unknown variable {node.name!r} at line {node.line}, "
                f"column {node.column} (registry {registry.names})")
        return Polynomial.variable(registry, node.name)
    if isinstance(node, Sum):
        return lower(node.left, registry) + lower(node.right, registry)
    if isinstance(node, Difference):
        return lower(node.left, registry) - lower(node.right, registry)
    if isinstance(node, Product):
        return lower(node.left, registry) * lower(node.right, registry)
    if isinstance(node, Power):
        return lower(node.base, registry) ** node.exponent
    if isinstance(node, Group):
        return lower(node.inner, registry)
    raise TypeError(f"not an AST node: {node!r}")


def parse_poly(text: str, registry: VariableRegistry) -> Polynomial:
    """Parse an expression and lower it; the registry must not name 'i'."""
    if "i" in registry:
        raise ValueError("'i' is the imaginary unit and cannot be a variable")
    return lower(parse_expression(text), registry)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _parse_triple(text: str) -> CoefficientTriple:
    parts = text.split(",")
    if len(parts) != 9:
        raise ValueError(f"need 9 comma-separated rationals, got {len(parts)}")
    return CoefficientTriple.from_rationals([rational_from_text(p) for p in parts])


def _cmd_verify(args) -> int:
    if args.check == "identities":
        verdicts = check_identities()
        if args.json:
            _emit_json({"identity_verdicts":
                        {k: "Pass" if v else "Fail" for k, v in verdicts.items()}})
        else:
            for name, ok in verdicts.items():
                print(f"{'Pass' if ok else 'Fail'} {name}")
        return 0 if all(verdicts.values()) else 1

    if args.check == "eigenspaces":
        try:
            dims = eigen_decomposition().dims
        except EigenbasisMismatch as exc:
            if args.json:
                _emit_json({"error": str(exc)})
            else:
                print(f"Fail eigenspaces: {exc}")
            return 1
        if args.json:
            _emit_json({"eigenspace_dims": list(dims)})
        else:
            for label, dim in zip(EIGENVALUE_LABELS, dims):
                print(f"Pass eigenspace({label}) dimension {dim}")
        return 0

    if args.check == "diagonal":
        try:
            report = verify_diagonal()
        except (IdentityFailed, BasePointFound) as exc:
            if args.json:
                _emit_json({"error": str(exc)})
            else:
                print(f"Fail diagonal: {exc}")
            return 1
        if args.json:
            _emit_json({"diagonal_factors": [str(f) for f in report.factors],
                        "base_point_free": report.base_point_free})
        else:
            for name, factor in zip(("a1", "a2", "a3", "a4", "a5", "a6"), report.factors):
                print(f"Pass {name}|diagonal factor {factor}")
            print("Pass base-point-free")
        return 0

    if args.check == "genus":
        report = genus_check()
        if args.json:
            _emit_json({"chow_coefficient": report.chow_coefficient,
                        "genus": report.genus})
        else:
            print(f"Pass chow coefficient {report.chow_coefficient}")
            print(f"Pass genus {report.genus}")
        return 0

    raise AssertionError(args.check)


def _cmd_detm(args) -> int:
    if args.symbolic:
        det = elimination_determinant()
        if args.json:
            _emit_json({
                "det_m": det.render(),
                "det_m_term_count": det.term_count(),
                "det_m_nonzero": bool(det),
                "det_m_at_origin": str(determinant_at(CoefficientTriple.origin())),
            })
        else:
            print(det.render())
        return 0 if det else 1
    try:
        triple = _parse_triple(args.at)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    value = determinant_at(triple)
    if args.json:
        _emit_json({"det_m_value": str(value)})
    else:
        print(value)
    return 0 if value != 0 else 1


def _cmd_quadric(args) -> int:
    try:
        triple = _parse_triple(args.at)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        relation = vanishing_quadric(triple)
    except KernelNotUnique as exc:
        if args.json:
            _emit_json({"quadric_kernel_dim": exc.dimension})
        else:
            print(f"Fail kernel dimension {exc.dimension} (degenerate triple)")
        return 1
    if args.json:
        _emit_json({"quadric_kernel_dim": 1,
                    "quadric_relation": [str(v) for v in relation]})
    else:
        print("Pass kernel dimension 1")
        print("Q = (" + ", ".join(str(v) for v in relation) + ")")
    return 0


def _cmd_fpf(args) -> int:
    try:
        triple = _parse_triple(args.at)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = fixed_point_free_check(triple)
    if args.json:
        _emit_json({"fixed_point_free": verdict})
    else:
        print(verdict)
    return 0 if verdict == CERTIFIED_EMPTY else 1


def _cmd_certify(args) -> int:
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 2
    if args.max_attempts < 0:
        print(f"error: --max-attempts must be non-negative, got {args.max_attempts}",
              file=sys.stderr)
        return 2
    cert = run_pipeline(args.seed, args.max_attempts)
    text = cert.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.json:
        sys.stdout.write(text)
    else:
        passed = sum(1 for v in cert.identity_verdicts.values() if v == "Pass")
        print(f"{'Pass' if passed == 17 else 'Fail'} identities ({passed}/17)")
        print(f"Pass eigenspace dims {cert.eigenspace_dims}"
              if cert.eigenspace_dims == (6, 4, 3, 3)
              else f"Fail eigenspace dims {cert.eigenspace_dims}")
        print(f"Pass diagonal factors ({', '.join(str(f) for f in cert.diagonal_factors)})")
        print(f"{'Pass' if cert.chow_coefficient == 24 else 'Fail'} "
              f"chow coefficient {cert.chow_coefficient}")
        print(f"{'Pass' if cert.genus == 13 else 'Fail'} genus {cert.genus}")
        print(f"{'Pass' if cert.det_m_at_origin == 1 else 'Fail'} "
              f"det at origin {cert.det_m_at_origin}")
        print(f"{'Pass' if cert.det_m_nonzero else 'Fail'} "
              f"det nonzero ({cert.det_m_term_count} terms)")
        if cert.witness_triple is not None:
            triple = ", ".join(str(v) for v in cert.witness_triple.values())
            print(f"Pass witness ({triple}) det {cert.witness_det_m} "
                  f"kernel {cert.witness_quadric_kernel_dim} {cert.fixed_point_free}")
        else:
            print(f"Fail witness (none within {args.max_attempts} attempts)")
        print(f"{cert.overall} overall")
    return 0 if cert.overall == "Pass" else 1


def _cmd_recheck(args) -> int:
    try:
        with open(args.cert, "r", encoding="utf-8") as handle:
            cert = Certificate.from_json(handle.read())
    except (OSError, ValueError) as exc:
        print(f"error: cannot load certificate: {exc}", file=sys.stderr)
        return 2
    try:
        verify_certificate(cert)
    except (CertificateMismatch, MissingWitness) as exc:
        if args.json:
            _emit_json({"recheck": "Fail", "reason": str(exc)})
        else:
            print(f"Fail recheck: {exc}")
        return 1
    if args.json:
        _emit_json({"recheck": "Pass"})
    else:
        print("Pass recheck")
    return 0


def _cmd_parse(args) -> int:
    names = tuple(n.strip() for n in args.vars.split(",") if n.strip())
    try:
        registry = VariableRegistry(names)
        poly = parse_poly(args.expr, registry)
    except (ParseError, UnknownVariable, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _emit_json({"polynomial": poly.render()})
    else:
        print(poly.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                        choices=["identities", "eigenspaces", "diagonal", "genus"])
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
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
