"""Parser for polynomial expressions over z1, z2 and their conjugates.

Grammar (whitespace-insensitive):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | base ('^' uint)?
    base     := rational | 'i' | 'z1' | 'z2' | 'z1c' | 'z2c'
              | 'conj' '(' expr ')' | '(' expr ')'
    rational := uint ('/' uint)?

A rational literal ``a/b`` is one base, except right after a term-level
'/': there ``a`` is the whole divisor, so ``z1/3/4`` is ``(z1/3)/4``, as
left-associative division reads it, while ``1/2*z1`` keeps ``1/2`` as one
literal.

Only exact literals exist: rationals a/b and the imaginary unit i; no
floating point is accepted.  Division is exact and only by a nonzero
constant (so i/3 is fine and z1/z2 is rejected when evaluated).
Conjugates may be written z1c/z2c or conj(z1)/conj(z2).
``SpherePoly.to_source`` emits this grammar, and print-then-parse returns
a structurally identical polynomial.

Errors carry 1-based column positions: unknown tokens are lexical errors,
structural problems are syntax errors, and a zero denominator, an exponent
above ``MAX_EXPONENT`` or nesting deeper than ``MAX_NESTING`` is rejected
at parse time.  An integer literal longer than ``MAX_LITERAL_DIGITS``
digits is a lexical error.  Before evaluating, :func:`evaluate` bounds the
number of terms of every subexpression from the tree and raises
``EvaluationError`` above ``MAX_TERMS``.

A chain ``a + b - c`` or ``a * b / c`` of any length is parsed into a
left-deep tree and walked along its left spine by a loop, so only nesting
(which is bounded) costs stack depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Union

from .scalars import GaussianRational
from .spherepoly import SpherePoly


#: Largest exponent accepted after '^'; expansions grow combinatorially with it
#: (``(z1+z2+z1c+z2c)^N`` has O(N^3) terms).
MAX_EXPONENT = 32

#: Most terms any subexpression may expand to.  The bound is taken from the
#: parse tree before evaluation (see :func:`evaluate`); ``(z1+z2+z1c+z2c)^32``
#: has 6545 terms.
MAX_TERMS = 10000

#: Deepest nesting of parentheses, ``conj(...)`` and unary minus; deeper input
#: is a syntax error, so no expression can exhaust the interpreter's stack.
MAX_NESTING = 100

#: Most digits in one integer literal (numerator, denominator or exponent);
#: longer literals are rejected before they are converted to ``int``.
MAX_LITERAL_DIGITS = 100


class ParseError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class LexicalError(ParseError):
    pass


class SyntaxParseError(ParseError):
    pass


class EvaluationError(ValueError):
    """A well-formed expression that is not evaluated: it has no exact value
    (e.g. division by z1), or it may expand to more than ``MAX_TERMS`` terms."""


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class RationalLit:
    value: Fraction


@dataclass(frozen=True)
class ImaginaryUnit:
    pass


@dataclass(frozen=True)
class Variable:
    name: str  # z1 | z2 | z1c | z2c


@dataclass(frozen=True)
class Negate:
    operand: "ExprAst"


@dataclass(frozen=True)
class BinaryOp:
    op: str  # '+' | '-' | '*' | '/'
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Power:
    base: "ExprAst"
    exponent: int


@dataclass(frozen=True)
class Conjugate:
    operand: "ExprAst"


ExprAst = Union[RationalLit, ImaginaryUnit, Variable, Negate, BinaryOp, Power, Conjugate]


# -- lexer ----------------------------------------------------------------------

_SYMBOLS = set("+-*/^()")
_KNOWN_IDENTS = {"i", "z1", "z2", "z1c", "z2c", "conj"}


@dataclass(frozen=True)
class Token:
    kind: str  # 'uint' | 'ident' | one of the symbols | 'end'
    text: str
    column: int


def _tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    n = len(src)
    while pos < n:
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        col = pos + 1
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, col))
            pos += 1
        elif ch.isdecimal():  # what int() reads; isdigit() would also admit '²'
            end = pos
            while end < n and src[end].isdecimal():
                end += 1
            if end - pos > MAX_LITERAL_DIGITS:
                raise LexicalError(f"integer literal of {end - pos} digits exceeds the bound "
                                   f"{MAX_LITERAL_DIGITS}", col)
            tokens.append(Token("uint", src[pos:end], col))
            pos = end
        elif ch.isalpha():
            end = pos
            while end < n and (src[end].isalnum() or src[end] == "_"):
                end += 1
            word = src[pos:end]
            if word not in _KNOWN_IDENTS:
                raise LexicalError(f"unknown token {word!r}", col)
            tokens.append(Token("ident", word, col))
            pos = end
        else:
            raise LexicalError(f"unknown token {ch!r}", col)
    tokens.append(Token("end", "", n + 1))
    return tokens


# -- recursive-descent parser ------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise SyntaxParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                                   tok.column)
        return self.advance()

    def enter(self, tok: Token):
        """Open one nesting level at tok; close it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntaxParseError(f"nesting deeper than the bound {MAX_NESTING}", tok.column)

    def parse_expr(self) -> ExprAst:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinaryOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> ExprAst:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinaryOp(op, node, self.parse_factor(divisor=op == "/"))
        return node

    def parse_factor(self, divisor: bool = False) -> ExprAst:
        if self.peek().kind == "-":
            self.enter(self.advance())
            node = Negate(self.parse_factor(divisor))
            self.depth -= 1
            return node
        node = self.parse_base(divisor)
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("uint")
            exponent = int(tok.text)
            if exponent > MAX_EXPONENT:
                raise SyntaxParseError(f"exponent {exponent} exceeds the bound {MAX_EXPONENT}",
                                       tok.column)
            return Power(node, exponent)
        return node

    def parse_base(self, divisor: bool = False) -> ExprAst:
        """A base; after a term-level '/' (``divisor``) an integer is not a rational's numerator."""
        tok = self.peek()
        if tok.kind == "uint":
            self.advance()
            numerator = int(tok.text)
            # Consume a '/' here only for a rational literal, and not in a
            # divisor, so z1/3/4 is (z1/3)/4; division by a non-literal
            # stays a term-level operation.
            if (not divisor and self.peek().kind == "/"
                    and self.tokens[self.pos + 1].kind == "uint"):
                self.advance()
                den_tok = self.expect("uint")
                denominator = int(den_tok.text)
                if denominator == 0:
                    raise SyntaxParseError("denominator must be nonzero", den_tok.column)
                return RationalLit(Fraction(numerator, denominator))
            return RationalLit(Fraction(numerator))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return ImaginaryUnit()
            if tok.text == "conj":
                self.enter(self.expect("("))
                node = self.parse_expr()
                self.expect(")")
                self.depth -= 1
                return Conjugate(node)
            return Variable(tok.text)
        if tok.kind == "(":
            self.enter(self.advance())
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        raise SyntaxParseError(f"unexpected {tok.text or 'end of input'!r}", tok.column)


def parse(src: str) -> ExprAst:
    """Parse source text to an AST; raises ParseError with a column on failure."""
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise SyntaxParseError(f"trailing input {tok.text!r}", tok.column)
    return node


def _chain(ast: BinaryOp) -> tuple[ExprAst, list[tuple[str, ExprAst]]]:
    """(first operand, [(op, right operand), ...]) along the left spine of ast.

    Evaluating the first operand and then applying each (op, right) in
    turn is the left-deep tree's own order.
    """
    rest = []
    while isinstance(ast, BinaryOp):
        rest.append((ast.op, ast.right))
        ast = ast.left
    rest.reverse()
    return ast, rest


def _expansion_bound(ast: ExprAst) -> tuple[int, int]:
    """Upper bounds on the term count and total degree of ast's value.

    Terms add under '+' and '-', multiply under '*', and a power of a t-term
    base has at most C(t+n-1, n) terms (the multisets of n of its terms);
    every count is capped by C(D+k, k), the number of monomials of degree at
    most D in the k variables that occur (``conj`` swaps z1 with z1c and z2
    with z2c).  Raises EvaluationError at the first subexpression above
    ``MAX_TERMS``.
    """
    terms, degree, _ = _bounds(ast)
    return terms, degree


_CONJ_NAME = {"z1": "z1c", "z2": "z2c", "z1c": "z1", "z2c": "z2"}


def _bounds(ast: ExprAst) -> tuple[int, int, frozenset[str]]:
    """(term bound, degree bound, variables that occur) of ast's value."""
    if isinstance(ast, (RationalLit, ImaginaryUnit)):
        return 1, 0, frozenset()
    if isinstance(ast, Variable):
        return 1, 1, frozenset((ast.name,))
    if isinstance(ast, Negate):
        return _bounds(ast.operand)
    if isinstance(ast, Conjugate):
        terms, degree, names = _bounds(ast.operand)
        return terms, degree, frozenset(_CONJ_NAME[name] for name in names)
    if isinstance(ast, Power):
        terms, degree, names = _bounds(ast.base)
        n = ast.exponent
        return _capped(comb(terms + n - 1, n), degree * n, names)
    if isinstance(ast, BinaryOp):
        first, rest = _chain(ast)
        terms, degree, names = _bounds(first)
        for op, right in rest:
            right_terms, right_degree, right_names = _bounds(right)
            if op in "+-":
                terms, degree = terms + right_terms, max(degree, right_degree)
                names |= right_names
            elif op == "*":
                terms, degree = terms * right_terms, degree + right_degree
                names |= right_names
            # '/' divides by a constant and keeps the left operand's bounds.
            terms, degree, names = _capped(terms, degree, names)
        return terms, degree, names
    raise TypeError(f"not an expression node: {ast!r}")


def _capped(terms: int, degree: int,
            names: frozenset[str]) -> tuple[int, int, frozenset[str]]:
    """terms capped by the monomials in names of degree at most degree, checked
    against MAX_TERMS."""
    terms = min(terms, comb(degree + len(names), len(names)))
    if terms > MAX_TERMS:
        raise EvaluationError(f"expression may expand to more than {MAX_TERMS} terms")
    return terms, degree, names


def evaluate(ast: ExprAst) -> SpherePoly:
    """Evaluate an AST to an exact SpherePoly, bounding its size first."""
    _expansion_bound(ast)
    return _value(ast)


def _value(ast: ExprAst) -> SpherePoly:
    if isinstance(ast, RationalLit):
        return SpherePoly.constant(ast.value)
    if isinstance(ast, ImaginaryUnit):
        return SpherePoly.constant(GaussianRational(0, 1))
    if isinstance(ast, Variable):
        return SpherePoly.variable(ast.name)
    if isinstance(ast, Negate):
        return -_value(ast.operand)
    if isinstance(ast, Conjugate):
        return _value(ast.operand).conj()
    if isinstance(ast, Power):
        return _value(ast.base) ** ast.exponent
    if isinstance(ast, BinaryOp):
        first, rest = _chain(ast)
        value = _value(first)
        for op, right in rest:
            value = _combine(op, value, _value(right))
        return value
    raise TypeError(f"not an expression node: {ast!r}")


def _combine(op: str, left: SpherePoly, right: SpherePoly) -> SpherePoly:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "/":
        if len(right) > 1 or (not right.is_zero()
                              and right.bidegree_if_uniform() != (0, 0)):
            raise EvaluationError("division only by a nonzero constant")
        scalar = right.coefficient((0, 0, 0, 0))
        if scalar.is_zero():
            raise EvaluationError("division by zero")
        return left.scale(GaussianRational(1) / scalar)
    return left * right


def parse_poly(src: str) -> SpherePoly:
    """parse + evaluate in one step."""
    return evaluate(parse(src))
