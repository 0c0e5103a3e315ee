"""Parser for polynomial expressions over z1, z2 and their conjugates.

Grammar (whitespace-insensitive):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | base ('^' uint)?
    base     := rational | 'i' | 'z1' | 'z2' | 'z1c' | 'z2c'
              | 'conj' '(' expr ')' | '(' expr ')'
    rational := uint ('/' uint)?

A rational literal ``a/b`` is one base, except in two places.  Right after
a term-level '/', ``a`` is the whole divisor, so ``z1/3/4`` is
``(z1/3)/4``, as left-associative division reads it.  Before a '^', the
power takes ``b`` alone, so ``2/3^2`` is ``2/(3^2)``, as ``z1/3^2`` is.
Elsewhere ``1/2*z1`` keeps ``1/2`` as one literal.

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
number of terms of every subexpression from the program and raises
``EvaluationError`` above ``MAX_TERMS``.

:func:`parse` returns a program: the expression in postfix order, as a
tuple of instructions ``("num", Fraction)``, ``("i",)``, ``("var", name)``,
``("neg",)``, ``("conj",)``, ``("pow", n)`` and the binary ``("+",)``,
``("-",)``, ``("*",)`` and ``("/",)``.  Bounding and evaluating are each
one loop over the program with a stack, so a chain ``a + b - c`` or
``a * b / c`` of any length costs no recursion; only the parser recurses,
on nesting, which is bounded.  Evaluation works on the integers a
``SpherePoly`` stores, numerator maps over a denominator, and makes only its
result a ``SpherePoly``; a one-term power is raised in one step.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .spherepoly import (_VAR_MONOS, Nums, SpherePoly, _add_into, _canonical, _mul_into,
                         _power)


#: Largest exponent accepted after '^'; expansions grow combinatorially with it
#: (``(z1+z2+z1c+z2c)^N`` has O(N^3) terms).
MAX_EXPONENT = 32

#: Most terms any subexpression may expand to.  The bound is taken from the
#: parsed program before evaluation (see :func:`evaluate`);
#: ``(z1+z2+z1c+z2c)^32`` has 6545 terms.
MAX_TERMS = 10000

#: Deepest nesting of parentheses, ``conj(...)`` and unary minus; deeper input
#: is a syntax error, so no expression can exhaust the interpreter's stack.
MAX_NESTING = 100

#: Most digits in one integer literal (numerator, denominator or exponent);
#: longer literals are rejected before they are converted to ``int``.
MAX_LITERAL_DIGITS = 100

#: An expression in postfix order; see the module docstring.
Program = tuple[tuple, ...]


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


# -- lexer ----------------------------------------------------------------------

_SYMBOLS = set("+-*/^()")
_KNOWN_IDENTS = {"i", "z1", "z2", "z1c", "z2c", "conj"}


class Token:
    __slots__ = ("kind", "text", "column")

    def __init__(self, kind: str, text: str, column: int):
        self.kind = kind  # 'uint' | 'ident' | one of the symbols | 'end'
        self.text = text
        self.column = column


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
    """Appends each parsed expression's instructions to ``program``, operands first."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.program: list[tuple] = []

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

    def parse_expr(self):
        self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            self.parse_term()
            self.program.append((op,))

    def parse_term(self):
        self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            self.parse_factor(divisor=op == "/")
            self.program.append((op,))

    def parse_factor(self, divisor: bool = False):
        if self.peek().kind == "-":
            self.enter(self.advance())
            self.parse_factor(divisor)
            self.depth -= 1
            self.program.append(("neg",))
            return
        self.parse_base(divisor)
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("uint")
            exponent = int(tok.text)
            if exponent > MAX_EXPONENT:
                raise SyntaxParseError(f"exponent {exponent} exceeds the bound {MAX_EXPONENT}",
                                       tok.column)
            self.program.append(("pow", exponent))

    def parse_base(self, divisor: bool = False):
        """A base; after a term-level '/' (``divisor``) an integer is not a rational's numerator."""
        tok = self.peek()
        if tok.kind == "uint":
            self.advance()
            value = Fraction(int(tok.text))
            # Consume a '/' here only for a rational literal: not in a divisor,
            # so z1/3/4 is (z1/3)/4, and not when '^' follows the denominator,
            # so 2/3^2 is 2/(3^2); other division stays a term-level operation.
            tokens, pos = self.tokens, self.pos
            if (not divisor and tokens[pos].kind == "/" and tokens[pos + 1].kind == "uint"
                    and tokens[pos + 2].kind != "^"):
                self.advance()
                den_tok = self.advance()
                denominator = int(den_tok.text)
                if denominator == 0:
                    raise SyntaxParseError("denominator must be nonzero", den_tok.column)
                value /= denominator
            self.program.append(("num", value))
        elif tok.kind == "ident":
            self.advance()
            if tok.text == "conj":
                self.enter(self.expect("("))
                self.parse_expr()
                self.expect(")")
                self.depth -= 1
                self.program.append(("conj",))
            else:
                self.program.append(("i",) if tok.text == "i" else ("var", tok.text))
        elif tok.kind == "(":
            self.enter(self.advance())
            self.parse_expr()
            self.expect(")")
            self.depth -= 1
        else:
            raise SyntaxParseError(f"unexpected {tok.text or 'end of input'!r}", tok.column)


def parse(src: str) -> Program:
    """Parse source text to a program; raises ParseError with a column on failure."""
    parser = _Parser(_tokenize(src))
    parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise SyntaxParseError(f"trailing input {tok.text!r}", tok.column)
    return tuple(parser.program)


_CONJ_NAME = {"z1": "z1c", "z2": "z2c", "z1c": "z1", "z2c": "z2"}


def _bounds(program: Program) -> tuple[int, int]:
    """Upper bounds on the term count and total degree of program's value.

    Terms add under '+' and '-', multiply under '*', and a power of a t-term
    base has at most C(t+n-1, n) terms (the multisets of n of its terms);
    every count is capped by C(D+k, k), the number of monomials of degree at
    most D in the k variables that occur (``conj`` swaps z1 with z1c and z2
    with z2c).  Raises EvaluationError at the first subexpression above
    ``MAX_TERMS`` and TypeError on an unknown instruction.
    """
    stack: list[tuple[int, int, frozenset[str]]] = []  # (terms, degree, variables)
    for ins in program:
        op = ins[0]
        if op in ("num", "i"):
            stack.append((1, 0, frozenset()))
        elif op == "var":
            stack.append((1, 1, frozenset((ins[1],))))
        elif op == "conj":
            terms, degree, names = stack.pop()
            stack.append((terms, degree, frozenset(_CONJ_NAME[name] for name in names)))
        elif op == "pow":
            terms, degree, names = stack.pop()
            n = ins[1]
            stack.append(_capped(comb(terms + n - 1, n), degree * n, names))
        elif op in ("+", "-", "*"):
            right_terms, right_degree, right_names = stack.pop()
            terms, degree, names = stack.pop()
            if op == "*":
                terms, degree = terms * right_terms, degree + right_degree
            else:
                terms, degree = terms + right_terms, max(degree, right_degree)
            stack.append(_capped(terms, degree, names | right_names))
        elif op == "/":
            stack.pop()  # a constant divisor keeps the left operand's bounds
        elif op != "neg":
            raise TypeError(f"not an instruction: {ins!r}")
    terms, degree, _ = stack.pop()
    return terms, degree


def _capped(terms: int, degree: int,
            names: frozenset[str]) -> tuple[int, int, frozenset[str]]:
    """terms capped by the monomials in names of degree at most degree, checked
    against MAX_TERMS."""
    terms = min(terms, comb(degree + len(names), len(names)))
    if terms > MAX_TERMS:
        raise EvaluationError(f"expression may expand to more than {MAX_TERMS} terms")
    return terms, degree, names


def evaluate(program: Program) -> SpherePoly:
    """Evaluate a program to an exact SpherePoly, bounding its size first.

    A '+'/'-' chain adds each summand into its running numerator map on the
    lcm of the denominators, which may leave zero pairs and a common factor;
    '*', '/' and '^' divide out the gcd, keeping the integers bounded.
    """
    _bounds(program)
    stack: list[tuple[Nums, int]] = []
    for ins in program:
        op = ins[0]
        if op == "num":
            stack.append(({(0, 0, 0, 0): (ins[1].numerator, 0)}, ins[1].denominator))
        elif op == "i":
            stack.append(({(0, 0, 0, 0): (0, 1)}, 1))
        elif op == "var":
            stack.append(({_VAR_MONOS[ins[1]]: (1, 0)}, 1))
        elif op == "neg":
            nums, den = stack[-1]
            stack[-1] = ({mono: (-x, -y) for mono, (x, y) in nums.items()}, den)
        elif op == "conj":
            nums, den = stack[-1]
            stack[-1] = ({(c, d, a, b): (x, -y) for (a, b, c, d), (x, y) in nums.items()}, den)
        elif op == "pow":
            stack[-1] = _power(*stack[-1], ins[1])
        elif op in ("+", "-"):
            nums, den = stack.pop()
            if op == "-":
                nums = {mono: (-x, -y) for mono, (x, y) in nums.items()}
            stack[-1] = _add_into(*stack[-1], nums, den)
        else:
            right, right_den = stack.pop() if op == "*" else _reciprocal(*stack.pop())
            nums, den = stack[-1]
            out: Nums = {}
            count = _mul_into(out, nums, right)
            stack[-1] = _canonical(out, den * right_den, len(out) < count)
    return SpherePoly._of(*stack.pop(), True)


def _reciprocal(nums: Nums, den: int) -> tuple[Nums, int]:
    """den*(x - y*i) over x^2 + y^2: the reciprocal of a constant divisor (x + y*i)/den."""
    terms = [(mono, pair) for mono, pair in nums.items() if pair[0] or pair[1]]
    if not terms:
        raise EvaluationError("division by zero")
    if len(terms) > 1 or terms[0][0] != (0, 0, 0, 0):
        raise EvaluationError("division only by a nonzero constant")
    x, y = terms[0][1]
    return {(0, 0, 0, 0): (x * den, -y * den)}, x * x + y * y


def parse_poly(src: str) -> SpherePoly:
    """parse + evaluate in one step."""
    return evaluate(parse(src))
