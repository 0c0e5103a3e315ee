"""Parser for polynomial expressions over z1, z2 and their conjugates.

Grammar (whitespace-insensitive):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | base ('^' uint)?
    base     := uint | 'i' | 'z1' | 'z2' | 'z1c' | 'z2c'
              | 'conj' '(' expr ')' | '(' expr ')'

Only exact literals exist: integers and the imaginary unit i; no floating
point is accepted, and ``1/2`` is a division.  Division is exact and only
by a nonzero constant (so i/3 is fine and z1/z2 is rejected when evaluated).
Conjugates may be written z1c/z2c or conj(z1)/conj(z2).
``SpherePoly.to_source`` emits this grammar, and print-then-parse returns
a structurally identical polynomial.

Tokens are read by one ``findall`` of the pattern ``\\d+|\\w+|\\S``, over
the Unicode classes that ``str`` predicates define: ``\\d`` is
``str.isdecimal`` (what ``int`` reads, so ``'\\u0663'`` is 3 and ``'²'`` is
no digit), ``\\w`` is ``str.isalnum`` or ``'_'``, and the ``str.isspace``
characters between tokens are skipped.  A word must be one of the
identifiers above, so one that starts with a letter is reported whole and
any other by its first character; any other character is a token of its
own and must be one of ``+-*/^()``.

Errors carry 1-based column positions: unknown tokens are lexical errors,
structural problems are syntax errors, and a literal ``0`` divisor, an exponent
above ``MAX_EXPONENT`` or nesting deeper than ``MAX_NESTING`` is rejected
at parse time.  An integer literal longer than ``MAX_LITERAL_DIGITS``
digits is a lexical error.  Only the distinct token texts outside the
grammar's words are checked, and a column is worked out only when an error
is raised.  Before evaluating, :func:`evaluate` bounds the number of terms
and the bits of the coefficients of every subexpression from the program,
in integers, and raises ``EvaluationError`` above ``MAX_TERMS`` terms or
``MAX_COEFF_BITS`` bits.  Then it evaluates each divisor that is not a literal
at two fixed points and rejects it at once if the two values differ; a
divisor whose values agree is left to the full evaluation, as before.

:func:`parse` returns a program: the expression in postfix order, as a
tuple of instructions ``("num", int)``, ``("i",)``, ``("var", name)``,
``("neg",)``, ``("conj",)``, ``("pow", n)`` and the binary ``("+",)``,
``("-",)``, ``("*",)`` and ``("/",)``.  Bounding and evaluating are each
one loop over the program with a stack, so a chain ``a + b - c`` or
``a * b / c`` of any length costs no recursion; only the parser recurses,
on nesting, which is bounded.  Evaluation works on the integers a
``SpherePoly`` stores, numerator maps over a denominator, and makes only its
result a ``SpherePoly``; a one-term power is raised in one step.
"""

from __future__ import annotations

import re
from itertools import islice
from math import comb, gcd

from .spherepoly import (_VAR_MONOS, Nums, SpherePoly, _add_into, _canonical, _conj_nums,
                         _mul_into, _power)


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

#: Most digits in one integer literal, exponents included;
#: longer literals are rejected before they are converted to ``int``.
MAX_LITERAL_DIGITS = 100

#: Most bits in any coefficient's numerator or denominator of any subexpression,
#: as bounded from the program before evaluation (see :func:`_bounds`).  Every
#: subcommand prints its results for the largest accepted constant in --phi,
#: --t or --expr, |t|^2 |phi|^2 of ``torsion`` included, within Python's
#: 4300-digit limit on converting an int to a string; ``((9^32)^32)^32`` is
#: rejected.
MAX_COEFF_BITS = 2048

#: The largest M or D of :func:`_bounds` whose bit length is at most MAX_COEFF_BITS.
_COEFF_LIMIT = (1 << MAX_COEFF_BITS) - 1

_TOO_MANY_BITS = f"expression may have coefficients of more than {MAX_COEFF_BITS} bits"

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
    (e.g. division by z1), or it may expand to more than ``MAX_TERMS`` terms
    or have coefficients of more than ``MAX_COEFF_BITS`` bits."""


# -- lexer ----------------------------------------------------------------------

#: An integer literal, a word, or any other single character; whitespace between.
_TOKEN = re.compile(r"\d+|\w+|\S")

#: Every valid token but an integer literal: the six identifiers and seven symbols.
_WORDS = {*_VAR_MONOS, "i", "conj", *"+-*/^()"}


def _tokenize(src: str) -> list[str]:
    """src's token texts, ending in ``""``.

    Only the distinct texts outside ``_WORDS`` are checked; the column of
    the first bad token is worked out only to raise.
    """
    tokens = _TOKEN.findall(src)
    bad = [text for text in set(tokens).difference(_WORDS)
           if not text.isdecimal() or len(text) > MAX_LITERAL_DIGITS]
    if bad:
        pos = min(map(tokens.index, bad))
        text, column = tokens[pos], _column(src, pos)
        if not text.isdecimal():
            # A word that starts with no letter is reported by its first character.
            raise LexicalError(f"unknown token {text if text[0].isalpha() else text[0]!r}",
                               column)
        raise LexicalError(f"integer literal of {len(text)} digits exceeds the bound "
                           f"{MAX_LITERAL_DIGITS}", column)
    tokens.append("")
    return tokens


def _column(src: str, pos: int) -> int:
    """The 1-based column of src's token number pos; ``len(src) + 1`` past the last."""
    match = next(islice(_TOKEN.finditer(src), pos, None), None)
    return len(src) + 1 if match is None else match.start() + 1


# -- recursive-descent parser ------------------------------------------------------


class _Parser:
    """Appends each parsed expression's instructions to ``program``, operands first.

    ``text`` is the current token's, number ``pos`` of ``tokens``; ``""`` is
    the end.  ``src`` is kept only to work out a column for an error.
    """

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.text = self.tokens[0]
        self.depth = 0
        self.program: list[tuple] = []

    def error(self, message: str, pos: int | None = None) -> SyntaxParseError:
        """A syntax error at token pos, by default the current one."""
        return SyntaxParseError(message, _column(self.src, self.pos if pos is None else pos))

    def advance(self) -> str:
        """Move past the current token; returns its text."""
        text = self.text
        self.pos += 1
        self.text = self.tokens[self.pos]
        return text

    def expect(self, kind: str):
        """Raise unless the current token is kind: 'uint' or a symbol."""
        if not (self.text.isdecimal() if kind == "uint" else self.text == kind):
            raise self.error(f"expected {kind!r}, found {self.text or 'end of input'!r}")

    def enter(self):
        """Open one nesting level at the current token and move past it; close
        it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than the bound {MAX_NESTING}")
        self.advance()

    def parse_expr(self):
        self.parse_term()
        while self.text in ("+", "-"):
            op = self.advance()
            self.parse_term()
            self.program.append((op,))

    def parse_term(self):
        self.parse_factor()
        while self.text in ("*", "/"):
            op = self.advance()
            self.parse_factor()
            if op == "/" and self.program[-1] == ("num", 0):
                # The divisor is a literal 0, maybe in parentheses: point at the 0.
                pos = next(k for k in range(self.pos - 1, -1, -1) if self.tokens[k].isdecimal())
                raise self.error("denominator must be nonzero", pos)
            self.program.append((op,))

    def parse_factor(self):
        if self.text == "-":
            self.enter()
            self.parse_factor()
            self.depth -= 1
            self.program.append(("neg",))
            return
        self.parse_base()
        if self.text == "^":
            self.advance()
            self.expect("uint")
            exponent = int(self.advance())
            if exponent > MAX_EXPONENT:
                raise self.error(f"exponent {exponent} exceeds the bound {MAX_EXPONENT}",
                                 self.pos - 1)
            self.program.append(("pow", exponent))

    def parse_base(self):
        text = self.text
        if text.isdecimal():
            self.advance()
            self.program.append(("num", int(text)))
        elif text == "conj":
            self.advance()
            self.parse_group()
            self.program.append(("conj",))
        elif text == "(":
            self.parse_group()
        elif text == "i" or text in _VAR_MONOS:
            self.advance()
            self.program.append(("i",) if text == "i" else ("var", text))
        else:
            raise self.error(f"unexpected {text or 'end of input'!r}")

    def parse_group(self):
        """'(' expr ')' at the current token, one nesting level deeper."""
        self.expect("(")
        self.enter()
        self.parse_expr()
        self.expect(")")
        self.advance()
        self.depth -= 1


def parse(src: str) -> Program:
    """Parse source text to a program; raises ParseError with a column on failure."""
    parser = _Parser(src)
    parser.parse_expr()
    if parser.text:
        raise parser.error(f"trailing input {parser.text!r}")
    return tuple(parser.program)


#: Each variable's :func:`_bounds` stack entry: one term of degree 1, its mask bit, coefficient 1.
_VAR_ENTRIES = {name: (1, 1, 1 << mono.index(1), 2, 1, 1, True)
                for name, mono in _VAR_MONOS.items()}


def _bounds(program: Program) -> tuple[int, int, int]:
    """Upper bounds on the term count, total degree and coefficient bits of program's value.

    Terms add under '+' and '-', multiply under '*', and a power of a t-term
    base has at most C(t+n-1, n) terms (the multisets of n of its terms);
    every count is capped by C(D+k, k), the number of monomials of degree at
    most D in the k variables that occur.  The variables are a 4-bit mask in
    exponent order (z1, z2, z1c, z2c), so ``conj`` swaps its two halves as it
    swaps a monomial's.  Each stack entry carries its cap, and a result
    keeps its left operand's (or base's) unless its degree or mask differs.

    Each entry also carries integers M and D and a flag: the value is N/D'
    for Gaussian-integer numerators N with every |N_m| <= M and some
    0 < D' <= D, and every coefficient is real if the flag is set.  A
    literal n is n/1 and a variable 1/1.  A sum is (N1 D2' + N2 D1') /
    (D1' D2'), so M1 D2 + M2 D1 over D1 D2.  A product meets at most
    min(t1, t2) pairs of terms at each monomial, so M1 M2 min(t1, t2) over
    D1 D2.  A power of a t-term base is at most (t M)^n over D^n.  Dividing
    by a constant z/Dc multiplies by Dc/z if z is real, so M Dc over D Mz,
    and by Dc conj(z)/|z|^2 otherwise, so M Dc Mz over D Mz^2.  The reduced
    numerators and denominator divide those of any such N/D', so the
    value's coefficient bits, the largest bit length of a real or imaginary
    numerator part or of the denominator, are at most those of M and D.

    Raises EvaluationError at the first subexpression above ``MAX_TERMS``
    terms, or else above ``MAX_COEFF_BITS`` bits, and TypeError on an
    unknown instruction.
    """
    # (terms, degree, variable mask, cap, M, D, real)
    stack: list[tuple[int, int, int, int, int, int, bool]] = []
    limit = _COEFF_LIMIT
    for ins in program:
        op = ins[0]
        # Leaves first: they are about half of a program.
        if op == "var":
            stack.append(_VAR_ENTRIES[ins[1]])
            continue
        if op == "num":
            stack.append((1, 0, 0, 1, ins[1], 1, True))
            continue
        if op in ("+", "-", "*"):
            right_terms, right_degree, right_mask, _, right_size, right_den, right_real = (
                stack.pop())
            left_terms, left_degree, left_mask, cap, size, den, real = stack[-1]
            if op == "*":
                terms, degree = left_terms * right_terms, left_degree + right_degree
                size *= right_size * (left_terms if left_terms < right_terms else right_terms)
            else:
                terms = left_terms + right_terms
                degree = left_degree if left_degree > right_degree else right_degree
                size = size * right_den + right_size * den
            mask, den, real = left_mask | right_mask, den * right_den, real and right_real
        elif op == "pow":
            left_terms, left_degree, mask, cap, size, den, real = stack[-1]
            left_mask, n = mask, ins[1]
            terms, degree = comb(left_terms + n - 1, n), left_degree * n
            size, den = (left_terms * size) ** n, den ** n
        elif op == "/":
            # A constant divisor keeps the left operand's term bounds.
            _, _, _, _, divisor, divisor_den, divisor_real = stack.pop()
            terms, degree, mask, cap, size, den, real = stack[-1]
            left_degree, left_mask = degree, mask
            divisor = divisor or 1  # a zero divisor is an error when evaluated
            if divisor_real:
                size, den = size * divisor_den, den * divisor
            else:
                size, den, real = size * divisor_den * divisor, den * divisor * divisor, False
        else:
            if op == "i":
                stack.append((1, 0, 0, 1, 1, 1, False))
            elif op == "conj":
                terms, degree, mask, *coefficients = stack[-1]
                stack[-1] = (terms, degree, mask >> 2 | (mask & 3) << 2, *coefficients)
            elif op != "neg":
                raise TypeError(f"not an instruction: {ins!r}")
            continue
        if degree != left_degree or mask != left_mask:
            k = mask.bit_count()
            cap = comb(degree + k, k)
        if terms > cap:
            terms = cap
        if terms > MAX_TERMS:
            raise EvaluationError(f"expression may expand to more than {MAX_TERMS} terms")
        if (size | den) > limit:
            raise EvaluationError(_TOO_MANY_BITS)
        stack[-1] = (terms, degree, mask, cap, size, den, real)
    terms, degree, _, _, size, den, _ = stack.pop()
    return terms, degree, (size | den).bit_length()


#: A Gaussian rational (a + b*i)/d as its reduced triple (a, b, d), d > 0.
_Triple = tuple[int, int, int]

#: (z1, z2) = (0, 0) and (1, i), where a divisor is evaluated before it is
#: expanded.  Every coordinate is 0 or a unit, so a power of one never
#: grows: each value has about as many bits as the largest coefficient of
#: the expansion.
_POINTS = (((0, 0, 1), (0, 0, 1)), ((1, 0, 1), (0, 1, 1)))

_DIVIDE = ("/",)

_NOT_CONSTANT = "division only by a nonzero constant"


def _reduced(a: int, b: int, d: int) -> _Triple:
    g = gcd(a, b, d)
    return a // g, b // g, d // g


def _value_at(program: Program, z1: _Triple, z2: _Triple) -> _Triple:
    """program's exact value at (z1, z2), with z1c and z2c at their conjugates.

    Values are triples of integers, so no polynomial is formed; a divisor
    whose value is 0 raises ZeroDivisionError.
    """
    values = {"z1": z1, "z2": z2, "z1c": (z1[0], -z1[1], z1[2]), "z2c": (z2[0], -z2[1], z2[2])}
    stack: list[_Triple] = []
    for ins in program:
        op = ins[0]
        if op == "num":
            stack.append((ins[1], 0, 1))
        elif op == "i":
            stack.append((0, 1, 1))
        elif op == "var":
            stack.append(values[ins[1]])
        elif op in ("neg", "conj", "pow"):
            a, b, d = stack[-1]
            if op == "neg":
                stack[-1] = (-a, -b, d)
            elif op == "conj":
                stack[-1] = (a, -b, d)
            else:
                n = ins[1]
                u, v = 1, 0
                for _ in range(n):
                    u, v = u * a - v * b, u * b + v * a
                stack[-1] = _reduced(u, v, d ** n)
        else:
            x, y, e = stack.pop()
            a, b, d = stack[-1]
            if op == "+":
                stack[-1] = _reduced(a * e + x * d, b * e + y * d, d * e)
            elif op == "-":
                stack[-1] = _reduced(a * e - x * d, b * e - y * d, d * e)
            elif op == "*":
                stack[-1] = _reduced(a * x - b * y, a * y + b * x, d * e)
            else:
                stack[-1] = _reduced((a * x + b * y) * e, (b * x - a * y) * e, d * (x * x + y * y))
    return stack.pop()


def _operand_start(program: Program, end: int) -> int:
    """Where the operand that ends at ``program[end]`` begins."""
    need = 1  # values still to be found, walking back
    while True:
        op = program[end][0]
        if op in ("num", "i", "var"):
            need -= 1
            if not need:
                return end
        elif op in ("+", "-", "*", "/"):
            need += 1
        end -= 1


def _check_divisors(program: Program):
    """Raise EvaluationError if a divisor is proved not constant without expanding it.

    Divisors are taken in program order.  A literal costs one comparison.
    Any other is evaluated at both of ``_POINTS``: two different values
    prove it is not constant.  The check stops at the first divisor that is
    0 at both points (a literal 0 too), so the full evaluation still tells
    'division by zero' from a divisor that is not constant, as it did before.
    """
    j = -1
    for _ in range(program.count(_DIVIDE)):
        j = program.index(_DIVIDE, j + 1)
        last = program[j - 1]
        if last[0] in ("num", "i"):
            if last == ("num", 0):
                return
            continue
        divisor = program[_operand_start(program, j - 1):j]
        first, second = (_value_at(divisor, *point) for point in _POINTS)
        if first != second:
            raise EvaluationError(_NOT_CONSTANT)
        if not (first[0] or first[1]):
            return


def evaluate(program: Program) -> SpherePoly:
    """Evaluate a program to an exact SpherePoly, bounding its size first.

    A divisor that two points prove not constant is rejected before
    anything is expanded (see :func:`_check_divisors`).  A '+'/'-' chain
    adds each summand into its running numerator map on the lcm of the
    denominators, which may leave zero pairs and a common factor; '*', '/'
    and '^' divide out the gcd, keeping the integers bounded.
    """
    _bounds(program)
    _check_divisors(program)
    stack: list[tuple[Nums, int]] = []
    for ins in program:
        op = ins[0]
        if op == "num":
            stack.append(({(0, 0, 0, 0): (ins[1], 0)}, 1))
        elif op == "i":
            stack.append(({(0, 0, 0, 0): (0, 1)}, 1))
        elif op == "var":
            stack.append(({_VAR_MONOS[ins[1]]: (1, 0)}, 1))
        elif op == "neg":
            nums, den = stack[-1]
            stack[-1] = ({mono: (-x, -y) for mono, (x, y) in nums.items()}, den)
        elif op == "conj":
            nums, den = stack[-1]
            stack[-1] = (_conj_nums(nums), den)
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
    """den*(x - y*i) over g*(x^2 + y^2): the reciprocal of a constant divisor
    g*(x + y*i)/den, g the gcd of its parts, so an integer n gives den/n, not den*n/n^2."""
    terms = [(mono, pair) for mono, pair in nums.items() if pair[0] or pair[1]]
    if not terms:
        raise EvaluationError("division by zero")
    if len(terms) > 1 or terms[0][0] != (0, 0, 0, 0):
        raise EvaluationError(_NOT_CONSTANT)
    x, y = terms[0][1]
    g = gcd(x, y)
    x, y = x // g, y // g
    return {(0, 0, 0, 0): (x * den, -y * den)}, g * (x * x + y * y)


def parse_poly(src: str) -> SpherePoly:
    """parse + evaluate in one step."""
    return evaluate(parse(src))
