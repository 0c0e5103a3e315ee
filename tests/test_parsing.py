"""Expression grammar: parsing, evaluation, errors, and print round-trips."""

import random
import re
import sys
from fractions import Fraction
from itertools import chain
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from crlab import (Monomial, SpherePoly, gr, one, parse_poly, parsing, sphere_equal, z1, z1c, z2,
                   z2c)
from crlab.parsing import (MAX_EXPONENT, MAX_LITERAL_DIGITS, MAX_NESTING, MAX_TERMS,
                           EvaluationError, LexicalError, ParseError, SyntaxParseError, _TOKEN,
                           _VAR_MONOS, _WORDS, _bounds, evaluate, parse)
from conftest import SPHERE_POINTS
from test_cli_fuzz import JUNK, expressions as cli_expressions


def test_basic_expression():
    poly = parse_poly("z1^2*z2c - i/3")
    assert poly == z1 ** 2 * z2c - one.scale(gr(0, Fraction(1, 3)))


def test_parenthesized_square_expands():
    assert parse_poly("(z1+z1c)^2") == z1 ** 2 + (z1 * z1c).scale(2) + z1c ** 2


def test_imaginary_unit_squares():
    assert parse_poly("i*i") == one.scale(-1)


def test_rational_literal_reduces():
    assert parse_poly("2/4 * z1") == z1.scale(Fraction(1, 2))


def test_defining_relation_parses_to_sphere_one():
    assert sphere_equal(parse_poly("z1*z1c + z2*z2c"), one)


def test_conj_alias():
    assert parse_poly("conj(z1)") == z1c
    assert parse_poly("conj(i*z1 + z2)") == z1c.scale(gr(0, -1)) + z2c


def test_precedence_and_associativity():
    assert parse_poly("-z1^2") == -(z1 ** 2)
    assert parse_poly("1 - 2 - 3") == one.scale(-4)
    assert parse_poly("2*z1+3*z2") == z1.scale(2) + z2.scale(3)
    assert parse_poly("-2^2") == one.scale(-4)
    # Division associates left.
    assert parse_poly("z1/3/4") == parse_poly("(z1/3)/4") == z1.scale(Fraction(1, 12))
    assert parse_poly("z1/-3/4") == z1.scale(Fraction(-1, 12))
    # 1/2*z1 is (1/2)*z1, as to_source prints it.
    assert parse_poly("1/2*z1") == z1.scale(Fraction(1, 2))


def test_program_is_postfix():
    assert parse("-conj(z1 + i)^2/3 - 1/2*z2c") == (
        ("var", "z1"), ("i",), ("+",), ("conj",), ("pow", 2), ("neg",),
        ("num", 3), ("/",), ("num", 1), ("num", 2), ("/",), ("var", "z2c"), ("*",), ("-",))


def test_power_after_a_slash_takes_the_denominator_alone():
    # '^' binds tighter than '/': 2/3^2 is 2/(3^2), as 2*1/3^2 and z1/3^2 are.
    assert parse_poly("2/3^2") == parse_poly("2*1/3^2") == SpherePoly.constant(Fraction(2, 9))
    assert parse_poly("2/3^2*z1") == parse_poly("z1/3^2*2") == z1.scale(Fraction(2, 9))
    assert parse("2/3^2") == (("num", Fraction(2)), ("num", Fraction(3)), ("pow", 2), ("/",))
    with pytest.raises(EvaluationError, match="division by zero"):
        parse_poly("1/0^2")


def test_whitespace_insensitive():
    assert parse_poly(" z1 \t*  z2c\n+ 1/2 ") == parse_poly("z1*z2c+1/2")


def test_unknown_variable_is_lexical_error_with_column():
    with pytest.raises(LexicalError) as err:
        parse("z3")
    assert "z3" in str(err.value)
    assert err.value.column == 1
    with pytest.raises(LexicalError) as err:
        parse("z1 + w")
    assert err.value.column == 6


def test_superscript_digit_is_lexical_error():
    with pytest.raises(LexicalError) as err:
        parse("z1^\u00b2")
    assert err.value.column == 4


def test_unknown_character_is_lexical_error():
    with pytest.raises(LexicalError):
        parse("z1 @ z2")


def test_pattern_classes_are_the_str_predicates():
    # The tokenizer's \d, \w and \s must agree with these predicates on every
    # code point outside the surrogates; each code point occurs once in chars.
    chars = "".join(map(chr, chain(range(0xD800), range(0xE000, sys.maxunicode + 1))))
    assert "".join(re.findall(r"\d", chars)) == "".join(filter(str.isdecimal, chars))
    assert "".join(re.findall(r"\w", chars)) == "".join(c for c in chars
                                                        if c.isalnum() or c == "_")
    assert "".join(re.findall(r"\s", chars)) == "".join(filter(str.isspace, chars))


@pytest.mark.parametrize("src, value", [
    ("z1\u00a0+\u3000z2", z1 + z2),                   # no-break and ideographic spaces
    ("\u0663*z1", z1.scale(3)),                        # an Arabic-Indic digit three
    ("1/\u0663", SpherePoly.constant(Fraction(1, 3))),
])
def test_unicode_spaces_and_decimal_digits_are_read(src, value):
    assert parse_poly(src) == value


TOKEN_ERRORS = [
    ("\u00e91", LexicalError, "unknown token '\u00e91'", 1),
    ("_x", LexicalError, "unknown token '_'", 1),       # a word must start with a letter
    ("z1\u00b2", LexicalError, "unknown token 'z1\u00b2'", 1),
    ("\u00bd", LexicalError, "unknown token '\u00bd'", 1),
    ("z1 + \u200b", LexicalError, "unknown token '\\u200b'", 6),  # zero-width, not a space
    ("(" * 100 + "conj z1", SyntaxParseError, "expected '(', found 'z1'", 106),
]


@pytest.mark.parametrize("src, error, message, column", TOKEN_ERRORS)
def test_token_errors_are_pinned(src, error, message, column):
    with pytest.raises(error) as err:
        parse(src)
    assert str(err.value) == f"{message} (column {column})"
    assert err.value.column == column


OVERLONG_LITERALS = [("7" * 101, 1), ("z1^" + "9" * 5000, 4), ("1/" + "3" * 101 + "*z1", 3)]


@pytest.mark.parametrize("src, column", OVERLONG_LITERALS)
def test_overlong_integer_literal_is_lexical_error(src, column):
    with pytest.raises(LexicalError) as err:
        parse(src)
    assert err.value.column == column


def test_syntax_errors_are_positioned():
    with pytest.raises(SyntaxParseError) as err:
        parse("z1 + ")
    assert err.value.column == 6
    with pytest.raises(SyntaxParseError):
        parse("z1^z2")        # exponent must be an unsigned integer literal
    with pytest.raises(SyntaxParseError):
        parse("z1^-2")
    with pytest.raises(SyntaxParseError):
        parse("(z1")
    with pytest.raises(SyntaxParseError):
        parse("z1 z2")


def test_zero_denominator_rejected_at_parse_time():
    with pytest.raises(ParseError):
        parse("1/0")


LITERAL_ZERO_DIVISORS = [
    ("1/0", 3), ("z1/0", 4), ("1/(0)", 4), ("i/00", 3),
    ("(z1+z2+z1c+z2c)^32/0", 20),  # rejected before the dividend is expanded
]


@pytest.mark.parametrize("src, column", LITERAL_ZERO_DIVISORS)
def test_literal_zero_divisor_is_a_positioned_syntax_error(src, column):
    with pytest.raises(SyntaxParseError) as err:
        parse(src)
    assert str(err.value) == f"denominator must be nonzero (column {column})"


@pytest.mark.parametrize("src", ["1/0^2", "1/(1-1)", "z1/-0"])
def test_a_divisor_that_only_evaluates_to_zero_fails_on_evaluation(src):
    with pytest.raises(EvaluationError, match="division by zero"):
        parse_poly(src)


def test_float_literals_are_rejected():
    with pytest.raises(ParseError):
        parse("0.5*z1")


BOUND_CASES = [
    ("(z1+z2+z1c+z2c)^32", 6545, 32),       # C(35, 32) multisets of the four terms
    ("(z1*z1c)^32", 1, 64),                 # degree 64 alone is no reason to reject
    ("(z1+z2)^32*(z1c+z2c)^32", 33 * 33, 64),
    ("(z1+1)^3 - conj(z2)/7", 4 + 1, 3),    # '+' and '-' add, '/' keeps the left side
    # 15 * 15 products, capped by the C(4+4, 4) monomials of degree at most 4
    ("(z1+z2+z1c+z2c+1)^2*(z1+z2+z1c+z2c+1)^2", 70, 4),
    # capped by the monomials in the variables that occur: here z1 alone
    ("*".join(["(z1+1)"] * 20), 21, 20),
    ("(z1+1)^3*conj(z1+1)^3", 16, 6),       # conj turns z1 into z1c: two variables
]


@pytest.mark.parametrize("src, terms, degree", BOUND_CASES)
def test_expansion_bound(src, terms, degree):
    assert _bounds(parse(src)) == (terms, degree)


def _reference_bounds(program):
    """The bound with C(D+k, k) computed afresh at every '+', '-', '*' and '^'."""
    def capped(terms, degree, mask):
        k = mask.bit_count()
        terms = min(terms, comb(degree + k, k))
        if terms > MAX_TERMS:
            raise EvaluationError(f"expression may expand to more than {MAX_TERMS} terms")
        return terms, degree, mask

    stack = []
    for ins in program:
        op = ins[0]
        if op in ("num", "i"):
            stack.append((1, 0, 0))
        elif op == "var":
            stack.append((1, 1, {"z1": 1, "z2": 2, "z1c": 4, "z2c": 8}[ins[1]]))
        elif op == "conj":
            terms, degree, mask = stack.pop()
            stack.append((terms, degree, mask >> 2 | (mask & 3) << 2))
        elif op == "pow":
            terms, degree, mask = stack.pop()
            n = ins[1]
            stack.append(capped(comb(terms + n - 1, n), degree * n, mask))
        elif op in ("+", "-", "*"):
            right_terms, right_degree, right_mask = stack.pop()
            terms, degree, mask = stack.pop()
            if op == "*":
                terms, degree = terms * right_terms, degree + right_degree
            else:
                terms, degree = terms + right_terms, max(degree, right_degree)
            stack.append(capped(terms, degree, mask | right_mask))
        elif op == "/":
            stack.pop()
        elif op != "neg":
            raise TypeError(f"not an instruction: {ins!r}")
    terms, degree, _ = stack.pop()
    return terms, degree


def _random_source(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["z1", "z2", "z1c", "z2c", "1", "i", "2/5",
                           "(z1+z2+z1c+z2c)", "(z1+1)", "(z1c+z2-i)"])
    form = rng.randrange(7)
    if form == 0:
        return f"({_random_source(rng, depth - 1)})^{rng.choice([0, 1, 2, 3, 5, 8, 13, 21, 32])}"
    if form == 1:
        return f"conj({_random_source(rng, depth - 1)})"
    if form == 2:
        return f"-({_random_source(rng, depth - 1)})"
    if form == 3:
        return f"({_random_source(rng, depth - 1)})/(2+i)"
    op = rng.choice("+-*")
    return f"({_random_source(rng, depth - 1)}) {op} ({_random_source(rng, depth - 1)})"


def _outcome(bounds, program):
    try:
        return bounds(program)
    except (EvaluationError, TypeError) as exc:
        return type(exc), str(exc)


def test_bounds_agree_with_a_fresh_cap_at_every_step():
    # The cap a result shares with its left operand is the one a fresh
    # C(D+k, k) would give: same bounds, same first rejection, same message.
    rng = random.Random(19)
    programs = [parse(src) for src, _, _ in BOUND_CASES]
    programs += [parse(_random_source(rng, rng.randint(1, 7))) for _ in range(3000)]
    programs += [(("var", "z1"), ("sqrt",)), (("num", Fraction(1)), ("var", "z2"), ("+",))]
    outcomes = [_outcome(_bounds, program) for program in programs]
    assert outcomes == [_outcome(_reference_bounds, program) for program in programs]
    assert sum(isinstance(o[0], type) for o in outcomes) > 50  # rejections are covered


def test_long_product_of_one_variable_is_evaluated():
    product = parse_poly("*".join(["(z1+1)"] * 20))
    assert len(product) == 21
    assert product == parse_poly("(z1+1)^20")


@pytest.mark.parametrize("src", [
    "(z1+z2+z1c+z2c)^32*(z1+z2+z1c+z2c)^32",
    "z1 + ((z1+z2+z1c+z2c)^32 + (z1+z2+z1c+z2c)^32)^0",  # every subexpression is bounded
])
def test_expansion_above_term_bound_is_rejected_before_evaluation(src, monkeypatch):
    def no_arithmetic(*args):
        raise AssertionError("evaluated before the bound was checked")

    # Every sum, product, quotient and power of the evaluator goes through these.
    for name in ("_add_into", "_mul_into", "_power"):
        monkeypatch.setattr(parsing, name, no_arithmetic)
    with pytest.raises(EvaluationError, match=f"more than {MAX_TERMS} terms"):
        evaluate(parse(src))


@pytest.mark.parametrize("opening", ["(", "conj(", "-"])
def test_nesting_above_bound_is_a_positioned_syntax_error(opening):
    closing = ")" if opening != "-" else ""
    at_bound = opening * MAX_NESTING + "z1" + closing * MAX_NESTING
    once = {"(": z1, "conj(": z1c, "-": -z1}[opening]  # one level of the opening
    assert parse_poly(at_bound) == (once if MAX_NESTING % 2 else z1)
    deeper = opening * (MAX_NESTING + 1) + "z1" + closing * (MAX_NESTING + 1)
    with pytest.raises(SyntaxParseError, match=f"nesting deeper than the bound {MAX_NESTING}") as err:
        parse(deeper)
    assert err.value.column == len(opening) * MAX_NESTING + len(opening)


def test_long_chains_evaluate_without_recursion():
    assert parse_poly("+".join(["z1"] * 5000)) == z1.scale(5000)
    assert parse_poly("*".join(["z2"] * 3000)) == z2 ** 3000
    assert parse_poly(" - ".join(["z1c"] * 3001)) == z1c.scale(-2999)
    assert parse_poly("z1" + "*1/2" * 2000) == z1.scale(Fraction(1, 2 ** 2000))
    # A chain keeps left-to-right order and precedence (4*5/2 is (4*5)/2): 6.
    assert parse_poly("1 - 2 - 3 + 4*5/2") == SpherePoly.constant(6)


def test_evaluation_makes_one_polynomial(monkeypatch):
    # Values stay numerator maps until the end: one canonical SpherePoly is
    # made per parse, and no SpherePoly arithmetic runs.
    sources = ["z1 + z2 - z1c + z2c",
               "-conj(z1 + i)^2/3 - 1/2*z2c*(z1 - z1 + 2) + (2/4 - 3*i)^3"]
    expected = [parse_poly(src) for src in sources]
    calls = []
    of = SpherePoly._of

    def counted(*args):
        calls.append(args)
        return of(*args)

    def forbidden(*args):
        raise AssertionError("SpherePoly arithmetic inside evaluate")

    monkeypatch.setattr(SpherePoly, "_of", staticmethod(counted))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "__pow__", "conj", "scale", "summed"):
        monkeypatch.setattr(SpherePoly, name, forbidden)
    for src, poly in zip(sources, expected):
        calls.clear()
        assert parse_poly(src) == poly
        assert len(calls) == 1


def test_integer_growth_stays_bounded(monkeypatch):
    # z1*2*1/2*2*1/2... : each product and quotient divides out the common
    # factor, so no numerator or denominator grows along the chain.
    widths = []
    canonical = parsing._canonical

    def recorded(nums, den, summed=False):
        widths.append(max(abs(n).bit_length() for pair in nums.values() for n in (*pair, den)))
        return canonical(nums, den, summed)

    monkeypatch.setattr(parsing, "_canonical", recorded)
    assert parse_poly("z1" + "*2*1/2" * 2000) == z1
    assert len(widths) == 6000  # one per product and per quotient
    assert max(widths) <= 2


# -- a random-expression oracle -------------------------------------------------


@st.composite
def gaussian_rationals(draw, nonzero=False):
    re = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    im = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    if nonzero and not (re or im):
        re = Fraction(1)
    return gr(re, im)


def rational_source(value: Fraction) -> str:
    return f"({value.numerator}/{value.denominator})"


@st.composite
def divisors(draw):
    """A nonzero constant as source, written plainly or through a cancelling variable."""
    value = draw(gaussian_rationals(nonzero=True))
    text = f"({rational_source(value.re)} + {rational_source(value.im)}*i)"
    if draw(st.booleans()):
        name = draw(st.sampled_from(["z1", "z2", "z1c", "z2c"]))
        text = f"({name} - {name} + {text})"
    return text, value


@st.composite
def expressions(draw, depth=3):
    """(source, value built with SpherePoly arithmetic) of a random expression tree."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(["int", "ratio", "i", "var"]))
        if kind == "int":
            k = draw(st.integers(0, 12))
            return str(k), SpherePoly.constant(k)
        if kind == "ratio":
            a, b = draw(st.integers(0, 12)), draw(st.integers(1, 12))
            return f"{a}/{b}", SpherePoly.constant(Fraction(a, b))
        if kind == "i":
            return "i", SpherePoly.constant(gr(0, 1))
        name = draw(st.sampled_from(["z1", "z2", "z1c", "z2c"]))
        return name, SpherePoly.variable(name)
    op = draw(st.sampled_from(["neg", "conj", "+", "-", "*", "^", "/"]))
    text, value = draw(expressions(depth=depth - 1))
    if op == "neg":
        return f"(-{text})", -value
    if op == "conj":
        return f"conj({text})", value.conj()
    if op == "^":
        n = draw(st.integers(0, 4))
        return f"({text})^{n}", value ** n
    if op == "/":
        divisor, scalar = draw(divisors())
        return f"({text}/{divisor})", value.scale(gr(1) / scalar)
    right_text, right = draw(expressions(depth=depth - 1))
    built = {"+": value + right, "-": value - right, "*": value * right}[op]
    return f"({text} {op} {right_text})", built


@settings(max_examples=150, deadline=None)
@given(expressions())
def test_evaluation_agrees_with_polynomial_arithmetic(case):
    text, built = case
    assert parse_poly(text) == built


def call_style(poly: SpherePoly) -> str:
    """poly's source with each conjugate written as a conj(...) call."""
    return poly.to_source().replace("z1c", "conj(z1)").replace("z2c", "conj(z2)")


def test_printer_round_trips_fixed_cases():
    cases = [
        SpherePoly.zero(),
        one,
        -z1,
        z1.scale(gr(Fraction(-3, 2))),
        z1.scale(gr(0, 1)) + z2.scale(gr(0, -2)),
        (z1 ** 3) * z2c + z2.scale(gr(Fraction(1, 2), Fraction(-5, 3))),
        z1 * z2 * z1c * z2c,
    ]
    for poly in cases:
        assert parse_poly(poly.to_source()) == poly
        assert parse_poly(call_style(poly)) == poly


@st.composite
def polys(draw):
    out = SpherePoly.zero()
    for _ in range(draw(st.integers(0, 5))):
        mono = Monomial(*(draw(st.integers(0, 3)) for _ in range(4)))
        re = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 6)))
        im = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 6)))
        out = out + SpherePoly.monomial(mono, gr(re, im))
    return out


@settings(max_examples=80)
@given(polys())
def test_print_parse_round_trip(poly):
    assert parse_poly(poly.to_source()) == poly


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), polys()), min_size=1, max_size=6))
def test_chained_sum_agrees_with_pairwise_sums(operands):
    # Parenthesized operands are chains themselves, so chains also meet chains.
    src = "".join(f" {sign} ({poly.to_source()})" for sign, poly in operands)
    pairwise = SpherePoly.zero()
    for sign, poly in operands:
        pairwise = pairwise + poly if sign == "+" else pairwise - poly
    assert parse_poly("0" + src) == pairwise
    assert parse_poly(src.lstrip(" +")) == pairwise


@settings(max_examples=40)
@given(polys())
def test_call_style_round_trip(poly):
    assert parse_poly(call_style(poly)) == poly


def test_evaluate_rejects_foreign_objects():
    with pytest.raises(TypeError):
        evaluate("not an ast")
    with pytest.raises(TypeError, match="not an instruction"):
        evaluate((("var", "z1"), ("sqrt",)))


def _literals(src: str) -> list:
    return [ins[1] for ins in parse(src) if ins[0] == "num"]


def test_fixed_sources_have_integer_literals():
    sources = [src for src, _, _ in BOUND_CASES] + [
        "-conj(z1 + i)^2/3 - 1/2*z2c*(z1 - z1 + 2) + (2/4 - 3*i)^3",
        (z1 ** 3 * z2c + z2.scale(gr(Fraction(1, 2), Fraction(-5, 3)))).to_source()]
    sources += [_random_source(random.Random(seed), 4) for seed in range(200)]
    literals = [n for src in sources for n in _literals(src)]
    assert literals and all(type(n) is int for n in literals)


@settings(max_examples=60, deadline=None)
@given(expressions(), polys())
def test_generated_sources_have_integer_literals(case, poly):
    for src in (case[0], poly.to_source(), call_style(poly)):
        assert all(type(n) is int for n in _literals(src))


# -- divisors checked at points before they are expanded -----------------------------


def test_non_constant_divisor_is_rejected_before_it_is_expanded(monkeypatch):
    def no_power(*args):
        raise AssertionError("the divisor was expanded")

    monkeypatch.setattr(parsing, "_power", no_power)
    with pytest.raises(EvaluationError) as err:
        parse_poly("z1/(z1+z2+z1c+z2c)^32")
    assert str(err.value) == "division only by a nonzero constant"


@pytest.mark.parametrize("src, value", [
    ("z1/(z1 - z1 + 2)", z1.scale(Fraction(1, 2))),
    ("z1c/(z1*z1c - z1c*z1 + i)", z1c.scale(gr(0, -1))),
])
def test_a_constant_divisor_written_with_variables_is_accepted(src, value):
    assert parse_poly(src) == value


def test_a_literal_divisor_is_never_evaluated_at_points(monkeypatch):
    def no_points(*args):
        raise AssertionError("a literal divisor was evaluated at a point")

    monkeypatch.setattr(parsing, "_value_at", no_points)
    poly = z1.scale(gr(Fraction(1, 2), Fraction(-5, 3))) + z2c.scale(gr(0, Fraction(7, 4)))
    assert parse_poly(poly.to_source()) == poly
    assert parse_poly("z1/i/3") == z1.scale(gr(0, Fraction(-1, 3)))


def test_a_literal_zero_divisor_still_fails_first():
    # parse rejects a literal 0 divisor; a program built by hand keeps
    # failing at the first division, before a later one not constant.
    program = (("num", 1), ("num", 0), ("/",), ("var", "z1"), ("var", "z2"), ("/",), ("+",))
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate(program)


#: Divisors that are a nonzero constant, zero, or not constant; some are not
#: constant but take one value (0, or not) at both of the checked points.
DIVISORS = ["2", "i", "(1+i)", "(z1 - z1 + 2)", "(z1*z1c - z1c*z1 + 3*i)", "(conj(z1) - z1c - 1)",
            "0^2", "(1-1)", "(z1 - z1)", "-0", "(z1*z2 - z2*z1)^3",
            "z1", "z2c", "(z1+z2+z1c+z2c)^3", "(z1*z1c + z2*z2c)", "(z1 - z1c)", "(i*z1 - z2)",
            "(z2*z2c - z1*z1c + 1)"]


def _division_source(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["z1", "z2c", "1", "i", "(z1+z2+z1c+z2c)"])
    left = _division_source(rng, depth - 1)
    form = rng.randrange(3)
    if form == 0:
        return f"({left})/{rng.choice(DIVISORS)}"
    if form == 1:  # a divisor that may hold divisions itself
        return f"({left})/({_division_source(rng, depth - 1)})"
    return f"({left}) {rng.choice('+-*')} ({_division_source(rng, depth - 1)})"


def _evaluated(src):
    try:
        return parse_poly(src)
    except EvaluationError as exc:
        return str(exc)


def test_divisor_check_changes_no_outcome(monkeypatch):
    # Each source gives the same polynomial or the same error with the check
    # as with evaluation alone.
    rng = random.Random(23)
    sources = [_division_source(rng, rng.randint(1, 4)) for _ in range(1500)]
    checked = [_evaluated(src) for src in sources]
    monkeypatch.setattr(parsing, "_check_divisors", lambda program: None)
    assert checked == [_evaluated(src) for src in sources]
    outcomes = {o if isinstance(o, str) else "value" for o in checked}
    assert outcomes == {"value", "division by zero", "division only by a nonzero constant"}


def _triple(value):
    """value as the reduced (a, b, d) of (a + b*i)/d."""
    d = lcm(value.re.denominator, value.im.denominator)
    return (value.re.numerator * (d // value.re.denominator),
            value.im.numerator * (d // value.im.denominator), d)


POINTS = [*parsing._POINTS, *(tuple(map(_triple, point)) for point in SPHERE_POINTS[:4])]


@settings(max_examples=150, deadline=None)
@given(expressions(), st.sampled_from(POINTS))
def test_program_at_a_point_agrees_with_the_expanded_polynomial(case, point):
    # The point evaluator shares no code with the parser's numerator kernels
    # or with GaussianRational, which eval_at uses.
    text, _ = case
    z1_value, z2_value = (gr(Fraction(a, d), Fraction(b, d)) for a, b, d in point)
    assert parsing._value_at(parse(text), *point) == _triple(
        parse_poly(text).eval_at(z1_value, z2_value))


# -- the tokenizer and parser against the (text, column) reference -----------------


def _reference_tokenize(src):
    """src as (text, column) pairs, ending in ``("", len(src) + 1)``."""
    tokens = [(match[0], match.start() + 1) for match in _TOKEN.finditer(src)]
    for text, column in tokens:
        if text in _WORDS:
            continue
        if not text.isdecimal():
            raise LexicalError(f"unknown token {text if text[0].isalpha() else text[0]!r}",
                               column)
        if len(text) > MAX_LITERAL_DIGITS:
            raise LexicalError(f"integer literal of {len(text)} digits exceeds the bound "
                               f"{MAX_LITERAL_DIGITS}", column)
    tokens.append(("", len(src) + 1))
    return tokens


class _ReferenceParser:
    """The parser with every token's column read along with its text."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.text, self.column = tokens[0]
        self.depth = 0
        self.program = []

    def advance(self):
        text = self.text
        self.pos += 1
        self.text, self.column = self.tokens[self.pos]
        return text

    def expect(self, kind):
        if not (self.text.isdecimal() if kind == "uint" else self.text == kind):
            raise SyntaxParseError(f"expected {kind!r}, found {self.text or 'end of input'!r}",
                                   self.column)

    def enter(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntaxParseError(f"nesting deeper than the bound {MAX_NESTING}", self.column)
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
                column = next(c for t, c in reversed(self.tokens[:self.pos]) if t.isdecimal())
                raise SyntaxParseError("denominator must be nonzero", column)
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
            column = self.column
            exponent = int(self.advance())
            if exponent > MAX_EXPONENT:
                raise SyntaxParseError(f"exponent {exponent} exceeds the bound {MAX_EXPONENT}",
                                       column)
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
            raise SyntaxParseError(f"unexpected {text or 'end of input'!r}", self.column)

    def parse_group(self):
        self.expect("(")
        self.enter()
        self.parse_expr()
        self.expect(")")
        self.advance()
        self.depth -= 1


def _reference_parse(src):
    parser = _ReferenceParser(_reference_tokenize(src))
    parser.parse_expr()
    if parser.text:
        raise SyntaxParseError(f"trailing input {parser.text!r}", parser.column)
    return tuple(parser.program)


def _parsed(parse_fn, src):
    try:
        return parse_fn(src)
    except ParseError as exc:
        return type(exc), str(exc), exc.column


PARITY_SOURCES = [
    *(src for src, _, _ in BOUND_CASES), *(src for src, *_ in TOKEN_ERRORS),
    *(src for src, _ in OVERLONG_LITERALS), *(src for src, _ in LITERAL_ZERO_DIVISORS),
    "", "  ", "z1 + ", "z1^z2", "z1^-2", "z1^33", "(z1", "z1 z2", "z1)", "conj z1", "z1 @ z2",
    "0.5*z1", "z1^\u00b2", "\u0663*z1 + 2/\u0663", "1/(1-1)", "z1/(z1+z2+z1c+z2c)^32",
    "(" * 101 + "z1" + ")" * 101, "-" * 101 + "z1", "z1" + "*1/2" * 50,
]


@pytest.mark.parametrize("src", PARITY_SOURCES)
def test_parser_agrees_with_the_reference_on_fixed_sources(src):
    assert _parsed(parse, src) == _parsed(_reference_parse, src)


#: Every character of the CLI fuzz's leaves, operators and junk.
FUZZ_ALPHABET = "z12ci()+-*/^0379 onj.$\u00b2\u00a0\u0663\u00e9_\u200b"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(cli_expressions(), JUNK).map("".join),
                 st.text(FUZZ_ALPHABET, max_size=40)))
def test_parser_agrees_with_the_reference_on_generated_text(src):
    assert _parsed(parse, src) == _parsed(_reference_parse, src)
