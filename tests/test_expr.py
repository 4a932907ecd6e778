"""Tests for the coefficient expression language."""
import gc
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscdelay import Sequence, expr
from oscdelay.errors import DivisionByZero, DomainError, LexError, ParseError
from oscdelay.expr import (
    Binary,
    Call,
    Literal,
    Token,
    Unary,
    Var,
    eval_at,
    eval_values,
    expansion,
    parse_expression,
    tokenize,
)


def pretty(ast) -> str:
    """Fully parenthesized text of ast; re-parsing yields a structurally identical tree."""
    if isinstance(ast, Literal):
        v = ast.value
        return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if isinstance(ast, Var):
        return "z"
    if isinstance(ast, Unary):
        return f"(-{pretty(ast.child)})"
    if isinstance(ast, Binary):
        return f"({pretty(ast.left)} {ast.op} {pretty(ast.right)})"
    return f"{ast.name}({', '.join(pretty(a) for a in ast.args)})"


class TestTokenize:
    def test_power_expression(self):
        kinds = [(t.kind, t.lexeme) for t in tokenize("z^(4/3)")]
        assert kinds == [
            ("ident", "z"),
            ("caret", "^"),
            ("lparen", "("),
            ("number", "4"),
            ("slash", "/"),
            ("number", "3"),
            ("rparen", ")"),
            ("eof", ""),
        ]

    def test_linear_expression(self):
        kinds = [(t.kind, t.lexeme) for t in tokenize("2*z+1")]
        assert kinds == [
            ("number", "2"),
            ("star", "*"),
            ("ident", "z"),
            ("plus", "+"),
            ("number", "1"),
            ("eof", ""),
        ]

    def test_lex_error_position(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("z @ 3")
        assert exc_info.value.position == 2

    def test_positions_non_decreasing(self):
        toks = tokenize("  4*(z^2-1)*z^(2/3)/3 ")
        positions = [t.position for t in toks]
        assert positions == sorted(positions)

    def test_decimal_literals(self):
        toks = tokenize("2.5*z")
        assert toks[0] == Token("number", "2.5", 0)

    def test_bad_decimal(self):
        with pytest.raises(LexError):
            tokenize("2.")

    @pytest.mark.parametrize("text", ["z*²", "z^¹", "1.²", "1e²"])
    def test_non_decimal_digit_is_a_lex_error(self, text):
        # "²" is a digit to str.isdigit, but float() does not read it
        with pytest.raises(LexError) as exc_info:
            parse_expression(text)
        assert exc_info.value.position == 2

    def test_other_decimal_digits_read_as_numbers(self):
        assert parse_expression("٣*z") == Binary("*", Literal(3.0), Var())


class TestParse:
    def test_precedence(self):
        assert parse_expression("2*z+1") == Binary(
            "+", Binary("*", Literal(2.0), Var()), Literal(1.0)
        )

    def test_unary_minus_binds_tighter_than_caret(self):
        # "-z^2" is (-z)^2 by design
        assert parse_expression("-z^2") == Binary("^", Unary("-", Var()), Literal(2.0))

    def test_caret_right_associative(self):
        assert parse_expression("z^3^2") == Binary(
            "^", Var(), Binary("^", Literal(3.0), Literal(2.0))
        )

    def test_call(self):
        assert parse_expression("spow(z, 5, 3)") == Call(
            "spow", (Var(), Literal(5.0), Literal(3.0))
        )

    @pytest.mark.parametrize(
        "text", ["", "z+", "(z", "spow(z, 1)", "pow(z)", "foo(z)", "z z", "y"]
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_expression(text)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse_expression("z + ")
        assert exc_info.value.position == 4

    @pytest.mark.parametrize("text, error, message", [
        ("z @ 3", LexError, "lex error at offset 2: unrecognized character '@'"),
        ("z + ", ParseError, "parse error at offset 4: expected a number, 'z', '-' or '('"),
    ])
    def test_position_errors_survive_pickling(self, text, error, message):
        with pytest.raises(error) as exc_info:
            parse_expression(text)
        copy = pickle.loads(pickle.dumps(exc_info.value))
        assert type(copy) is error
        assert (copy.position, str(copy)) == (exc_info.value.position, message)

    def test_deep_nesting_rejected_cleanly(self):
        text = "(" * 5000 + "z" + ")" * 5000
        with pytest.raises(ParseError):
            parse_expression(text)


class TestEval:
    def test_polynomial(self):
        ast = parse_expression("z*(z-1)")
        assert eval_at(ast, 3) == pytest.approx(6.0)

    def test_example_power(self):
        ast = parse_expression("(z*(z+1))^(5/3)")
        # oracle: exp((5/3) ln 6)
        assert eval_at(ast, 2) == pytest.approx(math.exp((5 / 3) * math.log(6)), rel=1e-15)

    def test_spow_negative_base(self):
        ast = parse_expression("spow(-8, 1, 3)")
        assert eval_at(ast, 7) == pytest.approx(-2.0)

    def test_spow_rejects_even_integers(self):
        with pytest.raises(DomainError):
            eval_at(parse_expression("spow(z, 2, 3)"), 1)

    def test_odd_ratio_caret_on_negative_base(self):
        ast = parse_expression("z^(1/3)")
        assert eval_at(ast, -8) == pytest.approx(-2.0)

    def test_even_ratio_caret_rejects_negative_base(self):
        with pytest.raises(DomainError):
            eval_at(parse_expression("z^(2/3)"), -8)

    def test_integer_caret_on_negative_base(self):
        assert eval_at(parse_expression("z^2"), -3) == pytest.approx(9.0)
        assert eval_at(parse_expression("z^3"), -2) == pytest.approx(-8.0)

    def test_general_exponent_rejects_negative_base(self):
        with pytest.raises(DomainError):
            eval_at(parse_expression("(0-2)^z"), 1.5)

    def test_pow_builtin(self):
        assert eval_at(parse_expression("pow(z, 0.5)"), 4) == pytest.approx(2.0)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            eval_at(parse_expression("1/(z-1)"), 1)

    def test_unary_minus(self):
        assert eval_at(parse_expression("-z"), 5) == -5.0
        assert eval_at(parse_expression("-z^2"), 3) == pytest.approx(9.0)

    def test_vectorized_matches_scalar(self):
        for text in ["2^(z/3)", "(z*(z-1))^(1/3)", "z^(4/3)", "4*(z^2-1)*z^(2/3)/3"]:
            ast = parse_expression(text)
            zs = np.arange(2, 40, dtype=float)
            vec = eval_values(ast, zs)
            scal = np.array([eval_at(ast, z) for z in zs])
            assert np.allclose(vec, scal, rtol=1e-15, atol=0.0), text


    @pytest.mark.parametrize("minus, grouped", [
        ("(z-5)^(-1/3)", "(z-5)^(-(1/3))"), ("(z-5)^(1/-3)", "(z-5)^(-(1/3))"),
        ("(z-5)^(-2/3)", "(z-5)^(-(2/3))"), ("z^(-3/5)", "z^(-(3/5))"), ("(z-3)^(-1/1)", "(z-3)^(-1)"),
    ])
    def test_signed_literal_ratio_is_the_negated_ratio(self, minus, grouped):
        # -1/3 parses as (-1)/3: it is the literal ratio -(1/3), with its sign rules
        a, b = parse_expression(minus), parse_expression(grouped)
        for z in (-7, 1, 4, 9, 1e6):
            assert _outcome(eval_at, a, z) == _outcome(eval_at, b, z), z
        zs = np.array([1.0, 2.0, 4.0, 9.0, 1e6])
        got, want = _outcome(eval_values, a, zs), _outcome(eval_values, b, zs)
        assert got[0] == want[0] and (got[0] == "error" and got[1:] == want[1:]
                                      or np.array_equal(got[1], want[1], equal_nan=True))

    def test_signed_literal_ratio_keeps_odd_sign(self):
        assert eval_at(parse_expression("(z-5)^(-1/3)"), 1) == -(4.0 ** (-1 / 3))


def _expansion_value(found, s):
    (num, den), c = found
    return s ** (num / den) * sum(cj * s ** -j for j, cj in enumerate(c))


class TestExpansion:
    """expansion(ast, k): ast(s) = s^p (c0 + c1/s + ... + ck/s^k) + O(s^(p-k-1))."""

    @pytest.mark.parametrize("text, want", [
        ("z", ((1, 1), (1.0, 0.0, 0.0))),
        ("(z+1)^2-z^2", ((1, 1), (2.0, 1.0, 0.0))),   # a cancelled leading power: 2z + 1, never z^2
        ("0*z+z^2", ((2, 1), (1.0, 0.0, 0.0))),       # a literal 0 is an exact zero
        ("1/(z*(z+4))", ((-2, 1), (1.0, -4.0, 16.0))),
        ("(z-5)^(-1/3)", ((-1, 3), (1.0, 5 / 3, 50 / 9))),
        ("(z^2)^0", ((0, 1), (1.0, 0.0, 0.0))),
        ("(-z)^2", ((2, 1), (1.0, 0.0, 0.0))),
        ("z^(3/6)", ((1, 2), (1.0, 0.0, 0.0))),
        ("pow(z*(z+4), 2)", ((4, 1), (1.0, 8.0, 16.0))),  # pow with a literal exponent is ^
    ])
    def test_goldens(self, text, want):
        (p, c), (wp, wc) = expansion(parse_expression(text), 2), want
        assert p == wp and c == pytest.approx(wc, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("text", [
        "2^z", "z^z", "pow(z, z)", "spow(z, 1, 3)",     # an exponential, a call
        "z^(1/2)+z",                                     # summands a non-integer power apart
        "z-z+1", "z^60-z^60+z^2", "0", "0*z",            # every computed coefficient cancels; zero
        "(-z)^(1/3)", "-z", "1-z^2",                     # a negative leading coefficient
        "(1e200*z)^2",                                   # a coefficient past the float range
        "z/(z-z)",
    ])
    def test_outside_the_class(self, text):
        assert expansion(parse_expression(text), 4) is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 10), st.floats(-10, 10), st.floats(0.1, 10),
                              st.integers(-7, 7), st.integers(1, 3), st.sampled_from("*/")),
                    min_size=1, max_size=3))
    def test_matches_the_expression_at_large_s(self, factors):
        text = "1" + "".join(f"{op}({c0!r}+{c1!r}*z+{c2!r}*z^2)^({a}/{b})" for c0, c1, c2, a, b, op in factors)
        ast = parse_expression(text)
        found = expansion(ast, 8)
        assert found is not None and found[1][0] > 0
        for s in (1e4, 1e5):
            # the first term left out, c9/s^9, is below 1e-12 of c0 at these s
            assert _expansion_value(found, s) == pytest.approx(eval_at(ast, s), rel=1e-11)


EXPR_ALPHABET = "z0123456789+-*/^(), .spow"


@st.composite
def expression_trees(draw, depth=0):
    if depth > 4 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["var", "int", "float"]))
        if leaf == "var":
            return Var()
        if leaf == "int":
            return Literal(float(draw(st.integers(min_value=0, max_value=99))))
        return Literal(draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False)))
    kind = draw(st.sampled_from(["+", "-", "*", "/", "^", "neg", "spow", "pow"]))
    if kind == "neg":
        return Unary("-", draw(expression_trees(depth=depth + 1)))
    if kind == "spow":
        return Call(
            "spow",
            (
                draw(expression_trees(depth=depth + 1)),
                Literal(float(draw(st.sampled_from([1, 3, 5, 7])))),
                Literal(float(draw(st.sampled_from([1, 3, 5])))),
            ),
        )
    if kind == "pow":
        return Call(
            "pow",
            (
                draw(expression_trees(depth=depth + 1)),
                draw(expression_trees(depth=depth + 1)),
            ),
        )
    return Binary(
        kind,
        draw(expression_trees(depth=depth + 1)),
        draw(expression_trees(depth=depth + 1)),
    )


class TestProperties:
    @given(expression_trees())
    @settings(max_examples=250, deadline=None)
    def test_pretty_round_trip(self, ast):
        assert parse_expression(pretty(ast)) == ast

    @given(st.text(alphabet=EXPR_ALPHABET, max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_parse_total_on_token_soup(self, text):
        try:
            parse_expression(text)
        except (LexError, ParseError):
            pass

    def test_eval_matches_closed_forms_on_example_formulas(self):
        cases = [
            ("2^(z/3)", lambda z: 2.0 ** (z / 3.0)),
            ("(z*(z-1))^(1/3)", lambda z: (z * (z - 1.0)) ** (1.0 / 3.0)),
            ("z^(4/3)", lambda z: z ** (4.0 / 3.0)),
            ("(z*(z+1))^(5/3)", lambda z: (z * (z + 1.0)) ** (5.0 / 3.0)),
            ("4*(z^2-1)*z^(2/3)/3", lambda z: 4.0 * (z * z - 1.0) * z ** (2.0 / 3.0) / 3.0),
        ]
        for text, fn in cases:
            ast = parse_expression(text)
            for z in range(2, 101):
                want = fn(float(z))
                assert abs(eval_at(ast, z) - want) <= 1e-12 * max(1.0, abs(want)), (text, z)


# --- The recursive-descent parser the precedence loop replaced, kept as its oracle

OLD_MAX_DEPTH = 200


class _OldParser:
    """One method per precedence level, each checking the nesting depth: 5 levels per
    parenthesis, so 39 nested parentheses and 196 leading minus signs or carets."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != expr.EOF:
            self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.position, what)
        return self.advance()

    def check(self, depth):
        if depth > OLD_MAX_DEPTH:
            raise ParseError(self.peek().position, "shallower nesting")

    def expression(self, depth=0):
        self.check(depth)
        node = self.term(depth + 1)
        while self.peek().kind in (expr.PLUS, expr.MINUS):
            op = self.advance()
            rhs = self.term(depth + 1)
            node = Binary("+" if op.kind == expr.PLUS else "-", node, rhs)
        return node

    def term(self, depth):
        self.check(depth)
        node = self.power(depth + 1)
        while self.peek().kind in (expr.STAR, expr.SLASH):
            op = self.advance()
            rhs = self.power(depth + 1)
            node = Binary("*" if op.kind == expr.STAR else "/", node, rhs)
        return node

    def power(self, depth):
        self.check(depth)
        base = self.unary(depth + 1)
        if self.peek().kind == expr.CARET:
            self.advance()
            return Binary("^", base, self.power(depth + 1))
        return base

    def unary(self, depth):
        self.check(depth)
        if self.peek().kind == expr.MINUS:
            self.advance()
            return Unary("-", self.unary(depth + 1))
        return self.atom(depth + 1)

    def atom(self, depth):
        self.check(depth)
        tok = self.peek()
        if tok.kind == expr.NUMBER:
            self.advance()
            return Literal(float(tok.lexeme))
        if tok.kind == expr.IDENT:
            self.advance()
            if self.peek().kind == expr.LPAREN:
                if tok.lexeme not in expr.BUILTINS:
                    raise ParseError(tok.position, f"a known function, got {tok.lexeme!r}")
                self.advance()
                args = [self.expression(depth + 1)]
                while self.peek().kind == expr.COMMA:
                    self.advance()
                    args.append(self.expression(depth + 1))
                self.expect(expr.RPAREN, "')'")
                arity = expr.BUILTINS[tok.lexeme]
                if len(args) != arity:
                    raise ParseError(tok.position, f"{arity} arguments to {tok.lexeme}")
                return Call(tok.lexeme, tuple(args))
            if tok.lexeme == "z":
                return Var()
            raise ParseError(tok.position, f"'z', got {tok.lexeme!r}")
        if tok.kind == expr.LPAREN:
            self.advance()
            node = self.expression(depth + 1)
            self.expect(expr.RPAREN, "')'")
            return node
        raise ParseError(tok.position, "a number, 'z', '-' or '('")


def old_parse_expression(text):
    p = _OldParser(tokenize(text))
    node = p.expression()
    tok = p.peek()
    if tok.kind != expr.EOF:
        raise ParseError(tok.position, "end of input")
    return node


def _parse_outcome(parse, text):
    """('ast', tree) or ('error', type, offset, message): what parsing text gives."""
    try:
        return ("ast", parse(text))
    except (LexError, ParseError) as exc:
        return ("error", type(exc), exc.position, str(exc))


_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}  # unary minus is 4, an atom 5


def minimal_text(ast) -> str:
    """ast as text with only the parentheses the grammar needs."""
    def level(node):
        return _LEVEL[node.op] if isinstance(node, Binary) else 4 if isinstance(node, Unary) else 5

    def text(node, need):
        if isinstance(node, Binary):
            p = _LEVEL[node.op]
            left, right = (4, 3) if node.op == "^" else (p, p + 1)
            out = text(node.left, left) + node.op + text(node.right, right)
        elif isinstance(node, Unary):
            out = "-" + text(node.child, 4)
        elif isinstance(node, Call):
            out = f"{node.name}({','.join(text(a, 0) for a in node.args)})"
        else:
            out = pretty(node)
        return f"({out})" if level(node) < need else out
    return text(ast, 0)


@st.composite
def edited_expressions(draw):
    """A minimal-parenthesis expression, as it is, cut short, or with one character inserted."""
    text = minimal_text(draw(expression_trees()))
    cut = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["none", "truncate", "insert"]))
    if edit == "truncate":
        return text[:cut]
    if edit == "insert":
        return text[:cut] + draw(st.sampled_from(EXPR_ALPHABET)) + text[cut:]
    return text


class TestParserOracle:
    """The precedence loop parses as the recursive-descent parser did: the same tree,
    or the same error type, offset and message, within the old nesting limit."""

    @given(expression_trees())
    @settings(max_examples=250, deadline=None)
    def test_minimal_parentheses_round_trip(self, ast):
        assert parse_expression(minimal_text(ast)) == ast

    @given(edited_expressions())
    @settings(max_examples=600, deadline=None)
    def test_edited_expressions_match_old_parser(self, text):
        assert _parse_outcome(parse_expression, text) == _parse_outcome(old_parse_expression, text)

    # 38 characters nest at most 38 parentheses, each 5 old levels deep: below the old limit
    @given(st.text(alphabet=EXPR_ALPHABET, max_size=38))
    @settings(max_examples=600, deadline=None)
    def test_token_soup_matches_old_parser(self, text):
        assert _parse_outcome(parse_expression, text) == _parse_outcome(old_parse_expression, text)

    @pytest.mark.parametrize("old, new, shape", [
        (39, 66, lambda n: "(" * n + "z" + ")" * n),
        (39, 66, lambda n: "pow(" * n + "z" + ", 2)" * n),
        (196, 199, lambda n: "-" * n + "z"),
        (196, 199, lambda n: "z" + "^z" * n),
    ], ids=["parentheses", "calls", "minus_signs", "caret_chain"])
    def test_nesting_limits(self, old, new, shape):
        # every input the old parser accepted parses to the same tree; 3 levels per
        # parenthesis in place of 5 admit deeper inputs, up to a clean ParseError
        assert parse_expression(shape(old)) == old_parse_expression(shape(old))
        with pytest.raises(ParseError, match="shallower nesting"):
            old_parse_expression(shape(old + 1))
        parse_expression(shape(new))
        with pytest.raises(ParseError, match="shallower nesting"):
            parse_expression(shape(new + 1))


# --- The tree walker the compiled forms replaced, kept as their oracle ---------

def _old_int(node):
    if isinstance(node, Unary) and node.op == "-" and isinstance(node.child, Literal):
        a = _old_int(node.child)
        return None if a is None else -a
    if isinstance(node, Literal) and node.value.is_integer():
        return int(node.value)
    return None


def _old_literal_ratio(node):
    # a literal integer may carry its own minus sign on either side of a ratio:
    # -1/3 parses as (-1)/3, and z^(-1/3) is the odd/odd power of z^(-(1/3))
    neg = False
    if isinstance(node, Unary) and node.op == "-" and isinstance(node.child, Binary):
        neg = True
        node = node.child
    if _old_int(node) is not None:
        return (_old_int(node), 1)
    if (
        isinstance(node, Binary)
        and node.op == "/"
        and _old_int(node.left) is not None
        and _old_int(node.right) is not None
        and _old_int(node.right) != 0
    ):
        a, b = _old_int(node.left), _old_int(node.right)
        return (-a if neg else a, b)
    return None


def _old_any(x):
    return bool(np.any(x))


def _old_ratio_pow(base, a, b):
    if b < 0:
        a, b = -a, -b
    if b == 1:
        if a < 0 and _old_any(base == 0):
            raise DivisionByZero("zero base with negative integer exponent")
        return base ** a
    if a % 2 != 0 and b % 2 != 0:
        if a < 0 and _old_any(base == 0):
            raise DivisionByZero("zero base with negative exponent")
        return np.sign(base) * np.abs(base) ** (a / b)
    if _old_any(base < 0):
        raise DomainError(f"negative base with exponent {a}/{b}")
    if a < 0 and _old_any(base == 0):
        raise DivisionByZero("zero base with negative exponent")
    return base ** (a / b)


def _old_general_pow(base, expo):
    if _old_any(base < 0):
        raise DomainError("negative base with non-literal exponent")
    if _old_any(np.logical_and(np.asarray(base) == 0, np.asarray(expo) < 0)):
        raise DivisionByZero("zero base with negative exponent")
    return base ** expo


def _old_ratio_pow_signed(base, m, n):
    if n == 0:
        raise DivisionByZero("spow with zero denominator")
    if n < 0:
        m, n = -m, -n
    if abs(m) % 2 == 0 or n % 2 == 0:
        raise DomainError(f"spow exponent {m}/{n}: both integers must be odd")
    if m < 0 and _old_any(base == 0):
        raise DivisionByZero("zero base with negative exponent")
    return np.sign(base) * np.abs(base) ** (m / n)


def _old_eval(ast, z):
    if isinstance(ast, Literal):
        return ast.value
    if isinstance(ast, Var):
        return z
    if isinstance(ast, Unary):
        return -_old_eval(ast.child, z)
    if isinstance(ast, Binary):
        if ast.op == "^":
            base = _old_eval(ast.left, z)
            ratio = _old_literal_ratio(ast.right)
            if ratio is not None:
                return _old_ratio_pow(base, *ratio)
            return _old_general_pow(base, _old_eval(ast.right, z))
        left = _old_eval(ast.left, z)
        right = _old_eval(ast.right, z)
        if ast.op == "+":
            return left + right
        if ast.op == "-":
            return left - right
        if ast.op == "*":
            return left * right
        if ast.op == "/":
            if _old_any(right == 0):
                raise DivisionByZero("division by zero")
            return left / right
        raise TypeError(f"unknown operator {ast.op!r}")
    if isinstance(ast, Call):
        if ast.name == "spow":
            x = _old_eval(ast.args[0], z)
            m = _old_literal_ratio(ast.args[1])
            n = _old_literal_ratio(ast.args[2])
            if m is None or m[1] != 1 or n is None or n[1] != 1:
                raise DomainError("spow(x, m, n) requires integer literals m and n")
            return _old_ratio_pow_signed(x, m[0], n[0])
        if ast.name == "pow":
            base = _old_eval(ast.args[0], z)
            return _old_general_pow(base, _old_eval(ast.args[1], z))
        raise DomainError(f"unknown function {ast.name!r}")
    raise TypeError(f"not an Ast node: {ast!r}")


def old_eval_at(ast, zeta):
    with np.errstate(over="ignore"):
        return float(_old_eval(ast, float(zeta)))


def old_eval_values(ast, z):
    with np.errstate(over="ignore"):
        out = _old_eval(ast, np.asarray(z, dtype=float))
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(z)).copy() if np.ndim(out) == 0 else np.asarray(out, dtype=float)


def _numpy_literals(ast):
    """ast with every literal a numpy float64: the old walker then computes in numpy
    scalars, which give +-inf on overflow where Python floats raise OverflowError."""
    if isinstance(ast, Literal):
        return Literal(np.float64(ast.value))
    if isinstance(ast, Unary):
        return Unary(ast.op, _numpy_literals(ast.child))
    if isinstance(ast, Binary):
        return Binary(ast.op, _numpy_literals(ast.left), _numpy_literals(ast.right))
    if isinstance(ast, Call):
        return Call(ast.name, tuple(_numpy_literals(a) for a in ast.args))
    return ast


def _outcome(fn, *args):
    """('value', v) or ('error', type, message): what an evaluation gives."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc))


def _same(a, b) -> bool:
    """Equal outcomes: errors by type and message; values bit for bit, the sign of
    zero included (a NaN equals any NaN)."""
    if a[0] != b[0]:
        return False
    if a[0] == "error":
        return a[1:] == b[1:]
    if isinstance(a[1], float) and isinstance(b[1], float):
        x, y = a[1], b[1]
        return (x != x and y != y) or (x == y and math.copysign(1.0, x) == math.copysign(1.0, y))
    x, y = np.asarray(a[1], dtype=float), np.asarray(b[1], dtype=float)
    if x.shape != y.shape:
        return False
    nan = np.isnan(x)
    return bool(np.array_equal(nan, np.isnan(y)) and np.array_equal(x[~nan], y[~nan])
                and np.array_equal(np.signbit(x[~nan]), np.signbit(y[~nan])))


def _numpy_eval_at(ast, zeta):
    with np.errstate(all="ignore"):
        return float(_old_eval(_numpy_literals(ast), np.float64(zeta)))


def _numpy_eval_values(ast, z):
    with np.errstate(all="ignore"):
        return old_eval_values(_numpy_literals(ast), z)


def _expected(old_fn, ast, z):
    """The old walker's outcome, or, where it raised OverflowError (the one allowed
    difference), its outcome computed in numpy scalars: the overflow is +-inf."""
    want = _outcome(old_fn, ast, z)
    if want[0] == "error" and want[1] is OverflowError:
        numpy_fn = _numpy_eval_at if old_fn is old_eval_at else _numpy_eval_values
        want = _outcome(numpy_fn, ast, z)
        assert want[0] == "value" or want[1] is not OverflowError, want
        return want, True
    return want, False


PARITY_CORPUS = [
    # workloads and worked examples
    "(z*(z+2.2718913350574245))^(5/3)", "1.3701127264034286*(z^2-1)*z^(2/3)",
    "2^(z/3)", "1.7*2^z", "(z*(z-1))^(1/3)", "z^(4/3)", "(z*(z+1))^(5/3)",
    "4*(z^2-1)*z^(2/3)/3",
    # the validate parity corpus
    "z-10", "1-z", "1", "0", "(5 - z - ((z-5)^2)^(1/2))/2", "2^z", "pow(z-5, 2)", "1/(z-5)+10",
    # spow and pow
    "spow(z, 5, 3)", "spow(z-7, 1, 3)", "spow(z-7, -1, 3)", "spow(z-3, 3, -5)", "spow(z, 2, 3)",
    "spow(z, 1, 0)", "spow(z, z, 1)", "spow(1/(z-4), 1, 3)", "pow(z, 0.5)", "pow(z-5, -1.5)",
    "pow(2, z)", "pow(0.5, 0-z)", "pow(z, z/100)",
    # negative bases and poles
    "z^(1/3)", "(z-9)^(-1/3)", "(z-9)^(2/3)", "(z-9)^(-2/3)", "(z-4)^(-2)", "(z-4)^3", "-z^2",
    "(0-2)^z", "z^(0/3)", "z^-1", "(z-2)^(-3/5)", "z^(6/4)", "z^(3/-5)", "(z-5)^0",
    "(0-z)^(5/3)", "(z*1e300)^(5/3)", "1/(z*1e-300)^(1/3)",
    # overflows
    "1/2^z", "2^z/z^3", "z^200", "(z-3000)^201", "1/(z+1e-3)^(-150)", "z/10^400", "2^z - 2^z",
]
# Where the old walker raised OverflowError (a Python float power overflowing) and
# the compiled scalar form gives +-inf: the only allowed differences.
SCALAR_OVERFLOW_MOVES = {"2^z", "1.7*2^z", "pow(2, z)", "pow(0.5, 0-z)", "1/2^z", "2^z/z^3",
                         "z^200", "(z-3000)^201", "1/(z+1e-3)^(-150)", "z/10^400", "2^z - 2^z"}
# The array form moved only where a z-free power overflowed a Python float.
ARRAY_OVERFLOW_MOVES = {"z/10^400"}
PARITY_Z = np.arange(-20, 3001)


class TestCompiledParity:
    """The compiled forms give the old walker's values and errors."""

    @pytest.mark.parametrize("text", PARITY_CORPUS)
    def test_scalar_form_matches_walker(self, text):
        ast = parse_expression(text)
        moved = False
        for z in PARITY_Z.tolist():
            want, overflow = _expected(old_eval_at, ast, z)
            got = _outcome(eval_at, ast, z)
            assert _same(got, want), (text, z, got, want)
            moved = moved or overflow
        assert moved == (text in SCALAR_OVERFLOW_MOVES), text

    @pytest.mark.parametrize("text", PARITY_CORPUS)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_array_form_matches_walker(self, text):
        ast = parse_expression(text)
        moved = False
        for zs in (PARITY_Z, PARITY_Z[PARITY_Z > 10], PARITY_Z[:1], PARITY_Z[:0]):
            want, overflow = _expected(old_eval_values, ast, zs)
            got = _outcome(eval_values, ast, zs)
            assert _same(got, want), (text, zs[:1], got, want)
            moved = moved or overflow
        assert moved == (text in ARRAY_OVERFLOW_MOVES), text

    @given(expression_trees(), st.integers(-20, 3000))
    @settings(max_examples=300, deadline=None)
    # the walker computes in numpy scalars after an odd/odd power, which warn on inf - inf
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_trees_scalar(self, ast, z):
        want, _ = _expected(old_eval_at, ast, z)
        assert _same(_outcome(eval_at, ast, z), want)

    @given(expression_trees(), st.integers(-20, 2990))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_trees_array(self, ast, z):
        zs = np.arange(z, z + 10, dtype=float)
        want, _ = _expected(old_eval_values, ast, zs)
        assert _same(_outcome(eval_values, ast, zs), want)

    @pytest.mark.parametrize("text", ["2^z", "1/2^z", "2^z/z^3"])
    def test_overflow_scalar_equals_column(self, text):
        # an overflowing power is inf in both forms, never a bare OverflowError
        ast, zs = parse_expression(text), np.arange(1020, 1031)
        column = eval_values(ast, zs)
        for z, want in zip(zs.tolist(), column.tolist()):
            assert _same(("value", eval_at(ast, z)), ("value", want)), (text, z)
        assert np.isinf(column[-1]) or column[-1] == 0.0

    def test_overflow_sign_follows_odd_power(self):
        assert eval_at(parse_expression("(z-3000)^201"), 0) == -math.inf
        assert eval_at(parse_expression("(z-3000)^200"), 0) == math.inf
        assert eval_at(parse_expression("(0-z)^(5/3)"), 1e200) == -math.inf

    def test_cache_stays_out_of_equality_hash_and_pickle(self):
        import pickle

        from oscdelay import Sequence

        seq = Sequence.from_expression("(z*(z+1))^(5/3) + 1/(z-2)")
        fresh = parse_expression("(z*(z+1))^(5/3) + 1/(z-2)")
        value, column = seq(7), seq.eval_array(np.arange(3, 9))
        assert hasattr(seq.ast, "_forms") and not hasattr(fresh, "_forms")
        assert seq.ast == fresh and hash(seq.ast) == hash(fresh) and repr(seq.ast) == repr(fresh)
        copy = pickle.loads(pickle.dumps(seq))
        assert copy == seq and hash(copy) == hash(seq) and not hasattr(copy.ast, "_forms")
        assert copy(7) == value and np.array_equal(copy.eval_array(np.arange(3, 9)), column)


def _follows_scalar_calls(column, outcomes) -> bool:
    """column holds each scalar outcome's value bit for bit up to the first index
    whose scalar call raises DomainError, and NaN from there on."""
    failed = False
    for got, want in zip(column.tolist(), outcomes):
        if want[0] == "error":
            assert issubclass(want[1], DomainError), want
            failed = True
        if not _same(("value", got), ("value", math.nan) if failed else want):
            return False
    return len(column) == len(outcomes)


class TestColumnContract:
    """Sequence.eval_array holds the values the scalar call computes before its
    finiteness check: from one column when the column evaluates, else index by
    index up to the first index whose scalar call raises, and NaN from there on."""

    @given(expression_trees(), st.integers(-20, 2990), st.integers(0, 12))
    @example(parse_expression("1/(z-5)+10"), 0, 12)                  # a pole
    @example(parse_expression("pow(z-5, 2)"), 0, 12)                 # a negative base
    @example(parse_expression("2^z + 1/(z-1026)"), 1020, 10)         # inf, then a pole
    @settings(max_examples=300, deadline=None)
    def test_expression(self, ast, start, n):
        zs = np.arange(start, start + n)
        got = Sequence(ast=ast).eval_array(zs)
        column = _outcome(eval_values, ast, zs)
        # the column form and the scalar one may differ in the last bit; each is
        # pinned to the walker by TestCompiledParity
        if column[0] == "value":
            assert _same(("value", got), column)
        else:
            assert _follows_scalar_calls(got, [_outcome(eval_at, ast, z) for z in zs.tolist()])

    @given(st.integers(-5, 5), st.lists(st.floats(allow_nan=False), max_size=8),
           st.integers(-10, 15), st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_table_read_outside_its_range(self, start, values, first, n):
        seq = Sequence.from_table(start, values)
        zs = np.arange(first, first + n)
        # before its finiteness check the scalar call gives the entry, or the range error
        outcomes = [("value", seq.table[z - start]) if 0 <= z - start < len(values) else _outcome(seq, z)
                    for z in zs.tolist()]
        assert _follows_scalar_calls(seq.eval_array(zs), outcomes)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_table_scalar_call_refuses_a_non_finite_entry(self, entry):
        seq = Sequence.from_table(2, [1.0, entry, 3.0])
        with pytest.raises(DomainError, match=r"^table\[2\.\.4\] is not finite at index 3$"):
            seq(3)
        assert _same(("value", seq.eval_array(np.arange(2, 5)).tolist()), ("value", [1.0, entry, 3.0]))


# --- Sequence.column: one memoized window of an expression's column

# the benchmark family's r and q, a non-fused r, a non-literal power and a constant
MEMO_TEXTS = ["(z*(z+1.7))^(5/3)", "2.3*(z^2-1)*z^(2/3)", "2^z", "pow(z, 1.1275)", "1"]


@st.composite
def window_orders(draw):
    """A first window [lo, lo + n) from 600 on, then reads relative to the memo it leaves:
    a sub-window, an extension below, an extension above, or a disjoint window."""
    lo, n = draw(st.integers(600, 1200)), draw(st.integers(1, 400))
    windows, (start, end) = [(lo, n)], (lo, lo + n)
    for kind in draw(st.lists(st.sampled_from(["sub", "below", "above", "disjoint"]), max_size=6)):
        if kind == "sub":
            lo = draw(st.integers(start, end - 1))
            n = draw(st.integers(1, end - lo))
        elif kind == "below":
            lo = draw(st.integers(max(1, start - 300), start))
            n = draw(st.integers(max(1, start - lo), end - lo + 50))
        elif kind == "above":
            lo = draw(st.integers(start, end))
            n = draw(st.integers(end - lo + 1, end - lo + 300))
        else:
            n = draw(st.integers(1, 300))
            lo = draw(st.sampled_from([end + draw(st.integers(1, 50)), max(1, start - n - draw(st.integers(1, 50)))]))
            if lo + n >= start and lo <= end:  # no room below the memo: go above
                lo = end + 1
        windows.append((lo, n))
        start, end = (lo, lo + n) if kind == "disjoint" else (min(lo, start), max(lo + n, end))
    return windows


def _memo_window(seq):
    start, memo = seq._memo
    return start, start + memo.size


class TestColumnMemo:
    @given(text=st.sampled_from(MEMO_TEXTS), windows=window_orders())
    @settings(max_examples=150, deadline=None)
    def test_each_slice_is_a_fresh_column_bit_for_bit(self, text, windows):
        seq = Sequence.from_expression(text)
        start = end = None
        for lo, n in windows:
            got = seq.column(lo, n)
            want = eval_values(seq.ast, np.arange(lo, lo + n, dtype=float))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (lo, n)
            # the memo grows over a window that overlaps or touches it, else moves to it
            touches = start is not None and lo <= end and lo + n >= start
            start, end = (min(lo, start), max(lo + n, end)) if touches else (lo, lo + n)
            assert _memo_window(seq) == (start, end)
            got[:] = -1.0  # a slice is the caller's own
            assert seq.column(lo, n).tobytes() == want.tobytes()

    def test_a_pole_reads_index_by_index_and_leaves_no_memo(self):
        seq = Sequence.from_expression("1/(z-50)")
        got = seq.column(1, 100)
        prefix = [eval_at(seq.ast, z) for z in range(1, 50)]
        assert got[:49].tolist() == prefix and np.isnan(got[49:]).all()
        assert got.tobytes() == seq.eval_array(np.arange(1, 101)).tobytes()
        assert not hasattr(seq, "_memo")
        # a memo already there stays as it was
        seq.column(1, 40)
        assert seq.column(30, 30).tobytes() == seq.eval_array(np.arange(30, 60)).tobytes()
        assert _memo_window(seq) == (1, 41)

    def test_theta_keeps_no_memo_longer_than_the_windows_asked_for(self):
        from oscdelay.equation import DelayForm, HalfLinearEquation, _table, theta, validate
        from oscdelay.power import RationalExponent

        eq = HalfLinearEquation(Sequence.from_expression("2^z"), Sequence.from_expression("1"),
                                RationalExponent(1, 1), 1, DelayForm.MINUS_SIGMA, 1)
        validate(eq, 101)
        theta(eq, 1)
        assert _table(eq).r is eq.r and _memo_window(eq.r) == (1, 102)
        nodes, stack = set(), [eq.r.ast]
        while stack:
            node = stack.pop()
            nodes.add(id(node))
            stack += [v for v in vars(node).values() if isinstance(v, expr.Ast)]
        memos = [len(seq._memo[1]) for seq in gc.get_objects()
                 if isinstance(seq, Sequence) and id(seq.ast) in nodes and hasattr(seq, "_memo")]
        assert memos == [101]

    def test_a_pickle_carries_no_memo(self):
        seq = Sequence.from_expression("(z*(z+1.7))^(5/3)")
        table = Sequence.from_table(3, [1.0, 2.0, 4.0])
        seq.column(1, 20000), table.eval_array(np.arange(3, 6))
        assert hasattr(seq, "_memo") and hasattr(table, "_array")
        for original in (seq, table):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and not {"_memo", "_array"} & set(vars(copy))
        assert len(pickle.dumps(seq)) < 1000
