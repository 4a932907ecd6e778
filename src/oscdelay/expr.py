"""A small arithmetic expression language over the index variable z.

Coefficient sequences are written as expressions in one variable z, e.g.
"(z*(z+1))^(5/3)" or "4*(z^2-1)*z^(2/3)/3".  Precedence, loosest first:

    + -  <  * /  <  ^ (right-associative)  <  unary minus

Note that unary minus binds tighter than ^, so "-z^2" parses as (-z)^2.
Exponentiation requires a positive base unless the exponent is a literal
integer or a literal ratio of odd integers (either integer may carry a minus
sign: -1/3 is the ratio -(1/3)); odd/odd ratios use sign-preserving
semantics (see :func:`oscdelay.power.signed_pow`).  The builtin
spow(x, m, n) applies the sign-preserving power unconditionally;
pow(x, y) is the general positive-base power.

Nesting past MAX_DEPTH (200) parser levels is a ParseError, not a RecursionError:
at most 66 nested parentheses or calls, 199 leading minus signs or carets in a chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZero, DomainError, LexError, ParseError

NUMBER = "number"
IDENT = "ident"
PLUS = "plus"
MINUS = "minus"
STAR = "star"
SLASH = "slash"
CARET = "caret"
LPAREN = "lparen"
RPAREN = "rparen"
COMMA = "comma"
EOF = "eof"

_SINGLE = {
    "+": PLUS,
    "-": MINUS,
    "*": STAR,
    "/": SLASH,
    "^": CARET,
    "(": LPAREN,
    ")": RPAREN,
    ",": COMMA,
}

# binary operator token -> (operator, precedence); ^ alone is right-associative
_BINARY = {PLUS: ("+", 1), MINUS: ("-", 1), STAR: ("*", 2), SLASH: ("/", 2), CARET: ("^", 3)}

BUILTINS = {"spow": 3, "pow": 2}

MAX_DEPTH = 200


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    position: int


class Ast:
    """Base class for expression nodes; instances are immutable.  A root node caches
    its compiled forms (_compile) at first use, outside equality, hashing and pickles."""

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_forms"}


@dataclass(frozen=True)
class Literal(Ast):
    value: float


@dataclass(frozen=True)
class Var(Ast):
    """The index variable z."""


@dataclass(frozen=True)
class Unary(Ast):
    op: str
    child: Ast


@dataclass(frozen=True)
class Binary(Ast):
    op: str
    left: Ast
    right: Ast


@dataclass(frozen=True)
class Call(Ast):
    name: str
    args: tuple


def tokenize(text: str) -> list[Token]:
    """Tokenize an expression string; raises LexError on unknown characters."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SINGLE:
            tokens.append(Token(_SINGLE[c], c, i))
            i += 1
            continue
        if c.isdecimal():  # the digits float() reads: "²" is a digit, not a decimal
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdecimal():
                    raise LexError(i, "digit expected after decimal point")
                while i < n and text[i].isdecimal():
                    i += 1
            # optional exponent part; 'e' not followed by digits stays an ident
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdecimal():
                    while j < n and text[j].isdecimal():
                        j += 1
                    i = j
            tokens.append(Token(NUMBER, text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalpha() or text[i].isdecimal() or text[i] == "_"):
                i += 1
            tokens.append(Token(IDENT, text[start:i], start))
            continue
        raise LexError(i, f"unrecognized character {c!r}")
    tokens.append(Token(EOF, "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> None:
        if self.peek().kind != EOF:
            self.pos += 1

    def expect(self, kind: str, what: str) -> None:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.position, what)
        self.advance()

    def expression(self, depth: int = 0, level: int = 1) -> Ast:
        """Binary operators of precedence at least `level`, by precedence climbing."""
        if depth > MAX_DEPTH:
            raise ParseError(self.peek().position, "shallower nesting")
        node = self.unary(depth + 1)
        while (op := _BINARY.get(self.peek().kind)) and op[1] >= level:
            self.advance()
            rhs = self.expression(depth + 1, op[1] if op[0] == "^" else op[1] + 1)
            node = Binary(op[0], node, rhs)
        return node

    def unary(self, depth: int) -> Ast:
        if depth > MAX_DEPTH:
            raise ParseError(self.peek().position, "shallower nesting")
        if self.peek().kind == MINUS:
            self.advance()
            return Unary("-", self.unary(depth + 1))
        return self.atom(depth + 1)

    def atom(self, depth: int) -> Ast:
        tok = self.peek()
        if tok.kind == NUMBER:
            self.advance()
            return Literal(float(tok.lexeme))
        if tok.kind == IDENT:
            self.advance()
            if self.peek().kind == LPAREN:
                if tok.lexeme not in BUILTINS:
                    raise ParseError(tok.position, f"a known function, got {tok.lexeme!r}")
                self.advance()
                args = [self.expression(depth + 1)]
                while self.peek().kind == COMMA:
                    self.advance()
                    args.append(self.expression(depth + 1))
                self.expect(RPAREN, "')'")
                arity = BUILTINS[tok.lexeme]
                if len(args) != arity:
                    raise ParseError(tok.position, f"{arity} arguments to {tok.lexeme}")
                return Call(tok.lexeme, tuple(args))
            if tok.lexeme == "z":
                return Var()
            raise ParseError(tok.position, f"'z', got {tok.lexeme!r}")
        if tok.kind == LPAREN:
            self.advance()
            node = self.expression(depth + 1)
            self.expect(RPAREN, "')'")
            return node
        raise ParseError(tok.position, "a number, 'z', '-' or '('")


def parse_expression(text: str) -> Ast:
    p = _Parser(tokenize(text))
    node = p.expression()
    p.expect(EOF, "end of input")
    return node


def _literal_int(node: Ast):
    """The integer of a literal integer, negated or not, else None."""
    neg = isinstance(node, Unary) and node.op == "-"
    node = node.child if neg else node
    if isinstance(node, Literal) and node.value.is_integer():
        return -int(node.value) if neg else int(node.value)
    return None


def _literal_ratio(node: Ast):
    """Return (a, b) for a literal integer or literal integer ratio exponent, else None.
    Either integer may carry a minus sign: -1/3 parses as (-1)/3."""
    neg = isinstance(node, Unary) and node.op == "-" and isinstance(node.child, Binary)
    if neg:
        node = node.child
    a = _literal_int(node)
    if a is not None:
        return (a, 1)
    if isinstance(node, Binary) and node.op == "/":
        a, b = _literal_int(node.left), _literal_int(node.right)
        if a is not None and b:
            return (-a if neg else a, b)
    return None


def _pair(num: int, den: int) -> tuple:
    """num/den in lowest terms, den > 0 given."""
    g = math.gcd(num, den)
    return num // g, den // g


_ZERO = (0, 1), []  # an exact zero: no coefficients


def _checked(p: tuple, c: list):
    """(p, c) when c[0] is nonzero and every coefficient finite, else None."""
    return (p, c) if c and c[0] and all(map(math.isfinite, c)) else None


def _series_add(a: tuple, b: tuple):
    (pa, ca), (pb, cb) = a, b
    if not (ca and cb):
        return a if ca else b
    gap = _pair(pa[0] * pb[1] - pb[0] * pa[1], pa[1] * pb[1])
    if gap[1] != 1:
        return None
    d = gap[0]
    if d < 0:
        (pa, ca), cb, d = b, ca, -d
    c = [ca[j] + (cb[j - d] if j >= d else 0.0) for j in range(min(len(ca), d + len(cb)))]
    lead = next((j for j, x in enumerate(c) if x), len(c))  # cancelled powers drop out
    return _checked(_pair(pa[0] - lead * pa[1], pa[1]), c[lead:])


def _series_mul(a: tuple, b: tuple):
    (pa, ca), (pb, cb) = a, b
    if not (ca and cb):
        return _ZERO
    c = [sum(ca[i] * cb[j - i] for i in range(j + 1)) for j in range(min(len(ca), len(cb)))]
    return _checked(_pair(pa[0] * pb[1] + pb[0] * pa[1], pa[1] * pb[1]), c)


def _series_pow(a: tuple, num: int, den: int):
    """a^(num/den); a fractional power needs a positive leading coefficient."""
    (p, c), (num, den) = a, _pair(num, den) if den > 0 else _pair(-num, -den)
    if not c:
        return _ZERO if num > 0 else None
    if den != 1 and c[0] < 0:
        return None
    e = num / den
    u, w = [x / c[0] for x in c], [1.0]
    for m in range(1, len(c)):  # J. C. P. Miller's recurrence for (1 + u)^e
        w.append(sum(((e + 1.0) * k - m) * u[k] * w[m - k] for k in range(1, m + 1)) / m)
    lead = _fpow(c[0], num if den == 1 else e)
    return _checked(_pair(p[0] * num, p[1] * den), [lead * x for x in w])


def _series(node: Ast, n: int):
    """(p, c) with node = s^p (c[0] + c[1]/s + ...) as s -> inf, up to the len(c) <= n
    coefficients known, or _ZERO; None outside expansion's class."""
    if isinstance(node, Literal):
        return _checked((0, 1), [node.value] + [0.0] * (n - 1)) if node.value else _ZERO
    if isinstance(node, Var):
        return (1, 1), [1.0] + [0.0] * (n - 1)
    if isinstance(node, Unary):
        a = _series(node.child, n)
        return a and (a[0], [-x for x in a[1]])
    if isinstance(node, Call) and node.name == "pow":  # its positive-base power expands as ^
        node = Binary("^", *node.args)
    if not isinstance(node, Binary):
        return None
    if node.op == "^":
        ratio = _literal_ratio(node.right)
        a = _series(node.left, n) if ratio else None
        return a and _series_pow(a, *ratio)
    a, b = _series(node.left, n), _series(node.right, n)
    if a is None or b is None:
        return None
    if node.op == "*":
        return _series_mul(a, b)
    if node.op == "/":
        b = _series_pow(b, -1, 1)
        return b and _series_mul(a, b)
    return _series_add(a, b if node.op == "+" else (b[0], [-x for x in b[1]]))


def expansion(ast: Ast, k: int):
    """The asymptotic expansion of ast in 1/s: (p, (c0, ..., ck)) with
    ast(s) = s^p (c0 + c1/s + ... + ck/s^k) + O(s^(p-k-1)) as s -> inf, p an exact
    integer pair (num, den) and c0 > 0.

    ast is built from z, literals, + - * /, unary minus and ^ or pow with a literal
    integer or ratio exponent (_literal_ratio).  None for any other node (an
    exponential, spow), for summands whose exponents differ by a non-integer, a zero
    r or a cancellation of every computed coefficient, a fractional power of a
    negative leading coefficient, a coefficient past the float range, or c0 < 0.  A
    literal 0 is an exact zero, so z^2 + 0*z is z^2.
    Coefficients are computed to order 2k + 1, so cancelled leading powers leave k + 1.
    """
    found = _series(ast, 2 * (k + 1))
    if found is None or len(found[1]) <= k or found[1][0] < 0:
        return None
    return found[0], tuple(found[1][:k + 1])


def _fpow(x, e):
    """x ** e; an overflow gives inf (-inf for an odd integer power of a negative base)."""
    try:
        return x ** e
    except OverflowError:  # only a Python float raises: numpy gives inf under errstate
        return -math.inf if x < 0 and e % 2 == 1 else math.inf


def _ratio_form(a: int, b: int, test):
    """base -> base**(a/b) for a literal integer ratio exponent, with sign handling."""
    if b < 0:
        a, b = -a, -b
    if b != 1 and a % 2 != 0 and b % 2 != 0:
        return _odd_form(a, b, test)
    # an integer power takes any base; an even ratio needs a non-negative one
    e, even = (a, False) if b == 1 else (a / b, True)
    negative = f"negative base with exponent {a}/{b}"
    zero = "zero base with negative " + ("integer exponent" if b == 1 else "exponent")

    def power(x):
        if even and test(x < 0):
            raise DomainError(negative)
        if a < 0 and test(x == 0):
            raise DivisionByZero(zero)
        return _fpow(x, e)
    return power


def _odd_form(a: int, b: int, test):
    """t -> sign(t) |t|^(a/b) for odd a and b > 0; the odd/odd powers of +-0 are +0.0."""
    e, scalar = a / b, test is bool

    def odd(x):
        if a < 0 and test(x == 0):
            raise DivisionByZero("zero base with negative exponent")
        if scalar:
            return math.copysign(_fpow(abs(x), e), x) if x != 0 else 0.0
        return np.sign(x) * _fpow(np.abs(x), e)
    return odd


def _nonliteral_pow(base, expo, test):
    """base**expo for a non-literal exponent: positive base required."""
    if test(base < 0):
        raise DomainError("negative base with non-literal exponent")
    if test((base == 0) & (expo < 0)):
        raise DivisionByZero("zero base with negative exponent")
    return _fpow(base, expo)


def _spow_form(x, m, n, test):
    """The form of spow(x, m, n), the sign-preserving power: x is the form of its
    argument, m and n the literal ratios of the other two."""
    if m is None or m[1] != 1 or n is None or n[1] != 1:
        error = DomainError("spow(x, m, n) requires integer literals m and n")
    elif n[0] == 0:
        error = DivisionByZero("spow with zero denominator")
    else:
        m, n = (m[0], n[0]) if n[0] > 0 else (-m[0], -n[0])
        if abs(m) % 2 != 0 and n % 2 != 0:
            odd = _odd_form(m, n, test)
            return lambda z: odd(x(z))
        error = DomainError(f"spow exponent {m}/{n}: both integers must be odd")

    def fail(z):
        x(z)  # the argument is evaluated, and may raise, first
        raise type(error)(*error.args)
    return fail


def _build(node: Ast, test):
    """One compiled form of node: test is bool for Python floats, np.any for arrays."""
    if isinstance(node, Literal):
        v = node.value
        return lambda z: v
    if isinstance(node, Var):
        return lambda z: z
    if isinstance(node, Unary):
        f = _build(node.child, test)
        return lambda z: -f(z)
    if isinstance(node, Binary):
        f = _build(node.left, test)
        ratio = _literal_ratio(node.right) if node.op == "^" else None
        if ratio is not None:
            power = _ratio_form(*ratio, test)
            return lambda z: power(f(z))
        g = _build(node.right, test)
        if node.op == "^":
            return lambda z: _nonliteral_pow(f(z), g(z), test)
        if node.op == "+":
            return lambda z: f(z) + g(z)
        if node.op == "-":
            return lambda z: f(z) - g(z)
        if node.op == "*":
            return lambda z: f(z) * g(z)
        if node.op == "/":
            def divisor(y):
                if test(y == 0):
                    raise DivisionByZero("division by zero")
                return y
            return lambda z: f(z) / divisor(g(z))
        raise TypeError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        if node.name == "spow":
            x, (m, n) = _build(node.args[0], test), map(_literal_ratio, node.args[1:])
            return _spow_form(x, m, n, test)
        if node.name == "pow":
            f, g = _build(node.args[0], test), _build(node.args[1], test)
            return lambda z: _nonliteral_pow(f(z), g(z), test)
        raise DomainError(f"unknown function {node.name!r}")
    raise TypeError(f"not an Ast node: {node!r}")


def _compile(ast: Ast) -> tuple:
    """(scalar form, array form) of ast: closures of z that resolve every literal
    exponent, sign rule and check once per node, cached on the root at first use.
    The scalar form runs on Python floats, the array form on numpy arrays.  Each
    check raises at evaluation, in the order the tree gives; a malformed tree
    raises here."""
    try:
        return ast._forms
    except AttributeError:
        object.__setattr__(ast, "_forms", (_build(ast, bool), _build(ast, np.any)))
        return ast._forms


# an overflowing power is +-inf and propagates in both forms; callers judge inf
def eval_at(ast: Ast, zeta) -> float:
    """Evaluate with z bound to the integer index zeta."""
    return float(_compile(ast)[0](float(zeta)))


def eval_values(ast: Ast, z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over an array of index values."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN follow the column contract
        out = _compile(ast)[1](np.asarray(z, dtype=float))
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(z)).copy() if np.ndim(out) == 0 else np.asarray(out, dtype=float)
