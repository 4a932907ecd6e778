"""Stdlib-only reference values the benchmark checks program outputs against.

Nothing here imports oscdelay: each value is computed from the workload's
formulas with `math`, so a defect in the program's tail sums, power
semantics or summation cannot also hide in its own check.
"""
from __future__ import annotations

import math

# Tail sums are split at index N: fsum of the terms below it plus an
# Euler-Maclaurin remainder from N on, whose truncation error is O(N^-9).
_EM_SPLIT = 10_000


def poly_theta(c: float, zmax: int) -> dict:
    """theta(z) = sum_{s>=z} 1/(s(s+c)) for z = 1 .. zmax + 1.

    1/(s(s+c)) = r(s)^(-1/alpha) for r = (z*(z+c))^(5/3), alpha = 5/3.
    """
    n = _EM_SPLIT

    def deriv(k: int, s: float) -> float:
        # k-th derivative of f(s) = (1/s - 1/(s+c)) / c
        return (-1) ** k * math.factorial(k) * (s ** -(k + 1) - (s + c) ** -(k + 1)) / c

    tail = (
        math.log1p(c / n) / c
        + deriv(0, n) / 2
        - deriv(1, n) / 12
        + deriv(3, n) / 720
        - deriv(5, n) / 30240
    )
    top = zmax + 1
    base = math.fsum([tail] + [1.0 / (s * (s + c)) for s in range(top, n)])
    parts = [base]
    out = {top: base}
    for z in range(zmax, 0, -1):
        parts.append(1.0 / (z * (z + c)))
        out[z] = math.fsum(parts)
    return out


def poly_r(c: float, z: float) -> float:
    return (z * (z + c)) ** (5.0 / 3.0)


def poly_q(k: float, z: float) -> float:
    return k * (z * z - 1.0) * z ** (2.0 / 3.0)


def _spow(t: float, e: float) -> float:
    return math.copysign(abs(t) ** e, t)


def relative_residual(c: float, k: float, start: int, xs, frm: int, to: int, residual: float) -> float:
    """`residual` divided by the largest term of the residual sum on [frm, to].

    The recurrence's three terms are r(z+1)(Dx(z+1))^a, r(z)(Dx(z))^a and
    q(z)x^a(z-1) (sigma = 2, delayed index z - sigma + 1); for an exact
    solution they cancel, so their largest magnitude is the scale of the
    rounding error.
    """
    a = 5.0 / 3.0

    def x(z: int) -> float:
        return xs[z - start]

    scale = max(
        abs(poly_r(c, z + 1) * _spow(x(z + 2) - x(z + 1), a))
        + abs(poly_r(c, z) * _spow(x(z + 1) - x(z), a))
        + abs(poly_q(k, z) * _spow(x(z - 1), a))
        for z in range(frm, to + 1)
    )
    return residual / scale


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)
