"""Real-valued sequences over integer indices.

A Sequence is backed by a parsed expression in z, a named closed-form
callable, or a table of values.  Evaluation is pure and deterministic;
repeated evaluation at the same index returns bit-identical values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr
from .errors import DomainError


@dataclass(frozen=True)
class Sequence:
    kind: str  # "expr" | "closed" | "table"
    domain_start: Optional[int] = None  # None means all integers
    ast: Optional[expr.Ast] = None
    name: Optional[str] = None
    fn: Optional[Callable] = None
    table: tuple = field(default_factory=tuple)

    @classmethod
    def from_expression(cls, text_or_ast) -> "Sequence":
        ast = expr.parse_expression(text_or_ast) if isinstance(text_or_ast, str) else text_or_ast
        name = text_or_ast if isinstance(text_or_ast, str) else expr.pretty(ast)
        return cls(kind="expr", ast=ast, name=name)

    @classmethod
    def closed_form(cls, name: str, fn: Callable, domain_start: Optional[int] = None) -> "Sequence":
        return cls(kind="closed", domain_start=domain_start, name=name, fn=fn)

    @classmethod
    def from_table(cls, start: int, values) -> "Sequence":
        return cls(
            kind="table",
            domain_start=start,
            table=tuple(float(v) for v in values),
        )

    def describe(self) -> str:
        if self.kind == "table":
            return f"table[{self.domain_start}..{self.domain_start + len(self.table) - 1}]"
        return self.name or self.kind

    def _check_domain(self, zeta: int):
        if self.domain_start is not None and zeta < self.domain_start:
            raise DomainError(
                f"index {zeta} below domain start {self.domain_start} of {self.describe()}"
            )

    def __call__(self, zeta: int) -> float:
        self._check_domain(zeta)
        if self.kind == "table":
            i = int(zeta) - self.domain_start
            if i >= len(self.table):
                raise DomainError(f"index {zeta} outside table {self.describe()}")
            return self.table[i]
        try:
            value = expr.eval_at(self.ast, zeta) if self.kind == "expr" else float(self.fn(zeta))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"{self.describe()} is not finite at index {zeta}")
        return value

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """The values the scalar call computes at the indices z, before its finiteness check.

        A table or an expression is read as one column when that succeeds.
        Otherwise, and always for a closed form, the values are computed index by
        index up to the first index whose scalar call raises DomainError, and are
        NaN from there on.
        """
        z = np.asarray(z, dtype=float)
        n = z.size  # the indices before the first one outside the domain
        if self.domain_start is not None:
            end = self.domain_start + len(self.table) if self.kind == "table" else math.inf
            outside = (z < self.domain_start) | (z >= end)
            n = int(np.argmax(outside)) if outside.any() else n
        if self.kind == "expr" and n == z.size:
            try:
                return expr.eval_values(self.ast, z)
            except DomainError:
                pass
        out = np.full(z.shape, np.nan)
        if self.kind == "table":
            out[:n] = np.asarray(self.table, dtype=float)[z[:n].astype(int) - self.domain_start]
            return out
        for i, zeta in enumerate(z[:n].astype(int).tolist()):
            try:
                out[i] = expr.eval_at(self.ast, zeta) if self.kind == "expr" else float(self.fn(zeta))
            except OverflowError:
                out[i] = math.inf
            except DomainError:
                break
        return out
