"""Real-valued sequences over integer indices.

A Sequence is backed by a parsed expression in z or by a table of values.
Evaluation is pure and deterministic; repeated evaluation at the same index
returns bit-identical values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expr
from .errors import DomainError


@dataclass(frozen=True)
class Sequence:
    kind: str  # "expr" | "table"
    domain_start: Optional[int] = None  # a table's first index; an expression has none
    ast: Optional[expr.Ast] = None
    name: Optional[str] = None
    table: tuple = field(default_factory=tuple)

    @classmethod
    def from_expression(cls, text_or_ast) -> "Sequence":
        ast = expr.parse_expression(text_or_ast) if isinstance(text_or_ast, str) else text_or_ast
        name = text_or_ast if isinstance(text_or_ast, str) else expr.pretty(ast)
        return cls(kind="expr", ast=ast, name=name)

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

    def __call__(self, zeta: int) -> float:
        if self.kind == "expr":
            value = expr.eval_at(self.ast, zeta)
        elif zeta < self.domain_start:
            raise DomainError(
                f"index {zeta} below domain start {self.domain_start} of {self.describe()}")
        elif zeta >= self.domain_start + len(self.table):
            raise DomainError(f"index {zeta} outside table {self.describe()}")
        else:
            value = self.table[int(zeta) - self.domain_start]
        if not math.isfinite(value):
            raise DomainError(f"{self.describe()} is not finite at index {zeta}")
        return value

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """The values the scalar call computes at the indices z, before its finiteness check.

        An expression is read as one column when that succeeds; otherwise index
        by index up to the first index whose scalar call raises DomainError, and
        NaN from there on.  A table is read as one column, NaN from the first
        index it does not cover.
        """
        z = np.asarray(z, dtype=float)
        if self.kind == "expr":
            try:
                return expr.eval_values(self.ast, z)
            except DomainError:
                pass
        out = np.full(z.shape, np.nan)
        if self.kind == "table":
            outside = (z < self.domain_start) | (z >= self.domain_start + len(self.table))
            n = int(np.argmax(outside)) if outside.any() else z.size
            out[:n] = np.asarray(self.table, dtype=float)[z[:n].astype(int) - self.domain_start]
            return out
        for i, zeta in enumerate(z.astype(int).tolist()):
            try:
                out[i] = expr.eval_at(self.ast, zeta)
            except DomainError:
                break
        return out
