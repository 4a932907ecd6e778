"""Real-valued sequences over integer indices.

A Sequence is backed by a parsed expression in z or by a table of values.
Evaluation is pure and deterministic; repeated evaluation at the same index
returns bit-identical values.  A table keeps its float64 array, and an
expression one window of its column (`column`), both outside equality,
hashing and pickles.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expr
from .errors import DomainError


@dataclass(frozen=True)
class Sequence:
    domain_start: Optional[int] = None  # a table's first index; an expression has none
    ast: Optional[expr.Ast] = None  # an expression's; a table has none
    name: Optional[str] = None
    table: tuple = field(default_factory=tuple)

    @classmethod
    def from_expression(cls, text: str) -> "Sequence":
        return cls(ast=expr.parse_expression(text), name=text)

    @classmethod
    def from_table(cls, start: int, values) -> "Sequence":
        return cls(domain_start=start, table=tuple(map(float, values)))

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("_array", "_memo")}

    @functools.cached_property
    def _array(self) -> np.ndarray:
        return np.array(self.table, dtype=float)

    def describe(self) -> str:
        if self.ast is None:
            return f"table[{self.domain_start}..{self.domain_start + len(self.table) - 1}]"
        return self.name or "expr"

    def __call__(self, zeta: int) -> float:
        if self.ast is not None:
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
        if self.ast is not None:
            try:
                return expr.eval_values(self.ast, z)
            except DomainError:
                pass
        out = np.full(z.shape, np.nan)
        if self.ast is None:
            outside = (z < self.domain_start) | (z >= self.domain_start + len(self.table))
            n = int(np.argmax(outside)) if outside.any() else z.size
            out[:n] = self._array[z[:n].astype(int) - self.domain_start]
            return out
        for i, zeta in enumerate(z.astype(int).tolist()):
            try:
                out[i] = expr.eval_at(self.ast, zeta)
            except DomainError:
                break
        return out

    def column(self, lo: int, n: int) -> np.ndarray:
        """eval_array(np.arange(lo, lo + n)), an expression's served from one contiguous
        window of its column: a window that overlaps or touches it grows it by the
        indices it lacks, a disjoint one replaces it.  The array form is elementwise, so
        each slice is the window's own column bit for bit.  A window whose missing part
        raises DomainError is eval_array's, index by index, and leaves the memo as it was."""
        if self.ast is None or n <= 0:
            return self.eval_array(np.arange(lo, lo + n))
        start, memo = getattr(self, "_memo", (lo, np.empty(0)))
        if lo > start + memo.size or lo + n < start:
            start, memo = lo, np.empty(0)
        first, end = min(lo, start), start + memo.size
        try:
            below, above = (expr.eval_values(self.ast, np.arange(a, b, dtype=float)) if a < b else memo[:0]
                            for a, b in ((first, start), (end, max(lo + n, end))))
        except DomainError:
            return self.eval_array(np.arange(lo, lo + n))
        if below.size or above.size:
            memo = np.concatenate([below, memo, above])
            object.__setattr__(self, "_memo", (first, memo))
        return memo[lo - first:lo - first + n].copy()
