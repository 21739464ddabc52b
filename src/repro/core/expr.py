"""Aggregate-function language: sums of products of functions (paper §1.1).

LMFAO aggregates are ``alpha = sum_j prod_k f_jk`` where each ``f`` is a
function of zero or more attributes. The factors needed by the paper's
applications are:

- ``const(c)``          nullary constant (``f() = c``)
- ``ident(x)``          identity (``SUM(x)``)
- ``power(x, k)``       monomial ``x**k`` (covar / polynomial regression)
- ``delta(x, op, t)``   Kronecker delta ``1_{x op t}`` (decision-tree splits)
- ``fn(name, *attrs)``  named n-ary function from ``FN_REGISTRY`` (UDAFs such
  as ``g(price)`` in the paper's running example)

Every factor renders two ways: ``to_sql()`` (portable SQL that runs in both
Spark SQL and DuckDB) and ``to_numpy()`` (vectorized callable over a pandas
DataFrame). The engine, the per-query SQL baselines and the DuckDB oracle all
evaluate the same ``to_sql()`` text; ``to_numpy()`` is the tests' reference
renderer and evaluates decision-tree predicates in tree prediction. Numeric
literals are written in exponent form (``1e0``): Spark SQL and DuckDB both
read that as DOUBLE, while ``1.0`` is a DECIMAL in Spark SQL and would turn
every delta sum into decimal arithmetic.

NULLs: a product is 0 on a row where any attribute it reads is NULL (a delta
on NULL is already 0). So every product is total, and ``SUM(p1 + p2)`` equals
``SUM(p1) + SUM(p2)`` over any rows — the distributivity the engine's
aggregate pushdown relies on. Plain SQL would drop the whole row from
``SUM(p1 + p2)`` when one product is NULL, which no factorized plan can
reproduce.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd

_OPS = {"<", "<=", ">", ">=", "==", "!="}
_SQL_OPS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "=", "!=": "<>"}
_NP_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _double(c: float) -> str:
    """SQL DOUBLE literal for ``c``: exponent form, e.g. ``-2.5e0``."""
    r = repr(float(c))
    return r if "e" in r else r + "e0"


@dataclass(frozen=True)
class _Fn:
    """A named scalar function with one renderer per evaluation substrate."""

    arity: int
    sql: str  # format template, {0}, {1}, ... are the SQL column names
    numpy: Callable[..., np.ndarray]


#: Named UDAF building blocks. Each is plain SQL (no Python UDFs), so the
#: engine stays whole-stage-codegen'd and DuckDB evaluates the same text.
FN_REGISTRY: dict[str, _Fn] = {
    # g(price)-style smooth unary transforms. log1p is taken of |x| so the
    # function is total — DuckDB raises on LN of a negative argument.
    "log1p": _Fn(1, "LN(1 + ABS({0}))", lambda x: np.log1p(np.abs(x))),
    "sqrt_abs": _Fn(1, "SQRT(ABS({0}))", lambda x: np.sqrt(np.abs(x))),
    # h(date, family)-style binary interaction spanning two relations
    "xy_plus1": _Fn(2, "({0} * {1} + 1e0)", lambda a, b: a * b + 1.0),
}


@dataclass(frozen=True)
class Factor:
    """One function in a product. ``kind`` selects the semantics.

    ``attrs`` are the attribute names the function reads (possibly empty for
    constants); ``params`` carries kind-specific extras and must stay
    hashable because factor signatures drive view/aggregate dedup.
    """

    kind: str
    attrs: tuple[str, ...] = ()
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in {"const", "id", "pow", "delta", "fn"}:
            raise ValueError(f"unknown factor kind {self.kind!r}")

    # -- renderers --------------------------------------------------------
    def to_sql(self) -> str:
        if self.kind == "const":
            return _double(self.params[0])
        if self.kind == "id":
            return f"CAST({self.attrs[0]} AS DOUBLE)"
        if self.kind == "pow":
            k = int(self.params[0])
            term = f"CAST({self.attrs[0]} AS DOUBLE)"
            return "(" + " * ".join([term] * k) + ")"
        if self.kind == "delta":
            op, t = self.params
            lit = repr(t) if not isinstance(t, bool) else str(t).upper()
            return (
                f"(CASE WHEN {self.attrs[0]} {_SQL_OPS[op]} {lit} "
                "THEN 1e0 ELSE 0e0 END)"
            )
        fn = FN_REGISTRY[self.params[0]]
        args = [f"CAST({a} AS DOUBLE)" for a in self.attrs]
        return "(" + fn.sql.format(*args) + ")"

    def to_numpy(self, pdf: pd.DataFrame) -> np.ndarray:
        if self.kind == "const":
            return np.full(len(pdf), float(self.params[0]))
        if self.kind == "id":
            return pdf[self.attrs[0]].to_numpy(dtype=float)
        if self.kind == "pow":
            return pdf[self.attrs[0]].to_numpy(dtype=float) ** int(self.params[0])
        if self.kind == "delta":
            op, t = self.params
            return _NP_OPS[op](pdf[self.attrs[0]].to_numpy(), t).astype(float)
        fn = FN_REGISTRY[self.params[0]]
        return np.asarray(
            fn.numpy(*[pdf[a].to_numpy(dtype=float) for a in self.attrs]), dtype=float
        )

    def __repr__(self) -> str:  # compact, used in plan dumps
        if self.kind == "const":
            return f"{self.params[0]:g}"
        if self.kind == "id":
            return self.attrs[0]
        if self.kind == "pow":
            return f"{self.attrs[0]}^{self.params[0]}"
        if self.kind == "delta":
            return f"1[{self.attrs[0]}{self.params[0]}{self.params[1]}]"
        return f"{self.params[0]}({','.join(self.attrs)})"


# -- constructors ----------------------------------------------------------
def const(c: float) -> Factor:
    """Constant function f() = c."""
    return Factor("const", (), (float(c),))


def ident(attr: str) -> Factor:
    """Identity function f(X) = X."""
    return Factor("id", (attr,))


def power(attr: str, k: int) -> Factor:
    """Monomial f(X) = X**k (k >= 1)."""
    if k < 1:
        raise ValueError("power exponent must be >= 1")
    return Factor("pow", (attr,), (int(k),))


def delta(attr: str, op: str, t) -> Factor:
    """Kronecker delta f(X) = 1_{X op t}; op in <, <=, >, >=, ==, !=."""
    if op not in _OPS:
        raise ValueError(f"unknown comparison op {op!r}")
    if isinstance(t, float) and not math.isfinite(t):
        raise ValueError("delta threshold must be finite")
    return Factor("delta", (attr,), (op, t))


def fn(name: str, *attrs: str) -> Factor:
    """Named n-ary function from FN_REGISTRY."""
    spec = FN_REGISTRY[name]
    if len(attrs) != spec.arity:
        raise ValueError(f"{name} expects {spec.arity} attrs, got {len(attrs)}")
    return Factor("fn", tuple(attrs), (name,))


@dataclass(frozen=True)
class Product:
    """A product of factors; the empty product is the constant 1 (COUNT).

    Factors are canonically sorted so structurally-equal products hash equal
    — this powers the Merge Views layer's aggregate dedup.
    """

    factors: tuple[Factor, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "factors", tuple(sorted(self.factors, key=lambda f: repr(f)))
        )

    @property
    def attrs(self) -> frozenset[str]:
        return frozenset(a for f in self.factors for a in f.attrs)

    def to_sql(self) -> str:
        if not self.factors:
            return "1e0"
        return f"COALESCE({' * '.join(f_.to_sql() for f_ in self.factors)}, 0e0)"

    def to_numpy(self, pdf: pd.DataFrame) -> np.ndarray:
        out = np.ones(len(pdf))
        for f_ in self.factors:
            out = out * f_.to_numpy(pdf)
        return np.where(np.isnan(out), 0.0, out)

    def __repr__(self) -> str:
        return "*".join(map(repr, self.factors)) or "1"


@dataclass(frozen=True)
class SumProduct:
    """A sum of products — one user aggregate ``alpha`` (paper §1.1)."""

    products: tuple[Product, ...] = field(default_factory=lambda: (Product(),))

    @property
    def attrs(self) -> frozenset[str]:
        return frozenset(a for p in self.products for a in p.attrs)

    def to_sql(self) -> str:
        return " + ".join(p.to_sql() for p in self.products)

    def to_numpy(self, pdf: pd.DataFrame) -> np.ndarray:
        out = np.zeros(len(pdf))
        for p in self.products:
            out = out + p.to_numpy(pdf)
        return out

    def __repr__(self) -> str:
        return " + ".join(map(repr, self.products))


def count() -> SumProduct:
    """The COUNT(*) aggregate: SUM over the empty product."""
    return SumProduct((Product(),))


def sum_of(*factors: Factor) -> SumProduct:
    """SUM of a single product of the given factors."""
    return SumProduct((Product(tuple(factors)),))
