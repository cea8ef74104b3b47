"""Exact scalar and matrix arithmetic kernel.

Everything here is over the rationals (``int`` or ``fractions.Fraction``
entries) or quadratic surds, and every result is exact.  Matrices are plain
lists of rows; all functions treat their inputs as immutable and return fresh
objects.  Determinant, rank, pivot columns, linear solves and the LDL'
decomposition share one forward fraction-free (Bareiss) elimination on the
input scaled once to integers, with fraction-free back-substitution for
solves.  LDL' is that same elimination of a symmetric matrix and accepts
positive definite input only: every leading minor must be a pivot, in place
and > 0, or it raises NotPositiveDefiniteError.
Floating point appears only in ``SurdValue.__float__``, for printing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import NamedTuple, Sequence

Mat = list[list[Fraction]]

Rational = int | Fraction


class SingularMatrixError(ArithmeticError):
    pass


class NotPositiveDefiniteError(ValueError):
    """Raised by ldl_decompose when the matrix is not symmetric or a leading
    minor is <= 0."""


class NegativeRadicandError(ArithmeticError):
    pass


class SizeMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# matrix helpers
# ---------------------------------------------------------------------------

def identity(k: int) -> Mat:
    return [[Fraction(1 if i == j else 0) for j in range(k)] for i in range(k)]


def transpose(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise SizeMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def clear_denominators(m: Sequence[Sequence[Rational]]) -> tuple[int, list[list[int]]]:
    """(d, d·m) with d the lcm of all denominators, so d·m has integer entries."""
    d = lcm(*(v.denominator for row in m for v in row))
    return d, [[v.numerator * (d // v.denominator) for v in row] for row in m]


def _require_square(m: Mat) -> None:
    if any(len(row) != len(m) for row in m):
        raise SizeMismatchError("matrix is not square")


# ---------------------------------------------------------------------------
# determinant, rank, solve, LDL': one fraction-free elimination
# ---------------------------------------------------------------------------

class _Elimination(NamedTuple):
    rows: list[list[int]]  # the reduced rows
    pivots: list[int]  # pivot columns, left to right
    swaps: int  # number of row swaps
    last: int  # last pivot (1 when there is none)


def _eliminate(rows: list[list[int]]) -> _Elimination:
    """Forward fraction-free (Bareiss) elimination of integer rows, in place.

    Callers clear a rational matrix's denominators first.  Every entry stays
    an integer minor of the input, so the update (p·x - f·y) / prev divides
    exactly.  Pivots are taken leftmost first: a column is a pivot exactly
    when it is independent of the columns to its left.  A pivot updates only
    the rows below it and only from its own column on, since everything left
    of it there is already zero.  At the end the rows are in echelon form, and
    row i's pivot entry is the (i+1)-th leading minor of the row-permuted
    input on its pivot columns.
    """
    height = len(rows)
    pivots: list[int] = []
    swaps = 0
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == height:
            break
        # the pivot is usually in place; otherwise take the first nonzero below
        found = r if rows[r][col] else next(
            (i for i in range(r + 1, height) if rows[i][col]), None)
        if found is None:
            continue
        if found != r:
            rows[r], rows[found] = rows[found], rows[r]
            swaps += 1
        tail = rows[r][col:]
        p = tail[0]
        for row in rows[r + 1:]:
            f = row[col]
            if f == 0 and p == prev:
                continue  # an update with f = 0 and p = prev is the identity
            row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], tail)]
        pivots.append(col)
        prev = p
    return _Elimination(rows, pivots, swaps, prev)


def determinant_and_solution(a: Mat, b: Mat) -> tuple[Fraction, Mat | None]:
    """det A and the solution Y of A·Y = B from one elimination of [A | B].

    det A = (-1)^swaps · last pivot / scale^k, where scale clears the
    denominators of A and B; (0, None) when A is singular.  Otherwise the
    echelon rows [U | B'] give X = last·Y by fraction-free back-substitution,
    X_i = (last·B'_i - Σ_{j>i} u_ij·X_j) / u_ii, where every division is exact
    because last·Y is Cramer's integer numerator (Nakos, Turner & Williams,
    SIGSAM Bull. 31, 1997).
    """
    _require_square(a)
    k = len(a)
    if len(b) != k:
        raise SizeMismatchError("right-hand side has wrong number of rows")
    scale, rows = clear_denominators([[*ra, *rb] for ra, rb in zip(a, b)])
    e = _eliminate(rows)
    if e.pivots[:k] != list(range(k)):
        return Fraction(0), None
    x: list[list[int]] = [[]] * k
    for i in reversed(range(k)):
        row = e.rows[i]
        acc = [e.last * v for v in row[k:]]
        for u, xj in zip(row[i + 1:k], x[i + 1:]):
            if u:
                acc = [s - u * v for s, v in zip(acc, xj)]
        x[i] = [s // row[i] for s in acc]
    det = Fraction((-1) ** e.swaps * e.last, scale ** k)
    return det, [[Fraction(v, e.last) for v in xi] for xi in x]


def bareiss_determinant(m: Mat) -> Fraction:
    """Exact determinant: the elimination with an empty right-hand side."""
    return determinant_and_solution(m, [[] for _ in m])[0]


def pivot_columns(m: Mat) -> list[int]:
    """Indices of the leftmost maximal set of linearly independent columns."""
    return _eliminate(clear_denominators(m)[1]).pivots


def matrix_rank(m: Mat) -> int:
    """Rank over the rationals."""
    return len(pivot_columns(m))


def solve_linear(a: Mat, b: Mat) -> Mat:
    """Solve A·Y = B exactly by eliminating [A | B]. Raises SingularMatrixError."""
    y = determinant_and_solution(a, b)[1]
    if y is None:
        raise SingularMatrixError("matrix is singular")
    return y


def mat_inverse(a: Mat) -> Mat:
    return solve_linear(a, identity(len(a)))


class LDLDecomposition(NamedTuple):
    """scale·Q = Σ_j u_j u_j' / (Δ_j Δ_{j+1}) with integer rows u_j and Δ_0 = 1.

    ``rows[j]`` is u_j: zero left of column j, and ``rows[j][j]`` is the
    leading principal minor Δ_{j+1} of the integer matrix scale·Q.
    """

    scale: int
    rows: list[list[int]]

    @property
    def minors(self) -> list[int]:
        """Δ_1, ..., Δ_k."""
        return [row[j] for j, row in enumerate(self.rows)]


def ldl_decompose(q: Mat) -> LDLDecomposition:
    """Fraction-free LDL' of a symmetric positive definite rational Q:
    ``_eliminate`` on scale·Q.

    Q is scaled once to the integer matrix scale·Q.  When the elimination
    takes pivots 0..k-1 without a row swap, row j is u_j and its pivot is the
    leading principal minor Δ_{j+1}.  Q is positive definite exactly when
    every Δ_j > 0 (Sylvester's criterion); a swap or a skipped column means a
    zero minor.  Either way, and for a Q that is not symmetric,
    NotPositiveDefiniteError.
    """
    _require_square(q)
    if any(q[i][j] != q[j][i] for i in range(len(q)) for j in range(i)):
        raise NotPositiveDefiniteError("matrix is not symmetric, so not positive definite")
    scale, a = clear_denominators(q)
    e = _eliminate(a)
    dec = LDLDecomposition(scale, e.rows)
    if e.swaps or e.pivots != list(range(len(a))) or any(d <= 0 for d in dec.minors):
        raise NotPositiveDefiniteError("a leading minor is <= 0: matrix is not positive definite")
    return dec


# ---------------------------------------------------------------------------
# quadratic surds
# ---------------------------------------------------------------------------

def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = m²·f with f squarefree; returns (m, f).  n must be >= 0.

    Trial division runs only while p³ <= n, so it costs O(n^(1/3)) steps.
    """
    if n < 0:
        raise NegativeRadicandError("negative radicand")
    if n == 0:
        return 0, 1
    m = 1
    f = 1
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            m *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    # every prime factor left is >= p and n < p³: n is 1, q, q² or q·r
    r = isqrt(n)
    if n > 1 and r * r == n:
        return m * r, f
    return m, f * n


@dataclass(frozen=True)
class SurdValue:
    """An exact value coeff·√radicand with squarefree radicand.

    radicand == 1 exactly when the value is rational.  Only the operations
    the package needs are provided: equality and float conversion.
    """

    coeff: Fraction
    radicand: int = 1

    def __post_init__(self) -> None:
        if self.radicand < 0:
            raise NegativeRadicandError("negative radicand")
        m, f = squarefree_decompose(self.radicand)
        coeff = self.coeff * m
        if coeff == 0:
            f = 1
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", f)

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __float__(self) -> float:
        return float(self.coeff) * self.radicand ** 0.5

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SurdValue):
            return self.coeff == other.coeff and self.radicand == other.radicand
        if isinstance(other, (int, Fraction)):
            return self.radicand == 1 and self.coeff == other
        return NotImplemented

    def __repr__(self) -> str:
        if self.radicand == 1:
            return f"SurdValue({self.coeff})"
        return f"SurdValue({self.coeff}*sqrt({self.radicand}))"


def sqrt_rational(r: Rational) -> SurdValue:
    """Exact √r as a SurdValue.  √(p/q) = √(p·q)/q keeps the coeff rational."""
    r = Fraction(r)
    if r < 0:
        raise NegativeRadicandError("cannot take the square root of a negative rational")
    if r == 0:
        return SurdValue(Fraction(0), 1)
    p, q = r.numerator, r.denominator
    m, f = squarefree_decompose(p * q)
    return SurdValue(Fraction(m, q), f)


def floor_sqrt(r: Rational) -> int:
    """floor(√r) for a non-negative rational, computed exactly."""
    r = Fraction(r)
    if r < 0:
        raise NegativeRadicandError("negative argument")
    return isqrt(r.numerator * r.denominator) // r.denominator
