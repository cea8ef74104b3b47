"""Exact scalar and matrix arithmetic kernel.

Everything here is over the rationals (``int`` or ``fractions.Fraction``
entries) or quadratic surds, and every result is exact.  Matrices are plain
lists of rows; all functions treat their inputs as immutable and return fresh
objects.  Determinant, rank, pivot columns and linear solves share one
fraction-free (Bareiss) Gauss-Jordan elimination on integer rows, and
``ldl_decompose`` is a forward Bareiss pass on a matrix scaled to integers.
Floating point appears only in ``SurdValue.__float__``, for printing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod
from typing import NamedTuple, Sequence

Mat = list[list[Fraction]]

Rational = int | Fraction


class SingularMatrixError(ArithmeticError):
    pass


class PivotBreakdownError(ArithmeticError):
    """Raised by ldl_decompose when a zero pivot occurs (matrix not definite)."""


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
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def clear_denominators(m: Sequence[Sequence[Rational]]) -> tuple[int, list[list[int]]]:
    """(d, d·m) with d the lcm of all denominators, so d·m has integer entries."""
    d = lcm(*(v.denominator for row in m for v in row))
    return d, [[v.numerator * (d // v.denominator) for v in row] for row in m]


def _require_square(m: Mat) -> None:
    if any(len(row) != len(m) for row in m):
        raise SizeMismatchError("matrix is not square")


# ---------------------------------------------------------------------------
# determinant, rank, solve: one fraction-free elimination
# ---------------------------------------------------------------------------

class _Elimination(NamedTuple):
    rows: list[list[int]]  # the reduced integer rows
    pivots: list[int]  # pivot columns, left to right
    sign: int  # sign of the row permutation
    last: int  # last pivot (1 when there is none)
    scale: int  # product of the row scale factors


def _eliminate(m: Sequence[Sequence[Rational]]) -> _Elimination:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of a rational matrix.

    Each row is scaled once by the lcm of its denominators; from then on every
    entry is an integer minor of the scaled matrix, so the update
    (p·x - f·y) / prev divides exactly.  Pivots are taken leftmost first: a
    column is a pivot exactly when it is independent of the columns to its
    left.  At the end each pivot row holds the last pivot in its own pivot
    column and zero in every other pivot column.
    """
    scaled = [clear_denominators([row]) for row in m]
    scale = prod(d for d, _ in scaled)
    rows = [r for _, (r,) in scaled]
    height = len(rows)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == height:
            break
        found = next((i for i in range(r, height) if rows[i][col]), None)
        if found is None:
            continue
        if found != r:
            rows[r], rows[found] = rows[found], rows[r]
            sign = -sign
        top = rows[r]
        p = top[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i == r or (f == 0 and p == prev):
                continue  # an update with f = 0 and p = prev is the identity
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(col)
        prev = p
    return _Elimination(rows, pivots, sign, prev, scale)


def bareiss_determinant(m: Mat) -> Fraction:
    """Exact determinant: sign · last pivot / row scale of the elimination."""
    _require_square(m)
    e = _eliminate(m)
    if len(e.pivots) < len(m):
        return Fraction(0)
    return Fraction(e.sign * e.last, e.scale)


def pivot_columns(m: Mat) -> list[int]:
    """Indices of the leftmost maximal set of linearly independent columns."""
    return _eliminate(m).pivots


def matrix_rank(m: Mat) -> int:
    """Rank over the rationals."""
    return len(_eliminate(m).pivots)


def solve_linear(a: Mat, b: Mat) -> Mat:
    """Solve A·Y = B exactly by eliminating [A | B]. Raises SingularMatrixError."""
    _require_square(a)
    k = len(a)
    if len(b) != k:
        raise SizeMismatchError("right-hand side has wrong number of rows")
    e = _eliminate([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if e.pivots[:k] != list(range(k)):
        raise SingularMatrixError("matrix is singular")
    return [[Fraction(v, e.last) for v in row[k:]] for row in e.rows]


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

    def is_positive_definite(self) -> bool:
        return all(d > 0 for d in self.minors)


def ldl_decompose(q: Mat) -> LDLDecomposition:
    """Fraction-free LDL' of a symmetric rational Q: a forward Bareiss pass.

    Q is scaled once to the integer matrix scale·Q; without pivoting, row j
    after j elimination steps is u_j, and every update (p·x - f·y) / prev
    divides exactly.  A zero minor means Q is not definite and raises
    PivotBreakdownError; indefinite inputs that keep nonzero minors come back
    with a negative one, so positive definiteness is read off the signs.
    """
    _require_square(q)
    if any(q[i][j] != q[j][i] for i in range(len(q)) for j in range(i)):
        raise SizeMismatchError("ldl_decompose requires a symmetric matrix")
    scale, a = clear_denominators(q)
    prev = 1
    for j, top in enumerate(a):
        p = top[j]
        if p == 0:
            raise PivotBreakdownError(f"zero pivot at index {j}: matrix is not definite")
        for i in range(j + 1, len(a)):
            f = a[i][j]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
    return LDLDecomposition(scale, a)


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
    the package needs are provided: multiplication by rationals, comparison
    against rationals, and float conversion.
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

    @property
    def is_rational(self) -> bool:
        return self.radicand == 1

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __float__(self) -> float:
        return float(self.coeff) * self.radicand ** 0.5

    def __mul__(self, other: Rational) -> "SurdValue":
        return SurdValue(self.coeff * Fraction(other), self.radicand)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SurdValue):
            return self.coeff == other.coeff and self.radicand == other.radicand
        if isinstance(other, (int, Fraction)):
            return self.radicand == 1 and self.coeff == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeff, self.radicand))

    def _cmp(self, other: Rational) -> int:
        """Exact sign of (self - other) for rational other."""
        other = Fraction(other)
        if self.radicand == 1:
            return (self.coeff > other) - (self.coeff < other)
        # compare coeff*sqrt(r) with other; both sides may be negative
        lhs_sq = self.squared()
        rhs_sq = other * other
        if self.coeff > 0:
            if other <= 0:
                return 1
            return (lhs_sq > rhs_sq) - (lhs_sq < rhs_sq)
        if other >= 0:
            return -1
        return (lhs_sq < rhs_sq) - (lhs_sq > rhs_sq)

    def __lt__(self, other: Rational) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Rational) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Rational) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Rational) -> bool:
        return self._cmp(other) >= 0

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
