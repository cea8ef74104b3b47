"""Exact scalar and matrix arithmetic kernel.

Everything here is over the rationals (``fractions.Fraction``) or quadratic
surds, and every result is exact.  Matrices are plain lists of lists of
Fractions; all functions treat their inputs as immutable and return fresh
objects.  Floating point is never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
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

def mat(rows: Sequence[Sequence[Rational]]) -> Mat:
    """Copy ``rows`` into a fresh Fraction matrix."""
    return [[Fraction(v) for v in row] for row in rows]


def identity(k: int) -> Mat:
    return [[Fraction(1 if i == j else 0) for j in range(k)] for i in range(k)]


def zeros(rows: int, cols: int) -> Mat:
    return [[Fraction(0)] * cols for _ in range(rows)]


def transpose(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise SizeMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def is_symmetric(m: Mat) -> bool:
    return all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


def _require_square(m: Mat) -> None:
    if any(len(row) != len(m) for row in m):
        raise SizeMismatchError("matrix is not square")


# ---------------------------------------------------------------------------
# determinant, rank, solve
# ---------------------------------------------------------------------------

def bareiss_determinant(m: Mat) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Rows are first scaled to integers; the elimination then stays in integers
    throughout, so integer inputs never touch Fraction arithmetic in the
    inner loop.
    """
    _require_square(m)
    k = len(m)
    if k == 0:
        return Fraction(1)

    # scale each row by the lcm of its denominators
    scale = Fraction(1)
    a: list[list[int]] = []
    for row in m:
        lcm = 1
        for v in row:
            d = Fraction(v).denominator
            lcm = lcm * d // gcd(lcm, d)
        scale *= lcm
        a.append([int(Fraction(v) * lcm) for v in row])

    sign = 1
    prev = 1
    for j in range(k - 1):
        if a[j][j] == 0:
            for i in range(j + 1, k):
                if a[i][j] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(j + 1, k):
            for col in range(j + 1, k):
                a[i][col] = (a[i][col] * a[j][j] - a[i][j] * a[j][col]) // prev
            a[i][j] = 0
        prev = a[j][j]
    return Fraction(sign * a[k - 1][k - 1]) / scale


def matrix_rank(m: Mat) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    if not m:
        return 0
    work = [list(map(Fraction, row)) for row in m]
    rows, cols = len(work), len(work[0])
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for i in range(rows):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def solve_linear(a: Mat, b: Mat) -> Mat:
    """Solve A·Y = B exactly (Gauss-Jordan). Raises SingularMatrixError."""
    _require_square(a)
    k = len(a)
    if len(b) != k:
        raise SizeMismatchError("right-hand side has wrong number of rows")
    aug = [list(map(Fraction, ra)) + list(map(Fraction, rb)) for ra, rb in zip(a, b)]
    width = k + len(b[0])
    for col in range(k):
        pivot = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[k:width] for row in aug]


def mat_inverse(a: Mat) -> Mat:
    return solve_linear(a, identity(len(a)))


class LDLDecomposition(NamedTuple):
    unit_lower: Mat
    diag: list[Fraction]

    def is_positive_definite(self) -> bool:
        return all(d > 0 for d in self.diag)


def ldl_decompose(q: Mat) -> LDLDecomposition:
    """Exact Q = L·diag(d)·L' with unit lower-triangular L.

    A zero pivot means Q is not definite and raises PivotBreakdownError;
    indefinite inputs that keep nonzero pivots come back with negative
    diagonal entries, so positive definiteness is read off the signs.
    """
    _require_square(q)
    if not is_symmetric(q):
        raise SizeMismatchError("ldl_decompose requires a symmetric matrix")
    k = len(q)
    lower = identity(k)
    diag: list[Fraction] = []
    for j in range(k):
        d = q[j][j] - sum(lower[j][t] * lower[j][t] * diag[t] for t in range(j))
        if d == 0:
            raise PivotBreakdownError(f"zero pivot at index {j}: matrix is not definite")
        diag.append(d)
        for i in range(j + 1, k):
            s = q[i][j] - sum(lower[i][t] * lower[j][t] * diag[t] for t in range(j))
            lower[i][j] = s / d
    return LDLDecomposition(lower, diag)


# ---------------------------------------------------------------------------
# quadratic surds
# ---------------------------------------------------------------------------

def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = m²·f with f squarefree; returns (m, f).  n must be >= 0."""
    if n < 0:
        raise NegativeRadicandError("negative radicand")
    if n == 0:
        return 0, 1
    m = 1
    f = 1
    # strip small square factors by trial division
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            m *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    f *= n  # leftover is prime (or 1)
    return m, f


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


def is_rational_square(r: Rational) -> bool:
    """True iff √r is rational (numerator and denominator are perfect squares)."""
    r = Fraction(r)
    if r < 0:
        return False
    p, q = r.numerator, r.denominator
    return isqrt(p) ** 2 == p and isqrt(q) ** 2 == q


def floor_sqrt(r: Rational) -> int:
    """floor(√r) for a non-negative rational, computed exactly."""
    r = Fraction(r)
    if r < 0:
        raise NegativeRadicandError("negative argument")
    return isqrt(r.numerator * r.denominator) // r.denominator
