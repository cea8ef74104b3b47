"""Equiangular tight frames in exact Gram-first form.

A frame stores only what it cannot derive: k, n and its Seidel sign matrix C.
The equiangularity constant alpha (``frame_alpha``) and the frame bound
gamma = n/k are derived from (k, n), and no Cartesian coordinates are kept:
every quantity used downstream (basis Grams, determinants, minimal vectors) is
a function of inner products, and keeping those rational sidesteps square
roots entirely.  A frame with a distinguished basis also stores the k x n
rational coordinate matrix P of every frame vector over the basis (so the
basis columns of P are unit vectors); beta, the lcm of P's denominators, is
derived from P.  A conference pair's record
(``conference_data``) keeps N, N^{-1} and three determinants but not alpha,
which k gives; a pair with a singular D has no record and no coordinate frame.
Each construction returns its CoordinateFrame alone, whose ``frame`` is the
FrameSpec.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .circulant import (
    ConferencePair,
    Row,
    add_scalar,
    circulant_determinant,
    circulant_matrix,
    circulant_solve,
    is_conference,
)
from .exact import (
    Mat,
    SingularMatrixError,
    SurdValue,
    mat_mul,
    pivot_columns,
    solve_linear,
    sqrt_rational,
    transpose,
)

F = Fraction


class IrrationalAlphaError(ValueError):
    """alpha is a proper surd, so no rational coordinate frame exists."""


def frame_alpha(k: int, n: int) -> SurdValue:
    """alpha = sqrt(k(n-1)/(n-k)), the reciprocal |cosine| of a unit (k, n) frame."""
    if not 2 <= k < n:
        raise ValueError("need 2 <= k < n")
    return sqrt_rational(F(k * (n - 1), n - k))


def rational_alpha(k: int, n: int) -> Fraction:
    """frame_alpha(k, n) as a rational; IrrationalAlphaError for a proper surd."""
    alpha = frame_alpha(k, n)
    if alpha.radicand != 1:
        raise IrrationalAlphaError(f"alpha = {alpha} is irrational")
    return alpha.coeff


@dataclass(frozen=True)
class FrameSpec:
    k: int
    n: int
    seidel: list  # n x n integer sign matrix, zero diagonal


@dataclass(frozen=True)
class CoordinateFrame:
    frame: FrameSpec
    basis_indices: tuple  # k column positions, 1-based
    coords: list  # k x n rational matrix P: column j is frame vector j over the basis

    @functools.cached_property
    def beta(self) -> int:
        """lcm of the coordinate denominators."""
        return math.lcm(*(v.denominator for row in self.coords for v in row))


@dataclass(frozen=True)
class ValidationReport:
    seidel_ok: bool
    tightness_ok: bool
    gerzon_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.seidel_ok and self.tightness_ok and self.gerzon_ok


def _gram(spec: FrameSpec, idx) -> Mat:
    """I + (1/alpha)·C on the rows and columns idx (0-based); rational alpha only.

    A Seidel matrix has few distinct entries (0 and +-1), so each scaled entry
    is computed once per Gram.
    """
    alpha = rational_alpha(spec.k, spec.n)
    c = spec.seidel
    scaled = {v: F(v, 1) / alpha for v in {c[i][j] for i in idx for j in idx}}
    return [[1 + scaled[c[i][j]] if i == j else scaled[c[i][j]] for j in idx] for i in idx]


def full_gram(spec: FrameSpec) -> Mat:
    """n x n Gram matrix I + (1/alpha)·C; rational alpha only."""
    return _gram(spec, range(spec.n))


def basis_gram(cf: CoordinateFrame) -> Mat:
    return _gram(cf.frame, [b - 1 for b in cf.basis_indices])


def gram_consistency_holds(cf: CoordinateFrame) -> bool:
    """Exact check of P'·Q·P = I + (1/alpha)·C over all column pairs."""
    p = cf.coords
    return mat_mul(transpose(p), mat_mul(basis_gram(cf), p)) == full_gram(cf.frame)


def select_basis_greedy(gram: Mat, k: int) -> tuple:
    """Leftmost k linearly independent frame vectors (1-based).

    For a Gram G = V'V, column j of G depends on the columns to its left
    exactly when v_j depends on the vectors to its left, so the first k pivot
    columns of G are the basis a greedy left-to-right scan would pick.
    """
    pivots = pivot_columns(gram)
    if len(pivots) < k:
        raise ValueError("gram has rank below k")
    return tuple(j + 1 for j in pivots[:k])


# --- constructions ----------------------------------------------------------

def simplex_frame(k: int) -> CoordinateFrame:
    """The k+1 unit vectors with pairwise inner product -1/k.

    The first k vectors are a basis and the last is minus their sum, so
    P = [I | -1].
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = k + 1
    seidel = [[0 if i == j else -1 for j in range(n)] for i in range(n)]
    coords = [[int(i == j) for j in range(k)] + [-1] for i in range(k)]
    return CoordinateFrame(frame=FrameSpec(k=k, n=n, seidel=seidel),
                           basis_indices=tuple(range(1, k + 1)), coords=coords)


def conference_frame_spec(p: ConferencePair) -> FrameSpec:
    """The (k, 2k) frame whose Seidel matrix is the block matrix [[A, D], [D, -A]]."""
    a = circulant_matrix(p.a_row)
    d = circulant_matrix(p.d_row)
    seidel = ([ra + rd for ra, rd in zip(a, d)]
              + [rd + [-v for v in ra] for ra, rd in zip(a, d)])
    return FrameSpec(k=p.k, n=2 * p.k, seidel=seidel)


def is_integral(row) -> bool:
    return all(v.denominator == 1 for v in row)


class ConferenceData(NamedTuple):
    n_row: Row  # first row of N = -(alpha·I + A)^{-1}·D = D^{-1}(A - alpha·I)
    n_inv_row: Row  # first row of N^{-1}
    det_d: int
    det_plus: int  # det(alpha·I + A)
    det_minus: int  # det(alpha·I - A)


@functools.cache
def conference_data(p: ConferencePair) -> ConferenceData:
    """N, N^{-1} and the three determinants of one conference pair.

    The conference condition A² + D² = alpha²·I between commuting circulants
    gives D² = (alpha·I - A)(alpha·I + A), so an invertible D makes both
    alpha·I ± A invertible, and one solve against D yields det D and both
    rows: N = D^{-1}(A - alpha·I) and N^{-1} = -D^{-1}(alpha·I + A).  The
    same identity gives det(alpha·I - A) = det(D)²/det(alpha·I + A) exactly,
    so a pair costs two eliminations: the solve and det(alpha·I + A).  Both
    act on the folded (k+1)/2-square matrix M of a symmetric circulant (see
    ``circulant_determinant``), so det(alpha·I + A) = det(M)²/(alpha + Σa).
    Where Σa = 0 (every pair at k = 5 and k = 25) that reads alpha·m² with
    det M = ±alpha·m.

    D is invertible at prime k: its eigenvalues d(w^j) at the nontrivial k-th
    roots of unity w^j are Galois conjugates, so one zero makes them all zero
    and D = ±J, whose eigenvalue ±k has k² > 2k - 1 = alpha².  D is also
    invertible for every pair at k = 25; a singular D raises
    SingularMatrixError.
    """
    alpha = int(rational_alpha(p.k, 2 * p.k))
    if not is_conference(p):
        raise ValueError("not a conference pair: a*a + d*d != (2k-1)e0")
    plus_row = add_scalar(p.a_row, alpha)
    det_plus = int(circulant_determinant(plus_row))
    det_d, rows = circulant_solve(p.d_row, [add_scalar(p.a_row, -alpha), tuple(-v for v in plus_row)])
    if rows is None:
        raise SingularMatrixError("D is singular")
    n_row, n_inv_row = rows
    return ConferenceData(n_row, n_inv_row, int(det_d), det_plus, det_d ** 2 // det_plus)


def conference_frame(p: ConferencePair, variant: str) -> CoordinateFrame:
    """Coordinate frame over one of the two natural bases of a conference frame.

    Variant "plus" takes columns 1..k as basis (Gram I + A/alpha, P = [I | -N]);
    variant "minus" takes columns k+1..2k (Gram I - A/alpha, P = [-N^{-1} | I]).
    Requires 2k-1 to be a perfect square and D invertible.
    """
    if variant not in ("plus", "minus"):
        raise ValueError(f"unknown variant {variant!r}")
    k = p.k
    data = conference_data(p)
    if variant == "plus":
        row, basis = data.n_row, tuple(range(1, k + 1))
    else:
        row, basis = data.n_inv_row, tuple(range(k + 1, 2 * k + 1))
    x = circulant_matrix([-v for v in row])
    unit = [[int(i == j) for j in range(k)] for i in range(k)]
    blocks = zip(unit, x) if variant == "plus" else zip(x, unit)
    coords = [left + right for left, right in blocks]
    return CoordinateFrame(frame=conference_frame_spec(p), basis_indices=basis, coords=coords)


def preferred_variant(p: ConferencePair) -> str:
    """'plus' when N = D^{-1}(A - alpha·I) is integral, else 'minus'.

    Integral N makes the plus basis (columns 1..k) coordinatize the frame over
    the integers directly; otherwise the minus basis does, via N^{-1}.
    """
    return "plus" if is_integral(conference_data(p).n_row) else "minus"


# Sign rows whose 16 columns, scaled by 1/sqrt(6), are unit vectors with
# pairwise inner products +-1/3.
_SIGN_ROWS_6_16 = [
    "+ + + + + + + + + + + + + + + +",
    "+ + + + + + + + - - - - - - - -",
    "+ + + + - - - - + + + + - - - -",
    "+ + - - + + - - + + - - + + - -",
    "+ - + - + - + - + - + - + - + -",
    "+ - - + - + + - - + + - + - - +",
]

_BASIS_7_28 = (1, 2, 3, 4, 5, 6, 16)


def coordinatize(spec: FrameSpec, basis_indices: tuple | None = None) -> CoordinateFrame:
    """Express every frame vector over a basis, exactly.

    P solves Q·P = (the basis rows of the full Gram), i.e. P = (B'B)^{-1} B'V
    for basis vectors B among the frame vectors V, computed purely from Gram
    entries.  Defaults to the greedy-leftmost basis.
    """
    gram = full_gram(spec)
    basis = tuple(basis_indices) if basis_indices else select_basis_greedy(gram, spec.k)
    rows = [gram[b - 1] for b in basis]
    q = [[row[b - 1] for b in basis] for row in rows]
    return CoordinateFrame(frame=spec, basis_indices=basis, coords=solve_linear(q, rows))


def _explicit_frame(vectors, k: int, basis: tuple | None = None) -> CoordinateFrame:
    """Build a frame from integer vector representatives of one common length |v|².

    Seidel entry (i, j) is alpha·(v_i·v_j)/|v|², less alpha on the diagonal,
    taken from the integer dot product with one divmod and mirrored, so each
    unordered pair costs one dot product.  ValueError when an entry is not an
    integer, a diagonal entry (a vector of another length) is not 0, or an
    off-diagonal entry is not +-1: such vectors are not a unit frame's.
    """
    n = len(vectors)
    alpha = rational_alpha(k, n)
    scale = sum(x * x for x in vectors[0])
    den = alpha.denominator * scale

    def entry(i: int, j: int) -> int:
        t = alpha.numerator * (sum(map(mul, vectors[i], vectors[j])) - (scale if i == j else 0))
        v, r = divmod(t, den)
        if r:
            raise ValueError(f"Seidel entry ({i}, {j}) = {F(t, den)} is not an integer")
        return v

    for i in range(n):
        if v := entry(i, i):
            raise ValueError(f"Seidel entry ({i}, {i}) = {v} is not 0")
    seidel = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        v = entry(i, j)
        if v not in (-1, 1):
            raise ValueError(f"Seidel entry ({i}, {j}) = {v} is not +-1")
        seidel[i][j] = seidel[j][i] = v
    return coordinatize(FrameSpec(k=k, n=n, seidel=seidel), basis)


def frame_6_16() -> CoordinateFrame:
    """The explicit (6,16) frame, built from a hard-coded sign matrix, over
    its greedy-leftmost basis."""
    rows = [[1 if c == "+" else -1 for c in r.split()] for r in _SIGN_ROWS_6_16]
    return _explicit_frame(transpose(rows), 6)


def scaled_vectors_7_28() -> list:
    """The 28 integer representatives (-3 at positions {i,j}, +1 elsewhere),
    index pairs in lexicographic order; true frame vectors are these / sqrt(24)."""
    out = []
    for i, j in combinations(range(8), 2):
        v = [1] * 8
        v[i] = v[j] = -3
        out.append(v)
    return out


def frame_7_28() -> CoordinateFrame:
    """The (7,28) frame carried by 28 permutations of (-3,-3,1,...,1)."""
    return _explicit_frame(scaled_vectors_7_28(), 7, _BASIS_7_28)


# --- validation ---------------------------------------------------------------

def _seidel_ok(c, n) -> bool:
    for i in range(n):
        if c[i][i] != 0:
            return False
        for j in range(n):
            if c[i][j] != c[j][i]:
                return False
            if i != j and c[i][j] not in (-1, 1):
                return False
    return True


def validate_frame(spec: FrameSpec) -> ValidationReport:
    """Check Seidel shape, tightness, and the Gerzon bound.

    Tightness means M² = gamma·M for M = I + (1/alpha)C, which is the identity
    C² = (gamma-1)·alpha²·I + (gamma-2)·alpha·C on the integer matrix C.  For
    alpha = q·sqrt(m) with m > 1 the last term is irrational while the others
    are rational, so it must vanish on its own: (gamma-2)·C = 0.
    """
    k, n, c = spec.k, spec.n, spec.seidel
    seidel_ok = _seidel_ok(c, n)
    gerzon_ok = n <= k * (k + 1) // 2

    tight = False
    if seidel_ok:
        alpha, gamma = frame_alpha(k, n), F(n, k)
        diag = (gamma - 1) * alpha.squared()
        lin = (gamma - 2) * alpha.coeff if alpha.radicand == 1 else 0
        surd_ok = alpha.radicand == 1 or all((gamma - 2) * v == 0 for row in c for v in row)
        cc = mat_mul(c, c)
        tight = surd_ok and all(cc[i][j] == (diag if i == j else 0) + lin * c[i][j]
                                for i in range(n) for j in range(n))
    return ValidationReport(seidel_ok=seidel_ok, tightness_ok=tight, gerzon_ok=gerzon_ok)
