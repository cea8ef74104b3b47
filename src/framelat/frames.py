"""Equiangular tight frames in exact Gram-first form.

A frame is carried by its Seidel sign matrix together with the equiangularity
constant alpha, never by Cartesian coordinates: every quantity used downstream
(basis Grams, determinants, minimal vectors) is a function of inner products,
and keeping those rational sidesteps square roots entirely.  A frame with a
distinguished basis additionally carries the rational coordinate matrix X that
expresses the remaining columns over the basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .circulant import (
    ConferencePair,
    Row,
    SingularCirculantError,
    add_scalar,
    circulant_inverse,
    circulant_matrix,
    circulant_multiply,
    compute_N,
    is_conference,
)
from .exact import (
    Mat,
    SurdValue,
    bareiss_determinant,
    mat_mul,
    matrix_rank,
    solve_linear,
    sqrt_rational,
    transpose,
)

F = Fraction


class IrrationalAlphaError(ValueError):
    """alpha is a proper surd, so no rational coordinate frame exists."""


class SingularDError(ZeroDivisionError):
    pass


class SingularLeadBlockError(ZeroDivisionError):
    pass


@dataclass(frozen=True)
class FrameSpec:
    k: int
    n: int
    gamma: Fraction
    alpha: SurdValue
    seidel: list  # n x n integer sign matrix, zero diagonal
    label: str


@dataclass(frozen=True)
class CoordinateFrame:
    frame: FrameSpec
    basis_indices: tuple  # k column positions, 1-based
    coords: list  # k x (n-k) rational matrix X over the basis
    beta: int  # lcm of coordinate denominators


@dataclass(frozen=True)
class ValidationReport:
    seidel_ok: bool
    alpha_ok: bool
    tightness_ok: bool
    gerzon_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.seidel_ok and self.alpha_ok and self.tightness_ok and self.gerzon_ok


def rational_alpha(spec: FrameSpec) -> Fraction:
    if spec.alpha.radicand != 1:
        raise IrrationalAlphaError(f"alpha = {spec.alpha} is irrational")
    return spec.alpha.coeff


def full_gram(spec: FrameSpec) -> Mat:
    """n x n Gram matrix I + (1/alpha)·C; rational alpha only."""
    alpha = rational_alpha(spec)
    n = spec.n
    return [[(1 if i == j else 0) + F(spec.seidel[i][j], 1) / alpha for j in range(n)]
            for i in range(n)]


def basis_gram(cf: CoordinateFrame) -> Mat:
    alpha = rational_alpha(cf.frame)
    idx = [b - 1 for b in cf.basis_indices]
    c = cf.frame.seidel
    return [[(1 if bi == bj else 0) + F(c[bi][bj], 1) / alpha for bj in idx] for bi in idx]


def coordinate_matrix(cf: CoordinateFrame) -> Mat:
    """k x n matrix whose columns are the basis coordinates of every frame vector."""
    k, n = cf.frame.k, cf.frame.n
    basis = {b - 1: t for t, b in enumerate(cf.basis_indices)}
    others = [j for j in range(n) if j not in basis]
    cols = []
    for j in range(n):
        if j in basis:
            cols.append([F(1) if i == basis[j] else F(0) for i in range(k)])
        else:
            jj = others.index(j)
            cols.append([F(cf.coords[i][jj]) for i in range(k)])
    return transpose(cols)


def gram_consistency_holds(cf: CoordinateFrame) -> bool:
    """Exact check of P'·Q·P = I + (1/alpha)·C over all column pairs."""
    p = coordinate_matrix(cf)
    q = basis_gram(cf)
    return mat_mul(transpose(p), mat_mul(q, p)) == full_gram(cf.frame)


def _beta_of(coords) -> int:
    dens = [F(v).denominator for row in coords for v in row]
    return math.lcm(*dens) if dens else 1


def select_basis_greedy(gram: Mat, k: int) -> tuple:
    """Leftmost k columns whose Gram submatrix keeps full rank (1-based)."""
    chosen: list[int] = []
    n = len(gram)
    for j in range(n):
        trial = chosen + [j]
        sub = [[gram[r][c] for c in trial] for r in trial]
        if matrix_rank(sub) == len(trial):
            chosen.append(j)
            if len(chosen) == k:
                return tuple(b + 1 for b in chosen)
    raise ValueError("gram has rank below k")


# --- constructions ----------------------------------------------------------

def simplex_frame(k: int) -> tuple[FrameSpec, CoordinateFrame]:
    """The k+1 unit vectors with pairwise inner product -1/k.

    The first k vectors are a basis and the last is minus their sum, so
    X is a single all-(-1) column.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = k + 1
    seidel = [[0 if i == j else -1 for j in range(n)] for i in range(n)]
    spec = FrameSpec(k=k, n=n, gamma=F(n, k), alpha=SurdValue(F(k)),
                     seidel=seidel, label=f"simplex:{k}")
    coords = [[F(-1)] for _ in range(k)]
    cf = CoordinateFrame(frame=spec, basis_indices=tuple(range(1, k + 1)),
                         coords=coords, beta=1)
    return spec, cf


def conference_seidel(p: ConferencePair) -> list:
    """2k x 2k block Seidel matrix [[A, D], [D, -A]]."""
    k = p.k
    a = circulant_matrix(p.a_row)
    d = circulant_matrix(p.d_row)
    out = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        for j in range(k):
            out[i][j] = a[i][j]
            out[i][k + j] = d[i][j]
            out[k + i][j] = d[i][j]
            out[k + i][k + j] = -a[i][j]
    return out


def conference_frame_spec(p: ConferencePair, label: str = "") -> FrameSpec:
    k = p.k
    alpha = sqrt_rational(2 * k - 1)
    return FrameSpec(k=k, n=2 * k, gamma=F(2), alpha=alpha,
                     seidel=conference_seidel(p), label=label or f"conference:{k}")


def conference_alpha(k: int) -> int:
    """The integer alpha = sqrt(2k - 1) of a (k, 2k) conference frame."""
    alpha = sqrt_rational(2 * k - 1)
    if alpha.radicand != 1:
        raise IrrationalAlphaError(f"2k-1 = {2 * k - 1} is not a perfect square")
    return int(alpha.coeff)


def is_integral(row) -> bool:
    return all(F(v).denominator == 1 for v in row)


class ConferenceData(NamedTuple):
    alpha: int
    n_row: Row  # first row of N = D^{-1}(A - alpha·I)
    n_inv_row: Row | None  # first row of N^{-1}; None when D is singular
    det_d: int
    det_plus: int  # det(alpha·I + A)
    det_minus: int  # det(alpha·I - A)


def _neg(row: Row) -> Row:
    return tuple(-v for v in row)


@functools.cache
def conference_data(p: ConferencePair) -> ConferenceData:
    """Alpha, N, N^{-1} and the three determinants of one conference pair.

    The conference condition A² + D² = alpha²·I between commuting circulants
    gives D² = (alpha·I - A)(alpha·I + A), so an invertible D makes both
    alpha·I ± A invertible, and one inverse of D yields both rows:
    N = D^{-1}(A - alpha·I) and N^{-1} = -D^{-1}(alpha·I + A).  A singular D
    leaves N to compute_N's fallback, which is then singular itself.
    """
    alpha = conference_alpha(p.k)
    if not is_conference(p):
        raise ValueError("not a conference pair: a*a + d*d != (2k-1)e0")
    plus_row = add_scalar(p.a_row, alpha)
    minus_row = add_scalar(_neg(p.a_row), alpha)
    det_d, det_plus, det_minus = (int(bareiss_determinant(circulant_matrix(row)))
                                  for row in (p.d_row, plus_row, minus_row))
    if det_d == 0:
        n_row, n_inv_row = compute_N(p, alpha, 0, alpha), None
    else:
        d_inv = circulant_inverse(p.d_row)
        n_row = circulant_multiply(d_inv, _neg(minus_row))
        n_inv_row = circulant_multiply(d_inv, _neg(plus_row))
    return ConferenceData(alpha, n_row, n_inv_row, det_d, det_plus, det_minus)


def conference_frame(p: ConferencePair, variant: str,
                     pair_index: int | None = None) -> tuple[FrameSpec, CoordinateFrame]:
    """Coordinate frame over one of the two natural bases of a conference frame.

    Variant "plus" takes columns 1..k as basis (Gram I + A/alpha, X = -N);
    variant "minus" takes columns k+1..2k (Gram I - A/alpha, X = -N^{-1}).
    Requires 2k-1 to be a perfect square and D invertible.
    """
    if variant not in ("plus", "minus"):
        raise ValueError(f"unknown variant {variant!r}")
    k = p.k
    tag = f"t{pair_index}" if pair_index is not None else "?"
    spec = conference_frame_spec(p, label=f"conference:{k}:{tag}:{variant}")
    data = conference_data(p)
    if data.det_d == 0:
        raise SingularDError("D is singular")
    if variant == "plus":
        row, basis = data.n_row, tuple(range(1, k + 1))
    else:
        row, basis = data.n_inv_row, tuple(range(k + 1, 2 * k + 1))
    x = [[-v for v in r] for r in circulant_matrix(row)]
    cf = CoordinateFrame(frame=spec, basis_indices=basis, coords=x, beta=_beta_of(x))
    return spec, cf


def preferred_variant(p: ConferencePair) -> str:
    """'plus' when N = D^{-1}(A - alpha·I) is integral, else 'minus'.

    Integral N makes the plus basis (columns 1..k) coordinatize the frame over
    the integers directly; otherwise the minus basis does, via N^{-1}.
    """
    return "plus" if is_integral(conference_data(p).n_row) else "minus"


def goethals_seidel_coordinates(p: ConferencePair, a, b) -> CoordinateFrame:
    """Coordinates over columns 1..k from the two-parameter construction.

    For any rational a, b with a² + b² = 2k - 1 the remaining columns are
    X = ((alpha+a)I + bN)^{-1} (bI - (alpha+a)N) with N sharing the same
    (a, b); everything stays a circulant, so the work happens on first rows.
    """
    k = p.k
    alpha = conference_alpha(k)
    n_row = compute_N(p, a, b, alpha)
    s = F(alpha) + F(a)
    lead_row = tuple((s if i == 0 else 0) + F(b) * v for i, v in enumerate(n_row))
    rhs_row = tuple((F(b) if i == 0 else 0) - s * v for i, v in enumerate(n_row))
    try:
        lead_inv = circulant_inverse(lead_row)
    except SingularCirculantError as exc:
        raise SingularLeadBlockError("(alpha+a)I + bN is singular") from exc
    x_row = circulant_multiply(lead_inv, rhs_row)
    x = circulant_matrix(x_row)
    spec = conference_frame_spec(p, label=f"conference:{k}:gs")
    return CoordinateFrame(frame=spec, basis_indices=tuple(range(1, k + 1)),
                           coords=[list(row) for row in x], beta=_beta_of(x))


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

_BASIS_6_16 = (1, 2, 3, 4, 5, 9)
_BASIS_7_28 = (1, 2, 3, 4, 5, 6, 16)


def coordinatize(spec: FrameSpec, basis_indices: tuple | None = None) -> CoordinateFrame:
    """Express the non-basis frame vectors over a basis, exactly.

    X solves Q·X = (cross Gram), i.e. X = (G0'G0)^{-1} G0'G1 computed purely
    from Gram submatrices.  Defaults to the greedy-leftmost basis.
    """
    gram = full_gram(spec)
    basis = tuple(basis_indices) if basis_indices else select_basis_greedy(gram, spec.k)
    idx = [b - 1 for b in basis]
    others = [j for j in range(spec.n) if j not in idx]
    q = [[gram[i][j] for j in idx] for i in idx]
    rhs = [[gram[i][j] for j in others] for i in idx]
    x = solve_linear(q, rhs)
    return CoordinateFrame(frame=spec, basis_indices=basis, coords=x, beta=_beta_of(x))


def _explicit_frame(vectors, scale: int, k: int, alpha: int, basis: tuple,
                    label: str) -> tuple[FrameSpec, CoordinateFrame]:
    """Build a frame from integer vector representatives with |v|² = scale."""
    n = len(vectors)
    seidel = []
    for i in range(n):
        row = []
        for j in range(n):
            dot = sum(x * y for x, y in zip(vectors[i], vectors[j]))
            v = F(alpha * dot, scale) - (alpha if i == j else 0)
            assert v.denominator == 1
            row.append(int(v))
        seidel.append(row)
    spec = FrameSpec(k=k, n=n, gamma=F(n, k), alpha=SurdValue(F(alpha)),
                     seidel=seidel, label=label)
    return spec, coordinatize(spec, basis)


def frame_6_16() -> tuple[FrameSpec, CoordinateFrame]:
    """The explicit (6,16) frame, built from a hard-coded sign matrix."""
    rows = [[1 if c == "+" else -1 for c in r.split()] for r in _SIGN_ROWS_6_16]
    vectors = transpose(rows)
    return _explicit_frame(vectors, 6, 6, 3, _BASIS_6_16, "explicit-6-16")


def scaled_vectors_7_28() -> list:
    """The 28 integer representatives (-3 at positions {i,j}, +1 elsewhere),
    index pairs in lexicographic order; true frame vectors are these / sqrt(24)."""
    out = []
    for i, j in combinations(range(8), 2):
        v = [1] * 8
        v[i] = v[j] = -3
        out.append(v)
    return out


def frame_7_28() -> tuple[FrameSpec, CoordinateFrame]:
    """The (7,28) frame carried by 28 permutations of (-3,-3,1,...,1)."""
    return _explicit_frame(scaled_vectors_7_28(), 24, 7, 3, _BASIS_7_28, "explicit-7-28")


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
    """Check Seidel shape, the alpha identity, tightness, and the Gerzon bound.

    Tightness means M² = gamma·M for M = I + (1/alpha)C.  For rational alpha
    this is a direct rational computation.  For alpha = q·sqrt(m) the identity
    is split into its rational and surd parts, which must hold separately:
    C² = (gamma-1)·alpha²·I and (gamma - 2)·C = 0.
    """
    k, n, c = spec.k, spec.n, spec.seidel
    seidel_ok = _seidel_ok(c, n)
    alpha_ok = spec.alpha.squared() == F(k * (n - 1), n - k)
    gerzon_ok = n <= k * (k + 1) // 2

    tight = False
    if seidel_ok:
        if spec.alpha.radicand == 1:
            alpha = spec.alpha.coeff
            m = [[(1 if i == j else 0) + F(c[i][j]) / alpha for j in range(n)]
                 for i in range(n)]
            mm = mat_mul(m, m)
            tight = mm == [[spec.gamma * v for v in row] for row in m]
        else:
            aa = spec.alpha.squared()
            cc = mat_mul([[F(v) for v in row] for row in c],
                         [[F(v) for v in row] for row in c])
            want = (spec.gamma - 1) * aa
            rational_part = cc == [[want if i == j else F(0) for j in range(n)]
                                   for i in range(n)]
            surd_part = spec.gamma == 2 or all(v == 0 for row in c for v in row)
            tight = rational_part and surd_part
    return ValidationReport(seidel_ok=seidel_ok, alpha_ok=alpha_ok,
                            tightness_ok=tight, gerzon_ok=gerzon_ok)
