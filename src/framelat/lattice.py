"""Lattices from coordinate frames: exact short-vector enumeration,
determinants, packing density, and scalar-orthogonal equivalence.

Everything except packing_density and the non-lattice demo is exact.  Each
LatticeModel carries one fraction-free LDL' of its Gram matrix, scaled to
integers; it settles positive definiteness and the determinant, and drives a
Fincke-Pohst depth-first search whose intervals come from math.isqrt on
integers.  The search is cross-checked elsewhere against a certified
brute-force box scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Optional

from .exact import (
    LDLDecomposition,
    Mat,
    PivotBreakdownError,
    SizeMismatchError,
    SurdValue,
    bareiss_determinant,
    clear_denominators,
    floor_sqrt,
    ldl_decompose,
    mat_inverse,
    sqrt_rational,
)
from .frames import CoordinateFrame, basis_gram, coordinate_columns, frame_alpha

F = Fraction


class NotPositiveDefiniteError(ValueError):
    pass


class SearchBudgetExceededError(RuntimeError):
    """Subset search hit its determinant-evaluation cap; status indeterminate."""


@dataclass(frozen=True)
class LatticeModel:
    k: int
    gram: list  # k x k symmetric positive definite rational matrix
    coord_frame: Optional[CoordinateFrame] = None

    @cached_property
    def ldl(self) -> LDLDecomposition:
        """The Gram's one LDL'; raises NotPositiveDefiniteError."""
        return _pd_ldl(self.gram)


@dataclass(frozen=True)
class MinVecReport:
    min_norm_sq: Fraction
    vectors: list  # one canonical representative per +- pair, lex sorted
    count_with_signs: int


@dataclass(frozen=True)
class LatticeVerdict:
    is_lattice: bool
    reason: str  # "RationalAlpha" | "IrrationalAlpha"
    alpha: SurdValue


def alpha_gate(k: int, n: int) -> LatticeVerdict:
    """Decide lattice-ness of the (k,n) frame family from alpha alone.

    alpha is ``frames.frame_alpha(k, n)`` (ValueError unless 2 <= k < n).
    Irrational alpha rules a lattice out; rational alpha makes the whole Gram
    rational, hence every frame coordinate rational, which certifies a
    full-rank lattice (the converse direction is re-verified constructively by
    coordinatize, which finds rational coordinates over a basis for each
    concrete frame).
    """
    alpha = frame_alpha(k, n)
    rational = alpha.radicand == 1
    return LatticeVerdict(is_lattice=rational,
                          reason="RationalAlpha" if rational else "IrrationalAlpha",
                          alpha=alpha)


def lattice_model(cf: CoordinateFrame) -> LatticeModel:
    return LatticeModel(k=cf.frame.k, gram=basis_gram(cf), coord_frame=cf)


def _pd_ldl(gram):
    try:
        dec = ldl_decompose(gram)
    except PivotBreakdownError as exc:
        raise NotPositiveDefiniteError("gram is not positive definite") from exc
    if not dec.is_positive_definite():
        raise NotPositiveDefiniteError("gram is not positive definite")
    return dec


def lattice_determinant(model: LatticeModel) -> SurdValue:
    """Exact sqrt(det gram) as coefficient times a squarefree radical."""
    dec = model.ldl  # det(scale·gram) is the last leading minor
    return sqrt_rational(F(dec.minors[-1], dec.scale ** model.k))


def enumerate_short_vectors(model: LatticeModel, bound_sq) -> list:
    """All nonzero integer x with x'·gram·x <= bound_sq, exactly.

    With LDL' rows u_j, minors Δ_j, M = lcm(Δ_j Δ_{j+1}) and
    w_j = M / (Δ_j Δ_{j+1}), the condition is the integer inequality
    Σ_j w_j (Δ_{j+1} x_j + s_j)² <= M·floor(bound_sq·scale) with
    s_j = Σ_{i>j} u_j[i] x_i.  Depth first over x_{k-1}..x_0, level j keeps
    |Δ_{j+1} x_j + s_j| <= isqrt(rem // w_j).  One canonical representative
    per +- pair (first nonzero coordinate positive), sorted lexicographically.
    """
    k = model.k
    dec = model.ldl
    u = dec.rows
    delta = [1, *dec.minors]
    m = math.lcm(*(delta[j] * delta[j + 1] for j in range(k)))
    w = [m // (delta[j] * delta[j + 1]) for j in range(k)]
    bound = F(bound_sq) * dec.scale
    out = set()
    x = [0] * k

    def descend(j: int, rem: int) -> None:
        if j < 0:
            if any(x):
                out.add(_canonical(x))
            return
        s = sum(u[j][i] * x[i] for i in range(j + 1, k))
        d = delta[j + 1]
        r = math.isqrt(rem // w[j])
        for v in range(-((r + s) // d), (r - s) // d + 1):
            x[j] = v
            t = d * v + s
            descend(j - 1, rem - w[j] * t * t)
        x[j] = 0

    descend(k - 1, m * max(0, bound.numerator // bound.denominator))
    return sorted(out)


def minimal_vectors(model: LatticeModel) -> MinVecReport:
    """Exact minimum norm and all attaining vectors.

    The enumeration bound is the smallest Gram diagonal entry — a valid upper
    bound for the minimum since unit coordinate vectors are lattice vectors
    (and equal to 1 on unit frames).
    """
    bound = min(model.gram[i][i] for i in range(model.k))
    short = enumerate_short_vectors(model, bound)
    scale, q = clear_denominators(model.gram)
    norms = [sum(xi * sum(e * xj for e, xj in zip(row, x)) for xi, row in zip(x, q))
             for x in short]
    least = min(norms)
    vecs = [v for v, t in zip(short, norms) if t == least]
    return MinVecReport(min_norm_sq=F(least, scale), vectors=vecs,
                        count_with_signs=2 * len(vecs))


def _canonical(v) -> tuple:
    first = next((t for t in v if t), 0)
    if first < 0:
        return tuple(-t for t in v)
    return tuple(v)


def frame_coordinate_columns(cf: CoordinateFrame):
    """Coordinates of all n frame vectors over the basis, if integral.

    Returns the canonical +-representatives of ``coordinate_columns(cf)``, in
    frame order, or None when some frame vector has a non-integer
    coordinate and therefore is not a lattice point of the basis lattice.
    """
    if cf.beta != 1:
        return None
    return [_canonical([int(v) for v in col]) for col in coordinate_columns(cf)]


def frame_vectors_are_minimal(model: LatticeModel, report: MinVecReport) -> bool:
    """True iff the minimal vectors are exactly +- the frame vectors."""
    if model.coord_frame is None:
        return False
    cols = frame_coordinate_columns(model.coord_frame)
    if cols is None:
        return False
    return set(report.vectors) == set(cols)


def has_basis_of_minimal_vectors(model: LatticeModel, report: MinVecReport,
                                 cap: int = 10 ** 6) -> bool:
    """Whether k minimal vectors generate the whole lattice (determinant +-1).

    The identity sub-basis is checked first; every frame family built here
    resolves there.  Otherwise k-subsets are tried with exact determinants,
    up to `cap` evaluations.
    """
    k = model.k
    vecs = report.vectors
    units = {tuple(1 if i == t else 0 for i in range(k)) for t in range(k)}
    if units <= set(vecs):
        return True
    budget = cap
    for subset in combinations(vecs, k):
        budget -= 1
        if budget < 0:
            raise SearchBudgetExceededError(f"exceeded {cap} determinant evaluations")
        if abs(bareiss_determinant([list(v) for v in subset])) == 1:
            return True
    return False


def brute_force_short_vectors(model: LatticeModel, bound_sq) -> list:
    """Certified box-scan oracle for enumerate_short_vectors.

    Coordinates are bounded by the dual certificate |x_i| <= sqrt(bound ·
    (Q^{-1})_ii), valid because x_i = e_i' Q^{-1} (Qx) and Cauchy-Schwarz in
    the Q-inner product gives x_i² <= (Q^{-1})_ii · x'Qx.  The scan runs on
    Python integers after clearing denominators.
    """
    gram = model.gram
    k = model.k
    _pd_ldl(gram)
    bound = F(bound_sq)
    inv = mat_inverse(gram)
    radii = [floor_sqrt(bound * inv[i][i]) for i in range(k)]

    den = math.lcm(bound.denominator,
                   *[F(gram[i][j]).denominator for i in range(k) for j in range(k)])
    q_int = [[int(F(gram[i][j]) * den) for j in range(k)] for i in range(k)]
    bound_int = int(bound * den)

    # x'Qx = h'Q_hh h + t·(2·q_th·h + q_tt·t) for x = (h, t): one inner loop
    # per head h over the last coordinate t
    *head_radii, r_last = radii
    q_last = q_int[-1]
    canon = set()
    for head in product(*(range(-r, r + 1) for r in head_radii)):
        base = sum(hi * sum(q * hj for q, hj in zip(row, head)) for hi, row in zip(head, q_int))
        lin = 2 * sum(q * hj for q, hj in zip(q_last, head))
        for t in range(-r_last, r_last + 1):
            if base + t * (lin + q_last[-1] * t) <= bound_int and (t or any(head)):
                canon.add(_canonical(head + (t,)))
    return sorted(canon)


def packing_density(model: LatticeModel, report: MinVecReport) -> float:
    """Sphere-packing density; the one deliberately floating-point quantity."""
    k = model.k
    omega = math.pi ** (k / 2) / math.gamma(k / 2 + 1)
    d = math.sqrt(float(report.min_norm_sq))
    det = float(lattice_determinant(model))
    return omega * d ** k / (2 ** k * det)


def scalar_orthogonal_equivalence(q1: Mat, q2: Mat):
    """c² with q1 = c²·q2 entrywise, or None.

    For basis matrices X, Y with Grams q1, q2 this is exactly the relation
    "X·Y^{-1} is a nonzero scalar multiple of an orthogonal matrix".
    """
    k = len(q1)
    if len(q2) != k or any(len(r) != k for r in q1) or any(len(r) != k for r in q2):
        raise SizeMismatchError("grams differ in size")
    pairs = [(a, b) for r1, r2 in zip(q1, q2) for a, b in zip(r1, r2)]
    ratio = next((F(a) / b for a, b in pairs if b != 0), None)
    if ratio is None or ratio <= 0 or any(a != ratio * b for a, b in pairs):
        return None
    return ratio


def equivalence_classes(grams: list) -> list:
    """Partition indices 0..len-1 under scalar-orthogonal equivalence,
    classes ordered by smallest member."""
    classes: list[list[int]] = []
    for i, g in enumerate(grams):
        for cls in classes:
            if scalar_orthogonal_equivalence(g, grams[cls[0]]) is not None:
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


def non_lattice_witness_3_6(steps: int) -> list:
    """Ever-shorter nonzero vectors in the icosahedral frame's integer span.

    Walks the continued-fraction convergents x/y of the golden ratio
    p = (1+sqrt 5)/2 (so x = -Fib(n+1), y = Fib(n)), forms the integer
    combination (x+y, y-x, y, y, x, -x) of the six frame vectors, whose
    squared length is 8(x+py)²/(1+p²) — strictly decreasing and -> 0,
    so the span is not discrete and no lattice exists.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    p = (1 + math.sqrt(5)) / 2
    out = []
    x, y = -1, 1
    for _ in range(steps):
        coeffs = (x + y, y - x, y, y, x, -x)
        err = x + p * y
        norm = 8 * err * err / (1 + p * p)
        out.append((coeffs, norm))
        x, y = -(abs(x) + y), abs(x)
    return out
