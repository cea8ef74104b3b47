"""Lattices from coordinate frames: exact short-vector enumeration,
determinants, packing density, and scalar-orthogonal equivalence.

Everything except packing_density and the non-lattice demo is exact.  A
LatticeModel is its Gram matrix alone (k is the Gram's size) and carries one
fraction-free LDL' of it, scaled to integers; a Gram that is not positive
definite raises NotPositiveDefiniteError there.  The LDL' gives the determinant
and drives a Fincke-Pohst depth-first search whose intervals come from
math.isqrt on integers.  The search walks half the tree: while every coordinate above level
j is 0, x_j starts at 0, so it yields exactly the one of x and -x whose topmost
nonzero coordinate is positive, and _canonical maps that one to the same
representative as the other.  Partial centres are summed over the nonzero
coordinates only.  Each leaf's remainder gives its exact norm, so the search
returns (vector, norm) pairs and nothing recomputes a norm from the Gram.  The
search is cross-checked elsewhere, vectors and norms, against a certified
brute-force box scan on the dual-certificate box: it visits every head of the
first k-1 coordinates and, for the last one, only the integer interval
between the roots of the head's quadratic in it (from math.isqrt of the
discriminant, widened by 1 on each side and clipped to the box), testing
every candidate's norm.  A MinVecReport keeps the minimum and one representative
per +- pair; the count with signs is twice their number.  The alpha gate is a
bool: irrational alpha, no lattice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from operator import mul

from .exact import (
    LDLDecomposition,
    Mat,
    SizeMismatchError,
    SurdValue,
    bareiss_determinant,
    floor_sqrt,
    ldl_decompose,
    mat_inverse,
    sqrt_rational,
)
from .frames import CoordinateFrame, basis_gram, frame_alpha

F = Fraction

SUBSET_BUDGET = 10 ** 6  # determinant evaluations has_basis_of_minimal_vectors may spend


class SearchBudgetExceededError(RuntimeError):
    """Subset search hit its determinant-evaluation cap; status indeterminate."""


@dataclass(frozen=True)
class LatticeModel:
    gram: list  # k x k symmetric positive definite rational matrix

    @property
    def k(self) -> int:
        return len(self.gram)

    @cached_property
    def ldl(self) -> LDLDecomposition:
        """The Gram's one LDL'; raises NotPositiveDefiniteError."""
        return ldl_decompose(self.gram)


@dataclass(frozen=True)
class MinVecReport:
    min_norm_sq: Fraction
    vectors: list  # one canonical representative per +- pair, lex sorted


def alpha_gate(k: int, n: int) -> bool:
    """Whether the (k,n) frame family spans a lattice, decided from alpha alone.

    alpha is ``frames.frame_alpha(k, n)`` (ValueError unless 2 <= k < n).
    Irrational alpha rules a lattice out; rational alpha makes the whole Gram
    rational, hence every frame coordinate rational, which certifies a
    full-rank lattice (the converse direction is re-verified constructively by
    coordinatize, which finds rational coordinates over a basis for each
    concrete frame).
    """
    return frame_alpha(k, n).radicand == 1


def lattice_model(cf: CoordinateFrame) -> LatticeModel:
    return LatticeModel(basis_gram(cf))


def lattice_determinant(model: LatticeModel) -> SurdValue:
    """Exact sqrt(det gram) as coefficient times a squarefree radical."""
    dec = model.ldl  # det(scale·gram) is the last leading minor
    return sqrt_rational(F(dec.minors[-1], dec.scale ** model.k))


def enumerate_short_vectors(model: LatticeModel, bound_sq) -> list:
    """All nonzero integer x with x'·gram·x <= bound_sq, exactly, one per +- pair.

    With LDL' rows u_j, minors Δ_j, M = lcm(Δ_j Δ_{j+1}) and
    w_j = M / (Δ_j Δ_{j+1}), the condition is the integer inequality
    Σ_j w_j (Δ_{j+1} x_j + s_j)² <= M·floor(bound_sq·scale) with
    s_j = Σ_{i>j} u_j[i] x_i, summed over the levels i with x_i != 0.  Depth
    first over x_{k-1}..x_0, level j keeps |Δ_{j+1} x_j + s_j| <= isqrt(rem // w_j),
    and x_j >= 0 while x_{j+1..k-1} are all 0.  Of x and -x exactly one has a
    positive topmost nonzero coordinate, so each pair is visited once.  A leaf
    keeps rem = top - Σ_j w_j t_j² = top - M·x'(scale·gram)x, so its norm
    (top - rem) / (M·scale) is exact.  Returns (x, x'·gram·x) pairs, x the
    canonical representative (first nonzero coordinate positive) and the norm
    a Fraction, sorted lexicographically by x.
    """
    k = model.k
    dec = model.ldl
    u = dec.rows
    delta = [1, *dec.minors]
    m = math.lcm(*(delta[j] * delta[j + 1] for j in range(k)))
    w = [m // (delta[j] * delta[j + 1]) for j in range(k)]
    bound = F(bound_sq) * dec.scale
    out = []
    x = [0] * k
    nonzero = []  # the levels above j whose x_i != 0

    def descend(j: int, rem: int) -> None:
        if j < 0:
            if nonzero:
                out.append((_canonical(x), rem))
            return
        row = u[j]
        s = sum(row[i] * x[i] for i in nonzero)
        d = delta[j + 1]
        r = math.isqrt(rem // w[j])
        for v in range(-((r + s) // d) if nonzero else 0, (r - s) // d + 1):
            t = d * v + s
            if v:
                x[j] = v
                nonzero.append(j)
                descend(j - 1, rem - w[j] * t * t)
                nonzero.pop()
                x[j] = 0
            else:
                descend(j - 1, rem - w[j] * t * t)

    top = m * max(0, bound.numerator // bound.denominator)
    descend(k - 1, top)
    return [(v, F(top - rem, m * dec.scale)) for v, rem in sorted(out)]


def minimal_vectors(model: LatticeModel) -> MinVecReport:
    """Exact minimum norm and all attaining vectors, read off the search's
    (x, norm) pairs.

    The enumeration bound is the smallest Gram diagonal entry — a valid upper
    bound for the minimum since unit coordinate vectors are lattice vectors
    (and equal to 1 on unit frames).
    """
    bound = min(model.gram[i][i] for i in range(model.k))
    short = enumerate_short_vectors(model, bound)
    least = min(t for _, t in short)
    return MinVecReport(min_norm_sq=least, vectors=[v for v, t in short if t == least])


def _canonical(v) -> tuple:
    first = next((t for t in v if t), 0)
    if first < 0:
        return tuple(-t for t in v)
    return tuple(v)


def frame_vectors_are_minimal(cf: CoordinateFrame, report: MinVecReport) -> bool:
    """True iff the minimal vectors of cf's basis lattice are exactly +- the frame vectors.

    A frame vector with a non-integer coordinate over the basis (beta != 1)
    is not a lattice point, so then the answer is False.
    """
    return cf.beta == 1 and set(report.vectors) == {
        _canonical([int(v) for v in col]) for col in zip(*cf.coords)}


def has_basis_of_minimal_vectors(model: LatticeModel, report: MinVecReport) -> bool:
    """Whether k minimal vectors generate the whole lattice (determinant +-1).

    The identity sub-basis is checked first; every frame family built here
    resolves there.  Otherwise k-subsets are tried with exact determinants,
    up to ``SUBSET_BUDGET`` evaluations.
    """
    k = model.k
    vecs = report.vectors
    units = {tuple(1 if i == t else 0 for i in range(k)) for t in range(k)}
    if units <= set(vecs):
        return True
    budget = SUBSET_BUDGET
    for subset in combinations(vecs, k):
        budget -= 1
        if budget < 0:
            raise SearchBudgetExceededError(f"exceeded {SUBSET_BUDGET} determinant evaluations")
        if abs(bareiss_determinant([list(v) for v in subset])) == 1:
            return True
    return False


def brute_force_short_vectors(model: LatticeModel, bound_sq) -> list:
    """Certified box-scan oracle for enumerate_short_vectors.

    Coordinates are bounded by the dual certificate |x_i| <= sqrt(bound ·
    (Q^{-1})_ii), valid because x_i = e_i' Q^{-1} (Qx) and Cauchy-Schwarz in
    the Q-inner product gives x_i² <= (Q^{-1})_ii · x'Qx.  The scan runs on
    Python integers after clearing denominators.  Returns the same (x, x'Qx)
    pairs as enumerate_short_vectors, each norm computed by the scan itself.
    """
    gram = model.gram
    k = model.k
    ldl_decompose(gram)  # NotPositiveDefiniteError
    bound = F(bound_sq)
    inv = mat_inverse(gram)
    radii = [floor_sqrt(bound * inv[i][i]) for i in range(k)]

    den = math.lcm(bound.denominator,
                   *[F(gram[i][j]).denominator for i in range(k) for j in range(k)])
    q_int = [[int(F(gram[i][j]) * den) for j in range(k)] for i in range(k)]
    bound_int = int(bound * den)

    # x'Qx = h'Q_hh h + t·(2·q_th·h + q_tt·t) for x = (h, t).  For each head h,
    # x'Qx <= bound holds between the roots (-lin ± sqrt(disc)) / (2·q_tt) of a
    # quadratic in t; they are rounded inward from isqrt(disc), widened by 1 so
    # that no rounding decides a candidate, and clipped to the box, and every t
    # left is tested
    *head_radii, r_last = radii
    q_last = q_int[-1]
    two_q = 2 * q_last[-1]
    canon = {}
    for head in product(*(range(-r, r + 1) for r in head_radii)):
        base = sum(hi * sum(map(mul, row, head)) for hi, row in zip(head, q_int))
        lin = 2 * sum(map(mul, q_last, head))
        disc = lin * lin - 2 * two_q * (base - bound_int)
        if disc < 0:
            continue
        s = math.isqrt(disc)
        for t in range(max(-r_last, -((lin + s) // two_q) - 1),
                       min(r_last, (s - lin) // two_q + 1) + 1):
            norm = base + t * (lin + q_last[-1] * t)
            if norm <= bound_int and (t or any(head)):
                canon[_canonical(head + (t,))] = F(norm, den)
    return sorted(canon.items())


def _log(r) -> float:
    """Natural log of a positive rational, from its exact numerator and denominator."""
    return math.log(r.numerator) - math.log(r.denominator)


def packing_density(model: LatticeModel, report: MinVecReport) -> float:
    """Sphere-packing density; the one deliberately floating-point quantity.

    pi^(k/2)·d^k / (Gamma(k/2 + 1)·2^k·det).  Where a float of d², det or
    Gamma overflows or reaches 0 (Gamma from k = 342 on, d² and det on Grams
    scaled past the float range), it is taken in logs of the exact d² and
    det instead; density is scale invariant, so it stays finite there.
    """
    k = model.k
    vol = lattice_determinant(model)
    try:
        d = math.sqrt(float(report.min_norm_sq))
        det = float(vol)
        omega = math.pi ** (k / 2) / math.gamma(k / 2 + 1)
        density = omega * d ** k / (2 ** k * det)
    except (OverflowError, ZeroDivisionError):
        density = 0.0
    if density > 0:
        return density
    log_det = _log(vol.coeff) + math.log(vol.radicand) / 2
    return math.exp(k / 2 * math.log(math.pi) - math.lgamma(k / 2 + 1)
                    + k * (_log(report.min_norm_sq) / 2 - math.log(2)) - log_det)


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
    if ratio is None or ratio <= 0:
        return None
    # a = (p/q)·b, cross-multiplied over the numerators and denominators
    p, q = ratio.numerator, ratio.denominator
    for a, b in pairs:
        if a.numerator * b.denominator * q != p * b.numerator * a.denominator:
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

    x + p·y cancels in floating point, so it is computed as
    (x² + xy - y²)/(x + q·y) with q = (1-sqrt 5)/2: the numerator is +-1
    (Cassini's identity) and the two terms of the denominator share a sign.
    A step whose norm is not a positive normal float raises ValueError.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    p = (1 + math.sqrt(5)) / 2
    q = (1 - math.sqrt(5)) / 2
    out = []
    x, y = -1, 1
    for step in range(1, steps + 1):
        coeffs = (x + y, y - x, y, y, x, -x)
        err = (x * x + x * y - y * y) / (x + q * y)
        norm = 8 * err * err / (1 + p * p)
        if not norm >= sys.float_info.min:
            raise ValueError(f"|v|^2 at step {step} is below the smallest normal float, "
                             f"so at most {step - 1} steps can be shown")
        out.append((coeffs, norm))
        x, y = -(abs(x) + y), abs(x)
    return out
