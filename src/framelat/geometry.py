"""Strong eutaxy and perfection analysis for minimal-vector configurations.

A lattice is strongly eutactic when its signed minimal vectors form a
spherical 2-design, i.e. they sum to zero and satisfy a Parseval-type
identity sum(x x') = c * Q^{-1} in basis coordinates.  It is perfect when
the rank-one forms x x' of the minimal vectors span the full space of
symmetric k x k matrices.  Both tests run on integers: eutaxy against the
model's Gram scaled to integers, perfection as the rank of integer rank-one
forms.

The module also rebuilds the 28 x 28 integer certificate matrix whose
nonzero determinant witnesses perfection of the 7-dimensional lattice
carried by the 28-vector frame, entirely in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import bareiss_determinant, clear_denominators, matrix_rank, transpose
from .frames import scaled_vectors_7_28
from .lattice import LatticeModel, MinVecReport


@dataclass(frozen=True)
class EutaxyReport:
    is_strongly_eutactic: bool
    parseval_constant: Optional[Fraction]  # the c with sum(x x') = c * Q^{-1}
    sum_is_zero: bool


@dataclass(frozen=True)
class PerfectionReport:
    rank: int
    required: int  # k(k+1)/2
    is_perfect: bool


def strong_eutaxy_check(model: LatticeModel, report: MinVecReport) -> EutaxyReport:
    """Test whether the signed minimal vectors form a spherical 2-design.

    Forms the integer matrix S = sum of x x' over all signed minimal vectors
    (twice the sum over the stored +- representatives) and checks
    S·(scale·Q) = c'·I for an integer c' > 0; then c = c'/scale.  That is the
    basis-coordinate restatement of the Cartesian condition sum(v v') = c I,
    so no irrational square roots ever enter.  The signed sum of the minimal
    vectors themselves vanishes identically because the set is closed under
    negation.
    """
    k = model.k
    vecs = report.vectors
    s = [[2 * sum(x[i] * x[j] for x in vecs) for j in range(k)] for i in range(k)]
    scale, q = clear_denominators(model.gram)
    # q is symmetric, so its rows serve as its columns
    sq = [[sum(a * b for a, b in zip(row, col)) for col in q] for row in s]
    c = sq[0][0]
    is_parseval = c > 0 and all(
        sq[i][j] == (c if i == j else 0) for i in range(k) for j in range(k)
    )
    # Each stored representative stands for the pair {x, -x}, so the signed
    # sum telescopes to the zero vector with no computation needed.
    sum_is_zero = True
    return EutaxyReport(
        is_strongly_eutactic=is_parseval and sum_is_zero,
        parseval_constant=Fraction(c, scale) if is_parseval else None,
        sum_is_zero=sum_is_zero,
    )


def _lower_triangle(x: list, k: int) -> list:
    """Vectorize the on-or-below-diagonal entries of x x', length k(k+1)/2."""
    return [x[r] * x[c] for c in range(k) for r in range(c, k)]


def perfection_rank(model: LatticeModel, report: MinVecReport) -> PerfectionReport:
    """Rank of the span of the rank-one forms x x' over the minimal vectors.

    Works with the lower-triangle vectorization (dimension k(k+1)/2); the
    lattice is perfect exactly when that rank is full.  The rank does not
    depend on the coordinate basis, since a basis change maps x x' to
    (Ux)(Ux)' which is a linear bijection on symmetric matrices.
    """
    k = model.k
    required = k * (k + 1) // 2
    rows = [_lower_triangle(x, k) for x in report.vectors]
    rank = matrix_rank(rows) if rows else 0
    return PerfectionReport(rank=rank, required=required, is_perfect=rank == required)


# --- 28x28 perfection certificate for the (7,28) lattice ----------------------

# Rows of the 7x8 integer transform applied to each scaled frame vector:
# row j has j leading ones, then -1, then zeros.  Every row annihilates the
# all-ones vector, so the images live in a 7-dimensional integer lattice.
_TRANSFORM_ROWS_7_28 = tuple(
    tuple([1] * j + [-1] + [0] * (7 - j)) for j in range(1, 8)
)


def perfection_certificate_matrix_7_28() -> list:
    """The 28 x 28 integer matrix whose columns are stacked lower triangles.

    Column j: apply the 7x8 transform to the j-th scaled frame vector
    (lexicographic pair order), take the outer square w w' of the image, and
    stack its on-or-below-diagonal entries column block by column block.
    """
    images = [[sum(row[i] * f[i] for i in range(8)) for row in _TRANSFORM_ROWS_7_28]
              for f in scaled_vectors_7_28()]
    return transpose([_lower_triangle(w, 7) for w in images])


def perfection_certificate_det_7_28() -> int:
    """Exact determinant of the 28 x 28 certificate matrix (equals 3 * 2**159).

    A nonzero value shows the 28 rank-one forms are linearly independent,
    which is the perfection property in dimension 7(7+1)/2 = 28.
    """
    return int(bareiss_determinant(perfection_certificate_matrix_7_28()))
