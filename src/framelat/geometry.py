"""Strong eutaxy and perfection analysis for minimal-vector configurations.

A lattice is strongly eutactic when its signed minimal vectors form a
spherical 2-design, i.e. they sum to zero and satisfy a Parseval-type
identity sum(x x') = c * Q^{-1} in basis coordinates.  It is perfect when
the rank-one forms x x' of the minimal vectors span the full space of
symmetric k x k matrices.  Both tests run on integers: eutaxy against the
model's Gram scaled to integers, perfection as the rank of the n x n Gram
matrix of those forms, whose entries are the squared dot products (x·y)².
Each returns only what a caller cannot derive: the Parseval constant
c (None when not strongly eutactic) and the rank (perfect exactly when it is
k(k+1)/2).

The module also rebuilds the 28 x 28 integer certificate matrix whose
nonzero determinant witnesses perfection of the 7-dimensional lattice
carried by the 28-vector frame, entirely in integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .exact import bareiss_determinant, clear_denominators, matrix_rank, transpose
from .frames import scaled_vectors_7_28
from .lattice import LatticeModel, MinVecReport


def strong_eutaxy_check(model: LatticeModel, report: MinVecReport) -> Fraction | None:
    """The c with sum(x x') = c * Q^{-1} over the signed minimal vectors, or
    None when they do not form a spherical 2-design.

    Forms the integer matrix S = sum of x x' over all signed minimal vectors
    (twice the sum over the stored +- representatives) and checks
    S·(scale·Q) = c'·I for an integer c' > 0; then c = c'/scale.  That is the
    basis-coordinate restatement of the Cartesian condition sum(v v') = c I,
    so no irrational square roots ever enter.  The signed sum of the minimal
    vectors themselves vanishes identically because the set is closed under
    negation.
    """
    vecs = report.vectors
    if not vecs:
        return None
    scale, q = clear_denominators(model.gram)
    # S = 2·X'X for the rows x of X, so S is twice the dot-product Gram of the
    # columns of X; q is symmetric, so its rows serve as its columns
    sq = [[2 * sum(map(mul, row, col)) for col in q] for row in _dot_gram(list(zip(*vecs)))]
    c = sq[0][0]
    is_parseval = c > 0 and all(
        e == (c if i == j else 0) for i, row in enumerate(sq) for j, e in enumerate(row)
    )
    # Each stored representative stands for the pair {x, -x}, so the signed
    # sum telescopes to the zero vector with no computation needed.
    return Fraction(c, scale) if is_parseval else None


def _dot_gram(rows: list) -> list:
    """The symmetric matrix of dot products of the rows, filled from its upper triangle."""
    g = [[0] * len(rows) for _ in rows]
    for i, x in enumerate(rows):
        for j in range(i, len(rows)):
            g[i][j] = g[j][i] = sum(map(mul, x, rows[j]))
    return g


def _lower_triangle(x: list, k: int) -> list:
    """Vectorize the on-or-below-diagonal entries of x x', length k(k+1)/2."""
    return [x[r] * x[c] for c in range(k) for r in range(c, k)]


def perfection_rank(model: LatticeModel, report: MinVecReport) -> int:
    """Rank of the span of the rank-one forms x x' over the minimal vectors.

    The lattice is perfect exactly when the rank is k(k+1)/2.  With V the
    matrix whose rows vectorize the forms, <x x', y y'> = (x·y)² in the
    trace inner product, so VV' is the n x n matrix H of squared dot products,
    and rank V = rank VV' over the rationals.  Any injective vectorization of
    symmetric matrices (such as _lower_triangle) gives the same rank.  The
    rank depends on the vectors only, not on the Gram in ``model``, and not on
    the coordinate basis: a basis change maps x x' to (Ux)(Ux)', a linear
    bijection on symmetric matrices.
    """
    return matrix_rank([[d * d for d in row] for row in _dot_gram(report.vectors)])


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
