"""Tests for the exact arithmetic kernel."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from framelat import exact
from framelat.exact import (
    LDLDecomposition,
    NegativeRadicandError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    SurdValue,
    bareiss_determinant,
    floor_sqrt,
    identity,
    ldl_decompose,
    mat_inverse,
    mat_mul,
    matrix_rank,
    pivot_columns,
    solve_linear,
    sqrt_rational,
    squarefree_decompose,
)

F = Fraction


def random_fraction(rng, span=20, den=12):
    return F(rng.randint(-span, span), rng.randint(1, den))


def random_matrix(rng, rows, cols, span=20, den=12):
    return [[random_fraction(rng, span, den) for _ in range(cols)] for _ in range(rows)]


def cofactor_determinant(m):
    """Straightforward Laplace expansion, as an independent oracle."""
    k = len(m)
    if k == 1:
        return m[0][0]
    total = F(0)
    sign = 1
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += sign * m[0][j] * cofactor_determinant(minor)
        sign = -sign
    return total


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------

def test_determinant_identity():
    assert bareiss_determinant(identity(3)) == 1


def test_determinant_singular():
    m = [[1, 2], [2, 4]]
    assert bareiss_determinant(m) == 0


def test_determinant_row_swap_sign():
    m = [[0, 1], [1, 0]]
    assert bareiss_determinant(m) == -1


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(20260816)
    for _ in range(120):
        k = rng.randint(1, 4)
        m = random_matrix(rng, k, k)
        assert bareiss_determinant(m) == cofactor_determinant(m)


def test_determinant_integer_inputs_stay_exact():
    # a deliberately ill-conditioned integer matrix
    m = [[10 ** 9, 10 ** 9 - 1], [10 ** 9 + 1, 10 ** 9]]
    assert bareiss_determinant(m) == 10 ** 18 - (10 ** 18 - 1)


# ---------------------------------------------------------------------------
# rank / solve
# ---------------------------------------------------------------------------

def test_rank_zero_matrix():
    assert matrix_rank([[0] * 4 for _ in range(4)]) == 0


def test_rank_of_products():
    rng = random.Random(7)
    for _ in range(30):
        a = random_matrix(rng, 4, 2)
        b = random_matrix(rng, 2, 4)
        assert matrix_rank(mat_mul(a, b)) <= 2


def minor_rank(m):
    """Largest r with a nonzero r x r minor, as an independent oracle."""
    rows, cols = len(m), len(m[0])
    for r in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), r):
            for ci in combinations(range(cols), r):
                if cofactor_determinant([[m[i][j] for j in ci] for i in ri]) != 0:
                    return r
    return 0


def random_mixed_matrix(rng, rows, cols):
    """Small int and Fraction entries, mixed within one matrix."""
    return [[rng.randint(-3, 3) if rng.random() < 0.5 else F(rng.randint(-3, 3), rng.randint(1, 4))
             for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_minor_oracle():
    rng = random.Random(11)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:
            # rank-deficient: a product through a thinner inner dimension
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            m = mat_mul(random_mixed_matrix(rng, rows, inner), random_mixed_matrix(rng, inner, cols))
        else:
            m = random_mixed_matrix(rng, rows, cols)
        assert matrix_rank(m) == minor_rank(m), m
    # wide, shaped like a perfection matrix: a few rows, k(k+1)/2 columns
    for k in (3, 4):
        for inner in range(1, 5):
            m = mat_mul(random_mixed_matrix(rng, 4, inner), random_mixed_matrix(rng, inner, k * (k + 1) // 2))
            assert matrix_rank(m) == minor_rank(m), m


def test_pivot_columns_are_leftmost_independent():
    rng = random.Random(12)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        inner = rng.randint(1, 3)
        m = mat_mul(random_mixed_matrix(rng, rows, inner), random_mixed_matrix(rng, inner, cols))
        greedy = []
        for j in range(cols):
            trial = greedy + [j]
            if minor_rank([[row[c] for c in trial] for row in m]) == len(trial):
                greedy.append(j)
        assert pivot_columns(m) == greedy, m


def test_solve_identity():
    b = [[1, 2], [3, 4], [5, 6]]
    assert solve_linear(identity(3), b) == b


def test_solve_known_2x2():
    a = [[2, 1], [1, 2]]
    b = [[1], [1]]
    assert solve_linear(a, b) == [[F(1, 3)], [F(1, 3)]]


def test_solve_verified_by_substitution():
    rng = random.Random(99)
    solved = 0
    while solved < 40:
        a = random_matrix(rng, 3, 3)
        if bareiss_determinant(a) == 0:
            continue
        b = random_matrix(rng, 3, 2)
        y = solve_linear(a, b)
        assert mat_mul(a, y) == b
        solved += 1


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_linear([[1, 1], [1, 1]], [[1], [0]])


def test_inverse_roundtrip():
    a = [[3, 1, 0], [1, 3, 1], [0, 1, 3]]
    assert mat_mul(a, mat_inverse(a)) == identity(3)


def test_determinant_and_solution_match_cofactor_and_substitution():
    # B's denominators (17, 19, 23) share nothing with A's (at most 12), so a
    # row scale that left them out would give a wrong determinant
    rng = random.Random(2718)
    singular = swapped = 0
    for trial in range(150):
        k = rng.randint(1, 6)
        a = random_matrix(rng, k, k)
        if trial % 3 == 0:  # a multiple of the first row makes A singular
            c = F(rng.randint(-3, 3), rng.randint(1, 4))
            a[-1] = [c * v for v in a[0]]
        elif trial % 3 == 1 and k > 1:  # a zero (1,1) entry forces a row swap
            a[0][0] = F(0)
            swapped += 1
        width = rng.randint(0, 3)
        b = [[F(rng.randint(-30, 30), rng.choice((17, 19, 23))) for _ in range(width)]
             for _ in range(k)]
        det, y = exact.determinant_and_solution(a, b)
        assert det == cofactor_determinant(a)
        if det == 0:
            singular += 1
            assert y is None
        else:
            assert mat_mul(a, y) == b
    assert singular >= 40 and swapped >= 30


def test_elimination_pivots_are_leading_minors():
    # the forward pass leaves the (i+1)-th leading minor on row i's diagonal
    rng = random.Random(1968)
    checked = 0
    while checked < 60:
        k = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        minors = [cofactor_determinant([row[:i + 1] for row in m[:i + 1]]) for i in range(k)]
        if 0 in minors:
            continue
        e = exact._eliminate(m)
        assert e.pivots == list(range(k)) and e.swaps == 0
        assert [e.rows[i][i] for i in range(k)] == minors
        assert all(e.rows[i][j] == 0 for i in range(k) for j in range(i))
        checked += 1


# ---------------------------------------------------------------------------
# LDL
# ---------------------------------------------------------------------------

def reconstruct(dec: LDLDecomposition):
    """scale·Q rebuilt as the sum of u_j u_j' / (Δ_j Δ_{j+1})."""
    u = dec.rows
    delta = [1] + [u[j][j] for j in range(len(u))]
    return [[sum(F(u[t][i] * u[t][j], delta[t] * delta[t + 1]) for t in range(len(u)))
             for j in range(len(u))] for i in range(len(u))]


def test_ldl_identity():
    dec = ldl_decompose(identity(4))
    assert dec.scale == 1
    assert dec.rows == [[int(i == j) for j in range(4)] for i in range(4)]
    assert dec.minors == [1] * 4


@pytest.mark.parametrize("q", [
    pytest.param([[1, 1], [1, 1]], id="zero-minor"),  # no pivot in column 1
    pytest.param([[1, 1, 0], [1, 1, 1], [0, 1, 5]], id="zero-minor-swap"),
    pytest.param([[0, 1], [1, 0]], id="row-swap"),  # minors 1, 1 after the swap
    pytest.param([[1, 2], [2, 1]], id="negative-minor"),  # minors 1, -3
    pytest.param([[1, 2], [3, 4]], id="not-symmetric"),
    pytest.param([[F(2), F(1, 3), F(0)], [F(1, 3), F(2), F(1, 2)], [F(0), F(1, 3), F(2)]],
                 id="not-symmetric-fraction"),  # only q[1][2] != q[2][1]; symmetric, it is PD
])
def test_ldl_rejects_non_positive_definite(q):
    symmetric = all(q[i][j] == q[j][i] for i in range(len(q)) for j in range(i))
    with pytest.raises(NotPositiveDefiniteError, match=None if symmetric else "not symmetric"):
        ldl_decompose(q)


def test_ldl_reconstruction_property():
    # >= 100 randomized instances: Q = A'A + I is positive definite
    rng = random.Random(20260401)
    for _ in range(110):
        k = rng.randint(1, 5)
        a = random_matrix(rng, k, k, span=6, den=4)
        q = mat_mul(exact.transpose(a), a)
        for i in range(k):
            q[i][i] += 1
        dec = ldl_decompose(q)
        assert all(d > 0 for d in dec.minors)
        scaled = [[dec.scale * v for v in row] for row in q]
        assert all(v.denominator == 1 for row in scaled for v in row)
        assert reconstruct(dec) == scaled
        for j in range(k):
            assert all(type(v) is int for v in dec.rows[j])
            assert dec.rows[j][:j] == [0] * j
            lead = [row[:j + 1] for row in scaled[:j + 1]]
            assert dec.minors[j] == cofactor_determinant(lead)


# ---------------------------------------------------------------------------
# surds
# ---------------------------------------------------------------------------

def test_squarefree_decompose_basics():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(48) == (4, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(0) == (0, 1)


def test_squarefree_decompose_matches_trial_division():
    for n in range(1, 20000):
        m, f, rest, p = 1, 1, n, 2
        while p * p <= rest:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            m *= p ** (e // 2)
            f *= p ** (e % 2)
            p += 1
        assert squarefree_decompose(n) == (m, f * rest), n


def test_squarefree_decompose_large_cofactors():
    # a square of a large prime, and a product of two large primes: both are
    # left after trial division stops at the cube root
    assert squarefree_decompose(1000000007 ** 2) == (1000000007, 1)
    assert squarefree_decompose(1000000007 * 998244353) == (1, 1000000007 * 998244353)


def test_sqrt_rational_perfect_square():
    s = sqrt_rational(F(48, 3 ** 5))
    assert s == F(4, 9)
    assert s.radicand == 1
    assert len({sqrt_rational(4), SurdValue(F(2))}) == 1


def test_sqrt_rational_surd():
    s = sqrt_rational(F(2 ** 6, 3 ** 7))
    assert s.coeff == F(8, 81)
    assert s.radicand == 3


def test_sqrt_zero():
    s = sqrt_rational(0)
    assert s.coeff == 0 and s.radicand == 1


def test_sqrt_negative_raises():
    with pytest.raises(NegativeRadicandError):
        sqrt_rational(F(-1, 4))


def test_sqrt_squares_back_property():
    # spec-level property: sqrt(r)^2 == r, 1000 random non-negative rationals
    rng = random.Random(1234)
    for _ in range(1000):
        r = F(rng.randint(0, 400), rng.randint(1, 60))
        s = sqrt_rational(r)
        assert s.squared() == r
        assert s.coeff >= 0


def test_surd_normalization_idempotent_property():
    rng = random.Random(4321)
    for _ in range(200):
        coeff = random_fraction(rng, span=30, den=15)
        rad = rng.randint(0, 300)
        s = SurdValue(coeff, rad)
        again = SurdValue(s.coeff, s.radicand)
        assert again == s
        # radicand must be squarefree
        m, f = squarefree_decompose(s.radicand)
        assert m == 1 and f == s.radicand
        # value is preserved: compare squares and signs
        assert s.squared() == coeff * coeff * rad
    assert SurdValue(F(0), 17).radicand == 1


def test_floor_sqrt_exact():
    assert floor_sqrt(F(99, 4)) == 4   # sqrt = 4.97
    assert floor_sqrt(F(100, 4)) == 5
    assert floor_sqrt(0) == 0
    rng = random.Random(55)
    for _ in range(200):
        r = F(rng.randint(0, 10 ** 6), rng.randint(1, 1000))
        f = floor_sqrt(r)
        assert F(f) ** 2 <= r < F(f + 1) ** 2
