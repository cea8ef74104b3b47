"""Tests for frame constructions and the checks that certify them."""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from framelat import circulant
from framelat.circulant import (
    ConferencePair,
    add_scalar,
    circulant_inverse,
    circulant_matrix,
    circulant_multiply,
    compute_N,
    load_pairs,
    search_conference_pairs,
)
from framelat.exact import (
    SurdValue,
    bareiss_determinant,
    clear_denominators,
    ldl_decompose,
    mat_mul,
    transpose,
)
from framelat.frames import (
    FrameSpec,
    IrrationalAlphaError,
    _explicit_frame,
    basis_gram,
    conference_data,
    conference_frame,
    conference_frame_spec,
    coordinatize,
    frame_6_16,
    frame_7_28,
    frame_alpha,
    rational_alpha,
    select_basis_greedy,
    simplex_frame,
)

F = Fraction


def full_gram(spec):
    """Reference n x n Gram I + (1/alpha)·C; rational alpha only."""
    alpha = rational_alpha(spec.k, spec.n)
    return [[(i == j) + F(v) / alpha for j, v in enumerate(row)]
            for i, row in enumerate(spec.seidel)]


def det_of_basis_gram(cf):
    return bareiss_determinant(basis_gram(cf))


def gram_consistency_holds(cf):
    """Oracle: P'·Q·P = I + (1/alpha)·C over all column pairs, exactly."""
    p = cf.coords
    return mat_mul(transpose(p), mat_mul(basis_gram(cf), p)) == full_gram(cf.frame)


def gram_is_tight(spec):
    """Definition oracle: M² = gamma·M on the rational Gram M, with denominators
    cleared first."""
    scale, m = clear_denominators(full_gram(spec))
    g = F(spec.n, spec.k) * scale
    return mat_mul(m, m) == [[g * v for v in row] for row in m]


# --- simplex ---------------------------------------------------------------

def test_simplex_small():
    cf = simplex_frame(3)
    spec = cf.frame
    g = full_gram(spec)
    assert all(g[i][j] == (1 if i == j else F(-1, 3)) for i in range(4) for j in range(4))
    assert cf.coords == [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
    assert cf.beta == 1
    assert gram_consistency_holds(cf)


def test_simplex_alpha_and_gerzon():
    spec = simplex_frame(9).frame
    assert frame_alpha(spec.k, spec.n) == SurdValue(F(9))
    assert spec.n <= spec.k * (spec.k + 1) // 2


def test_simplex_determinant_formula():
    for k in (2, 3, 5, 8):
        cf = simplex_frame(k)
        expect = F(1, k + 1) * (1 + F(1, k)) ** k
        assert det_of_basis_gram(cf) == expect


def test_simplex_validates():
    # the simplex is a frame by its formula; coordinatize accepts its spec and
    # solves back to the formula's P = [I | -1]
    for k in (2, 4, 7):
        cf = simplex_frame(k)
        assert coordinatize(cf.frame) == cf


# --- conference frames -------------------------------------------------------

def test_conference_plus_5_10():
    pairs = search_conference_pairs(5)
    cf = conference_frame(pairs[0], "plus")
    spec = cf.frame
    assert (spec.k, spec.n) == (5, 10)
    assert frame_alpha(spec.k, spec.n) == SurdValue(F(3))
    q = basis_gram(cf)
    # basis Gram is I + A/3
    assert q[0][0] == 1 and q[0][2] == F(1, 3)
    assert cf.beta == 1  # -N is integral
    assert cf.coords[0][:5] == [1, 0, 0, 0, 0]
    assert cf.coords[0][5:] == [-1, 0, 1, 1, 0]
    assert gram_consistency_holds(cf)


def test_conference_minus_5_10():
    pairs = search_conference_pairs(5)
    cf = conference_frame(pairs[0], "minus")
    spec = cf.frame
    assert cf.basis_indices == (6, 7, 8, 9, 10)
    # N is unimodular here (|det N| = |det(A-3I)| / |det D| = 48/48), so
    # -N^{-1} is integral as well
    assert cf.beta == 1
    assert gram_consistency_holds(cf)


def test_conference_minus_13_26():
    pairs = search_conference_pairs(13)
    cf = conference_frame(pairs[4], "minus")
    spec = cf.frame
    assert cf.beta == 1
    assert gram_consistency_holds(cf)
    q = basis_gram(cf)
    # minus-variant Gram is I - A/5
    a_head = pairs[4].a_row
    assert q[0][1] == -F(a_head[1], 5)


def test_conference_irrational_alpha():
    pairs = search_conference_pairs(3)
    assert pairs, "k=3 admits conference pairs even though 2k-1=5 is no square"
    with pytest.raises(IrrationalAlphaError):
        conference_frame(pairs[0], "plus")


def test_conference_spec_irrational_still_tight():
    # the frame itself exists for k=3; tightness holds in the field extension
    pairs = search_conference_pairs(3)
    spec = conference_frame_spec(pairs[0])
    assert frame_alpha(spec.k, spec.n).radicand == 5
    # M² = gamma·M for M = I + C/alpha at gamma = 2 is C² = alpha²·I = 5·I
    assert mat_mul(spec.seidel, spec.seidel) == [[5 * (i == j) for j in range(6)]
                                                 for i in range(6)]


def test_conference_rejects_unknown_variant():
    pairs = search_conference_pairs(5)
    with pytest.raises(ValueError):
        conference_frame(pairs[0], "both")


# --- per-pair record -----------------------------------------------------------

CACHE_25 = Path(__file__).resolve().parent.parent / "cache" / "conference-25.json"


def conference_pairs(k):
    return load_pairs(str(CACHE_25), 25) if k == 25 else search_conference_pairs(k)


@pytest.mark.parametrize("k", [5, 13, 25])
def test_conference_data_matches_the_dense_reference(k):
    pairs = conference_pairs(k)
    assert len(pairs) == {5: 4, 13: 12, 25: 20}[k]
    alpha = {5: 3, 13: 5, 25: 7}[k]
    e0 = (1,) + (0,) * (k - 1)
    for p in pairs:
        data = conference_data(p)
        assert data.n_row == compute_N(p, alpha)
        assert data.n_inv_row == circulant_inverse(data.n_row)
        assert circulant_multiply(data.n_row, data.n_inv_row) == e0
        # convolution identities, independent of the folded solve behind all three
        assert circulant_multiply(p.d_row, data.n_row) == add_scalar(p.a_row, -alpha)
        minus_plus = tuple(-v for v in add_scalar(p.a_row, alpha))
        assert circulant_multiply(p.d_row, data.n_inv_row) == minus_plus
        a = circulant_matrix(p.a_row)
        plus = [[alpha * (i == j) + a[i][j] for j in range(k)] for i in range(k)]
        minus = [[alpha * (i == j) - a[i][j] for j in range(k)] for i in range(k)]
        assert data.det_d == bareiss_determinant(circulant_matrix(p.d_row))
        assert data.det_plus == bareiss_determinant(plus)
        assert data.det_minus == bareiss_determinant(minus)


def test_conference_data_eliminates_half_size_matrices(monkeypatch):
    # one record per sign orbit: the 20 pairs at k = 25 are 5 orbits, each
    # record two eliminations of a 13-row folded matrix
    sizes = []

    def recording(fn):
        def wrapped(m, *args):
            sizes.append(len(m))
            return fn(m, *args)
        return wrapped

    for name in ("determinant_and_solution", "bareiss_determinant"):
        monkeypatch.setattr(circulant, name, recording(getattr(circulant, name)))
    conference_data.cache_clear()
    for p in conference_pairs(25):
        data = conference_data(p)
        assert data.det_plus == data.det_minus == 2 ** 24 * 7 ** 9
    assert sizes == [13] * 10


def test_conference_data_rejects_a_non_conference_pair():
    # the first pair reaches its orbit representative by flipping both signs,
    # the second (a_row[1] = -1, d_row[0] = +1) by flipping d alone; both are
    # rejected before any record is derived
    for a_row, d_row in (((0, 1, 1, 1, 1), (1, 1, 1, 1, 1)),
                         ((0, -1, 1, 1, -1), (1, 1, 1, 1, 1))):
        p = ConferencePair(5, a_row, d_row)
        with pytest.raises(ValueError, match="not a conference pair"):
            conference_data(p)
        for variant in ("plus", "minus"):
            with pytest.raises(ValueError, match="not a conference pair"):
                conference_frame(p, variant)


def test_conference_data_irrational_alpha():
    with pytest.raises(IrrationalAlphaError):
        conference_data(search_conference_pairs(3)[0])


# --- explicit frames ----------------------------------------------------------

def test_frame_6_16():
    cf = frame_6_16()
    spec = cf.frame
    assert (spec.k, spec.n) == (6, 16)
    assert F(spec.n, spec.k) == F(8, 3)
    assert cf.basis_indices == (1, 2, 3, 4, 5, 9)
    assert cf.beta == 1
    assert det_of_basis_gram(cf) == F(2 ** 6, 3 ** 6)
    assert gram_consistency_holds(cf)


def test_frame_6_16_greedy_basis_matches():
    spec = frame_6_16().frame
    assert select_basis_greedy(full_gram(spec), 6) == (1, 2, 3, 4, 5, 9)


def test_frame_6_16_tightness_breaks_under_sign_flip():
    c = [row[:] for row in frame_6_16().frame.seidel]
    c[0][1] = c[1][0] = -c[0][1]
    bad = FrameSpec(k=6, n=16, seidel=c)
    assert not gram_is_tight(bad)
    with pytest.raises(ValueError, match="not k = 6"):
        coordinatize(bad)


def test_frame_7_28():
    cf = frame_7_28()
    spec = cf.frame
    assert (spec.k, spec.n) == (7, 28)
    assert F(spec.n, spec.k) == 4
    assert cf.basis_indices == (1, 2, 3, 4, 5, 6, 16)
    assert cf.beta == 1
    assert det_of_basis_gram(cf) == F(2 ** 6, 3 ** 7)
    assert gram_consistency_holds(cf)


def test_explicit_frame_rejects_a_non_integer_seidel_entry():
    # the vectors differ in length, so the entry at (1, 1) is alpha/4 - alpha = -3/2;
    # the check must raise under python -O too, where an assert would be removed
    with pytest.raises(ValueError, match="not an integer"):
        _explicit_frame([[2, 0], [1, 0], [0, 1]], 2)


def test_explicit_frame_rejects_vectors_that_are_not_a_frame():
    # one common length, but the first two vectors are equal: Seidel entry
    # (0, 1) = alpha·2/2 = 2, which no unit frame has; coordinatize rejects it
    with pytest.raises(ValueError, match="not a symmetric sign matrix"):
        _explicit_frame([[1, 1], [1, 1], [1, -1]], 2)


def test_explicit_frame_rejects_a_nonzero_diagonal_entry():
    # lengths 4, 4 and 16: the diagonal entry alpha·16/4 - alpha = 6 at (2, 2)
    with pytest.raises(ValueError, match="not a symmetric sign matrix"):
        _explicit_frame([[2, 0], [0, 2], [4, 0]], 2)


def test_greedy_basis_simplex():
    spec = simplex_frame(5).frame
    assert select_basis_greedy(full_gram(spec), 5) == (1, 2, 3, 4, 5)


def test_greedy_basis_skips_repeated_vectors():
    # vectors v0, v0, v1, v1, v2, v3 of the 3-simplex: the leading two Gram
    # columns are equal, so the basis is the first copy of v0, v1 and v2
    spec = simplex_frame(3).frame
    g = full_gram(spec)
    order = [0, 0, 1, 1, 2, 3]
    repeated = [[g[i][j] for j in order] for i in order]
    assert select_basis_greedy(repeated, 3) == (1, 3, 5)
    for k in (2, 4):  # rank 3 is neither k
        with pytest.raises(ValueError, match="rank 3"):
            select_basis_greedy(repeated, k)


# --- coordinatize accepts unit tight equiangular frames only ----------------

def test_frame_spec_repr():
    spec = simplex_frame(2).frame
    assert repr(spec) == "FrameSpec(k=2, n=3, seidel=[[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])"


def simplex_3_with(i, j, v):
    """The 3-simplex's Seidel matrix with entry (i, j) alone set to v."""
    c = [row[:] for row in simplex_frame(3).frame.seidel]
    c[i][j] = v
    return c


@pytest.mark.parametrize("k, n, seidel", [
    (2, 3, [[0, 2, 0], [2, 0, 0], [0, 0, 0]]),  # two equal frame vectors and a zero row
    (2, 3, [[0, 1], [1, 0]]),  # 2 x 2 for n = 3
    (3, 4, simplex_3_with(0, 1, 1)),
    (3, 4, simplex_3_with(0, 0, -1)),
    (3, 4, simplex_3_with(0, 1, 2)),  # not +-1, and not symmetric either
    (3, 4, simplex_frame(3).frame.seidel[:3]),  # three rows for n = 4
], ids=["not-sign", "wrong-shape", "asymmetric", "nonzero-diagonal", "not-pm1", "missing-row"])
def test_coordinatize_rejects_a_seidel_matrix_that_is_not_a_sign_matrix(k, n, seidel):
    with pytest.raises(ValueError, match="not a symmetric sign matrix"):
        coordinatize(FrameSpec(k, n, seidel))


def test_coordinatize_rejects_every_single_sign_flip_of_6x16():
    # each flip of one symmetric pair leaves a sign matrix that is not tight,
    # and the full Gram's rank is what catches it
    spec = frame_6_16().frame
    for i, j in combinations(range(16), 2):
        c = [row[:] for row in spec.seidel]
        c[i][j] = c[j][i] = -c[i][j]
        bad = FrameSpec(6, 16, c)
        assert not gram_is_tight(bad), (i, j)
        with pytest.raises(ValueError, match=r"gram has rank \d+, not k = 6"):
            coordinatize(bad)


def test_coordinatize_checks_the_rank_under_an_explicit_basis():
    cf = frame_7_28()
    c = [row[:] for row in cf.frame.seidel]
    c[0][27] = c[27][0] = -c[0][27]
    with pytest.raises(ValueError, match="not k = 7"):
        coordinatize(FrameSpec(7, 28, c), cf.basis_indices)


def test_coordinatize_accepts_switched_and_permuted_frames():
    # switching (C -> SCS for a diagonal sign matrix S) and relabelling keep a
    # frame a frame, and the definition agrees with coordinatize's two tests
    rng = random.Random(26)
    for spec in (frame_6_16().frame, frame_7_28().frame, simplex_frame(6).frame):
        n = spec.n
        for _ in range(3):
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            order = rng.sample(range(n), n)
            c = [[signs[i] * spec.seidel[i][j] * signs[j] for j in order] for i in order]
            moved = FrameSpec(spec.k, n, c)
            assert gram_is_tight(moved)
            assert gram_consistency_holds(coordinatize(moved))


def test_a_rank_k_gram_makes_every_nonsingular_basis_gram_positive_definite():
    # why coordinatize needs no positive-definiteness test of its own: any k
    # columns of 6x16 give a basis Gram that is singular or positive definite
    spec = frame_6_16().frame
    gram = full_gram(spec)
    rng = random.Random(16)
    seen = set()
    for _ in range(300):
        idx = sorted(rng.sample(range(16), 6))
        q = [[gram[i][j] for j in idx] for i in idx]
        if bareiss_determinant(q) == 0:
            seen.add("singular")
        else:
            assert all(d > 0 for d in ldl_decompose(q).minors), idx
            seen.add("definite")
    assert seen == {"singular", "definite"}


# --- derived fields and the frame every construction builds -------------------

# beta of each pair's plus and minus frame, pair by pair, as stored by the
# constructors before beta was derived from the coordinates
STORED_BETAS = {
    5: ("1111", "1111"),
    13: ("111133113333", "333311331111"),
    25: ("1" * 20, "1" * 20),
}


def alpha_gamma(spec):
    """The equiangularity constant and the frame bound, both functions of (k, n)."""
    return frame_alpha(spec.k, spec.n), F(spec.n, spec.k)


def test_derived_fields_equal_the_formerly_stored_values():
    for k in range(2, 13):
        cf = simplex_frame(k)
        assert (*alpha_gamma(cf.frame), cf.beta) == (SurdValue(F(k)), F(k + 1, k), 1)
    spec = conference_frame_spec(search_conference_pairs(3)[0])
    assert alpha_gamma(spec) == (SurdValue(F(1), 5), 2)
    for k, (plus, minus) in STORED_BETAS.items():
        for p, beta_plus, beta_minus in zip(conference_pairs(k), plus, minus, strict=True):
            for variant, beta in (("plus", beta_plus), ("minus", beta_minus)):
                cf = conference_frame(p, variant)
                assert alpha_gamma(cf.frame) == (SurdValue(F({5: 3, 13: 5, 25: 7}[k])), 2)
                assert cf.beta == int(beta), (k, p, variant)
    for build, gamma in ((frame_6_16, F(8, 3)), (frame_7_28, F(4))):
        cf = build()
        assert (*alpha_gamma(cf.frame), cf.beta) == (SurdValue(F(3)), gamma, 1)


def constructed_frames(family):
    """Every coordinate frame one construction family builds for the paper."""
    if family == "simplex":
        return [simplex_frame(k) for k in range(2, 13)]
    if family == "explicit":
        return [frame_6_16(), frame_7_28()]
    k, variant = family.split("-")
    return [conference_frame(p, variant) for p in conference_pairs(int(k))]


@pytest.mark.parametrize("family", [
    "simplex", "5-plus", "5-minus", "13-plus", "13-minus", "25-plus", "25-minus", "explicit",
])
def test_every_construction_builds_a_tight_frame_within_the_gerzon_bound(family):
    for cf in constructed_frames(family):
        spec = cf.frame
        assert gram_is_tight(spec), (spec.k, spec.n)
        assert spec.n <= spec.k * (spec.k + 1) // 2
