"""Tests for frame constructions and validation."""

from fractions import Fraction
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
from framelat.exact import SurdValue, bareiss_determinant, clear_denominators, mat_mul
from framelat.frames import (
    FrameSpec,
    IrrationalAlphaError,
    _explicit_frame,
    basis_gram,
    conference_data,
    conference_frame,
    conference_frame_spec,
    frame_6_16,
    frame_7_28,
    frame_alpha,
    full_gram,
    gram_consistency_holds,
    select_basis_greedy,
    simplex_frame,
    validate_frame,
)

F = Fraction


def det_of_basis_gram(cf):
    return bareiss_determinant(basis_gram(cf))


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
    rep = validate_frame(spec)
    assert rep.all_ok


def test_simplex_determinant_formula():
    for k in (2, 3, 5, 8):
        cf = simplex_frame(k)
        expect = F(1, k + 1) * (1 + F(1, k)) ** k
        assert det_of_basis_gram(cf) == expect


def test_simplex_validates():
    for k in (2, 4, 7):
        spec = simplex_frame(k).frame
        assert validate_frame(spec).all_ok


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
    assert validate_frame(spec).all_ok


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
    rep = validate_frame(spec)
    assert rep.all_ok


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
    # both eliminations behind a k = 25 record are of a 13-row folded matrix
    sizes = []

    def recording(fn):
        def wrapped(m, *args):
            sizes.append(len(m))
            return fn(m, *args)
        return wrapped

    for name in ("determinant_and_solution", "bareiss_determinant"):
        monkeypatch.setattr(circulant, name, recording(getattr(circulant, name)))
    for p in conference_pairs(25):
        data = conference_data.__wrapped__(p)
        assert data.det_plus == data.det_minus == 2 ** 24 * 7 ** 9
    assert sizes == [13] * 40


def test_conference_data_rejects_a_non_conference_pair():
    p = ConferencePair(5, (0, 1, 1, 1, 1), (1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="not a conference pair"):
        conference_data(p)
    with pytest.raises(ValueError, match="not a conference pair"):
        conference_frame(p, "plus")


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
    assert validate_frame(spec).all_ok


def test_frame_6_16_greedy_basis_matches():
    spec = frame_6_16().frame
    assert select_basis_greedy(full_gram(spec), 6) == (1, 2, 3, 4, 5, 9)


def test_frame_6_16_tightness_breaks_under_sign_flip():
    spec = frame_6_16().frame
    c = [row[:] for row in spec.seidel]
    c[0][1] = -c[0][1]
    c[1][0] = -c[1][0]
    bad = FrameSpec(k=6, n=16, seidel=c)
    rep = validate_frame(bad)
    assert rep.seidel_ok and not rep.tightness_ok


def test_frame_7_28():
    cf = frame_7_28()
    spec = cf.frame
    assert (spec.k, spec.n) == (7, 28)
    assert F(spec.n, spec.k) == 4
    assert cf.basis_indices == (1, 2, 3, 4, 5, 6, 16)
    assert cf.beta == 1
    assert det_of_basis_gram(cf) == F(2 ** 6, 3 ** 7)
    assert gram_consistency_holds(cf)
    assert validate_frame(spec).all_ok


def test_explicit_frame_rejects_a_non_integer_seidel_entry():
    # the vectors differ in length, so the entry at (1, 1) is alpha/4 - alpha = -3/2;
    # the check must raise under python -O too, where an assert would be removed
    with pytest.raises(ValueError, match="not an integer"):
        _explicit_frame([[2, 0], [1, 0], [0, 1]], 2)


def test_explicit_frame_rejects_vectors_that_are_not_a_frame():
    # one common length, but the first two vectors are equal: Seidel entry
    # (0, 1) = alpha·2/2 = 2, which no unit frame has
    with pytest.raises(ValueError, match=r"\(0, 1\) = 2 is not \+-1"):
        _explicit_frame([[1, 1], [1, 1], [1, -1]], 2)


def test_explicit_frame_rejects_a_nonzero_diagonal_entry():
    # lengths 4, 4 and 16: the diagonal entry alpha·16/4 - alpha = 6 at (2, 2)
    with pytest.raises(ValueError, match=r"\(2, 2\) = 6 is not 0"):
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
    with pytest.raises(ValueError):
        select_basis_greedy(repeated, 4)


# --- derived fields and the tightness identity ---------------------------------

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


def flipped(spec):
    """The frame with the sign of the inner product between vectors 1 and 2 flipped."""
    c = [row[:] for row in spec.seidel]
    c[0][1] = c[1][0] = -c[0][1]
    return FrameSpec(k=spec.k, n=spec.n, seidel=c)


def gram_is_tight(spec):
    """M² = gamma·M on the rational Gram M, with denominators cleared first."""
    scale, m = clear_denominators(full_gram(spec))
    g = F(spec.n, spec.k) * scale
    return mat_mul(m, m) == [[g * v for v in row] for row in m]


def test_tightness_identity_agrees_with_the_definition():
    specs = [simplex_frame(k).frame for k in range(2, 13)]
    specs += [conference_frame_spec(p) for k in STORED_BETAS for p in conference_pairs(k)]
    specs += [frame_6_16().frame, frame_7_28().frame]
    verdicts = set()
    for spec in specs + [flipped(s) for s in specs]:
        direct = gram_is_tight(spec)
        assert validate_frame(spec).tightness_ok == direct, (spec.k, spec.n)
        verdicts.add(direct)
    assert verdicts == {True, False}


def test_tightness_identity_agrees_with_the_surd_split():
    # alpha = sqrt(5) at k = 3: M² = gamma·M holds exactly when the rational
    # part C² = (gamma-1)·alpha²·I and the surd part (gamma-2)·C = 0 both do
    # (k, n) = (4, 6) relabels the same C: alpha = sqrt(10), gamma = 3/2, so
    # the rational part C² = 5·I still holds but the surd part fails
    spec = conference_frame_spec(search_conference_pairs(3)[0])
    relabelled = FrameSpec(k=4, n=6, seidel=spec.seidel)
    verdicts = []
    for s in (spec, flipped(spec), relabelled):
        alpha, gamma = alpha_gamma(s)
        cc = mat_mul(s.seidel, s.seidel)
        rational_part = cc == [[(gamma - 1) * alpha.squared() * (i == j) for j in range(6)]
                               for i in range(6)]
        surd_part = all((gamma - 2) * v == 0 for row in s.seidel for v in row)
        assert alpha.radicand > 1
        assert validate_frame(s).tightness_ok == (rational_part and surd_part)
        verdicts.append((rational_part, surd_part))
    assert verdicts == [(True, True), (False, True), (True, False)]


def test_seidel_shape():
    spec = simplex_frame(3).frame
    assert validate_frame(spec).seidel_ok
    for i, j, v in ((0, 1, 1), (0, 0, -1), (0, 1, 2)):
        c = [row[:] for row in spec.seidel]
        c[i][j] = v  # breaks symmetry, the zero diagonal, or the +-1 entries
        assert not validate_frame(FrameSpec(k=3, n=4, seidel=c)).seidel_ok
