"""Tests for circulant rows and the conference-pair search."""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from framelat import circulant
from framelat.circulant import (
    CacheCorruptError,
    ConferencePair,
    MalformedPatternError,
    add_scalar,
    autocorrelation_key,
    brute_force_conference_pairs,
    circulant_determinant,
    circulant_inverse,
    circulant_matrix,
    circulant_multiply,
    circulant_solve,
    compute_N,
    free_sign_counts,
    is_conference,
    load_pairs,
    save_pairs,
    search_conference_pairs,
)
from framelat.exact import SingularMatrixError, SizeMismatchError, bareiss_determinant
from test_exact import cofactor_determinant

E0_5 = (1, 0, 0, 0, 0)

CACHE_25 = Path(__file__).resolve().parent.parent / "cache" / "conference-25.json"


def signs(text):
    """'0,-,+,+,-' -> (0, -1, 1, 1, -1)"""
    lut = {"0": 0, "-": -1, "+": 1}
    return tuple(lut[c.strip()] for c in text.split(","))


# independently hard-coded fixture: the known (5,10) pair list
T5 = [
    (signs("0,-,+,+,-"), signs("-,+,+,+,+")),
    (signs("0,-,+,+,-"), signs("+,-,-,-,-")),
    (signs("0,+,-,-,+"), signs("-,+,+,+,+")),
    (signs("0,+,-,-,+"), signs("+,-,-,-,-")),
]


def test_circulant_matrix_layout():
    m = circulant_matrix((10, 20, 30))
    assert m == [[10, 20, 30], [30, 10, 20], [20, 30, 10]]


def test_multiply_identity_row():
    e0 = (1, 0, 0, 0)
    b = (2, 3, 5, 3)
    assert circulant_multiply(e0, b) == b


def test_multiply_small_hand_example():
    assert circulant_multiply((0, 1, 1), (0, 1, 1)) == (2, 1, 1)


def test_multiply_size_mismatch():
    with pytest.raises(SizeMismatchError):
        circulant_multiply((1, 0), (1, 0, 0))


def test_multiply_commutes_and_associates():
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(2, 7)
        a = tuple(rng.randint(-3, 3) for _ in range(k))
        b = tuple(rng.randint(-3, 3) for _ in range(k))
        c = tuple(rng.randint(-3, 3) for _ in range(k))
        assert circulant_multiply(a, b) == circulant_multiply(b, a)
        assert circulant_multiply(circulant_multiply(a, b), c) == \
            circulant_multiply(a, circulant_multiply(b, c))


def test_multiply_agrees_with_matrix_product():
    rng = random.Random(18)
    for _ in range(20):
        k = rng.randint(2, 6)
        a = tuple(rng.randint(-4, 4) for _ in range(k))
        b = tuple(rng.randint(-4, 4) for _ in range(k))
        ma = circulant_matrix(a)
        mb = circulant_matrix(b)
        prod_row = tuple(sum(ma[0][t] * mb[t][j] for t in range(k)) for j in range(k))
        assert circulant_multiply(a, b) == prod_row


def test_is_conference_known_pair():
    a, d = T5[0]
    pair = ConferencePair(5, a, d)
    assert is_conference(pair)
    assert circulant_multiply(a, a) == (4, -1, -1, -1, -1)
    aa = circulant_multiply(a, a)
    dd = circulant_multiply(d, d)
    assert tuple(x + y for x, y in zip(aa, dd)) == (9, 0, 0, 0, 0)


def test_is_conference_all_plus_is_false():
    pair = ConferencePair(5, signs("0,+,+,+,+"), signs("+,+,+,+,+"))
    assert not is_conference(pair)


def test_is_conference_malformed():
    with pytest.raises(MalformedPatternError):
        is_conference(ConferencePair(5, (1, 1, 1, 1, 1), (1,) * 5))  # bad head
    with pytest.raises(MalformedPatternError):
        is_conference(ConferencePair(5, (0, 1, 0, 0, 1), (1,) * 5))  # zero in tail
    with pytest.raises(MalformedPatternError):
        is_conference(ConferencePair(5, (0, 1, -1, 1, 1), (1,) * 5))  # not palindromic
    with pytest.raises(MalformedPatternError):
        is_conference(ConferencePair(5, (0, 1, 1, 1, 1), (1, 1, 2, 2, 1)))  # bad sign


def test_is_conference_refuses_orders_where_keys_carry():
    # keys have 16-bit digits, and the digits of a*a + d*d stay below 2^15 only for k < 2^14
    for k in (2 ** 14, 2 ** 14 + 1):
        with pytest.raises(MalformedPatternError):
            is_conference(ConferencePair(k, (0,) + (1,) * (k - 1), (1,) * k))
    k = 2 ** 14 - 1
    assert not is_conference(ConferencePair(k, (0,) + (1,) * (k - 1), (1,) * k))


def test_is_conference_matches_convolution():
    # the keyed check against the conference condition by circulant_multiply
    rng = random.Random(1717)
    hits = 0
    for _ in range(200):
        k = rng.choice((3, 5, 7, 9, 13))
        half_a = [rng.choice((-1, 1)) for _ in range(k // 2)]
        half_d = [rng.choice((-1, 1)) for _ in range(k // 2 + 1)]
        a = (0,) + tuple(half_a[min(i, k - i) - 1] for i in range(1, k))
        d = tuple(half_d[min(i, k - i)] for i in range(k))
        total = tuple(x + y for x, y in zip(circulant_multiply(a, a), circulant_multiply(d, d)))
        expected = total == (2 * k - 1,) + (0,) * (k - 1)
        assert is_conference(ConferencePair(k, a, d)) == expected
        hits += expected
    assert hits >= 10


def test_search_k5_exact_list():
    found = search_conference_pairs(5)
    assert [(p.a_row, p.d_row) for p in found] == T5


def test_search_k5_is_exhaustive():
    # every sign tuple not returned fails the conference condition (all 32)
    from itertools import product
    found = {(p.a_row, p.d_row) for p in search_conference_pairs(5)}
    na, nd = free_sign_counts(5)
    assert (na, nd) == (2, 3)
    seen = 0
    for tup in product((-1, 1), repeat=na + nd):
        a = (0, tup[0], tup[1], tup[1], tup[0])
        d = (tup[2], tup[3], tup[4], tup[4], tup[3])
        pair = ConferencePair(5, a, d)
        assert is_conference(pair) == ((a, d) in found)
        seen += 1
    assert seen == 32


def test_search_counts():
    assert len(search_conference_pairs(5)) == 4
    assert len(search_conference_pairs(13)) == 12


# pair counts at k = 15 .. 31, computed by the product-order search before the Gray-code walk
PINNED_COUNTS = {15: 16, 17: 0, 19: 36, 21: 24, 23: 0, 25: 20, 27: 36, 29: 0, 31: 60}


@pytest.mark.parametrize("k", sorted(PINNED_COUNTS))
def test_search_counts_up_to_31_in_search_order(k):
    found = search_conference_pairs(k)
    assert len(found) == PINNED_COUNTS[k]
    keys = [p.a_row[1:(k + 1) // 2] + p.d_row[:(k + 1) // 2] for p in found]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_search_refuses_orders_without_pairs():
    # a symmetric conference matrix has order 2 mod 4, so even k has no pairs
    for k in (1, 2, 4, 6):
        with pytest.raises(ValueError, match="odd"):
            search_conference_pairs(k)
        with pytest.raises(ValueError, match="odd"):
            brute_force_conference_pairs(k)


def test_search_mitm_matches_brute_force():
    for k in range(3, 18, 2):
        assert search_conference_pairs(k) == brute_force_conference_pairs(k)


def mirrored_row(k, head, tail):
    """Palindromic row: tail[i - 1] at positions i and k - i, for i = 1 .. k // 2."""
    row = [head] + [0] * (k - 1)
    for i, sign in enumerate(tail, 1):
        row[i] = row[k - i] = sign
    return tuple(row)


def per_tuple_search(k):
    """Reference scan: both rows and both convolutions for every sign tuple."""
    na, nd = free_sign_counts(k)
    target = (2 * k - 1,) + (0,) * (k - 1)
    found = []
    for s in itertools.product((-1, 1), repeat=na + nd):
        a = mirrored_row(k, 0, s[:na])
        d = mirrored_row(k, s[na], s[na + 1:])
        aa = circulant_multiply(a, a)
        dd = circulant_multiply(d, d)
        if tuple(x + y for x, y in zip(aa, dd)) == target:
            found.append(ConferencePair(k, a, d))
    return found


def test_brute_force_matches_per_tuple_reference():
    for k in range(3, 12, 2):
        assert brute_force_conference_pairs(k) == per_tuple_search(k), k


def test_brute_force_convolves_each_half_row_once(monkeypatch):
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return circulant_multiply(a, b)

    monkeypatch.setattr(circulant, "circulant_multiply", counting)
    assert len(brute_force_conference_pairs(13)) == 12
    assert calls == 2 ** 6 + 2 ** 7


def test_search_keys_half_the_rows(monkeypatch):
    # a row and its negation share a key, so only the rows with first sign -1 are keyed
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return autocorrelation_key(*args)

    monkeypatch.setattr(circulant, "autocorrelation_key", counting)
    assert search_conference_pairs(13) == per_tuple_search(13)
    assert calls == 2 ** 5 + 2 ** 6


@pytest.mark.parametrize("k", range(3, 22, 2))
@pytest.mark.parametrize("layout", ["aRow", "dRow"])
def test_keyed_rows_key_every_half_mask_once(k, layout):
    # the Gray walk's running E and Σa must give each mask the key of its row built afresh
    slots = ([(0,)] if layout == "dRow" else []) + circulant._sign_slots(k)
    keyed = list(circulant._keyed_rows(k, slots))
    masks = [mask for mask, _ in keyed]
    assert len(set(masks)) == len(masks) == 2 ** (len(slots) - 1)
    for mask, key in keyed:
        assert 0 <= mask < 2 ** len(slots) and not mask & 1
        row = [0] * k
        for i, positions in enumerate(slots):
            for p in positions:
                row[p] = 1 if mask >> i & 1 else -1
        assert key == circulant._row_key(tuple(row))


def packed(row):
    """Σ row_j·2^(16j), the documented encoding of the search keys."""
    return sum(v << (16 * j) for j, v in enumerate(row))


@st.composite
def palindromic_rows(draw):
    k = draw(st.integers(2, 61))
    head = draw(st.sampled_from((-1, 0, 1)))
    half = [draw(st.sampled_from((-1, 1))) for _ in range(k // 2)]
    return (head,) + tuple(half[min(i, k - i) - 1] for i in range(1, k))


@given(palindromic_rows())
def test_autocorrelation_key_matches_circulant_multiply(a):
    key = autocorrelation_key(len(a), packed(v + 1 for v in a), sum(a))
    assert key == packed(circulant_multiply(a, a))


def test_search_k13_contains_known_rows():
    found = search_conference_pairs(13)
    a = signs("0,-,-,-,+,-,+,+,-,+,-,-,-")
    d = signs("-,-,+,+,+,-,+,+,-,+,+,+,-")
    assert (a, d) == (found[0].a_row, found[0].d_row)


def test_inverse_identity():
    assert circulant_inverse((1, 0, 0)) == (1, 0, 0)


def palindromic(half, k):
    """The palindromic row of length k whose first k//2 + 1 entries are half."""
    return tuple(half[min(i, k - i)] for i in range(k))


def test_inverse_roundtrip():
    rng = random.Random(3)
    done = 0
    while done < 25:
        k = rng.randrange(1, 10, 2)
        row = palindromic([rng.randint(-3, 3) for _ in range(k // 2 + 1)], k)
        try:
            inv = circulant_inverse(row)
        except SingularMatrixError:
            continue
        e0 = (1,) + (0,) * (k - 1)
        assert circulant_multiply(inv, row) == e0
        done += 1


def test_inverse_of_known_D():
    _, d = T5[0]
    inv = circulant_inverse(d)
    assert circulant_multiply(inv, d) == E0_5
    det = bareiss_determinant(circulant_matrix(d))
    assert abs(det) == 48


def test_singular_A_raises():
    a, _ = T5[0]
    with pytest.raises(SingularMatrixError):
        circulant_inverse(a)


def test_inverse_of_non_numeric_row_is_not_reported_singular():
    # only a genuinely singular circulant may surface as SingularMatrixError
    with pytest.raises((AttributeError, TypeError)):
        circulant_inverse(("x", 1, 1))


@st.composite
def palindromic_rational_rows(draw, max_len):
    """Rational palindromic rows of odd length 1..max_len, singular or not.  An
    extra draw zeroes c(1) = Σ row (the all-ones row is then in the kernel)."""
    k = draw(st.integers(0, (max_len - 1) // 2)) * 2 + 1
    half = [draw(st.fractions(-5, 5, max_denominator=6)) for _ in range(k // 2 + 1)]
    row = list(palindromic(half, k))
    if draw(st.booleans()):
        row[0] -= sum(row)
    return tuple(row)


@given(palindromic_rational_rows(15), st.data())
def test_circulant_solve_matches_cofactor_and_convolution(row, data):
    k = len(row)
    entry = st.fractions(-5, 5, max_denominator=7)
    halves = data.draw(st.lists(st.tuples(*[entry] * (k // 2 + 1)), max_size=3))
    rhs = [palindromic(h, k) for h in halves]
    det, rows = circulant_solve(row, rhs)
    dense = circulant_matrix(row)
    reference = cofactor_determinant(dense) if k <= 6 else bareiss_determinant(dense)
    assert det == reference == circulant_determinant(row)
    if det == 0:
        assert rows is None
    else:
        assert len(rows) == len(rhs)
        for y, r in zip(rows, rhs):
            assert circulant_multiply(y, row) == r


def test_circulant_solve_takes_palindromic_rows_only():
    with pytest.raises(ValueError, match="palindromic"):
        circulant_solve((1, 2, 3), [])
    with pytest.raises(ValueError, match="palindromic"):
        circulant_determinant((1, 2, 3, 4))
    with pytest.raises(ValueError, match="palindromic"):
        circulant_inverse((2, 1, 0, 0))
    with pytest.raises(ValueError, match="palindromic"):
        circulant_solve((3, 1, 1), [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(SizeMismatchError):
        circulant_solve((3, 1, 1), [(1, 0)])
    # palindromic but of even length: no conference pair has an even order
    even = (3, 1, 2, 1)
    with pytest.raises(ValueError, match="palindromic"):
        circulant_solve(even, [(1, 0, 0, 0)])
    with pytest.raises(ValueError, match="palindromic"):
        circulant_determinant(even)
    with pytest.raises(ValueError, match="palindromic"):
        circulant_inverse(even)


def test_compute_N_t1():
    pair = ConferencePair(5, *T5[0])
    n_row = compute_N(pair, 3)
    assert n_row == (1, 0, -1, -1, 0)


def test_compute_N_t4():
    pair = ConferencePair(5, *T5[3])
    assert compute_N(pair, 3) == (-1, 1, 0, 0, 1)


def test_compute_N_defining_identity():
    # on every pair both defining identities hold exactly for one and the
    # same N: D·N = A - alpha·I and (alpha·I + A)·N = -D
    for k, alpha in ((5, 3), (13, 5), (25, 7)):
        pairs = load_pairs(str(CACHE_25), 25) if k == 25 else search_conference_pairs(k)
        assert len(pairs) == {5: 4, 13: 12, 25: 20}[k]
        for p in pairs:
            n_row = compute_N(p, alpha)
            assert circulant_multiply(p.d_row, n_row) == add_scalar(p.a_row, -alpha)
            minus_d = tuple(-v for v in p.d_row)
            assert circulant_multiply(add_scalar(p.a_row, alpha), n_row) == minus_d


def test_compute_N_singular_plus_block():
    # alpha = 0 solves against A itself, which is singular at k = 5
    with pytest.raises(SingularMatrixError):
        compute_N(ConferencePair(5, *T5[0]), 0)


def test_committed_cache_25_is_the_search_result():
    assert load_pairs(str(CACHE_25), 25) == search_conference_pairs(25)


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "pairs.json")
    pairs = search_conference_pairs(5)
    save_pairs(path, 5, pairs)
    assert load_pairs(path, 5) == pairs


def test_cache_write_is_atomic(tmp_path, monkeypatch):
    path = str(tmp_path / "pairs.json")
    pairs = search_conference_pairs(5)
    save_pairs(path, 5, pairs)

    def interrupted_dump(doc, fh):
        fh.write('{"k": 5, "pairs": [{"aRow": [0, ')
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "dump", interrupted_dump)
    with pytest.raises(KeyboardInterrupt):
        save_pairs(path, 5, pairs[:1])
    assert load_pairs(path, 5) == pairs
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.json"]


def test_cache_corrupt_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CacheCorruptError):
        load_pairs(str(path), 5)


def test_cache_bad_schema(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"pairs": []}))
    with pytest.raises(CacheCorruptError):
        load_pairs(str(path), 5)


def test_cache_tampered_pair(tmp_path):
    path = tmp_path / "bad3.json"
    doc = {"k": 5, "pairs": [{"aRow": [0, 1, 1, 1, 1], "dRow": [1, 1, 1, 1, 1]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheCorruptError):
        load_pairs(str(path), 5)
