"""Symmetric circulant rows over the integers/rationals and the conference-pair search.

A symmetric circulant is determined by its palindromic first row, so everything
here works on rows.  ``circulant_solve`` (det circ(row) and quotients by it)
and ``circulant_determinant`` eliminate the (k+1)/2-square matrix of circ(row)
on palindromic rows, never the dense k x k one, and take palindromic rows of
odd length k only, the only order a conference pair has; inverses and
``compute_N`` are one such solve each.  The search enumerates sign patterns
for a pair of circulants (A, D) of odd order k with A having a zero leading
entry, looking for a*a + d*d = (2k-1)e0 under cyclic convolution —
equivalently C^2 = (2k-1)I for the block matrix C = [[A, D], [D, -A]].  A
symmetric conference matrix has order 2 mod 4, so even k has no pairs and the
search refuses it.  The pair cache holds the search's list in the search's
order, and loading checks that order.

The search and ``is_conference`` never convolve rows.  They key each
row a by the integer Σ_j (a*a)_j·B^j with B = 2^16 (Kronecker substitution).
A palindromic row has a(x^-1) ≡ a(x) mod x^k - 1, so with E = Σ (a_j + 1)·B^j
the autocorrelation is E² mod (B^k - 1) minus (2·Σa + k)·J, where J = Σ B^j.
Each digit of the folded square is at most 4k < B (for k < 2^14), so no digit
carries into the next; the keys of two autocorrelations (digits at most k in
absolute value) are equal exactly when the autocorrelations are.  A row and
its negation have the same autocorrelation, so only rows whose first free sign
is -1 get keyed; each keyed row stands for itself and its negation.  The keyed
rows are walked in Gray-code order as integer sign masks: each row flips one
sign of the one before, so E and Σa move by one precomputed term, and sign
tuples are built only for the pairs that join.

The oracle ``brute_force_conference_pairs`` uses no keys: it convolves each
candidate half-row (aRow or dRow) once with ``circulant_multiply``, stores
(2k-1)e0 - d*d for each dRow, and checks every combination by comparing a*a
with that tuple.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import product
from operator import sub
from typing import NamedTuple

from .exact import (
    Rational,
    SingularMatrixError,
    SizeMismatchError,
    bareiss_determinant,
    determinant_and_solution,
)

Row = tuple  # first row of a circulant; entries int or Fraction


class MalformedPatternError(ValueError):
    """Sign pattern violates the (aRow, dRow) shape constraints."""


class CacheCorruptError(ValueError):
    """A pair-cache file cannot be read or written, or failed schema or
    conference validation."""


class ConferencePair(NamedTuple):
    k: int
    a_row: Row
    d_row: Row


def circulant_matrix(row):
    """k x k matrix M with M[i][j] = row[(j - i) % k]."""
    k = len(row)
    return [[row[(j - i) % k] for j in range(k)] for i in range(k)]


def is_palindromic(row) -> bool:
    k = len(row)
    return all(row[i] == row[k - i] for i in range(1, k))


def circulant_multiply(a: Row, b: Row) -> Row:
    """First row of circ(a) · circ(b), i.e. the cyclic convolution of the rows."""
    if len(a) != len(b):
        raise SizeMismatchError(f"rows of size {len(a)} and {len(b)}")
    k = len(a)
    return tuple(sum(a[i] * b[(j - i) % k] for i in range(k)) for j in range(k))


def _check_pattern(p: ConferencePair) -> None:
    k = p.k
    if len(p.a_row) != k or len(p.d_row) != k:
        raise MalformedPatternError("row lengths do not match k")
    if any(type(v) is not int for v in (*p.a_row, *p.d_row)):
        raise MalformedPatternError("row entries must be ints")
    if p.a_row[0] != 0:
        raise MalformedPatternError("aRow must start with 0")
    if any(v not in (-1, 1) for v in p.a_row[1:]):
        raise MalformedPatternError("aRow tail must be +-1")
    if any(v not in (-1, 1) for v in p.d_row):
        raise MalformedPatternError("dRow must be +-1 throughout")
    if not (is_palindromic(p.a_row) and is_palindromic(p.d_row)):
        raise MalformedPatternError("rows must be palindromic")


def _sign_slots(k: int) -> list[tuple]:
    """Row positions filled by each free sign of a palindromic row of odd
    length k after its head: sign i fills positions i and k - i for
    1 <= i <= (k-1)/2."""
    return [(i, k - i) for i in range(1, (k + 1) // 2)]


def _palindromic_row(k: int, head, signs) -> Row:
    row = [head] + [0] * (k - 1)
    for sign, positions in zip(signs, _sign_slots(k)):
        for i in positions:
            row[i] = sign
    return tuple(row)


def free_sign_counts(k: int) -> tuple[int, int]:
    """(number of free signs in aRow, in dRow) for the palindromic layout."""
    tail = len(_sign_slots(k))
    return tail, tail + 1


_DIGIT_BITS = 16  # B = 2^16 in the search keys


def autocorrelation_key(k: int, e: int, total: int) -> int:
    """Σ_j (a*a)_j·B^j, B = 2^16, for a palindromic row a of length k < 2^14
    with entries in {-1, 0, 1}, given E = Σ (a_j + 1)·B^j and total = Σ a_j.

    E² folded modulo B^k - 1 is (a+1)*(a+1) = a*a + (2·Σa + k)·J (see the
    module docstring for why no digit carries).
    """
    width = _DIGIT_BITS * k
    mask = (1 << width) - 1
    sq = e * e
    return (sq & mask) + (sq >> width) - (2 * total + k) * (mask // ((1 << _DIGIT_BITS) - 1))


def _row_key(row: Row) -> int:
    """``autocorrelation_key`` of a palindromic row with entries in {-1, 0, 1}."""
    e = sum((v + 1) << (_DIGIT_BITS * j) for j, v in enumerate(row))
    return autocorrelation_key(len(row), e, sum(row))


def is_conference(p: ConferencePair) -> bool:
    """True iff a*a + d*d = (2k-1)·e0, the conference condition C² = (n-1)I.

    Compares the search's keys: key(a) + key(d) = 2k - 1.  Each key has digits
    at most k in absolute value, so their sum has digits below B/2 and is the
    key of a*a + d*d.  Keys carry for k >= 2^14, which raises
    MalformedPatternError.
    """
    _check_pattern(p)
    k = p.k
    if k >= 1 << (_DIGIT_BITS - 2):
        raise MalformedPatternError(f"k = {k} is not below 2^{_DIGIT_BITS - 2}")
    return _row_key(p.a_row) + _row_key(p.d_row) == 2 * k - 1


def _keyed_rows(k: int, slots: list[tuple]):
    """(mask, autocorrelation_key) of every row that is 0 outside ``slots``,
    takes one sign on each slot's positions and -1 on the first slot.  Bit i
    of the mask is set when slot i has sign +1, so bit 0 is never set.  The
    row with every sign flipped is the negated row and has the same key, so
    it is left out.

    Masks come in reflected Gray-code order: consecutive rows differ in one
    slot's sign, so E = Σ (a_j + 1)·B^j and Σa change by ±2·(that slot's
    weight or size), one big-integer add per row."""
    weights = [sum(1 << (_DIGIT_BITS * i) for i in positions) for positions in slots]
    sizes = [len(positions) for positions in slots]
    e = sum(1 << (_DIGIT_BITS * j) for j in range(k)) - sum(weights)  # every sign -1
    total = -sum(sizes)
    mask = 0
    yield mask, autocorrelation_key(k, e, total)
    for step in range(1, 1 << (len(slots) - 1)):
        slot = (step & -step).bit_length()  # 1 + the lowest set bit of step
        mask ^= 1 << slot
        sign = 2 if mask >> slot & 1 else -2
        e += sign * weights[slot]
        total += sign * sizes[slot]
        yield mask, autocorrelation_key(k, e, total)


def _mask_signs(mask: int, count: int) -> tuple:
    """The sign tuple of a ``_keyed_rows`` mask: +1 where bit i is set, else -1."""
    return tuple(1 if mask >> i & 1 else -1 for i in range(count))


def search_conference_pairs(k: int) -> list[ConferencePair]:
    """All conference pairs of odd order k >= 3 over the palindromic sign
    parameterization.

    Results come in lexicographic order of the combined sign tuple
    (aRow signs, then dRow head and body) with -1 ordered before +1, which
    pins deterministic pair indices t1, t2, ...

    The search is a meet-in-the-middle on integer keys: bucket aRow
    candidates by 2k - 1 minus the key of a*a and join dRow candidates on the
    key of d*d (``autocorrelation_key``).  Both sides are walked as sign masks
    in Gray-code order (``_keyed_rows``); sign tuples and rows are built for
    joined pairs only.  Since (-a)*(-a) = a*a, only the half of the rows with
    a first sign of -1 is keyed: each keyed aRow mask is filed once and joins
    as both a and -a, with each keyed dRow as both d and -d, and the joined
    sign tuples are sorted, so the result does not depend on the walk's order.
    ``brute_force_conference_pairs`` is the independent oracle.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("k must be odd and at least 3")
    na, nd = free_sign_counts(k)
    slots = _sign_slots(k)
    buckets: dict[int, list[int]] = {}
    for amask, key in _keyed_rows(k, slots):
        buckets.setdefault(2 * k - 1 - key, []).append(amask)
    flip_a, flip_d = (1 << na) - 1, (1 << nd) - 1
    joined = sorted(_mask_signs(a, na) + _mask_signs(d, nd)
                    for dmask, key in _keyed_rows(k, [(0,)] + slots)
                    for amask in buckets.get(key, ())
                    for a in (amask, amask ^ flip_a)
                    for d in (dmask, dmask ^ flip_d))
    return [ConferencePair(k, _palindromic_row(k, 0, signs[:na]),
                           _palindromic_row(k, signs[na], signs[na + 1:]))
            for signs in joined]


def brute_force_conference_pairs(k: int) -> list[ConferencePair]:
    """Oracle for ``search_conference_pairs``, independent of its keys: the
    same list in the same order.

    Convolves each of the 2^na aRow and 2^nd dRow candidates once with
    ``circulant_multiply``, stores (2k-1)e0 - d*d for each dRow, and checks all
    2^(na+nd) combinations by comparing a*a with that tuple.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("k must be odd and at least 3")
    na, nd = free_sign_counts(k)
    target = (2 * k - 1,) + (0,) * (k - 1)
    a_half = [(a, circulant_multiply(a, a))
              for a in (_palindromic_row(k, 0, s) for s in product((-1, 1), repeat=na))]
    d_half = [(d, tuple(map(sub, target, circulant_multiply(d, d))))
              for d in (_palindromic_row(k, s[0], s[1:]) for s in product((-1, 1), repeat=nd))]
    return [ConferencePair(k, a, d) for a, aa in a_half for d, rest in d_half if aa == rest]


def _fold(row: Row) -> list[list]:
    """The matrix M of circ(row) on palindromic rows of odd length k, in the
    basis of the head and the ``_sign_slots`` indicator rows:
    M[j][s] = Σ_{p in slot s} row[(j - p) mod k]."""
    if len(row) % 2 == 0 or not is_palindromic(row):
        raise ValueError("circulant rows must be palindromic and of odd length")
    slots = _sign_slots(len(row))
    # a negative index j - p wraps, so row[j - p] is row[(j - p) mod k]
    return [[row[j]] + [row[j - p] + row[j - q] for p, q in slots]
            for j in range(len(slots) + 1)]


def _unfolded_determinant(row: Row, det_m: Fraction) -> Fraction:
    """det circ(row) = det(M)²/c(1) from det M = det _fold(row); see
    ``circulant_determinant``."""
    return det_m ** 2 / sum(row) if det_m else det_m


def circulant_determinant(row: Row) -> Fraction:
    """det circ(row) for a palindromic row of odd length k, exact, from det M
    of the folded (k+1)/2-square matrix M = ``_fold(row)``.

    circ(row) has eigenvalue c(w^j) = Σ_i row[i]·w^(ij) on the j-th Fourier
    vector f_j (w a primitive k-th root of unity), and c(w^j) = c(w^-j) for a
    palindromic row.  It maps palindromic rows to palindromic rows; they are
    spanned by f_0 and f_j + f_(k-j) for 0 < j < k/2, so M's eigenvalues are
    c(1) and each c(w^j) with 0 < j < k/2 once, while circ(row) has each
    c(w^j) with 0 < j < k/2 twice (P. J. Davis, Circulant Matrices, 1979).
    Hence det circ(row) = det(M)² / c(1).  A zero c(1) is an eigenvalue of M,
    so then det M = 0 and det circ(row) = 0.
    """
    return _unfolded_determinant(row, bareiss_determinant(_fold(row)))


def circulant_solve(row: Row, rhs) -> tuple[Fraction, list[Row] | None]:
    """det circ(row) and, for each r in rhs, the first row y with conv(y, row) = r.

    The row and every r must be palindromic, of odd length k.  Reversing
    positions commutes with circ(row), so each y is palindromic too and is
    fixed by its first (k+1)/2 entries: one elimination of
    [M | r_0..r_((k-1)/2) ...] with the folded M of ``circulant_determinant``
    gives det M, hence det circ(row), and every y, unfolded as
    y[i] = y_slot[min(i, k - i)].  The rows are None when circ(row) is
    singular.
    """
    k = len(row)
    if any(len(r) != k for r in rhs):
        raise SizeMismatchError(f"right-hand side is not of length {k}")
    if not all(map(is_palindromic, rhs)):
        raise ValueError("circulant rows must be palindromic")
    m = _fold(row)
    det_m, cols = determinant_and_solution(m, [[r[j] for r in rhs] for j in range(len(m))])
    det = _unfolded_determinant(row, det_m)
    return det, None if cols is None else [tuple(cols[min(i, k - i)][t] for i in range(k))
                                           for t in range(len(rhs))]


def circulant_inverse(row: Row) -> Row:
    """First row of the inverse circulant, exact: the y with conv(y, row) = e0."""
    rows = circulant_solve(row, [(1,) + (0,) * (len(row) - 1)])[1]
    if rows is None:
        raise SingularMatrixError("circulant is singular")
    return rows[0]


def add_scalar(row: Row, c) -> Row:
    """Row of circ(row) + c·I."""
    return (row[0] + c,) + tuple(row[1:])


def compute_N(p: ConferencePair, alpha: Rational) -> Row:
    """First row of N = -(alpha·I + A)^{-1}·D, alpha = sqrt(2k - 1).

    This is D^{-1}(A - alpha·I) whenever D is invertible, since commuting
    circulants with A² + D² = alpha²·I have D² = (alpha·I - A)(alpha·I + A).
    A singular alpha·I + A raises SingularMatrixError.
    """
    rows = circulant_solve(add_scalar(p.a_row, alpha), [tuple(-v for v in p.d_row)])[1]
    if rows is None:
        raise SingularMatrixError("alpha·I + A is singular")
    return rows[0]


# --- JSON cache -------------------------------------------------------------

def save_pairs(path: str, k: int, pairs: list[ConferencePair]) -> None:
    """Write a pair cache atomically: a temp file beside it, then os.replace.

    An interrupted write leaves any earlier cache file untouched; a path that
    cannot be written raises CacheCorruptError.
    """
    parent = os.path.dirname(path)
    doc = {"k": k, "pairs": [{"aRow": list(p.a_row), "dRow": list(p.d_row)} for p in pairs]}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise CacheCorruptError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_pairs(path: str, k: int) -> list[ConferencePair]:
    """Read the pair cache for order k, re-validating every entry against the
    conference condition; a header for another order, or pairs repeated or
    out of the search's order (which numbers them), is a corrupt cache."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheCorruptError(f"unreadable cache {path}: {exc}") from exc
    if not isinstance(doc, dict) or type(doc.get("k")) is not int or "pairs" not in doc:
        raise CacheCorruptError(f"bad cache schema in {path}")
    if doc["k"] != k:
        raise CacheCorruptError(f"cache {path} is for k = {doc['k']}, not k = {k}")
    pairs = []
    try:
        for entry in doc["pairs"]:
            p = ConferencePair(k, tuple(entry["aRow"]), tuple(entry["dRow"]))
            if not is_conference(p):
                raise CacheCorruptError(f"non-conference pair in {path}")
            pairs.append(p)
    except CacheCorruptError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise CacheCorruptError(f"bad pair entry in {path}: {exc}") from exc
    keys = [p.a_row[1:(k + 1) // 2] + p.d_row[:(k + 1) // 2] for p in pairs]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise CacheCorruptError(f"pairs repeated or out of search order in {path}")
    return pairs
