"""Command-line driver for the frame-lattice toolkit.

Subcommands reproduce the headline results end to end: the summary table of
lattice families, the circulant conference-pair searches with a persistent
cache, full per-lattice analysis reports, a self-contained verification
matrix, and the shrinking-vector demonstration that the icosahedral frame
spans no lattice.  Each command builds one record, its JSON document, and
``render`` prints that as JSON, as the command's CSV table, or through its text
template.  A command accepts only the flags it reads: ``COMMANDS`` declares
them, and ``parse_args`` reads argv and ``help_text`` prints --help from it.
One table, ``FAMILIES``, holds the paper's (k, n) families: the analyze
selector of each lattice and its closed-form volume.  ``table1`` prints it, the
``alpha-gate`` check tests it, and the verification matrix's frame-family
checks read their volumes from it: each asserts on the same ``lattice_report``
record that ``analyze`` prints, against one closed-form profile of a lattice
whose minimal vectors are exactly +- the frame (``_frame_minimal``).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cache error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import circulant, frames, geometry, lattice
from .circulant import CacheCorruptError, ConferencePair
from .exact import (
    SurdValue,
    bareiss_determinant,
    ldl_decompose,
    mat_mul,
    sqrt_rational,
    transpose,
)

KNOWN_SEARCH_SIZES = (5, 13, 25)


class RunConfig(NamedTuple):
    cache_path: str | None = None
    no_cache: bool = False
    skip: Sequence[str] = ()
    allow_unverified: bool = False


class UsageError(Exception):
    """Bad selector or argument combination; maps to exit code 2."""


# --- small rendering helpers ---------------------------------------------------


def _fr(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _surd_obj(s: SurdValue) -> dict:
    return {"coeff": _fr(s.coeff), "radicand": s.radicand}


def _surd_text(s: dict) -> str:
    """A surd record as 4/9, sqrt(5) or (5/16)*sqrt(5)."""
    if s["radicand"] == 1:
        return s["coeff"]
    if s["coeff"] == "1":
        return f"sqrt({s['radicand']})"
    return f"({s['coeff']})*sqrt({s['radicand']})"


def _dec(v: float) -> str:
    return f"{v:.4f}" if abs(v) >= 0.005 else f"{v:.8f}"


def _sign_row(row) -> str:
    # comma style used throughout the text reports: (+,0,-,-,0)
    return "(" + ",".join("0" if e == 0 else ("+" if e > 0 else "-") for e in row) + ")"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# Record keys holding a surd (or None), and the prefix of their two CSV columns.
SURD_COLUMNS = {"detSurd": "detSurd", "alpha": "alpha", "cosine": "cosine", "volumeSurd": "volume"}


def _surd_table(records: list) -> tuple[list, list]:
    """CSV header and rows of flat records; a surd becomes coefficient and radicand columns."""
    rows = []
    for record in records:
        header, row = [], []
        for key, val in record.items():
            if key in SURD_COLUMNS:
                header += [SURD_COLUMNS[key] + "Coeff", SURD_COLUMNS[key] + "Radicand"]
                row += [val["coeff"], val["radicand"]] if val else ["", ""]
            else:
                header.append(key)
                row.append("" if val is None else val)
        rows.append(row)
    return header, rows


# --- conference-pair plumbing --------------------------------------------------


def load_or_search(k: int, cfg: RunConfig) -> tuple[list, str]:
    """Return (pairs, source), reading or else writing conference-<k>.json in
    the --cache directory (default cache) unless --no-cache was given; a size
    outside KNOWN_SEARCH_SIZES needs --allow-unverified."""
    if k not in KNOWN_SEARCH_SIZES and not cfg.allow_unverified:
        raise UsageError(
            f"k = {k} is outside the verified sizes {KNOWN_SEARCH_SIZES}; "
            "pass --allow-unverified to search anyway")
    path = os.path.join(cfg.cache_path or "cache", f"conference-{k}.json")
    if not cfg.no_cache and os.path.exists(path):
        return circulant.load_pairs(path, k), "cache"
    pairs = circulant.search_conference_pairs(k)
    if not cfg.no_cache:
        circulant.save_pairs(path, k, pairs)
    return pairs, "search"


def _pair_facts(p: ConferencePair) -> dict:
    """Determinants and N-integrality data for one conference pair."""
    data = frames.conference_data(p)
    return {
        "detD": data.det_d,
        "detAlphaPlusA": data.det_plus,
        "detAlphaMinusA": data.det_minus,
        "nIntegral": frames.is_integral(data.n_row),
        "nInverseIntegral": frames.is_integral(data.n_inv_row),
    }


# --- analyze -------------------------------------------------------------------

EXPLICIT_FRAMES = {"explicit:6x16": frames.frame_6_16, "explicit:7x28": frames.frame_7_28}
_SELECTOR_GRAMMAR = " | ".join(("simplex:k", "conference:k[:pair[:variant]]", *EXPLICIT_FRAMES))


def _gram_key(cf) -> tuple:
    """n and the integer Seidel block C_B on the basis: equal keys, equal basis Grams."""
    seidel, idx = cf.frame.seidel, [b - 1 for b in cf.basis_indices]
    return (cf.frame.n, *(tuple(seidel[i][j] for j in idx) for i in idx))


def lattice_report(label: str, cf, analyses: dict | None = None) -> dict:
    """Full analysis record for one coordinatized frame (the JSON schema).

    The Gram-only fields come from ``analyses`` (fresh when None), keyed by
    n and the integer Seidel block C_B on the basis, which determine the
    Gram I + C_B/alpha and are determined by it, so a hit builds neither the
    Gram nor its LDL'; label, n, beta and framesAreMinimal are always the
    frame's own.
    """
    k, key = cf.frame.k, _gram_key(cf)
    analyses = {} if analyses is None else analyses
    if key not in analyses:
        model = lattice.lattice_model(cf)
        det = lattice.lattice_determinant(model)
        rep = lattice.minimal_vectors(model)
        analyses[key] = (det, rep, geometry.strong_eutaxy_check(model, rep), geometry.perfection_rank(model, rep),
                         lattice.has_basis_of_minimal_vectors(model, rep), lattice.packing_density(model, rep))
    det, rep, parseval, rank, basis, density = analyses[key]
    out = {
        "k": k,
        "n": cf.frame.n,
        "label": label,
        "isLattice": True,
        "beta": cf.beta,
        "detSurd": _surd_obj(det),
        "detFloat": float(det),
        "minNormSq": _fr(rep.min_norm_sq),
        "minVecCountWithSigns": 2 * len(rep.vectors),
        "framesAreMinimal": lattice.frame_vectors_are_minimal(cf, rep),
        "basisOfMinimalVectors": basis,
        "density": density,
        "eutactic": parseval is not None,
        "parsevalConstant": None if parseval is None else _fr(parseval),
        "perfectionRank": rank,
        "perfect": rank == k * (k + 1) // 2,
    }
    if label == "explicit:7x28":
        out["detD"] = geometry.perfection_certificate_det_7_28()
    return out


def _non_lattice_report(label: str, k: int, n: int) -> dict:
    return {
        "k": k,
        "n": n,
        "label": label,
        "isLattice": False,
        "alpha": _surd_obj(frames.frame_alpha(k, n)),
        "reason": "IrrationalAlpha",
    }


def _selector_int(text: str, what: str, label: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad {what} in {label!r}")


def analyze_selector(label: str, cfg: RunConfig) -> dict:
    parts = label.split(":")
    if parts[0] == "simplex" and len(parts) == 2:
        k = _selector_int(parts[1], "simplex size", label)
        if k < 2:
            raise UsageError("simplex needs k >= 2")
        return lattice_report(label, frames.simplex_frame(k))
    if parts[0] == "conference" and 2 <= len(parts) <= 4:
        k = _selector_int(parts[1], "conference size", label)
        if k < 3 or k % 2 == 0:
            raise UsageError("conference selectors need odd k >= 3")
        index = _selector_int(parts[2], "pair index", label) if len(parts) >= 3 else 0
        if index < 0:
            raise UsageError(f"pair index {index} is negative")
        variant = parts[3] if len(parts) == 4 else None
        if variant not in (None, "plus", "minus"):
            raise UsageError(f"variant must be plus or minus, got {variant!r}")
        if not lattice.alpha_gate(k, 2 * k):
            return _non_lattice_report(label, k, 2 * k)
        pairs, _ = load_or_search(k, cfg)
        if index >= len(pairs):
            raise UsageError(f"pair index {index} out of range (k = {k} has {len(pairs)} pairs)")
        pair = pairs[index]
        variant = variant or frames.preferred_variant(pair)
        return lattice_report(label, frames.conference_frame(pair, variant))
    if label in EXPLICIT_FRAMES:
        return lattice_report(label, EXPLICIT_FRAMES[label]())
    raise UsageError(f"unknown selector {label!r}; use {_SELECTOR_GRAMMAR}")


def _analyze_text(report: dict) -> str:
    lines = [f"analysis of {report['label']}"]
    for key, val in report.items():
        if key == "label":
            continue
        if isinstance(val, dict):
            val = _surd_text(val)
        lines.append(f"  {key} = {val}")
    return "\n".join(lines)


# --- table1 --------------------------------------------------------------------


def _simplex_volume(k: int) -> SurdValue:
    return sqrt_rational(Fraction(1, k + 1) * Fraction(k + 1, k) ** k)


# The paper's families: (name, k, n, analyze selector, volume of a lattice whose
# minimal vectors are exactly +- the frame).  No selector or volume where alpha
# is irrational, so the frame spans no lattice.  (k+1,k) is shown at k = 4.
FAMILIES = (
    ("(k+1,k) k=4", 4, 5, "simplex:4", _simplex_volume(4)),
    ("(3,6)", 3, 6, None, None),
    ("(5,10)", 5, 10, "conference:5:0:plus", SurdValue(Fraction(4, 9))),
    ("(6,16)", 6, 16, "explicit:6x16", SurdValue(Fraction(8, 27))),  # det(B'B) = 2^6/3^6
    ("(7,14)", 7, 14, None, None),
    ("(7,28)", 7, 28, "explicit:7x28", SurdValue(Fraction(8, 81), 3)),  # det(B'B) = 2^6/3^7
    ("(9,18)", 9, 18, None, None),
    ("(13,26)", 13, 26, "conference:13:0", SurdValue(Fraction(64, 3125), 5)),
    ("(25,50)", 25, 50, "conference:25:0", SurdValue(Fraction(2**12, 7**8))),
)
_VOLUMES = {(k, n): volume for _, k, n, _, volume in FAMILIES}


def table1_rows(cfg: RunConfig) -> list:
    rows = []
    for family, k, n, selector, _ in FAMILIES:
        report = analyze_selector(selector, cfg) if selector else {}
        cosine = sqrt_rational(1 / frames.frame_alpha(k, n).squared())
        rows.append({
            "family": family,
            "k": k,
            "n": n,
            "cosine": _surd_obj(cosine),
            "cosineFloat": float(cosine),
            "isLattice": selector is not None,
            "volumeSurd": report.get("detSurd"),
            "volumeFloat": report.get("detFloat"),
            "framesAreMinimal": report.get("framesAreMinimal"),
            "basisOfMinimalVectors": report.get("basisOfMinimalVectors"),
            "perfect": report.get("perfect"),
        })
    return rows


def _table1_text(record: dict) -> str:
    lines = [f"{'(k,n)':<14} {'cosine 1/alpha':<24} {'fundamental volume':<32} minimal = frame? basis?"]
    for r in record["rows"]:
        cos_txt = f"{_surd_text(r['cosine'])} = {_dec(r['cosineFloat'])}"
        if not r["isLattice"]:
            lines.append(f"{r['family']:<14} {cos_txt:<24} {'no lattice':<32}")
            continue
        vol_txt = f"{_surd_text(r['volumeSurd'])} = {_dec(r['volumeFloat'])}"
        verdict = f"{'Yes' if r['framesAreMinimal'] else 'No'}, " \
                  f"{'Yes' if r['basisOfMinimalVectors'] else 'No'}"
        if r["perfect"]:
            verdict += ", and perfect"
        lines.append(f"{r['family']:<14} {cos_txt:<24} {vol_txt:<32} {verdict}")
    return "\n".join(lines)


# --- search --------------------------------------------------------------------


def search_report(k: int, cfg: RunConfig) -> dict:
    if k < 3 or k % 2 == 0:
        raise UsageError("search needs an odd k >= 3")
    pairs, source = load_or_search(k, cfg)
    entries = []
    rational_alpha = lattice.alpha_gate(k, 2 * k)
    for i, p in enumerate(pairs):
        entry = {"index": i, "aRow": list(p.a_row), "dRow": list(p.d_row)}
        if rational_alpha:
            entry.update(_pair_facts(p))
        entries.append(entry)
    return {"k": k, "source": source, "count": len(pairs), "pairs": entries}


def _classify(entry: dict) -> str:
    n_i, inv_i = entry.get("nIntegral"), entry.get("nInverseIntegral")
    if n_i is None:
        return "n/a (irrational alpha)"
    if n_i and inv_i:
        return "N and N^-1 integral"
    if n_i:
        return "N integral"
    if inv_i:
        return "N^-1 integral"
    return "neither integral"


def _search_table(report: dict) -> tuple[list, list]:
    header = ["index", "aRow", "dRow", "detD", "detAlphaPlusA", "detAlphaMinusA",
              "nIntegral", "nInverseIntegral"]
    rows = [[e["index"], _sign_row(e["aRow"]), _sign_row(e["dRow"]),
             e.get("detD", ""), e.get("detAlphaPlusA", ""), e.get("detAlphaMinusA", ""),
             e.get("nIntegral", ""), e.get("nInverseIntegral", "")]
            for e in report["pairs"]]
    return header, rows


def _search_text(report: dict) -> str:
    lines = [f"k = {report['k']}: {report['count']} conference pairs ({report['source']})"]
    for e in report["pairs"]:
        line = f"  t{e['index'] + 1}: a = {_sign_row(e['aRow'])}, d = {_sign_row(e['dRow'])}"
        if "detD" in e:
            line += (f"; det D = {e['detD']}; det(aI+A) = {e['detAlphaPlusA']}; "
                     f"det(aI-A) = {e['detAlphaMinusA']}; {_classify(e)}")
        lines.append(line)
    return "\n".join(lines)


# --- demo: the icosahedral frame spans no lattice -------------------------------


def demo_report(steps: int) -> dict:
    try:
        walk = lattice.non_lattice_witness_3_6(steps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return {"steps": [
        {"step": i + 1, "coefficients": list(coeffs), "normSq": norm}
        for i, (coeffs, norm) in enumerate(walk)
    ]}


def _demo_table(report: dict) -> tuple[list, list]:
    return ["step", "coefficients", "normSq"], [
        [s["step"], " ".join(str(c) for c in s["coefficients"]), repr(s["normSq"])]
        for s in report["steps"]]


def _demo_text(report: dict) -> str:
    lines = ["integer combinations of the six icosahedral frame vectors, shrinking to 0:"]
    for s in report["steps"]:
        coeffs = "(" + ", ".join(str(c) for c in s["coefficients"]) + ")"
        lines.append(f"  step {s['step']:>2}: coeffs {coeffs:<28} |v|^2 = {s['normSq']:.3e}")
    lines.append("a discrete subgroup admits no such sequence, so this frame spans no lattice")
    return "\n".join(lines)


# --- verify-all ----------------------------------------------------------------


def _check_alpha_gate():
    for _, k, n, selector, _ in FAMILIES:
        if lattice.alpha_gate(k, n) != (selector is not None):
            return False, f"expected {'rational' if selector else 'irrational'} alpha for ({k},{n})"
    irrational = ",".join(f"({k},{n})" for _, k, n, selector, _ in FAMILIES if selector is None)
    # the simplex, rational for every k, is not counted among the lattice families
    others = sum(selector is not None and n != k + 1 for _, k, n, selector, _ in FAMILIES)
    return True, f"irrational alpha for {irrational}; rational for the {others} lattice families"


def _frame_minimal(k: int, n: int) -> dict:
    """The analyze fields of a (k, n) frame lattice whose minimal vectors are
    exactly +- the frame: the table's volume (the simplex formula for n = k + 1),
    2n vectors at norm 1 holding a basis, strongly eutactic with Parseval
    constant 2n/k (a unit tight frame), perfection rank n, perfect exactly when
    n = k(k+1)/2."""
    volume = _simplex_volume(k) if n == k + 1 else _VOLUMES[k, n]
    return {
        "detSurd": _surd_obj(volume),
        "minNormSq": "1",
        "minVecCountWithSigns": 2 * n,
        "framesAreMinimal": True,
        "basisOfMinimalVectors": True,
        "eutactic": True,
        "parsevalConstant": _fr(Fraction(2 * n, k)),
        "perfectionRank": n,
        "perfect": n == k * (k + 1) // 2,
    }


def _mismatch(record: dict, want: dict) -> str:
    """The fields where the record differs from want, or "" when none does."""
    return "; ".join(f"{key} = {record[key]}, expected {val}"
                     for key, val in want.items() if record[key] != val)


def _check_simplex():
    for k in range(2, 13):
        if bad := _mismatch(lattice_report(f"simplex:{k}", frames.simplex_frame(k)),
                            _frame_minimal(k, k + 1)):
            return False, f"k={k}: {bad}"
    return True, "k = 2..12: determinant formula, 2(k+1) minimal = frame, eutactic, rank k+1"


def _check_search_counts(cfg):
    expected = {5: 4, 13: 12}
    for k, count in expected.items():
        fast = circulant.search_conference_pairs(k)
        slow = circulant.brute_force_conference_pairs(k)
        if fast != slow:
            return False, f"k={k}: meet-in-the-middle disagrees with brute force"
        if len(fast) != count:
            return False, f"k={k}: expected {count} pairs, found {len(fast)}"
    pairs25, _ = load_or_search(25, cfg)
    if len(pairs25) != 20:
        return False, f"k=25: expected 20 pairs, found {len(pairs25)}"
    return True, "4 / 12 / 20 pairs at k = 5 / 13 / 25; two search strategies agree"


def _check_5_10():
    pairs = circulant.search_conference_pairs(5)
    expected_n = [(1, 0, -1, -1, 0), (-1, 0, 1, 1, 0), (1, -1, 0, 0, -1), (-1, 1, 0, 0, 1)]
    for p, n_want in zip(pairs, expected_n):
        # two formulas for N: D^-1(A - 3I) in conference_data, -(3I + A)^-1 D in compute_N
        for n_row in (frames.conference_data(p).n_row, circulant.compute_N(p, 3)):
            if n_row != n_want:
                return False, f"N first row ({', '.join(map(_fr, n_row))}) != {n_want}"
        facts = _pair_facts(p)
        if abs(facts["detD"]) != 48 or facts["detAlphaPlusA"] != 48:
            return False, "det D = +-48 / det(3I+A) = 48 violated"
        if not facts["nIntegral"] or not facts["nInverseIntegral"]:
            return False, "N and N^-1 should both be integral at k = 5"
    want = _frame_minimal(5, 10)
    grams, analyses = [], {}  # the four frames have two distinct basis Grams
    for i, p in enumerate(pairs):
        cf = frames.conference_frame(p, "plus")
        grams.append(frames.basis_gram(cf))
        if bad := _mismatch(lattice_report(f"conference:5:{i}:plus", cf, analyses), want):
            return False, f"pair {i}: {bad}"
    if lattice.scalar_orthogonal_equivalence(grams[0], grams[2]) is not None:
        return False, "B1 and B3 Grams unexpectedly equivalent"
    return True, "N rows, det D = +-48, det(3I+A) = 48, volume 4/9, B1 !~ B3"


def _check_13_26():
    pairs = circulant.search_conference_pairs(13)
    n_int, inv_int = [], []
    for p in pairs:
        facts = _pair_facts(p)
        if abs(facts["detD"]) != 7680000:
            return False, f"|det D| = {abs(facts['detD'])} != 7680000"
        n_int.append(facts["nIntegral"])
        inv_int.append(facts["nInverseIntegral"])
        side = facts["detAlphaPlusA"] if facts["nIntegral"] else facts["detAlphaMinusA"]
        other = facts["detAlphaMinusA"] if facts["nIntegral"] else facts["detAlphaPlusA"]
        if side != 2560000 or other != 23040000:
            return False, "det(5I+-A) != 2560000 on the integral side"
    if sum(n_int) != 6 or sum(inv_int) != 6 or any(a and b for a, b in zip(n_int, inv_int)):
        return False, "expected a clean 6 / 6 split of N vs N^-1 integrality"
    want = _frame_minimal(13, 26)
    grams, gram_of, analyses = {}, [], {}  # the twelve frames have three distinct basis Grams
    for i, p in enumerate(pairs):
        cf = frames.conference_frame(p, frames.preferred_variant(p))
        if (key := _gram_key(cf)) not in grams:
            grams[key] = frames.basis_gram(cf)
        gram_of.append(list(grams).index(key))
        if bad := _mismatch(lattice_report(f"conference:13:{i}", cf, analyses), want):
            return False, f"pair {i}: {bad}"
    classes = [[i for i, g in enumerate(gram_of) if g in members]
               for members in lattice.equivalence_classes(list(grams.values()))]
    if classes != [[0, 1, 10, 11], [2, 3, 8, 9], [4, 5, 6, 7]]:
        return False, f"equivalence classes {classes} differ from the expected three"
    return True, "dets, 6/6 integrality split, 52 minimal = frame, 3 equivalence classes"


# The reference factorization for det(7I +- A) at k = 25.  No conference pair
# of order 25 can attain it: sum(aRow) = 0 and A is symmetric, so
# det(7I +- A) = Res(x^25 - 1, 7 +- a(x)) = 7 * m^2 for an integer m, with an
# odd power of 7, while this value is a perfect square.  The exact computation
# yields 2^24 * 7^9 = 677021181018112 = 7 * (2^12 * 7^4)^2 for every pair; the
# check keeps the reference number so the discrepancy stays visible.
REFERENCE_DET_25 = 2**22 * 3**2 * 5**2 * 7**2 * 11**4


def _check_25_50_det(cfg):
    pairs, _ = load_or_search(25, cfg)
    seen = set()
    for p in pairs:
        facts = _pair_facts(p)
        seen.add(facts["detAlphaPlusA"])
        seen.add(facts["detAlphaMinusA"])
    if seen == {REFERENCE_DET_25}:
        return True, f"det(7I+-A) = {REFERENCE_DET_25} for all 20 pairs"
    return False, (f"det(7I+-A) computed as {sorted(seen)} = 2^24*7^9 on every pair, "
                   f"reference value {REFERENCE_DET_25} = 2^22*3^2*5^2*7^2*11^4 not attained")


def _check_25_50_lattice(cfg):
    pairs, _ = load_or_search(25, cfg)
    if len(pairs) != 20:
        return False, f"expected 20 pairs, found {len(pairs)}"
    ordered = sorted(pairs, key=lambda p: (p.d_row[0], p.a_row, p.d_row))
    for j in range(10):
        if ordered[j].a_row != ordered[j + 10].a_row:
            return False, f"B_{j + 1} and B_{j + 11} do not share a sign row"
    for p in pairs:
        facts = _pair_facts(p)
        if not (facts["nIntegral"] and facts["nInverseIntegral"]):
            return False, "N and N^-1 should both be integral at k = 25"
    grams = [frames.basis_gram(frames.conference_frame(p, "plus")) for p in ordered[:10]]
    det, want = lattice.lattice_determinant(lattice.gram_model(grams[0])), _VOLUMES[25, 50]
    if det != want:
        return False, f"determinant {det} != {want}"
    classes = lattice.equivalence_classes(grams)
    if classes != [[i] for i in range(10)]:
        return False, f"expected 10 singleton classes, got {classes}"
    return True, "B_j = B_(j+10) pairing, det 2^12/7^8 exactly, 10 singleton classes"


def _check_6_16():
    cf = frames.frame_6_16()
    if tuple(cf.basis_indices) != (1, 2, 3, 4, 5, 9):
        return False, "expected the basis {1,2,3,4,5,9}"
    # beta = 1 means integer coordinates over that basis
    want = {"beta": 1, **_frame_minimal(6, 16)}
    if bad := _mismatch(lattice_report("explicit:6x16", cf), want):
        return False, bad
    return True, "integer basis, det 2^6/3^6, 32 minimal = frame, basis of minimal vectors"


def _check_7_28():
    record = lattice_report("explicit:7x28", frames.frame_7_28())
    want = {**_frame_minimal(7, 28), "detD": 3 * 2**159}
    if bad := _mismatch(record, want):
        return False, bad
    cert = geometry.perfection_certificate_matrix_7_28()
    first_col = [cert[r][0] for r in range(14)]
    if first_col != [0, 0, 0, 0, 0, 0, 0, 49, 42, 35, 28, 21, 14, 36]:
        return False, "certificate matrix first column off"
    if cert[0] != [0] + [16] * 12 + [0] * 15:
        return False, "certificate matrix first row off"
    if abs(record["density"] - 0.2157) > 1e-4:
        return False, f"density {record['density']} != 0.2157 within 1e-4"
    return True, "det 2^6/3^7, 56 minimal = frame, eutactic, perfect, certificate det, density"


def _check_oracle_equivalence():
    cfs = [(f"simplex:{k}", frames.simplex_frame(k)) for k in range(2, 8)]
    p = circulant.search_conference_pairs(5)[0]
    cfs += [(f"conference:5:0:{v}", frames.conference_frame(p, v)) for v in ("plus", "minus")]
    cfs += [(label, build()) for label, build in EXPLICIT_FRAMES.items()]
    for label, cf in cfs:
        model = lattice.lattice_model(cf)
        fast = set(lattice.enumerate_short_vectors(model, Fraction(1)))
        slow = set(lattice.brute_force_short_vectors(model, Fraction(1)))
        if fast != slow:
            return False, f"{label}: recursive and brute-force vectors or norms differ"
    return True, f"recursive = brute-force enumeration on {len(cfs)} lattices at bound 1"


def _random_pd_gram(rng, k):
    a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
    g = mat_mul(transpose(a), a)
    for i in range(k):
        g[i][i] += 1
    return g


def _random_unimodular(rng, k):
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        for col in range(k):
            u[i][col] += c * u[j][col]
    return u


def _check_property_suites():
    rng = random.Random(1357)
    for trial in range(100):  # LDL reconstruction
        k = rng.randint(2, 5)
        g = _random_pd_gram(rng, k)
        dec = ldl_decompose(g)
        u, delta = dec.rows, [1, *dec.minors]
        # scale·g = Σ_t u_t u_t' / (Δ_t Δ_{t+1}), both sides times m = lcm(Δ_t Δ_{t+1})
        m = math.lcm(*(delta[t] * delta[t + 1] for t in range(k)))
        w = [m // (delta[t] * delta[t + 1]) for t in range(k)]
        back = [[sum(w[t] * u[t][i] * u[t][j] for t in range(k)) for j in range(k)]
                for i in range(k)]
        if back != [[m * dec.scale * e for e in row] for row in g]:
            return False, f"LDL reconstruction failed on trial {trial}"
    for trial in range(100):  # surd normalization idempotence
        value = Fraction(rng.randint(1, 500), rng.randint(1, 60))
        s = sqrt_rational(value)
        if SurdValue(s.coeff, s.radicand) != s or s.coeff ** 2 * s.radicand != value:
            return False, f"surd normalization failed on {value}"
    for trial in range(100):  # determinant invariance under unimodular maps
        k = rng.randint(2, 4)
        g = _random_pd_gram(rng, k)
        u = _random_unimodular(rng, k)
        moved = mat_mul(mat_mul(transpose(u), g), u)
        if bareiss_determinant(moved) != bareiss_determinant(g):
            return False, f"determinant changed under unimodular map on trial {trial}"
    for trial in range(100):  # scalar-orthogonal equivalence is an equivalence
        k = rng.randint(2, 4)
        g = _random_pd_gram(rng, k)
        c1 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        c2 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        h = [[c1 * e for e in row] for row in g]
        third = [[c2 * e for e in row] for row in h]
        if lattice.scalar_orthogonal_equivalence(g, g) != 1:
            return False, "reflexivity failed"
        ab = lattice.scalar_orthogonal_equivalence(g, h)
        ba = lattice.scalar_orthogonal_equivalence(h, g)
        if ab != 1 / c1 or ba is None or ab * ba != 1:
            return False, "symmetry failed on a scaled copy"
        if lattice.scalar_orthogonal_equivalence(g, third) != 1 / (c1 * c2):
            return False, "transitivity failed along a chain of scalings"
        other = _random_pd_gram(rng, k)  # rarely proportional to g
        ratio = lattice.scalar_orthogonal_equivalence(g, other)
        if ratio is not None and any(
                g[i][j] != ratio * other[i][j] for i in range(k) for j in range(k)):
            return False, "reported ratio does not reproduce the gram"
    for trial in range(100):  # packing density is scale invariant
        k = rng.randint(2, 4)
        g = _random_pd_gram(rng, k)
        model = lattice.gram_model(g)
        rep = lattice.minimal_vectors(model)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled_model = lattice.gram_model([[c * e for e in row] for row in g])
        scaled_rep = lattice.minimal_vectors(scaled_model)
        d1 = lattice.packing_density(model, rep)
        d2 = lattice.packing_density(scaled_model, scaled_rep)
        if abs(d1 - d2) > 1e-12 * max(1.0, abs(d1)):
            return False, f"density changed under scaling on trial {trial}"
    return True, "5 suites x 100 randomized instances, zero failures"


def verification_checks(cfg: RunConfig) -> list:
    return [
        ("alpha-gate", _check_alpha_gate),
        ("simplex", _check_simplex),
        ("search-counts", lambda: _check_search_counts(cfg)),
        ("5x10", _check_5_10),
        ("13x26", _check_13_26),
        ("25x50-det-factorization", lambda: _check_25_50_det(cfg)),
        ("25x50-lattice", lambda: _check_25_50_lattice(cfg)),
        ("6x16", _check_6_16),
        ("7x28", _check_7_28),
        ("oracle-equivalence", _check_oracle_equivalence),
        ("properties", _check_property_suites),
    ]


def verify_all_report(cfg: RunConfig) -> dict:
    """Run every check whose label, or the part of it before the first "-",
    is not in cfg.skip; a skip label that names no check is a usage error."""
    suite = verification_checks(cfg)
    names = {name for label, _ in suite for name in (label, label.split("-")[0])}
    unknown = [s for s in cfg.skip if s not in names]
    if unknown:
        raise UsageError(f"--skip {', '.join(unknown)} matches no check "
                         f"(checks: {', '.join(label for label, _ in suite)})")
    checks = []
    skipped = []
    for label, fn in suite:
        if label in cfg.skip or label.split("-")[0] in cfg.skip:
            skipped.append(label)
            continue
        ok, detail = fn()
        checks.append({"label": label, "ok": ok, "detail": detail})
    return {
        "checks": checks,
        "skipped": skipped,
        "passed": sum(1 for c in checks if c["ok"]),
        "failed": sum(1 for c in checks if not c["ok"]),
    }


def _verify_table(report: dict) -> tuple[list, list]:
    rows = [[c["label"], c["ok"], c["detail"]] for c in report["checks"]]
    rows += [[label, "skipped", ""] for label in report["skipped"]]
    return ["label", "ok", "detail"], rows


def _verify_text(report: dict) -> str:
    width = max((len(c["label"]) for c in report["checks"]), default=0)
    width = max([width] + [len(s) for s in report["skipped"]])
    lines = []
    for c in report["checks"]:
        lines.append(f"{'PASS' if c['ok'] else 'FAIL'}  {c['label']:<{width}}  {c['detail']}")
    for label in report["skipped"]:
        lines.append(f"SKIP  {label:<{width}}")
    lines.append(f"{report['passed']} passed, {report['failed']} failed, "
                 f"{len(report['skipped'])} skipped")
    return "\n".join(lines)


# --- one report pipeline -------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _report_format(text: str) -> str:
    if text not in ("json", "csv", "text"):
        raise ValueError(f"invalid choice: {text!r} (choose from json, csv, text)")
    return text


class Arg(NamedTuple):
    """A positional or a ``--flag`` of a command.  A flag with a metavar takes
    a value; one without is a switch that sets True.  A positional without a
    default is required."""
    name: str
    help: str
    metavar: str = ""
    dest: str = ""  # the parsed key, when not the name with "-" read as "_"
    convert: Callable = str  # text -> value; a ValueError is a usage error
    default: object = None
    repeat: bool = False  # a flag given once per value, the values in a list

    @property
    def key(self) -> str:
        return self.dest or self.name.lstrip("-").replace("-", "_")


class Command(NamedTuple):
    help: str
    arguments: tuple  # Args: the positionals and the flags it reads
    report: Callable  # (parsed args, RunConfig) -> record, the JSON document
    table: Callable  # record -> (CSV header, CSV rows)
    text: Callable  # record -> text report


_HELP = Arg("--help", "show this help message and exit")
_FORMAT = Arg("--format", "report format", "{json,csv,text}", "output_format", _report_format, "text")
_CACHE_FLAGS = (
    Arg("--cache", "directory of conference-<k>.json pair caches (default cache)", "DIR",
        "cache_path"),
    Arg("--no-cache", "neither read nor write the pair cache"),
)
_UNVERIFIED_FLAG = (
    Arg("--allow-unverified",
        f"permit searches outside k in {{{', '.join(map(str, KNOWN_SEARCH_SIZES))}}}"),
)

COMMANDS = {
    "table1": Command(
        "summary table over all studied (k,n) families", _CACHE_FLAGS,
        lambda args, cfg: {"rows": table1_rows(cfg)},
        lambda record: _surd_table(record["rows"]), _table1_text),
    "search": Command(
        "conference-pair search for one odd k",
        (Arg("k", "the odd order k of the circulant pairs", convert=int),
         *_CACHE_FLAGS, *_UNVERIFIED_FLAG),
        lambda args, cfg: search_report(args["k"], cfg), _search_table, _search_text),
    "analyze": Command(
        "full analysis of one frame selector",
        (Arg("selector", _SELECTOR_GRAMMAR), *_CACHE_FLAGS, *_UNVERIFIED_FLAG),
        lambda args, cfg: analyze_selector(args["selector"], cfg),
        lambda record: _surd_table([record]), _analyze_text),
    "verify-all": Command(
        "run the whole verification matrix",
        (*_CACHE_FLAGS,
         Arg("--skip", "skip a verification check (repeatable), e.g. --skip 25x50", "LABEL",
             repeat=True)),
        lambda args, cfg: verify_all_report(cfg), _verify_table, _verify_text),
    "demo-nonlattice": Command(
        "shrinking-vector walk in the icosahedral frame",
        (Arg("steps", "number of steps, a positive int (default 12)", convert=_positive_int,
             default=12),),
        lambda args, cfg: demo_report(args["steps"]), _demo_table, _demo_text),
}


def render(record: dict, fmt: str, command: Command) -> str:
    """The record as JSON, as the command's CSV table, or through its text template."""
    if fmt == "json":
        return json.dumps(record, indent=2)
    if fmt == "csv":
        return _csv_text(*command.table(record))
    return command.text(record)


def help_text(name: str | None = None) -> str:
    """The --help page of one command or, with no name, of the program; its
    first line is the usage."""
    if name is None:
        usage = f"{{{','.join(COMMANDS)}}} ..."
        about = "Equiangular tight frames, their coordinate lattices, and the supporting circulant searches."
        rows = list(COMMANDS.items())
    else:
        args, about = (_FORMAT, *COMMANDS[name].arguments), COMMANDS[name].help
        rows = [("-h, --help", _HELP), *((f"{a.name} {a.metavar}".rstrip(), a) for a in args)]
        usage = " ".join((name, "[-h]", *(f"[{s}]" for s, a in rows[1:] if a.name[0] == "-"),
                          *(a.name if a.default is None else f"[{a.name}]"
                            for a in args if a.name[0] != "-")))
    width = max(len(s) for s, _ in rows)
    rows = [f"  {s:<{width}}  {entry.help}" for s, entry in rows]
    return "\n".join((f"usage: framelat {usage}", "", about, "", *rows))


def _exit(name: str | None, error: str = ""):
    """Print the help page and exit 0 or, given an error, the usage and the error and exit 2."""
    if not error:
        print(help_text(name))
        raise SystemExit(0)
    usage, prog = help_text(name).splitlines()[0], "framelat" if name is None else f"framelat {name}"
    print(f"{usage}\n{prog}: error: {error}", file=sys.stderr)
    raise SystemExit(2)


def _is_option(token: str) -> bool:
    # "-" alone and a negative number such as -5 are values, as in argparse
    return token[:1] == "-" and token != "-" and not re.fullmatch(r"-\d+|-\d*\.\d+", token)


def _convert(name: str, arg: Arg, text: str):
    try:
        return arg.convert(text)
    except ValueError as exc:
        _exit(name, f"argument {arg.name}: {exc}")


def parse_args(argv: Sequence[str]) -> dict:
    """argv read against COMMANDS: {"command": its name, "output_format", and
    the key of each of its arguments}.  Flags may come before or after the
    positionals, as --flag=value, or by a unique prefix; "--" ends the flags.
    -h or --help prints help and exits 0; a usage error exits 2."""
    if not argv:
        _exit(None, "the following arguments are required: command")
    if argv[0] not in COMMANDS:
        _exit(None, "" if argv[0] in ("-h", "--h", "--he", "--hel", "--help") else
              f"argument command: invalid choice: {argv[0]!r} (choose from {', '.join(COMMANDS)})")
    name, tokens = argv[0], list(argv[1:])
    args = (_FORMAT, *COMMANDS[name].arguments)
    flags = {a.name: a for a in (_HELP, *args) if a.name[0] == "-"}
    parsed = {"command": name, **{a.key: [] if a.repeat else a.default if a.metavar else False
                                  for a in args if a.name[0] == "-"}}
    given = []
    while tokens:
        token = tokens.pop(0)
        if token == "--":
            given += tokens
            break
        if not _is_option(token):
            given.append(token)
            continue
        spelling, eq, value = token.partition("=")
        hits = [spelling] if spelling in flags else [f for f in flags if f.startswith(spelling)]
        if token == "-h" or hits == ["--help"] and not eq:
            _exit(name)
        if len(hits) != 1:
            _exit(name, f"ambiguous option: {spelling} could match {', '.join(hits)}"
                  if hits else f"unrecognized arguments: {token}")
        arg = flags[hits[0]]
        if not arg.metavar and eq:
            _exit(name, f"argument {arg.name}: ignored explicit argument {value!r}")
        if arg.metavar and not eq:
            if not tokens or tokens[0] == "--" or _is_option(tokens[0]):
                _exit(name, f"argument {arg.name}: expected one argument")
            value = tokens.pop(0)
        value = _convert(name, arg, value) if arg.metavar else True
        parsed[arg.key] = parsed[arg.key] + [value] if arg.repeat else value
    positionals = [a for a in args if a.name[0] != "-"]
    if len(given) > len(positionals):
        _exit(name, f"unrecognized arguments: {' '.join(given[len(positionals):])}")
    if missing := [a.name for a in positionals[len(given):] if a.default is None]:
        _exit(name, f"the following arguments are required: {', '.join(missing)}")
    for i, arg in enumerate(positionals):
        parsed[arg.key] = _convert(name, arg, given[i]) if i < len(given) else arg.default
    return parsed


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    command = COMMANDS[args["command"]]
    cfg = RunConfig(**{name: args[name] for name in RunConfig._fields if name in args})
    try:
        record = command.report(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CacheCorruptError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 3
    print(render(record, args["output_format"], command))
    return 1 if record.get("failed", 0) > 0 else 0


if __name__ == "__main__":
    raise SystemExit(main())
