"""End-to-end tests for the command-line driver."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import framelat
from framelat import circulant, cli


@pytest.fixture(scope="module", autouse=True)
def workdir(tmp_path_factory):
    # One shared scratch directory so the conference-pair cache warms once.
    old = os.getcwd()
    path = tmp_path_factory.mktemp("cliwork")
    os.chdir(path)
    yield path
    os.chdir(old)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table1_text_matches_reference_rows(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert out.count("no lattice") == 3
    for snippet in (
        "(k+1,k) k=4",
        "(5/16)*sqrt(5) = 0.6988",
        "4/9 = 0.4444",
        "8/27 = 0.2963",
        "(8/81)*sqrt(3) = 0.1711",
        "(64/3125)*sqrt(5) = 0.0458",
        "4096/5764801 = 0.00071052",
    ):
        assert snippet in out, snippet
    assert out.count("Yes, Yes") == 6
    assert out.count("and perfect") == 1


def test_table1_csv_has_one_line_per_family(capsys):
    code, out, _ = run(capsys, "table1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # header + 9 families
    assert lines[0].startswith("family,k,n,cosineCoeff,cosineRadicand")
    row_25 = next(line for line in lines if line.startswith('"(25,50)"'))
    assert ",True,True," in row_25  # the two cells left open get computed


def test_search_5_text_lists_the_four_pairs(capsys):
    code, out, _ = run(capsys, "search", "5")
    assert code == 0
    assert "4 conference pairs" in out
    assert "t1: a = (0,-,+,+,-), d = (-,+,+,+,+)" in out
    assert out.count("N and N^-1 integral") == 4
    assert "det D = 48" in out and "det D = -48" in out


def test_search_rejects_even_and_unknown_sizes(capsys):
    code, _, err = run(capsys, "search", "4")
    assert code == 2 and "odd" in err
    code, _, err = run(capsys, "search", "41")
    assert code == 2 and "--allow-unverified" in err


def test_search_unverified_size_with_flag(capsys):
    code, out, _ = run(capsys, "search", "3", "--allow-unverified", "--no-cache")
    assert code == 0
    assert "4 conference pairs" in out
    assert "det D" not in out  # irrational alpha: no determinant columns


def test_search_json_is_deterministic_and_uses_cache(capsys):
    code, first, _ = run(capsys, "search", "13", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "search", "13", "--format", "json")
    assert code == 0
    doc1, doc2 = json.loads(first), json.loads(second)
    assert doc2["source"] == "cache"
    assert doc1["pairs"] == doc2["pairs"]
    assert doc1["count"] == 12
    # byte-identical once the cache is the common source
    code, third, _ = run(capsys, "search", "13", "--format", "json")
    assert second == third


def test_search_no_cache_runs_are_byte_identical(capsys):
    code, first, _ = run(capsys, "search", "5", "--format", "json", "--no-cache")
    code2, second, _ = run(capsys, "search", "5", "--format", "json", "--no-cache")
    assert code == code2 == 0
    assert first == second
    assert json.loads(first)["source"] == "search"


def test_cache_round_trip_preserves_pairs(workdir, capsys):
    run(capsys, "search", "5")
    loaded = circulant.load_pairs(os.path.join("cache", "conference-5.json"))
    assert loaded == circulant.search_conference_pairs(5)


def test_corrupt_cache_is_a_cache_error(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("garbage")
    code, _, err = run(capsys, "search", "5", "--cache", str(bad))
    assert code == 3
    assert "cache error" in err
    # --no-cache bypasses the corrupt file and leaves it untouched
    code, out, _ = run(capsys, "search", "5", "--cache", str(bad), "--no-cache")
    assert code == 0 and "4 conference pairs" in out
    assert bad.read_text() == "garbage"


def test_cache_directory_option(workdir, capsys):
    cachedir = workdir / "pairdir"
    cachedir.mkdir()
    code, _, _ = run(capsys, "search", "13", "--cache", str(cachedir))
    assert code == 0
    assert (cachedir / "conference-13.json").exists()


def test_analyze_simplex_9(capsys):
    code, out, _ = run(capsys, "analyze", "simplex:9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eutactic"] is True
    assert doc["perfect"] is False
    assert doc["minVecCountWithSigns"] == 20
    # det(gram) = (1/10)(10/9)^9 = 10^8/3^18, a perfect rational square
    assert doc["detSurd"] == {"coeff": "10000/19683", "radicand": 1}


def test_analyze_conference_7_reports_no_lattice(capsys):
    code, out, _ = run(capsys, "analyze", "conference:7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["isLattice"] is False
    assert doc["alpha"] == {"coeff": "1", "radicand": 13}
    assert doc["reason"] == "IrrationalAlpha"


def test_analyze_explicit_7x28(capsys):
    code, out, _ = run(capsys, "analyze", "explicit:7x28", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["minVecCountWithSigns"] == 56
    assert doc["perfect"] is True
    assert abs(doc["density"] - 0.2157) < 1e-4
    assert doc["detD"] == 3 * 2**159
    assert doc["parsevalConstant"] == "8"


def test_analyze_conference_variant_and_range_errors(capsys):
    code, out, _ = run(capsys, "analyze", "conference:5:1:minus", "--format", "json")
    assert code == 0
    assert json.loads(out)["beta"] == 1
    code, _, err = run(capsys, "analyze", "conference:5:9")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "analyze", "conference:6")
    assert code == 2
    code, _, err = run(capsys, "analyze", "simplex:1")
    assert code == 2
    code, _, err = run(capsys, "analyze", "bogus:1")
    assert code == 2 and "unknown selector" in err


def test_analyze_csv_flattens_surds(capsys):
    code, out, _ = run(capsys, "analyze", "simplex:4", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["detSurdCoeff"] == "5/16"
    assert cols["detSurdRadicand"] == "5"
    assert cols["label"] == "simplex:4"


# SHA-256 of `--format json` stdout, recorded before the lattice layer moved
# from a Fraction LDL to the fraction-free one; any byte of drift fails.
PINNED_JSON_SHA256 = {
    ("table1",): "f90e4f1ba3fcd0c3a2e2643c892bec5b3fb7994502d206d30e06004630c366fd",
    ("analyze", "conference:25:0"): "b7efeae750436ca88162c431c08b554019372b42ee04cdbfcac0de22477984fb",
    ("analyze", "conference:13:0"): "3d324db5ea2eb8f00ff4fdda2d03e168f57afdf200da74ab874901e624c45ab5",
    ("analyze", "simplex:24"): "f5f826bc8ac9606da2534a7313bcce6fa4eb95d70b3527a300beab936ba8dbdb",
    ("analyze", "explicit:6x16"): "77f21c41680ab0fe8b1eb7460821476a0cd018393d0ce52185ed9abb808d8912",
    ("analyze", "explicit:7x28"): "152176e2e384b8ac2101402950c1ca4ae736e267a6ab96d2b0625e8790bbee97",
}


@pytest.mark.parametrize("argv", sorted(PINNED_JSON_SHA256), ids="-".join)
def test_json_output_is_byte_identical_to_the_pin(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JSON_SHA256[argv]


def test_cli_import_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(framelat.__file__))
    code = "import sys, framelat.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_verify_all_reports_the_one_known_failure(capsys):
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["failed"] == 1
    failing = [c["label"] for c in doc["checks"] if not c["ok"]]
    assert failing == ["25x50-det-factorization"]
    assert "2^24*7^9" in doc["checks"][5]["detail"]


def test_verify_all_skip_unlocks_a_clean_exit(capsys):
    code, out, _ = run(capsys, "verify-all", "--skip", "25x50", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["skipped"] == ["25x50-det-factorization", "25x50-lattice"]


def test_verify_report_honors_fine_grained_skips():
    cfg = cli.RunConfig(command="verify-all", skip=(
        "simplex", "search-counts", "5x10", "13x26", "25x50",
        "6x16", "7x28", "oracle-equivalence", "properties"))
    report = cli.verify_all_report(cfg)
    assert [c["label"] for c in report["checks"]] == ["alpha-gate"]
    assert report["passed"] == 1 and report["failed"] == 0
    assert len(report["skipped"]) == 10


def test_demo_nonlattice_rows(capsys):
    code, out, _ = run(capsys, "demo-nonlattice", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["steps"]) == 5
    assert doc["steps"][0]["coefficients"] == [0, 2, 1, 1, -1, 1]
    norms = [s["normSq"] for s in doc["steps"]]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    code, out, _ = run(capsys, "demo-nonlattice", "15", "--format", "json")
    assert json.loads(out)["steps"][-1]["normSq"] < 1e-5


def test_demo_rejects_zero_steps(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo-nonlattice", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
