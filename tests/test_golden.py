"""CLI output pinned byte for byte against checked-in golden files.

Two runs in one process agreeing cannot catch drift between versions; these
files can.  Regenerate one only for an intended output change, from the
listed command's stdout:
``python -m rootatlas classify D4 --format json > tests/golden/classify_d4.json``.
"""

from pathlib import Path

import pytest

from rootatlas.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "atlas_r4_b2.json": "atlas --max-rank 4 --bound 2 --format json",
    # grade carries the class map, which the atlas JSON does not
    "grade_d4_b2.json": "grade D4 --bound 2 --format json",
    # the Z/2 x Z/2 class map through a 35 x 3308 Smith form
    "grade_d4_b3.json": "grade D4 --bound 3 --format json",
    # a Z/5 class map read from the left transform of a 35 x 2234 Smith form
    "grade_a4_b3.json": "grade A4 --bound 3 --format json",
    # class maps over non-cyclic quotients, where the Smith form runs its
    # non-unit pivots: five pivots of 2 on (Z/2)^5, and pivots of 2 and 4
    # on Z/4 x Z/2
    "grade_a1x5_b2.json": "grade A1xA1xA1xA1xA1 --bound 2 --format json",
    "grade_a3xa1_b3.json": "grade A3xA1 --bound 3 --format json",
    "classify_d4.json": "classify D4 --format json",
    # 67 diagrams whose isogeny order is not a chain: labels and cover edges
    "classify_a1x4.json": "classify A1xA1xA1xA1 --format json",
    # classify's text form: edges printed by label, among them covers of
    # index 2 from the order-8 top to the cyclic Z/4 diagrams, and the note
    "classify_a1xa3.txt": "classify A1xA3",
    # a certificate word for two weights in one class of P/Q = Z/4
    "equiv_a3_found.json": "equiv A3 2,0,1 0,1,1 --format json",
    # classes 3 and 2 of Z/4: no word
    "equiv_a3_classes_differ.json":
        "equiv A3 1,0,0 0,1,0 --bound 2 --depth 3 --format json",
    # classes 0 and 1 of Z/2
    "equiv_b3_classes_differ.json":
        "equiv B3 1,0,0 0,0,1 --bound 2 --depth 3 --format json",
    # equiv's text output: a word found, and classes 3 and 2 of Z/4
    "equiv_a1_text.txt": "equiv A1 0 2",
    "equiv_a3_classes_differ.txt": "equiv A3 1,0,0 0,1,0",
    # the JSON branch of weights
    "weights_e6_1.json": "weights E6 1,0,0,0,0,0 --format json",
    # atlas text with all three kinds of row: a matching grading, an entry
    # refused by the enumeration cap and a grading skipped by the dimension cap
    "atlas_r4_b1_caps.txt":
        "atlas --max-rank 4 --bound 1 --enumeration-cap 3 --grading-dim-cap 5",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsys, name):
    assert run(CASES[name].split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
