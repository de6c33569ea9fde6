"""CLI outputs compared byte for byte with a recorded corpus.

Each ``golden/<case>.out`` holds the stdout of one CLI call, recorded at
commit b16fffc with the Word-level congruence code that preceded the integer
kernel.  Inputs are the five-class running example and the pairs joining
the first word of each of its blocks to the others.
"""

from pathlib import Path

import pytest

from semwalk.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIVE_CLASS = str(GOLDEN / "five_class.json")
PAIRS = str(GOLDEN / "five_class_pairs.json")
PI = ["--pi", "a=1/2,b=1/2"]

CASES = {
    **{
        f"census_g{g}_k{k}": ["lattice", "census", "-g", g, "-k", k, "--carrier-bound", "9"]
        for g, k in [("2", "2"), ("2", "3"), ("4", "1"), ("3", "2")]
    },
    **{
        f"rc_{action}": ["rc", action, "--in", FIVE_CLASS]
        for action in ["validate", "lower", "upper", "resets", "is-special"]
    },
    "rc_generate": ["rc", "generate", "--in", PAIRS],
    "walk_profile": ["walk", "profile", "--in", FIVE_CLASS, *PI],
    "walk_lumped": ["walk", "lumped", "--in", FIVE_CLASS, *PI],
    "graph_dot": ["graph", "dot", "--in", FIVE_CLASS],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys):
    assert main(CASES[case]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{case}.out").read_bytes()
