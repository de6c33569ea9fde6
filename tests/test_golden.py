"""CLI outputs compared byte for byte with a recorded corpus.

Each ``golden/<case>.out`` holds the stdout of one CLI call.  The census,
rc, profile, lumped and dot cases were recorded at commit b16fffc with the
Word-level congruence code that preceded the integer kernel.  Inputs are the
five-class running example and the pairs joining the first word of each of
its blocks to the others.

The ``walk_stationary_*`` and ``walk_simulate_*`` cases were recorded at
commit 77e042d, where the walk still ran on ``code_action`` and a dense
transition matrix, before the action table.  ``code_g2.json`` (g=2, k=5) and
``code_g3.json`` (g=3, k=3) are the codes of the two-sided ideals spanned by
the factors {aba, bb} and {ab, cc}, words in shuffled order.

The ``*_g3`` cases were recorded at commit 2e46302, before the reset and lcs
scans of ``codes`` moved onto integers.  ``g3_k3.json`` is the 15-block
congruence on {a,b,c}^3 generated by (acc, cac), (ccb, aab) and (ccc, cbc),
blocks and words in shuffled order; it is not special, its reset code has 21
words and its block lcs code has 7.

``walk_lumped_g3_zero`` was recorded at commit 587318f, where ``lumped``
still summed the rows of the code walk by class; letter a has probability
0, so the matrix keeps the class walk's zero entries.

``walk_simulate_wide`` was recorded at commit 318eca4, where the simulator
still drew one ``randrange`` per letter.  Its denominator, 513, is wider
than a byte, so the simulator draws its letters one at a time.
"""

from pathlib import Path

import pytest

from semwalk.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIVE_CLASS = str(GOLDEN / "five_class.json")
PAIRS = str(GOLDEN / "five_class_pairs.json")
PI = ["--pi", "a=1/2,b=1/2"]
CODE_G2 = ["--code", str(GOLDEN / "code_g2.json"), "--pi", "a=2/7,b=5/7"]
G3 = str(GOLDEN / "g3_k3.json")
PI_G3 = ["--pi", "a=1/6,b=1/3,c=1/2"]
CODE_G3 = ["--code", str(GOLDEN / "code_g3.json"), "--pi", "a=1/6,b=1/3,c=1/2"]

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
    **{f"rc_{action}_g3": ["rc", action, "--in", G3] for action in ["lower", "upper", "resets", "is-special"]},
    "walk_profile_g3": ["walk", "profile", "--in", G3, *PI_G3],
    "walk_lumped_g3": ["walk", "lumped", "--in", G3, *PI_G3],
    "walk_lumped_g3_zero": ["walk", "lumped", "--in", G3, "--pi", "a=0,b=1/3,c=2/3"],
    "graph_dot_g3": ["graph", "dot", "--in", G3],
    "walk_stationary_g2": ["walk", "stationary", *CODE_G2],
    "walk_stationary_g3": ["walk", "stationary", *CODE_G3],
    "walk_simulate_code_g2": ["walk", "simulate", *CODE_G2, "--steps", "20000", "--seed", "5"],
    "walk_simulate_code_g3": ["walk", "simulate", *CODE_G3, "--steps", "20000", "--seed", "9"],
    "walk_simulate_wide": [
        "walk", "simulate", "--code", str(GOLDEN / "code_g2.json"), "--pi", "a=200/513,b=313/513",
        "--steps", "20000", "--seed", "3",
    ],
    "walk_simulate_in": [
        "walk", "simulate", "--in", FIVE_CLASS, "--pi", "a=1/3,b=2/3", "--steps", "20000", "--seed", "7"
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys):
    assert main(CASES[case]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{case}.out").read_bytes()


def test_graph_dot_out_writes_the_golden_bytes(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    assert main(["graph", "dot", "--in", FIVE_CLASS, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (GOLDEN / "graph_dot.out").read_bytes()
