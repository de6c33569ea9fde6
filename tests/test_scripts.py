"""The experiment scripts, run as scripts.

The census script's rows and witnesses agree with the CLI's golden census,
and the walkthrough prints the running example's exact values and its
seeded simulation.
"""

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# The census script's witness labels and the CLI's witness keys.
WITNESS_KEYS = {"pentagon witness": "pentagon", "not a join of atoms": "not_join_of_atoms"}


def run_script(capsys, name):
    runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_lattice_census_script_matches_the_golden_census(capsys):
    counts, witnesses = {}, {}
    for line in run_script(capsys, "lattice_census.py"):
        fields = line.split()
        if fields and fields[0].isdigit():
            setting = (int(fields[0]), int(fields[1]))
            counts[setting], witnesses[setting] = int(fields[2]), {}
        label, _, value = line.strip().partition(": ")
        if label in WITNESS_KEYS:
            witnesses[setting][WITNESS_KEYS[label]] = value
    assert [counts[2, 2], counts[2, 3], counts[3, 2]] == [5, 30, 192]
    goldens = sorted(GOLDEN.glob("census_g*_k*.out"))
    assert len(goldens) == 4
    for path in goldens:
        golden = json.loads(path.read_text())
        setting = (len(golden["alphabet"]), golden["k"])
        assert counts[setting] == golden["count"]
        expected = {key: " / ".join(w) if key == "pentagon" else w for key, w in golden["witnesses"].items()}
        assert witnesses[setting] == expected


def test_approximation_walkthrough_prints_the_running_example(capsys):
    lines = run_script(capsys, "approximation_walkthrough.py")
    for expected in [
        "congruence: {aaa,aba,baa} | {aab,bab} | {abb} | {bba} | {bbb}",
        "lower approximation: {aaa,baa} | {aab,bab} | {aba} | {abb} | {bba} | {bbb}",
        "upper approximation: {aaa,aba,baa,bba} | {aab,bab} | {abb} | {bbb}",
        "  via code: {a,ab,abb,bbb}",
        "  hitting time t = 5/2",
        "simulated mean reset time over 199965 episodes: 2.5004",
        "exact value: 5/2 = 2.5",
    ]:
        assert expected in lines
