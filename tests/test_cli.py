import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis.errors import NoSuchExample
from hypothesis import strategies as st

from semwalk import cli, codes, congruences, constructions, oracles, walks
from semwalk.cli import main
from semwalk.words import Alphabet, Word

FIVE_CLASS = {
    "alphabet": "ab",
    "k": 3,
    "blocks": [["aaa", "baa", "aba"], ["bba"], ["aab", "bab"], ["abb"], ["bbb"]],
}
FOUR_CLASS = {
    "alphabet": "ab",
    "k": 3,
    "blocks": [["aaa", "baa", "aba", "bba"], ["aab", "bab"], ["abb"], ["bbb"]],
}
BA_RESTRICTED = {"alphabet": "ab", "code": ["b", "ba", "baa", "aaa"], "k": 3, "infinite_tail": False}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err or out
    return json.loads(out)


def test_rc_validate_round_trip(files, capsys, tmp_path):
    infile = files("five_class.json", FIVE_CLASS)
    data = run_json(capsys, "rc", "validate", "--in", infile)
    assert data["valid"] is True
    canonical = data["congruence"]
    assert canonical["blocks"] == [["aaa", "aba", "baa"], ["aab", "bab"], ["abb"], ["bba"], ["bbb"]]
    # Emitted JSON re-validates to the identical canonical form.
    again = files("five_class_canonical.json", canonical)
    data2 = run_json(capsys, "rc", "validate", "--in", again)
    assert data2["congruence"] == canonical


def test_rc_validate_closure_failure_payload(files, capsys):
    bad = {
        "alphabet": "ab",
        "k": 3,
        "blocks": [["aaa", "aab"]] + [[w] for w in ["aba", "abb", "baa", "bab", "bba", "bbb"]],
    }
    code, out, err = run(capsys, "rc", "validate", "--in", files("bad.json", bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "closure"
    assert payload["witness"] == {"u": "aaa", "v": "aab", "letter": "a"}


@pytest.mark.parametrize(
    "blocks, letter",
    [
        ([["aa"], ["ab", "ac"], ["ba", "ca"], ["bb"], ["bc"], ["cb"], ["cc"]], "b"),
        ([["cc"], ["bc"], ["aa"], ["ac", "ab"], ["ba", "ca"], ["cb", "bb"]], "c"),
    ],
)
def test_rc_validate_closure_witness_over_three_letters(files, capsys, blocks, letter):
    # ab*a = ba and ac*a = ca share a block, so the first letter that
    # separates ab and ac is a later one.
    bad = {"alphabet": "abc", "k": 2, "blocks": blocks}
    code, out, err = run(capsys, "rc", "validate", "--in", files("bad3.json", bad))
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "error": "closure",
        "message": f"not a right congruence: ab and ac share a block but ab*{letter} and ac*{letter} do not",
        "witness": {"u": "ab", "v": "ac", "letter": letter},
    }


def test_rc_validate_identity_exit_zero(files, capsys):
    ident = {"alphabet": "ab", "k": 2, "blocks": [["aa"], ["ab"], ["ba"], ["bb"]]}
    code, _, _ = run(capsys, "rc", "validate", "--in", files("id.json", ident))
    assert code == 0


def test_parse_error_exit_code(files, capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code, out, err = run(capsys, "rc", "validate", "--in", missing)
    assert code == 2
    assert json.loads(err)["error"] == "parse"
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, out, err = run(capsys, "rc", "validate", "--in", str(garbled))
    assert code == 2


# Bytes json.load cannot turn into a value: not UTF-8, nested deeper than the
# recursion limit, and an integer literal over the digit limit.
UNREADABLE = [
    b"\xff\xfe{}",
    b"[" * 100_000 + b"]" * 100_000,
    b'{"alphabet": "ab", "k": ' + b"1" * 5000 + b', "blocks": []}',
]


@pytest.mark.parametrize("raw", UNREADABLE, ids=["utf16-bom", "deep", "long-int"])
def test_unreadable_input_is_a_parse_error(capsys, tmp_path, raw):
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, "rc", "validate", "--in", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "parse"


@pytest.mark.parametrize("group, action", [("rc", "validate"), ("graph", "dot")])
@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_is_a_parse_error(files, capsys, tmp_path, group, action, where):
    infile = files("five_class.json", FIVE_CLASS)
    code, out, err = run(capsys, group, action, "--in", infile, "--out", str(tmp_path / where))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "parse"


def test_an_empty_out_path_is_a_parse_error(files, capsys):
    code, out, err = run(capsys, "rc", "validate", "--in", files("five_class.json", FIVE_CLASS), "--out", "")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "parse"


def test_graph_dot_keeps_nothing_of_a_large_carrier(files, tmp_path):
    # 65,536 singleton blocks; the rendering of A^16 is dropped with the
    # congruence, as no table of its words is cached across calls.
    blocks = [["".join(w)] for w in itertools.product("ab", repeat=16)]
    infile = files("identity16.json", {"alphabet": "ab", "k": 16, "blocks": blocks})
    argv = ["graph", "dot", "--in", infile, "--out", str(tmp_path / "identity16.dot")]
    cli._build_parser()  # built once per process, and kept
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_rc_lower_produces_code_and_partition(files, capsys):
    data = run_json(capsys, "rc", "lower", "--in", files("five_class.json", FIVE_CLASS))
    assert data["code"]["code"] == ["aa", "ab", "aba", "abb", "bba", "bbb"]
    assert data["congruence"]["blocks"] == [
        ["aaa", "baa"],
        ["aab", "bab"],
        ["aba"],
        ["abb"],
        ["bba"],
        ["bbb"],
    ]


def test_rc_upper_and_resets(files, capsys):
    infile = files("five_class.json", FIVE_CLASS)
    upper = run_json(capsys, "rc", "upper", "--in", infile)
    assert upper["code"]["code"] == ["a", "ab", "abb", "bbb"]
    resets = run_json(capsys, "rc", "resets", "--in", infile)
    assert resets["code"] == ["aa", "ab", "aba", "abb", "bba", "bbb"]
    assert resets["k"] == 3


def test_rc_is_special(files, capsys):
    assert run_json(capsys, "rc", "is-special", "--in", files("five_class.json", FIVE_CLASS)) == {"special": False}
    assert run_json(capsys, "rc", "is-special", "--in", files("fc.json", FOUR_CLASS)) == {
        "special": True
    }


def test_rc_generate(files, capsys):
    payload = {"alphabet": "ab", "k": 3, "pairs": [["aaa", "bba"]]}
    data = run_json(capsys, "rc", "generate", "--in", files("pairs.json", payload))
    assert data["congruence"]["blocks"] == [
        ["aaa", "baa", "bba"],
        ["aab", "bab"],
        ["aba"],
        ["abb"],
        ["bbb"],
    ]


@pytest.mark.parametrize("hash_seed", ["1", "2", "4"])
def test_rc_generate_names_the_first_bad_pair_in_file_order(files, hash_seed):
    # Under a set of pairs these seeds named (aaa, b), (b, bb) and (a, ab).
    pairs = [["aa", "ab"], ["a", "ab"], ["ab", "bab"], ["b", "bb"], ["aaa", "b"], ["a", "ab"]]
    infile = files("pairs.json", {"alphabet": "ab", "k": 2, "pairs": pairs})
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
    }
    argv = [sys.executable, "-m", "semwalk", "rc", "generate", "--in", infile]
    done = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert done.returncode == 1 and done.stderr == ""
    assert json.loads(done.stdout) == {"error": "validation", "message": "pair (a, ab) is not in A^2 x A^2"}


def test_walk_profile_four_class(files, capsys):
    data = run_json(
        capsys, "walk", "profile", "--in", files("fc.json", FOUR_CLASS), "--pi", "a=1/2,b=1/2"
    )
    assert data["P"] == ["1/2", "3/4", "1"]
    assert data["t"] == "7/4"


def test_walk_profile_running_example(files, capsys):
    data = run_json(capsys, "walk", "profile", "--in", files("five_class.json", FIVE_CLASS), "--pi", "a=1/2,b=1/2")
    assert data["P"] == ["0", "1/2", "1"]
    assert data["t"] == "5/2"


def test_walk_stationary_in_input_order(files, capsys):
    data = run_json(
        capsys, "walk", "stationary", "--code", files("ba3.json", BA_RESTRICTED), "--pi", "a=1/2,b=1/2"
    )
    assert data["states"] == ["b", "ba", "baa", "aaa"]
    assert data["stationary"] == ["1/2", "1/4", "1/8", "1/8"]


def test_walk_stationary_renders_zero_and_whole_weights(files, capsys):
    # Each entry as _ratio renders it: a zero weight is "0", the whole mass "1".
    # A zero letter probability is reported on stderr as one JSON line, on
    # every call, although Python shows a warning once per process.
    path = files("ba3.json", BA_RESTRICTED)
    for _ in range(2):
        code, out, err = run(capsys, "walk", "stationary", "--code", path, "--pi", "a=0,b=1")
        assert code == 0 and json.loads(out)["stationary"] == ["1", "0", "0", "0"]
        assert err == json.dumps({"warning": "non-positive letter distribution: stationary vector may not be unique"}) + "\n"
    data = run_json(capsys, "walk", "stationary", "--code", path, "--pi", "a=2/3,b=1/3")
    assert data["stationary"] == [cli._ratio(w, 27) for w in (9, 6, 4, 8)]


@pytest.mark.parametrize("pi, letter, value", [("a=1/0,b=1/2", "a", "1/0"), ("a=1,b=0/0", "b", "0/0")])
def test_a_zero_denominator_in_pi_names_its_letter(files, capsys, pi, letter, value):
    code, out, err = run(capsys, "walk", "stationary", "--code", files("ba3.json", BA_RESTRICTED), "--pi", pi)
    assert code == 2 and out == ""
    message = f"bad --pi value: zero denominator in the probability of letter {letter!r}: {value!r}"
    assert json.loads(err) == {"error": "parse", "message": message}


@pytest.mark.parametrize("pi, letter, value", [("a=1/2,b=x", "b", "x"), ("a=1/2,b", "b", ""), ("a=1/2,b=1/2,", "", "")])
def test_an_unreadable_probability_in_pi_names_its_letter(files, capsys, pi, letter, value):
    code, out, err = run(capsys, "walk", "stationary", "--code", files("ba3.json", BA_RESTRICTED), "--pi", pi)
    assert code == 2 and out == ""
    message = f"bad --pi value: cannot read the probability of letter {letter!r}: {value!r}"
    assert json.loads(err) == {"error": "parse", "message": message}


def test_the_zero_probability_caution_is_a_line_not_a_python_warning(files, capsys, tmp_path, five_class):
    # The caution is printed only after the result is written, and the CLI
    # route issues no Python warning for it, whatever the warning filters.
    argv = ["walk", "stationary", "--code", files("ba3.json", BA_RESTRICTED), "--pi", "a=0,b=1"]
    pi = walks.LetterDistribution.parse(Alphabet("ab"), "a=0,b=1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == json.dumps({"warning": walks.NON_POSITIVE_CAUTION}) + "\n"
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x.json"))
        assert code == 2 and out == "" and err.count("\n") == 1 and json.loads(err)["error"] == "parse"
        walks.stationary_weights(codes.reset_code(five_class), pi)
    assert caught == []


def test_walk_lumped_in_input_order(files, capsys):
    data = run_json(
        capsys, "walk", "lumped", "--in", files("five_class.json", FIVE_CLASS), "--pi", "a=1/2,b=1/2"
    )
    assert data["stationary"] == ["3/8", "1/8", "1/4", "1/8", "1/8"]
    assert data["blocks"][0] == ["aaa", "aba", "baa"]
    # Matrix rows follow the same block order and stay row-stochastic.
    first_row = [x for x in data["matrix"][0]]
    assert first_row == ["1/2", "0", "1/2", "0", "0"]


def test_walk_lumped_refuses_a_matrix_past_the_entry_bound(files, capsys, monkeypatch):
    # Five classes make a 5x5 matrix: refused before it is allocated.
    def unbuilt(*args):
        raise AssertionError("the matrix was built")

    infile = files("five_class.json", FIVE_CLASS)
    reset_code = walks.reset_code
    monkeypatch.setattr(walks, "reset_code", unbuilt)
    monkeypatch.setattr(walks, "MAX_MATRIX_ENTRIES", 24)
    code, out, err = run(capsys, "walk", "lumped", "--in", infile, "--pi", "a=1/2,b=1/2")
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "bound", "message": "refusing to build a 5x5 transition matrix (limit 24 entries)"}
    monkeypatch.setattr(walks, "reset_code", reset_code)
    monkeypatch.setattr(walks, "MAX_MATRIX_ENTRIES", 25)
    assert run_json(capsys, "walk", "lumped", "--in", infile, "--pi", "a=1/2,b=1/2")["stationary"][0] == "3/8"


def test_walk_lumped_prints_the_oracle_class_walk_in_file_order(rc_a2, rc_a3, tmp_path, capsys):
    # On every congruence of RC(ab, 2), RC(ab, 3) and RC(abc, 2), blocks and
    # words in shuffled order: the printed matrix is the oracle's dense class
    # walk, zero entries included, and at a positive distribution the printed
    # stationary vector is the one Gaussian elimination solves for.
    abc_2 = constructions.enumerate_rc(Alphabet("abc"), 2, carrier_bound=9)
    assert len(abc_2) == 192
    distributions = {"ab": ("a=2/7,b=5/7", "a=0,b=1"), "abc": ("a=1/2,b=1/3,c=1/6", "a=1/4,b=0,c=3/4")}
    rng, infile = random.Random(22), tmp_path / "rc.json"
    for rc in rc_a2 + rc_a3 + abc_2:
        order = rng.sample(range(len(rc.block_texts)), len(rc.block_texts))
        blocks = [rng.sample(rc.block_texts[b], len(rc.block_texts[b])) for b in order]
        infile.write_text(json.dumps({"alphabet": rc.alphabet.letters, "k": rc.k, "blocks": blocks}))
        positive, zero = distributions[rc.alphabet.letters]
        for text in (positive, zero):
            matrix = oracles.congruence_transition_matrix(rc, walks.LetterDistribution.parse(rc.alphabet, text))
            data = run_json(capsys, "walk", "lumped", "--in", str(infile), "--pi", text)
            assert data["blocks"] == [list(rc.block_texts[b]) for b in order]
            assert data["matrix"] == [[str(matrix.rows[b][c]) for c in order] for b in order]
            if text == positive:
                stationary = oracles.solve_stationary(matrix).values
                assert data["stationary"] == [str(stationary[b]) for b in order]


def test_walk_simulate_refuses_steps_past_the_bound(files, capsys, monkeypatch):
    # Refused before any letter is drawn.
    def undrawn(*args):
        raise AssertionError("a letter was drawn")

    argv = ["walk", "simulate", "--code", files("ba3.json", BA_RESTRICTED), "--pi", "a=1/2,b=1/2", "--steps"]
    letter_blocks = walks._letter_blocks
    monkeypatch.setattr(walks, "_letter_blocks", undrawn)
    monkeypatch.setattr(walks, "MAX_SIMULATION_STEPS", 1000)
    code, out, err = run(capsys, *argv, "1001")
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "bound", "message": "refusing to simulate 1001 steps (limit 1000)"}
    monkeypatch.setattr(walks, "_letter_blocks", letter_blocks)
    assert run_json(capsys, *argv, "1000")["steps"] == 1000


def test_the_walk_bounds_are_the_documented_ones():
    assert walks.MAX_SIMULATION_STEPS == 10**9 and walks.MAX_MATRIX_ENTRIES == 2**22


def test_walk_simulate_seeded_determinism(files, capsys):
    argv = [
        "walk",
        "simulate",
        "--code",
        files("ba3.json", BA_RESTRICTED),
        "--pi",
        "a=1/2,b=1/2",
        "--steps",
        "20000",
        "--seed",
        "99",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-exact
    data = json.loads(out1)
    assert data["seed"] == 99 and data["steps"] == 20000
    assert sum(data["visits"]) == 20000


def test_walk_simulate_refuses_a_negative_seed(files, capsys):
    # random.Random seeds with abs(seed): --seed -1 once printed the walk of --seed 1.
    argv = ["walk", "simulate", "--code", files("ba3.json", BA_RESTRICTED), "--pi", "a=1/2,b=1/2", "--steps", "1000"]
    refusal = json.dumps({"error": "validation", "message": "seed must be an integer >= 0"}) + "\n"
    assert run(capsys, *argv, "--seed", "-1") == (1, refusal, "")
    assert run_json(capsys, *argv, "--seed", "0")["seed"] == 0


def test_walk_simulate_on_congruence_resets(files, capsys):
    data = run_json(
        capsys,
        "walk",
        "simulate",
        "--in",
        files("five_class.json", FIVE_CLASS),
        "--pi",
        "a=1/2,b=1/2",
        "--steps",
        "20000",
        "--seed",
        "5",
    )
    assert set(data["states"]) == {"aa", "ab", "aba", "abb", "bba", "bbb"}
    assert 2.4 < float(data["mean_reset_time"]) < 2.6


def test_lattice_census_modularity_witness(capsys):
    code, out, _ = run(capsys, "lattice", "census", "-g", "4", "-k", "1", "--checks", "modular")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 15
    assert data["checks"] == {"modular": False}
    assert len(data["witnesses"]["pentagon"]) == 5


def test_lattice_census_with_no_checks_named_runs_none(capsys):
    # (4,1) is not modular, so a check run would report a pentagon.
    data = run_json(capsys, "lattice", "census", "-g", "4", "-k", "1", "--checks")
    assert (data["count"], data["checks"], data["witnesses"]) == (15, {}, {})


def test_lattice_census_pinned_count(capsys):
    data = run_json(capsys, "lattice", "census", "-g", "2", "-k", "2")
    assert data["count"] == 5
    assert data["checks"]["semimodular"] is True
    assert data["checks"]["jordan_dedekind"] is True
    assert data["checks"]["atomistic"] is False


def test_lattice_census_bound_exit_code(capsys):
    code, out, err = run(capsys, "lattice", "census", "-g", "3", "-k", "2")
    assert code == 4
    assert json.loads(err)["error"] == "bound"
    code, _, _ = run(capsys, "lattice", "census", "-g", "3", "-k", "2", "--carrier-bound", "9")
    assert code == 0


def test_graph_dot_export(files, capsys):
    code, out, _ = run(capsys, "graph", "dot", "--in", files("five_class.json", FIVE_CLASS))
    assert code == 0
    assert out.startswith("digraph {")
    assert out.count("->") == 10
    assert 'n0 [label="{aaa,aba,baa}"];' in out
    code2, out2, _ = run(capsys, "graph", "dot", "--in", files("five_classb.json", FIVE_CLASS))
    assert out2 == out


def test_out_flag_writes_file(files, capsys, tmp_path):
    target = tmp_path / "result.json"
    code, _, _ = run(
        capsys, "rc", "is-special", "--in", files("five_class.json", FIVE_CLASS), "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text()) == {"special": False}


@pytest.mark.parametrize("argv, payload, exit_code", [
    (["rc", "validate", "--in"], {"alphabet": "ab", "k": 2, "blocks": [["aa", "ab"], ["ba"], ["bb"]]}, 1),
    (["walk", "lumped", "--pi", "a=1/2,b=2/2", "--in"], FIVE_CLASS, 2),
    (["walk", "stationary", "--pi", "a=1/2,b=1/2", "--code"], {"alphabet": "ab", "code": ["a", "b", "x"]}, 2),
    (["walk", "simulate", "--pi", "a=1/2,b=1/2", "--steps", "2000000000", "--in"], FIVE_CLASS, 4),
])
def test_a_refused_request_leaves_the_out_file_untouched(files, capsys, tmp_path, argv, payload, exit_code):
    target = tmp_path / "kept.json"
    target.write_bytes(b"earlier output\x00\n")
    code, out, err = run(capsys, *argv, files("in.json", payload), "--out", str(target))
    assert code == exit_code
    assert target.read_bytes() == b"earlier output\x00\n"


@pytest.mark.parametrize("argv", [
    ["walk", "lumped", "--in", "five_class.json", "--pi", "a=1/3,b=2/3"],
    ["walk", "lumped", "--in", "identity9.json", "--pi", "a=1/2,b=1/2"],
    ["lattice", "census", "-g", "3", "-k", "2", "--carrier-bound", "9"],
    ["lattice", "census", "-g", "2", "-k", "3"],
])
def test_out_holds_the_bytes_stdout_prints(capsys, tmp_path, argv):
    (tmp_path / "five_class.json").write_text(json.dumps(FIVE_CLASS))
    identity9 = {"alphabet": "ab", "k": 9, "blocks": [["".join(w)] for w in itertools.product("ab", repeat=9)]}
    (tmp_path / "identity9.json").write_text(json.dumps(identity9))
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--out", str(tmp_path / "out.json")) == (0, "", "")
    assert (tmp_path / "out.json").read_bytes() == out.encode()
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_walk_lumped_writes_its_matrix_without_holding_the_text(files, tmp_path):
    # identity(ab, 9): a 512 x 512 matrix, about 2.8 MB of text.  The
    # payload's lists take about as much again, and the writer adds one row
    # at a time; json.dumps with indent held one string per entry, and the
    # peak was about 8 times the text.
    blocks = [["".join(w)] for w in itertools.product("ab", repeat=9)]
    target = tmp_path / "lumped.json"
    argv = ["walk", "lumped", "--in", files("identity9.json", {"alphabet": "ab", "k": 9, "blocks": blocks}),
            "--pi", "a=1/2,b=1/2", "--out", str(target)]
    assert main(argv) == 0  # the parser and the lazy modules, once per process
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * target.stat().st_size


JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\n\x1f\x7f\x80é\u2028\U0001d11e'), st.characters()), max_size=6)
JSON_INT = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([0, -1, 10**40, -(10**40)]))
JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), JSON_INT, st.floats(), JSON_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(JSON_TEXT, max_size=4),
        st.lists(JSON_INT, max_size=4).map(tuple),
        st.lists(st.booleans(), max_size=3),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@given(JSON_VALUE)
@settings(max_examples=400, deadline=None)
def test_the_json_writer_prints_what_json_dumps_prints(value):
    assert "".join(cli._json_pieces(value)) == json.dumps(value, indent=2, sort_keys=True)


def test_resets_of_universal_flags_epsilon(files, capsys):
    univ = {"alphabet": "ab", "k": 3, "blocks": [[  # one block, all of A^3
        "aaa", "aab", "aba", "abb", "baa", "bab", "bba", "bbb"]]}
    data = run_json(capsys, "rc", "resets", "--in", files("univ.json", univ))
    assert data["code"] == [""]
    assert data["epsilon"] is True


def test_emitted_code_feeds_walk_commands(files, capsys, tmp_path):
    # Chain two commands: the code emitted by `rc lower` is a valid input
    # for `walk stationary`.
    lower = run_json(capsys, "rc", "lower", "--in", files("five_class.json", FIVE_CLASS))
    code_file = tmp_path / "lower_code.json"
    code_file.write_text(json.dumps(lower["code"]))
    data = run_json(capsys, "walk", "stationary", "--code", str(code_file), "--pi", "a=1/2,b=1/2")
    assert data["states"] == ["aa", "ab", "aba", "abb", "bba", "bbb"]
    assert data["stationary"] == ["1/4", "1/4", "1/8", "1/8", "1/8", "1/8"]


def test_internal_assertion_exit_code(files, capsys, monkeypatch):
    import semwalk.cli as cli_mod

    def boom(*args, **kwargs):
        raise AssertionError("lumpability violated (synthetic)")

    monkeypatch.setattr(cli_mod.walks, "lumped_weights", boom)
    code, out, err = run(
        capsys, "walk", "lumped", "--in", files("five_class.json", FIVE_CLASS), "--pi", "a=1/2,b=1/2"
    )
    assert code == 3
    assert json.loads(err)["error"] == "internal"


@pytest.mark.parametrize(
    "argv_head, payload",
    [
        (["rc", "validate", "--in"], {"alphabet": "ab", "k": "x", "blocks": [["a"], ["b"]]}),
        (["rc", "validate", "--in"], {"alphabet": "ab", "k": 1e400, "blocks": [["a"], ["b"]]}),
        (["rc", "validate", "--in"], {"alphabet": "ab", "k": 2, "blocks": "aa"}),
        (["rc", "validate", "--in"], {"alphabet": "ab", "k": 1, "blocks": ["a", "b"]}),
        (["rc", "generate", "--in"], {"alphabet": "ab", "k": 2, "pairs": ["ab"]}),
        (["walk", "stationary", "--pi", "a=1/2,b=1/2", "--code"], {"alphabet": "ab", "code": ["a", "b"], "k": "x"}),
        (["walk", "stationary", "--pi", "a=1/2,b=1/2", "--code"], {"alphabet": "ab", "code": "ab"}),
    ],
)
def test_malformed_fields_are_parse_errors(files, capsys, argv_head, payload):
    code, out, err = run(capsys, *argv_head, files("bad.json", payload))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "parse"


def test_walk_simulate_needs_exactly_one_input(files, capsys):
    infile = files("five_class.json", FIVE_CLASS)
    codefile = files("ba3.json", BA_RESTRICTED)
    for extra in ([], ["--in", infile, "--code", codefile]):
        code, out, err = run(capsys, "walk", "simulate", "--pi", "a=1/2,b=1/2", "--steps", "10", *extra)
        assert code == 2
        assert json.loads(err)["error"] == "parse"


def test_walk_rejects_a_code_that_is_not_a_suffix_code(files, capsys):
    # Covers A^2, so only the suffix-code check can reject it.
    infile = files("nsc.json", {"alphabet": "ab", "code": ["a", "b", "ab"]})
    for action in (["simulate", "--steps", "10"], ["stationary"]):
        code, out, _ = run(capsys, "walk", *action, "--code", infile, "--pi", "a=1/2,b=1/2")
        assert code == 1
        assert json.loads(out) == {"error": "validation", "message": "not a suffix code: b is a suffix of ab"}


@pytest.mark.parametrize("g", ["0", "-1", "27"])
def test_lattice_census_alphabet_size_out_of_range(capsys, g):
    code, out, err = run(capsys, "lattice", "census", "-g", g, "-k", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "parse"


def test_lattice_census_two_letters_k4_is_refused(capsys):
    code, out, err = run(capsys, "lattice", "census", "-g", "2", "-k", "4")
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "bound", "message": "carrier size 16 exceeds hard bound 12"}


def test_lattice_census_word_limit_is_a_bound_refusal(capsys):
    code, out, err = run(capsys, "lattice", "census", "-g", "2", "-k", "17")
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "bound", "message": "refusing to enumerate 131072 words (limit 65536)"}


def test_lattice_census_one_letter_word_length_is_a_bound_refusal(capsys):
    code, out, err = run(capsys, "lattice", "census", "-g", "1", "-k", "100000")
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "bound", "message": "refusing to build a word of length 100000 (limit 65536)"}
    assert run_json(capsys, "lattice", "census", "-g", "1", "-k", "3")["count"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "profile", "--in", "five_class.json"],
        ["rc", "validate"],
        ["walk", "simulate", "--code", "code.json", "--pi", "a=1/2,b=1/2", "--steps", "ten"],
        ["walk", "mixing"],
        [],
    ],
)
def test_usage_errors_are_parse_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "parse"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["walk", "--help"])
    assert info.value.code == 0
    assert "usage: semwalk walk" in capsys.readouterr().out


def test_help_is_for_users(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for code in ("0 success", "1 validation failure", "2 parse error", "3 internal assertion", "4 bound exceeded"):
        assert code in text
    assert "``" not in text and "lazy" not in text


@pytest.mark.parametrize("k", [2.9, True, 3.0])
@pytest.mark.parametrize(
    "argv_head, payload",
    [
        (["rc", "validate", "--in"], {"alphabet": "ab", "blocks": [["aa", "ba"], ["ab"], ["bb"]]}),
        (["rc", "generate", "--in"], {"alphabet": "ab", "pairs": [["aa", "ba"]]}),
        (["walk", "stationary", "--pi", "a=1/2,b=1/2", "--code"], {"alphabet": "ab", "code": ["a", "b"]}),
    ],
)
def test_non_integer_k_is_a_parse_error(files, capsys, argv_head, payload, k):
    code, out, err = run(capsys, *argv_head, files("k.json", {**payload, "k": k}))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "parse"
    assert f"k must be an integer, got {json.dumps(k)}" in json.loads(err)["message"]


def test_walk_rejects_a_covering_code_that_is_not_semaphore(files, capsys):
    # A suffix code covering A^3, but a+b has no suffix in it.
    infile = files("nsem.json", {"alphabet": "ab", "code": ["a", "aab", "bab", "abb", "bbb"], "k": 3})
    for action in (["simulate", "--steps", "10"], ["stationary"]):
        code, out, _ = run(capsys, "walk", *action, "--code", infile, "--pi", "a=1/2,b=1/2")
        assert code == 1
        assert json.loads(out) == {
            "error": "validation",
            "message": "no suffix of ab in the code; code is not semaphore or is truncated",
        }


def test_walk_reports_a_code_that_is_not_semaphore_before_its_other_arguments(files, capsys):
    # The code file is read, and its ideal built, before --pi and --steps are checked.
    infile = files("nsem.json", {"alphabet": "ab", "code": ["a", "aab", "bab", "abb", "bbb"], "k": 3})
    for action in (["stationary", "--pi", "a=1/2"], ["simulate", "--pi", "a=1/2,b=1/2", "--steps", "0"]):
        code, out, err = run(capsys, "walk", *action, "--code", infile)
        assert code == 1 and err == ""
        assert json.loads(out) == {
            "error": "validation",
            "message": "no suffix of ab in the code; code is not semaphore or is truncated",
        }


@pytest.mark.parametrize(
    "argv_head, payload",
    [
        (["rc", "generate", "--in"], {"alphabet": "ab", "k": 0, "pairs": []}),
        (["rc", "generate", "--in"], {"alphabet": "ab", "k": -1, "pairs": []}),
    ],
)
def test_k_below_one_is_refused_with_the_validate_message(files, capsys, argv_head, payload):
    code, out, err = run(capsys, *argv_head, files("k.json", payload))
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": "validation", "message": "k must be >= 1"}


@pytest.mark.parametrize("k", ["0", "-1"])
def test_lattice_census_k_below_one_is_refused(capsys, k):
    code, out, err = run(capsys, "lattice", "census", "-g", "2", "-k", k)
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": "validation", "message": "k must be >= 1"}


def test_huge_k_is_a_bound_refusal(files, capsys):
    # 2^20000 has more digits than an int may print by default.
    infile = files("big.json", {"alphabet": "ab", "k": 20000, "blocks": [["a"]]})
    code, out, err = run(capsys, "rc", "validate", "--in", infile)
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "bound", "message": "refusing to enumerate 2^20000 words (limit 65536)"}


def test_the_parser_is_built_once_and_not_at_import(files, capsys):
    probe = "import semwalk.cli as c; print(c._build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert done.stdout == "0\n"
    cli._build_parser.cache_clear()
    infile = files("five_class.json", FIVE_CLASS)
    for argv in (["rc", "validate", "--in", infile], ["rc", "validate"], ["walk", "--steps"], ["graph", "dot", "--in", infile]):
        run(capsys, *argv)
    assert cli._build_parser.cache_info().misses == 1


# ------------------------------------------------------ the parse boundary

# Code and congruence files are read straight to word keys; every word must
# still be checked letter by letter, as ``Alphabet.word`` checks it, and end
# in the same exit code and message.

CODE_COMMANDS = [["walk", "stationary"], ["walk", "simulate", "--steps", "10"]]
CONGRUENCE_COMMANDS = [["rc", "validate"], ["walk", "lumped", "--pi", "a=1/2,b=1/2"], ["graph", "dot"]]


def run_file(capsys, command, flag, path, pi="a=1/2,b=1/2"):
    pi_args = [] if command[0] != "walk" or "--pi" in command else ["--pi", pi]
    return run(capsys, *command, *pi_args, flag, path)


@pytest.mark.parametrize("stray, bad", [(" b", " "), ("+b", "+"), ("b_", "_"), ("1", "1"), ("bA", "A"), (1, "1"), (None, "N")])
def test_characters_int_would_accept_are_parse_errors(files, capsys, stray, bad):
    # A word that is not a JSON string is refused as one, before its letters are read.
    message = f"letter {bad!r} not in alphabet 'ab'" if isinstance(stray, str) else f"expected a JSON string, got {json.dumps(stray)}"
    path = files("code.json", {"alphabet": "ab", "code": ["a", stray], "k": 2})
    for command in CODE_COMMANDS:
        code, out, err = run_file(capsys, command, "--code", path)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "parse", "message": f"{path}: malformed code: {message}"}
    # The first fault in file order is reported, here before the block that is not a list.
    path = files("rc.json", {"alphabet": "ab", "k": 1, "blocks": [["a"], [stray], "b"]})
    for command in CONGRUENCE_COMMANDS:
        code, out, err = run_file(capsys, command, "--in", path)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "parse", "message": f"{path}: malformed congruence: {message}"}


@pytest.mark.parametrize(
    "words, stationary, simulate",
    [
        ([""], "the one-word code has no action; its chain is the 1x1 identity", "the one-word code has no chain to simulate"),
        (["a", "", "b"], "not a suffix code:  is a suffix of a", "not a suffix code:  is a suffix of a"),
    ],
)
def test_the_empty_code_word_is_a_validation_error(files, capsys, words, stationary, simulate):
    path = files("code.json", {"alphabet": "ab", "code": words, "k": 1})
    for command, message in zip(CODE_COMMANDS, [stationary, simulate]):
        code, out, err = run_file(capsys, command, "--code", path)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": "validation", "message": message}


@pytest.mark.parametrize("blocks", [[[""]], [["a", "b"], [""]], [["a"], ["", "b"]]])
def test_the_empty_word_is_not_in_a_congruence_carrier(files, capsys, blocks):
    path = files("rc.json", {"alphabet": "ab", "k": 1, "blocks": blocks})
    for command in CONGRUENCE_COMMANDS:
        code, out, err = run_file(capsys, command, "--in", path)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": "validation", "message": "word  is not in A^1"}


@pytest.mark.parametrize("letters", ["aa", "aba"])
def test_a_file_alphabet_with_a_repeated_letter_is_a_parse_error(files, capsys, letters):
    message = f"alphabet letters must be distinct: {letters!r}"
    path = files("rc.json", {"alphabet": letters, "k": 1, "blocks": [["a"]]})
    for command in CONGRUENCE_COMMANDS:
        code, out, err = run_file(capsys, command, "--in", path)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "parse", "message": f"{path}: {message}"}
    path = files("code.json", {"alphabet": letters, "code": ["a"]})
    for command in CODE_COMMANDS:
        code, out, err = run_file(capsys, command, "--code", path)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "parse", "message": f"{path}: {message}"}


def test_a_one_letter_alphabet(files, capsys):
    path = files("code.json", {"alphabet": "a", "code": ["aaa"]})
    assert run_json(capsys, "walk", "stationary", "--code", path, "--pi", "a=1") == {"states": ["aaa"], "stationary": ["1"]}
    sim = run_json(capsys, "walk", "simulate", "--code", path, "--pi", "a=1", "--steps", "7")
    assert (sim["states"], sim["visits"], sim["episodes"]) == (["aaa"], [7], 2)
    path = files("rc.json", {"alphabet": "a", "k": 3, "blocks": [["aaa"]]})
    assert run_json(capsys, "rc", "validate", "--in", path)["congruence"] == {"alphabet": "a", "k": 3, "blocks": [["aaa"]]}
    code, out, _ = run(capsys, "walk", "lumped", "--in", path, "--pi", "a=1")
    assert code == 1
    assert json.loads(out) == {"error": "validation", "message": "lumping requires at least two letters"}
    code, out, _ = run(capsys, "walk", "stationary", "--code", files("bad.json", {"alphabet": "a", "code": ["aa", "a"]}), "--pi", "a=1")
    assert code == 1
    assert json.loads(out) == {"error": "validation", "message": "not a suffix code: a is a suffix of aa"}


def test_a_twenty_six_letter_alphabet(files, capsys):
    letters = "abcdefghijklmnopqrstuvwxyz"
    pi = ",".join(f"{c}=1/26" for c in letters)
    words = [c + "z" for c in letters[::-1]] + list(letters[:-1])
    got = run_json(capsys, "walk", "stationary", "--code", files("code.json", {"alphabet": letters, "code": words}), "--pi", pi)
    assert got == {"states": words, "stationary": ["1/676"] * 26 + ["1/26"] * 25}
    code, out, _ = run(capsys, "walk", "stationary", "--code", files("bad.json", {"alphabet": letters, "code": ["p", "zp"]}), "--pi", pi)
    assert code == 1
    assert json.loads(out) == {"error": "validation", "message": "not a suffix code: p is a suffix of zp"}
    blocks = [list(letters[13:]), list(letters[:13])]
    path = files("rc.json", {"alphabet": letters, "k": 1, "blocks": blocks})
    assert run_json(capsys, "rc", "validate", "--in", path)["congruence"]["blocks"] == blocks[::-1]
    lumped = run_json(capsys, "walk", "lumped", "--in", path, "--pi", pi)
    assert (lumped["blocks"], lumped["stationary"]) == (blocks, ["1/2", "1/2"])


def test_a_repeated_code_word_is_refused(files, capsys):
    path = files("code.json", {"alphabet": "ab", "code": ["a", "b", "a"], "k": 2})
    for command in CODE_COMMANDS:
        code, out, err = run_file(capsys, command, "--code", path)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": "validation", "message": "repeated code word 'a'"}


def test_a_truncated_code_is_refused(files, capsys):
    # A code marked "infinite_tail" continues past its last length, so no
    # ideal holds it; unmarked, or marked false, it is the full code.
    path = files("code.json", {**BA_RESTRICTED, "infinite_tail": True})
    for command in CODE_COMMANDS:
        code, out, err = run_file(capsys, command, "--code", path)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": "validation", "message": "an ideal representation requires the full finite code"}
    unmarked = {key: value for key, value in BA_RESTRICTED.items() if key != "infinite_tail"}
    for payload in [unmarked, BA_RESTRICTED]:
        data = run_json(capsys, "walk", "stationary", "--code", files("code.json", payload), "--pi", "a=1/2,b=1/2")
        assert data["stationary"] == ["1/2", "1/4", "1/8", "1/8"]


@pytest.mark.parametrize("tail", ["yes", "false", 1, 0, None, [True]])
def test_an_infinite_tail_that_is_not_a_boolean_is_a_parse_error(files, capsys, tail):
    path = files("code.json", {**BA_RESTRICTED, "infinite_tail": tail})
    message = f"{path}: malformed code: expected a JSON boolean, got {json.dumps(tail)}"
    for command in CODE_COMMANDS:
        code, out, err = run_file(capsys, command, "--code", path)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "parse", "message": message}


# Where a value that is not a string sits in each kind of input file: the
# commands that read it, and the words the message puts before the value.
NOT_STRING_FIELDS = {
    "code alphabet": (CODE_COMMANDS, "--code", lambda v: {"alphabet": v, "code": ["a", "b"]}, ""),
    "code word": (CODE_COMMANDS, "--code", lambda v: {"alphabet": "ab", "code": ["a", v, "b"]}, "malformed code: "),
    "congruence alphabet": (CONGRUENCE_COMMANDS, "--in", lambda v: {"alphabet": v, "k": 1, "blocks": [["a"], ["b"]]}, ""),
    "block word": (CONGRUENCE_COMMANDS, "--in", lambda v: {"alphabet": "ab", "k": 1, "blocks": [["a"], [v, "b"]]}, "malformed congruence: "),
    "pair set alphabet": ([["rc", "generate"]], "--in", lambda v: {"alphabet": v, "k": 1, "pairs": [["a", "b"]]}, ""),
    "pair word": ([["rc", "generate"]], "--in", lambda v: {"alphabet": "ab", "k": 1, "pairs": [["a", "b"], ["b", v]]}, "malformed pair set: "),
}


@pytest.mark.parametrize("value", [None, True, 1, 2.5], ids=json.dumps)
@pytest.mark.parametrize("field", sorted(NOT_STRING_FIELDS))
def test_an_alphabet_or_word_that_is_not_a_string_is_a_parse_error(files, capsys, field, value):
    commands, flag, payload, malformed = NOT_STRING_FIELDS[field]
    path = files("input.json", payload(value))
    message = f"{path}: {malformed}expected a JSON string, got {json.dumps(value)}"
    for command in commands:
        code, out, err = run_file(capsys, command, flag, path)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "parse", "message": message}


@pytest.mark.parametrize(
    "argv, payload, message",
    [
        # str() would read these as the alphabet "None", the code {0, 1}
        # over "01" and the word "True", each a valid input.
        (["rc", "validate", "--in"], {"alphabet": None, "k": 1, "blocks": [["N", "o"], ["n", "e"]]}, "expected a JSON string, got null"),
        (["walk", "stationary", "--pi", "0=1/2,1=1/2", "--code"], {"alphabet": "01", "code": [0, 1]}, "malformed code: expected a JSON string, got 0"),
        (["rc", "generate", "--in"], {"alphabet": "True", "k": 4, "pairs": [[True, "eurT"]]}, "malformed pair set: expected a JSON string, got true"),
    ],
    ids=["alphabet", "code word", "pair word"],
)
def test_values_str_would_coerce_are_parse_errors(files, capsys, argv, payload, message):
    path = files("input.json", payload)
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse", "message": f"{path}: {message}"}


@pytest.mark.parametrize(
    "flag, payload, exit_code, message",
    [
        ("--code", {**BA_RESTRICTED, "k": 2}, 1, "code word longer than k=2"),
        ("--in", {"alphabet": "ab", "k": 1, "blocks": [["a", "b"], ["b"]]}, 1, "word b appears in two blocks"),
        # A^17 is too large to view: a shorter code word that is a suffix is
        # named first, else listing A^17 is refused.
        ("--code", {"alphabet": "ab", "code": ["a", "a" * 17]}, 1, f"not a suffix code: a is a suffix of {'a' * 17}"),
        ("--code", {"alphabet": "ab", "code": ["b", "a" * 17]}, 4, "refusing to enumerate 131072 words (limit 65536)"),
    ],
    ids=["code word past k", "word in two blocks", "suffix of a long word", "long word"],
)
def test_refusals_of_a_file_past_its_parse(files, capsys, flag, payload, exit_code, message):
    path = files("input.json", payload)
    for command in CODE_COMMANDS if flag == "--code" else CONGRUENCE_COMMANDS:
        code, out, err = run_file(capsys, command, flag, path)
        assert code == exit_code
        if exit_code == 1:
            assert (json.loads(out), err) == ({"error": "validation", "message": message}, "")
        else:
            assert (out, json.loads(err)) == ("", {"error": "bound", "message": message})


def run_process(argv, **env):
    """A CLI run in its own interpreter, on real stdout and stderr streams:
    capsys's StringIO takes strings that no encoding of a stream can write."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), **env}
    return subprocess.run([sys.executable, "-m", "semwalk", *argv], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("command", [["graph", "dot"], ["rc", "validate"]])
@pytest.mark.parametrize("to_file", [False, True])
def test_a_surrogate_letter_is_a_parse_error(files, tmp_path, command, to_file):
    # Valid JSON, but a lone surrogate cannot be encoded as a letter of the output.
    path = files("rc.json", {"alphabet": "a\ud800", "k": 1, "blocks": [["a"], ["\ud800"]]})
    target = tmp_path / "out.txt"
    done = run_process([*command, "--in", path, *(["--out", str(target)] if to_file else [])])
    assert (done.returncode, done.stdout) == (2, "")
    message = f"{path}: alphabet letters must not be surrogate code points: 'a\\ud800'"
    assert json.loads(done.stderr) == {"error": "parse", "message": message}
    assert not target.exists()


def test_out_writes_a_non_ascii_letter_as_utf8_in_any_locale(files, tmp_path):
    path = files("rc.json", {"alphabet": "a\u00e9", "k": 1, "blocks": [["a"], ["\u00e9"]]})
    target = tmp_path / "graph.dot"
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    done = run_process(["graph", "dot", "--in", path, "--out", str(target)], **ascii_locale)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert '  n1 [label="{\u00e9}"];\n' in target.read_bytes().decode("utf-8")


# ------------------------------------------------- random argv and payloads

# Every call must end in a documented exit code with JSON on the documented
# stream (stdout for 0 and 1, stderr for 2-4; graph dot prints DOT), and a
# repeat must print the same bytes.  The calls share one process, so one
# parser serves every parse, failed or not.

WORD = st.text(alphabet="abcz", max_size=4)
NOT_A_STRING = st.sampled_from([None, True, False, 0, 7, 2.5])
ITEM = st.one_of(WORD, NOT_A_STRING)
JUNK = ["--bogus", "x", "-k", "--in", "--pi", "--steps", "3", ""]


def mostly(draw, good, bad):
    """The well-formed value four times in five, else a draw from bad."""
    return good if draw(st.integers(0, 4)) else draw(bad)


@st.composite
def spoiled(draw, words):
    """A copy of ``words``, a list of words or of lists of words, with one
    word, if it has any, replaced by a value that is not a string."""
    rows = [list(row) if isinstance(row, list) else row for row in words]
    places = [(i, j) for i, row in enumerate(rows) for j in (range(len(row)) if isinstance(row, list) else [None])]
    if places:
        i, j = draw(st.sampled_from(places))
        if j is None:
            rows[i] = draw(NOT_A_STRING)
        else:
            rows[i][j] = draw(NOT_A_STRING)
    return rows


@st.composite
def payloads(draw):
    g, k = draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    letters = "abc"[:g]
    carrier = ["".join(t) for t in itertools.product(letters, repeat=k)]
    labels = draw(st.lists(st.integers(0, 3), min_size=len(carrier), max_size=len(carrier)))
    partition = [[w for w, b in zip(carrier, labels) if b == label] for label in sorted(set(labels))]
    short = ["".join(t) for n in range(1, k) for t in itertools.product(letters, repeat=n)]
    gens = draw(st.sets(st.sampled_from(short), max_size=3)) if short else set()
    code = sorted(gens) + [w for w in carrier if not any(w.endswith(x) for x in gens)]
    pairs = draw(st.lists(st.lists(st.sampled_from(carrier), min_size=2, max_size=2), max_size=3))
    payload = {
        "alphabet": mostly(draw, letters, st.sampled_from(["ab", "abc", "a", "", "aa", 7, None, True, 2.5])),
        "k": mostly(draw, k, st.sampled_from([-1, 0, 1, 4, 17, 20000, 2.5, True, "2", None])),
        "blocks": mostly(draw, partition, st.one_of(st.lists(st.lists(ITEM, max_size=3), max_size=4), WORD, spoiled(partition))),
        "pairs": mostly(draw, pairs, st.one_of(st.lists(st.lists(ITEM, max_size=3), max_size=2), WORD, spoiled(pairs))),
        "code": mostly(draw, code, st.one_of(st.lists(ITEM, max_size=5), WORD, spoiled(code))),
    }
    dropped = draw(st.sets(st.sampled_from(sorted(payload)), max_size=1)) if not draw(st.integers(0, 4)) else set()
    return letters, {key: value for key, value in payload.items() if key not in dropped}


@st.composite
def argvs(draw, path, letters):
    weights = draw(st.lists(st.integers(1, 6), min_size=len(letters), max_size=len(letters)))
    good_pi = ",".join(f"{c}={w}/{sum(weights)}" for c, w in zip(letters, weights))
    pi = mostly(draw, good_pi, st.text(alphabet="abc=/,1230-", max_size=10))
    inp = ["--in", path]
    argv = draw(st.sampled_from([
        ["rc", action, *inp] for action in ["validate", "generate", "lower", "upper", "resets", "is-special"]
    ] + [
        ["walk", "stationary", "--code", path, "--pi", pi],
        ["walk", "profile", *inp, "--pi", pi],
        ["walk", "lumped", *inp, "--pi", pi],
        ["walk", "simulate", draw(st.sampled_from(["--in", "--code"])), path, "--pi", pi,
         "--steps", str(draw(st.integers(-1, 1000))), "--seed", str(draw(st.integers(0, 9)))],
        ["lattice", "census", "-g", draw(st.sampled_from(["-1", "0", "1", "2", "3", "4", "27"])),
         "-k", draw(st.sampled_from(["-1", "0", "1", "2", "3", "17"])),
         *draw(st.sampled_from([[], ["--carrier-bound", "4"], ["--carrier-bound", "9"], ["--checks", "modular"]]))],
        ["graph", "dot", *inp],
    ]))
    if not draw(st.integers(0, 4)):
        i = draw(st.integers(0, len(argv)))
        argv = argv[:i] + [draw(st.sampled_from(JUNK))] + argv[i + 1 :]
    return argv


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def payload_path(tmp_path_factory):
    return tmp_path_factory.mktemp("random") / "payload.json"


def reads_a_value_that_is_not_a_string(argv, payload):
    """Whether the command in ``argv`` reads from ``payload`` an alphabet,
    or a word in the field it reads, that is not a JSON string."""
    if argv[0] == "lattice":
        return False
    field = "code" if "--code" in argv else "pairs" if argv[:2] == ["rc", "generate"] else "blocks"
    rows = payload.get(field) if isinstance(payload.get(field), list) else []
    words = [w for row in rows for w in (row if isinstance(row, list) else [row])]
    return "alphabet" in payload and not isinstance(payload["alphabet"], str) or any(not isinstance(w, str) for w in words)


@given(st.data())
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_argv_and_payloads_end_in_a_documented_outcome(payload_path, data):
    letters, payload = data.draw(payloads())
    raw = json.dumps(payload).encode()
    if not data.draw(st.integers(0, 9)):
        raw = data.draw(st.sampled_from(UNREADABLE))
    payload_path.write_bytes(raw)
    argv = data.draw(argvs(str(payload_path), letters))
    if not data.draw(st.integers(0, 9)):
        argv += ["--out", str(payload_path.parent / "missing" / "x")]
    code, out, err = call(argv)
    assert code in (0, 1, 2, 3, 4)
    assert code != 0 or not reads_a_value_that_is_not_a_string(argv, payload)
    if code == 0:
        assert out.startswith("digraph {") if argv[:2] == ["graph", "dot"] else isinstance(json.loads(out), dict)
        assert all(json.loads(line).keys() == {"warning"} for line in err.splitlines())
    elif code == 1:
        assert err == "" and json.loads(out)["error"] in ("validation", "closure")
    else:
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {2: "parse", 3: "internal", 4: "bound"}[code]
    assert call(argv) == (code, out, err)


# ------------------------------------------------------ the command surface


def _option(*flags, dest, required=False, default=None, type=None, nargs=None, choices=None, help=None):
    return (flags, dest, required, default, type, nargs, choices, help)


_IN = _option("--in", dest="infile", required=True)
_PI = _option("--pi", dest="pi", required=True)
_OUT = _option("--out", dest="out")
CHECKS = ["semimodular", "modular", "atomistic", "jordan_dedekind"]

# Every leaf command with its options in --help order, as of the release
# that declared the commands in one table.
ARGUMENT_SURFACE = [
    (("rc", "validate"), [_IN, _OUT]),
    (("rc", "lower"), [_IN, _OUT]),
    (("rc", "upper"), [_IN, _OUT]),
    (("rc", "resets"), [_IN, _OUT]),
    (("rc", "is-special"), [_IN, _OUT]),
    (("rc", "generate"), [_option("--in", dest="infile", required=True, help="JSON with alphabet, k, pairs"), _OUT]),
    (("walk", "stationary"), [_option("--code", dest="code", required=True, help="semaphore code JSON"), _PI, _OUT]),
    (("walk", "profile"), [_IN, _PI, _OUT]),
    (("walk", "lumped"), [_IN, _PI, _OUT]),
    (("walk", "simulate"), [
        _option("--in", dest="infile", help="congruence JSON (walk on its reset code)"),
        _option("--code", dest="code", help="semaphore code JSON"),
        _PI,
        _option("--steps", dest="steps", default=100_000, type=int),
        _option("--seed", dest="seed", default=0, type=int),
        _OUT,
    ]),
    (("lattice", "census"), [
        _option("-g", "--alphabet-size", dest="alphabet_size", required=True, type=int),
        _option("-k", "--k", dest="k", required=True, type=int),
        _option("--checks", dest="checks", nargs="*", choices=CHECKS),
        _option("--carrier-bound", dest="carrier_bound", default=8, type=int),
        _OUT,
    ]),
    (("graph", "dot"), [_IN, _OUT]),
]


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_leaf_command_keeps_its_arguments():
    surface = [
        (
            (group, leaf),
            [
                (tuple(a.option_strings), a.dest, a.required, a.default, a.type, a.nargs, a.choices, a.help)
                for a in leaf_parser._actions
                if not isinstance(a, argparse._HelpAction)
            ],
        )
        for group, group_parser in _subcommands(cli._build_parser()).items()
        for leaf, leaf_parser in _subcommands(group_parser).items()
    ]
    assert surface == ARGUMENT_SURFACE


def test_the_random_argv_test_draws_every_leaf_and_nothing_else():
    drawn = set()

    def record(argv):
        if not set(argv[:2]) & set(JUNK):  # neither word was replaced by junk
            drawn.add(tuple(argv[:2]))
        return False

    with pytest.raises(NoSuchExample):
        find(argvs("in.json", "ab"), record, settings=settings(database=None, derandomize=True, max_examples=300))
    assert drawn == {command for command, _ in ARGUMENT_SURFACE}


# ------------------------------------------- outcomes no other test reaches


def test_rc_generate_refuses_a_pair_of_the_wrong_length(files, capsys):
    infile = files("pairs.json", {"alphabet": "ab", "k": 2, "pairs": [["a", "bb"]]})
    code, out, err = run(capsys, "rc", "generate", "--in", infile)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": "validation", "message": "pair (a, bb) is not in A^2 x A^2"}


@pytest.mark.parametrize(
    "bad, shown",
    [([], "[]"), (["a"], '["a"]'), (["a", "b", "a"], '["a", "b", "a"]')],
    ids=["no word", "one word", "three words"],
)
def test_rc_generate_names_a_pair_that_is_not_two_words(files, capsys, bad, shown):
    # Counted from 1 in file order; the pair after it is never read.
    path = files("pairs.json", {"alphabet": "ab", "k": 1, "pairs": [["a", "b"], bad, ["a"]]})
    code, out, err = run(capsys, "rc", "generate", "--in", path)
    assert (code, out) == (2, "")
    message = f"{path}: malformed pair set: pair 2 is {shown}, and a pair holds two words"
    assert json.loads(err) == {"error": "parse", "message": message}


def test_rc_generate_builds_no_word(files, capsys, monkeypatch):
    built = []
    init = Word.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Word, "__init__", counting)
    infile = files("pairs.json", {"alphabet": "ab", "k": 3, "pairs": [["aaa", "bba"], ["aab", "abb"]]})
    data = run_json(capsys, "rc", "generate", "--in", infile)
    assert data["congruence"]["blocks"] == [["aaa", "aba", "baa", "bba"], ["aab", "abb", "bab", "bbb"]]
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        ["rc", "resets", "--in"],
        ["rc", "lower", "--in"],
        ["rc", "upper", "--in"],
        ["walk", "simulate", "--pi", "a=1/2,b=1/2", "--steps", "100", "--in"],
    ],
)
def test_code_output_builds_no_word(files, capsys, monkeypatch, argv):
    # Code words are rendered from their keys.
    built = []
    init = Word.__init__
    monkeypatch.setattr(Word, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    run_json(capsys, *argv, files("five_class.json", FIVE_CLASS))
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "stationary", "--pi", "a=1/2,b=1/2", "--code", "code.json"],
        ["walk", "simulate", "--pi", "a=1/2,b=1/2", "--steps", "100", "--code", "code.json"],
        ["walk", "simulate", "--pi", "a=1/2,b=1/2", "--steps", "100", "--in", "five_class.json"],
        ["walk", "lumped", "--pi", "a=1/2,b=1/2", "--in", "five_class.json"],
    ],
)
def test_a_walk_request_runs_the_semaphore_test_once(files, capsys, monkeypatch, argv):
    # The ideal checks its code when it is built; its action table is read
    # off the checked view.
    inputs = {"code.json": files("code.json", BA_RESTRICTED), "five_class.json": files("five_class.json", FIVE_CLASS)}
    calls = []
    check = codes._require_semaphore
    monkeypatch.setattr(codes, "_require_semaphore", lambda code: calls.append(code) or check(code))
    code, _, err = run(capsys, *[inputs.get(arg, arg) for arg in argv])
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("action", ["lower", "upper", "is-special"])
@pytest.mark.parametrize("name", ["five_class.json", "g3_k3.json"])
def test_an_approximation_runs_the_closure_check_once(capsys, monkeypatch, action, name):
    # On the input file; tau_of builds its congruence on an ideal whose code
    # was checked semaphore when it was built, and checks no closure again.
    calls = []
    check = congruences._closure_witness
    monkeypatch.setattr(congruences, "_closure_witness", lambda *args: calls.append(args) or check(*args))
    run_json(capsys, "rc", action, "--in", str(Path(__file__).parent / "golden" / name))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, derived",
    [(["graph", "dot"], 1), (["rc", "validate"], 1), (["walk", "lumped", "--pi", "a=1/2,b=1/2"], 1), (["rc", "upper"], 2)],
)
def test_a_congruence_derives_its_blocks_once(files, capsys, monkeypatch, argv, derived):
    # Checked, rendered, walked and approximated from one view of its blocks;
    # rc upper builds a second congruence, the approximation.
    calls = []
    blocks = congruences._blocks
    monkeypatch.setattr(congruences, "_blocks", lambda labels: calls.append(labels) or blocks(labels))
    code, _, _ = run(capsys, *argv, "--in", files("five_class.json", FIVE_CLASS))
    assert code == 0
    assert len(calls) == derived
    assert not hasattr(codes, "_blocks")


def test_an_input_that_is_not_a_json_object_is_a_parse_error(files, capsys):
    infile = files("list.json", [])
    code, out, err = run(capsys, "rc", "validate", "--in", infile)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse", "message": f"{infile}: expected a JSON object"}


def test_walk_profile_needs_two_letters(files, capsys):
    infile = files("one.json", {"alphabet": "a", "k": 2, "blocks": [["aa"]]})
    code, out, err = run(capsys, "walk", "profile", "--in", infile, "--pi", "a=1")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": "validation", "message": "reset profiles require at least two letters"}


def test_lattice_census_renders_every_witness(capsys, monkeypatch):
    # Every enumerated RC(A^k) is semimodular and graded, so the census is
    # handed the pentagon of RC(A^1) over four letters as its whole lattice.
    elements = constructions.enumerate_rc(Alphabet.of_size(4), 1)
    pentagon = [elements[i] for i in oracles.lattice_report(elements).pentagon]
    census = ([rc.labels for rc in pentagon], oracles.lattice_report(pentagon))
    monkeypatch.setattr(congruences, "_census", lambda *args, **kwargs: census)
    data = run_json(capsys, "lattice", "census", "-g", "4", "-k", "1")
    top, upper, lower, side, bottom = "{a,b,c,d}", "{a,b} | {c,d}", "{a} | {b} | {c,d}", "{a,c} | {b,d}", "{a} | {b} | {c} | {d}"
    assert data == {
        "alphabet": "abcd",
        "k": 1,
        "count": 5,
        "atoms": [lower, side],
        "checks": {"semimodular": False, "modular": False, "atomistic": False, "jordan_dedekind": False},
        "witnesses": {
            "pentagon": [top, upper, lower, side, bottom],
            "semimodular_pentagon": [top, upper, lower, side, bottom],
            "not_join_of_atoms": upper,
            "unequal_chains": [[bottom, lower, upper, top], [bottom, side, top]],
        },
    }
