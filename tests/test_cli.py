import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semwalk import cli
from semwalk.cli import main

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


def test_walk_lumped_in_input_order(files, capsys):
    data = run_json(
        capsys, "walk", "lumped", "--in", files("five_class.json", FIVE_CLASS), "--pi", "a=1/2,b=1/2"
    )
    assert data["stationary"] == ["3/8", "1/8", "1/4", "1/8", "1/8"]
    assert data["blocks"][0] == ["aaa", "aba", "baa"]
    # Matrix rows follow the same block order and stay row-stochastic.
    first_row = [x for x in data["matrix"][0]]
    assert first_row == ["1/2", "0", "1/2", "0", "0"]


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

    monkeypatch.setattr(cli_mod.walks, "lumped", boom)
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


# ------------------------------------------------- random argv and payloads

# Every call must end in a documented exit code with JSON on the documented
# stream (stdout for 0 and 1, stderr for 2-4; graph dot prints DOT), and a
# repeat must print the same bytes.  The calls share one process, so one
# parser serves every parse, failed or not.

WORD = st.text(alphabet="abcz", max_size=4)
JUNK = ["--bogus", "x", "-k", "--in", "--pi", "--steps", "3", ""]


def mostly(draw, good, bad):
    """The well-formed value four times in five, else a draw from bad."""
    return good if draw(st.integers(0, 4)) else draw(bad)


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
    pairs = st.lists(st.lists(st.sampled_from(carrier), min_size=2, max_size=2), max_size=3)
    payload = {
        "alphabet": mostly(draw, letters, st.sampled_from(["ab", "abc", "a", "", "aa", 7])),
        "k": mostly(draw, k, st.sampled_from([-1, 0, 1, 4, 17, 20000, 2.5, True, "2", None])),
        "blocks": mostly(draw, partition, st.one_of(st.lists(st.lists(WORD, max_size=3), max_size=4), WORD)),
        "pairs": mostly(draw, draw(pairs), st.one_of(st.lists(st.lists(WORD, max_size=3), max_size=2), WORD)),
        "code": mostly(draw, code, st.one_of(st.lists(WORD, max_size=5), WORD)),
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
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a zero letter probability warns once per process
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def payload_path(tmp_path_factory):
    return tmp_path_factory.mktemp("random") / "payload.json"


@given(st.data())
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_argv_and_payloads_end_in_a_documented_outcome(payload_path, data):
    letters, payload = data.draw(payloads())
    payload_path.write_text(json.dumps(payload))
    argv = data.draw(argvs(str(payload_path), letters))
    code, out, err = call(argv)
    assert code in (0, 1, 2, 3, 4)
    if code == 0:
        assert out.startswith("digraph {") if argv[:2] == ["graph", "dot"] else isinstance(json.loads(out), dict)
    elif code == 1:
        assert err == "" and json.loads(out)["error"] in ("validation", "closure")
    else:
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {2: "parse", 3: "internal", 4: "bound"}[code]
    assert call(argv) == (code, out, err)
