import json

import pytest

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
