"""The package split: the CLI imports the engine alone, without
``dataclasses`` or ``inspect``, and every public name still resolves from
``semwalk``.

``import semwalk.cli`` runs ``words`` and ``congruences``, and registers
``codes``, ``walks`` and ``graphs`` as lazy modules, each run on the first
use of one of its attributes: the census and ``rc validate`` and
``rc generate`` run none of them, ``graph dot`` runs ``graphs``, the other
``rc`` commands run ``codes``, and the walk commands ``codes`` and
``walks``.  An error runs no more than its command does, since ``main``
matches the engine's errors by their bases in ``words``, and every error
class keeps its old base.  Whichever is imported first, each name has one
module object.  ``oracles`` (the definitional checks) and ``constructions``
(the paper's constructions that no command runs) are imported on first use
of one of their names, never by ``import semwalk.cli`` or a command.  Each
module also imports alone, in a fresh interpreter, so no import cycle runs
between the engine and the modules imported on demand.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import semwalk

SRC = Path(semwalk.__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

# Every name the package exported before the split, by its module now.
HOMES = {
    "words": "Alphabet Word WordError is_suffix product truncate_suffix words_of_length",
    "congruences": (
        "BoundExceeded ClosureViolation CongruenceError LatticeReport NotAPartitionError RightCongruence lattice_census"
    ),
    "codes": (
        "CodeError IdealRep SemaphoreCode action_table code_action is_special lambda_of lower_approx reset_code"
        " tau_of upper_approx"
    ),
    "graphs": "AGraph GraphError cayley to_dot",
    "walks": "LetterDistribution ResetProfile SimulationResult WalkError profile_of_ideal reset_profile simulate",
    "oracles": (
        "epsilon is_factor is_prefix lcs lcs_of enumerate_all generate lattice_report validate is_semaphore"
        " suffix_classes StationaryVector TransitionMatrix advance check_polynomial_identity"
        " congruence_transition_matrix debruijn_stationary polynomial_identity_holds solve_stationary"
        " transition_matrix"
    ),
    "constructions": (
        "enumerate_rc identity join meet universal enumerate_ideals from_generators ideal_join ideal_leq"
        " ideal_meet restrict_k semaphore_code src_lattice debruijn graph_json is_reset isomorphic morphism"
        " zeta LumpedWalk lumped stationary"
    ),
}
NAMES = {name: module for module, names in HOMES.items() for name in names.split()}

# One request per leaf command, run in process after `import semwalk.cli`.
REQUESTS = """
import json, sys, tempfile
from pathlib import Path
from semwalk.cli import main

inputs = {
    "five": {"alphabet": "ab", "k": 3, "blocks": [["aaa", "baa", "aba"], ["bba"], ["aab", "bab"], ["abb"], ["bbb"]]},
    "pairs": {"alphabet": "ab", "k": 3, "pairs": [["aaa", "baa"], ["aab", "bab"]]},
    "code": {"alphabet": "ab", "code": ["b", "ba", "baa", "aaa"], "k": 3, "infinite_tail": False},
}
with tempfile.TemporaryDirectory() as tmp:
    path = {}
    for name, payload in inputs.items():
        path[name] = str(Path(tmp) / f"{name}.json")
        Path(path[name]).write_text(json.dumps(payload))
    infile, pi, out = ["--in", path["five"]], ["--pi", "a=1/2,b=1/2"], ["--out", str(Path(tmp) / "out")]
    codes = [
        *(main(["rc", leaf, *infile, *out]) for leaf in ("validate", "lower", "upper", "resets", "is-special")),
        main(["rc", "generate", "--in", path["pairs"], *out]),
        main(["walk", "stationary", "--code", path["code"], *pi, *out]),
        main(["walk", "profile", *infile, *pi, *out]),
        main(["walk", "lumped", *infile, *pi, *out]),
        main(["walk", "simulate", *infile, *pi, "--steps", "100", *out]),
        main(["lattice", "census", "-g", "2", "-k", "2", *out]),
        main(["graph", "dot", *infile, *out]),
    ]
print(json.dumps([
    codes,
    sorted(m for m in sys.modules if m.startswith("semwalk")),
    [m for m in ("dataclasses", "inspect") if m in sys.modules],
]))
"""


def python(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True, env=env).stdout


def test_the_cli_and_its_commands_import_the_engine_alone():
    codes, loaded, stdlib = json.loads(python(REQUESTS))
    assert codes == [0] * 12
    assert loaded == ["semwalk"] + [f"semwalk.{m}" for m in ("cli", "codes", "congruences", "graphs", "walks", "words")]
    # The engine's value types generate no code at import, and nothing else on the path loads inspect.
    assert stdlib == []


# One command, run in a fresh interpreter: its exit code, and the engine
# modules that have run, beyond cli, words and congruences.  Until it runs,
# a lazy module is of a subclass of ModuleType.
FOOTPRINT = """
import contextlib, io, json, sys, types
from semwalk.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
ran = {m for m, module in sys.modules.items() if m.startswith("semwalk.") and type(module) is types.ModuleType}
print(json.dumps([code, sorted(m[len("semwalk."):] for m in ran - {"semwalk.cli", "semwalk.words", "semwalk.congruences"})]))
"""

FIVE = str(GOLDEN / "five_class.json")
PI = ["--pi", "a=1/2,b=1/2"]
RUNS = [
    (["lattice", "census", "-g", "2", "-k", "2"], []),
    (["rc", "validate", "--in", FIVE], []),
    (["rc", "generate", "--in", str(GOLDEN / "five_class_pairs.json")], []),
    (["graph", "dot", "--in", FIVE], ["graphs"]),
    *((["rc", leaf, "--in", FIVE], ["codes"]) for leaf in ("lower", "upper", "resets", "is-special")),
    (["walk", "stationary", "--code", str(GOLDEN / "code_g2.json"), *PI], ["codes", "walks"]),
    (["walk", "profile", "--in", FIVE, *PI], ["codes", "walks"]),
    (["walk", "lumped", "--in", FIVE, *PI], ["codes", "walks"]),
    (["walk", "simulate", "--in", FIVE, *PI, "--steps", "100"], ["codes", "walks"]),
]


@pytest.mark.parametrize("argv, ran", RUNS, ids=[" ".join(argv[:2]) for argv, _ in RUNS])
def test_each_command_runs_only_the_engine_modules_it_uses(argv, ran):
    assert json.loads(python(FOOTPRINT, *argv)) == [0, ran]


@pytest.mark.parametrize("argv, payload, code", [
    (["lattice", "census", "-g", "4", "-k", "2"], None, 4),
    (["lattice", "census", "-g", "2", "-k", "0"], None, 1),
    (["rc", "validate", "--in"], {"alphabet": "ab", "k": 2, "blocks": [["aa", "ab"], ["ba", "bb"]]}, 1),
    (["rc", "validate", "--in"], {"alphabet": "ab", "k": 2, "blocks": [["aa", "ab"], ["ab", "ba", "bb"]]}, 1),
], ids=["census-bound", "census-k0", "rc-not-closed", "rc-not-a-partition"])
def test_a_census_or_rc_error_runs_no_other_engine_module(argv, payload, code, tmp_path):
    if payload is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        argv = [*argv, str(path)]
    assert json.loads(python(FOOTPRINT, *argv)) == [code, []]


ONE_LETTER = {"alphabet": "a", "k": 2, "blocks": [["aa"]]}


@pytest.mark.parametrize("argv, payload, expected", [
    (["rc", "lower", "--in"], ONE_LETTER, [1, ["codes"]]),
    (["walk", "stationary", "--pi", "a=1/2,b=1/2", "--code"], {"alphabet": "ab", "code": ["a", "ba"]}, [1, ["codes"]]),
    (["walk", "profile", "--pi", "a=1/1", "--in"], ONE_LETTER, [1, ["codes", "walks"]]),
], ids=["rc-lower-one-letter", "walk-stationary-not-a-suffix-code", "walk-profile-one-letter"])
def test_an_error_runs_only_the_engine_modules_its_command_uses(argv, payload, expected, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert json.loads(python(FOOTPRINT, *argv, str(path))) == expected


# Each way of naming a lazily loaded engine module, and the module object
# of an import made before the CLI's.
SAME_MODULE = """
import sys, types
{first}
import semwalk.cli as cli
{then}
from semwalk import {m} as imported_from
import semwalk.{m}
objects = [cli.{m}, semwalk.{m}, imported_from, sys.modules["semwalk.{m}"], *earlier]
assert all(module is objects[0] for module in objects), objects
assert objects[0].__name__ == "semwalk.{m}" and type(objects[0]) is types.ModuleType
print("ok")
"""


@pytest.mark.parametrize("module", ["codes", "graphs", "walks"])
@pytest.mark.parametrize("before", [True, False], ids=["imported-before-cli", "imported-after-cli"])
def test_a_lazy_engine_module_is_one_object_under_every_name(module, before):
    if before:
        first, then = f"import semwalk.{module}\nearlier = [semwalk.{module}]", ""
    else:
        first, then = "earlier = []", f"assert type(sys.modules['semwalk.{module}']) is not types.ModuleType"
    assert python(SAME_MODULE.format(first=first, then=then, m=module)) == "ok\n"


def test_every_public_name_resolves_to_its_home():
    for name, module in NAMES.items():
        home = import_module(f"semwalk.{module}")
        assert getattr(semwalk, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name


# Each public error class of the engine, by the class it derived from
# before every one of them derived from words._Refusal.
OLD_BASES = {
    "WordError": "ValueError",
    "WordLimitExceeded": "WordError",
    "CongruenceError": "ValueError",
    "NotAPartitionError": "CongruenceError",
    "BoundExceeded": "CongruenceError",
    "ClosureViolation": "CongruenceError",
    "CodeError": "ValueError",
    "WalkError": "ValueError",
    "WalkBoundExceeded": "WalkError",
    "GraphError": "ValueError",
}


def test_every_engine_error_derives_from_the_refusal_base():
    from semwalk.words import _BoundRefusal, _Refusal

    errors = {
        name: value
        for module in (f"semwalk.{p.stem}" for p in (SRC / "semwalk").glob("*.py") if p.stem[0] != "_")
        for name, value in vars(import_module(module)).items()
        if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module
    }
    assert errors.keys() == {*OLD_BASES, "ParseFailure", "_Refusal", "_BoundRefusal"}
    assert not issubclass(errors["ParseFailure"], ValueError)
    for name, base in OLD_BASES.items():
        assert issubclass(errors[name], _Refusal) and issubclass(errors[name], errors.get(base, ValueError)), name
    assert {name for name in OLD_BASES if issubclass(errors[name], _BoundRefusal)} == {
        "WordLimitExceeded",
        "BoundExceeded",
        "WalkBoundExceeded",
    }


def test_main_names_no_class_of_a_lazy_module():
    tree = ast.parse((SRC / "semwalk" / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    named = {node.value.id for node in ast.walk(main) if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    assert named.isdisjoint({"codes", "walks", "graphs"})


def test_every_function_and_class_is_defined_once():
    defined = Counter(
        node.name
        for path in (SRC / "semwalk").glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    )
    assert [name for name, count in defined.items() if count > 1] == []


def test_dir_lists_every_public_name():
    assert set(NAMES) <= set(dir(semwalk))
    assert set(NAMES) <= set(semwalk.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'semwalk' has no attribute 'no_such_name'$"):
        semwalk.no_such_name
    with pytest.raises(ImportError):
        from semwalk import no_such_name  # noqa: F401


@pytest.mark.parametrize("module", sorted(p.stem for p in (SRC / "semwalk").glob("*.py")))
def test_each_module_imports_alone(module):
    name = "semwalk" if module == "__init__" else f"semwalk.{module}"
    assert python(f"import {name}; print({name}.__name__)") == f"{name}\n"
