"""The package split: the CLI imports the engine alone, without
``dataclasses`` or ``inspect``, and every public name still resolves from
``semwalk``.

``oracles`` (the definitional checks) and ``constructions`` (the paper's
constructions that no command runs) are imported on first use of one of
their names, never by ``import semwalk.cli`` or a command.  Each module
also imports alone, in a fresh interpreter, so no import cycle runs
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


def python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout


def test_the_cli_and_its_commands_import_the_engine_alone():
    codes, loaded, stdlib = json.loads(python(REQUESTS))
    assert codes == [0] * 12
    assert loaded == ["semwalk"] + [f"semwalk.{m}" for m in ("cli", "codes", "congruences", "graphs", "walks", "words")]
    # The engine's value types generate no code at import, and nothing else on the path loads inspect.
    assert stdlib == []


def test_every_public_name_resolves_to_its_home():
    for name, module in NAMES.items():
        home = import_module(f"semwalk.{module}")
        assert getattr(semwalk, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name


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
