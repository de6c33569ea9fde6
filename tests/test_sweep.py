"""Every command on every right congruence of RC(ab,2), RC(ab,3), RC(abc,2)
and RC(a,2), compared by digest with a recorded corpus.

``golden/sweep.json`` maps each case, the argv with its input files named
as they are written here, to the sha256 of its exit code, stdout and stderr.
Its first 2,497 cases were recorded at commit c1b122e, before the
zero-probability caution of ``walk stationary`` became a value; the rest,
and RC(a,2), at commit b7ec24c.

Each congruence of ``constructions.enumerate_rc`` (checked against
``oracles.enumerate_all``) is written with its blocks and their words in an
order shuffled by a fixed seed, since ``walk lumped`` aligns its output with
the file order, and its reset code likewise.  On each congruence file run
``rc validate|lower|upper|resets|is-special``, ``graph dot``, ``walk
profile`` and ``walk lumped`` at the uniform distribution, and ``walk
simulate --in`` for 2,000 steps with seed 3; on each reset code file, ``walk
stationary`` at the uniform distribution and at one with a letter of
probability 0, so that the caution line is digested too, and ``walk
simulate --code`` as ``--in`` is run.  ``rc generate`` runs on the pairs
(x, least word of x's block) over A^k, and ``walk stationary`` on the lcs
code that ``rc upper`` prints, both written in an order shuffled by a
second seed, so that the inputs of the first cases stay as recorded.  The
universal congruence's ``walk simulate`` exits 1, since its one-word code
has no chain, as does ``walk stationary`` on each lcs code {ε}.  RC(a,2),
the one congruence over one letter, is refused by ``rc
lower|upper|is-special`` and ``walk profile|lumped|simulate``, and has no
lcs code to write.  Those cases are recorded as they stand.

To re-record after a deliberate change of output, run
``PYTHONPATH=src python tests/test_sweep.py --record`` and say in
CHANGES.md which digests moved and why.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from semwalk import codes, constructions, oracles
from semwalk.cli import main
from semwalk.words import Alphabet

CORPUS = Path(__file__).parent / "golden" / "sweep.json"
INSTANCES = [("ab", 2, 5), ("ab", 3, 30), ("abc", 2, 192), ("a", 2, 1)]
RC_ACTIONS = ["validate", "lower", "upper", "resets", "is-special"]


def _distributions(letters: str) -> tuple[str, str]:
    """The uniform ``--pi`` over ``letters``, and one where the first letter
    has probability 0 and the others share the mass evenly."""
    g = len(letters)
    uniform = ",".join(f"{c}=1/{g}" for c in letters)
    zero = ",".join([f"{letters[0]}=0"] + [f"{c}=1/{g - 1}" for c in letters[1:]])
    return uniform, zero


def _cases(directory: Path) -> dict[str, list[str]]:
    """Writes every input file into ``directory``, and returns each case's
    argv by its key: the argv with each input named by its file name."""
    rng, later = random.Random(2015), random.Random(2016)
    cases = {}
    for letters, k, count in INSTANCES:
        alphabet = Alphabet(letters)
        elements = constructions.enumerate_rc(alphabet, k, carrier_bound=9)
        assert len(elements) == count
        assert [rc.labels for rc in elements] == [rc.labels for rc in oracles.enumerate_all(alphabet, k, carrier_bound=9)]
        uniform, zero = _distributions(letters)
        for i, rc in enumerate(elements):
            blocks = [rng.sample(block, len(block)) for block in rc.block_texts]
            rng.shuffle(blocks)
            ideal = codes.reset_code(rc)
            texts = list(ideal.code.texts)
            rng.shuffle(texts)
            name = f"{letters}{k}_{i:03d}"
            congruence, code = f"{name}.json", f"{name}_resets.json"
            (directory / congruence).write_text(json.dumps({"alphabet": letters, "k": k, "blocks": blocks}))
            (directory / code).write_text(json.dumps({"alphabet": letters, "k": ideal.k, "code": texts}))
            argvs = [["rc", action, "--in", congruence] for action in RC_ACTIONS]
            argvs += [
                ["graph", "dot", "--in", congruence],
                ["walk", "profile", "--in", congruence, "--pi", uniform],
                ["walk", "lumped", "--in", congruence, "--pi", uniform],
                ["walk", "simulate", "--in", congruence, "--pi", uniform, "--steps", "2000", "--seed", "3"],
                ["walk", "stationary", "--code", code, "--pi", uniform],
                ["walk", "stationary", "--code", code, "--pi", zero],
            ]
            pairs = [[x, block[0]] for block in rc.block_texts for x in block]
            later.shuffle(pairs)
            (directory / f"{name}_pairs.json").write_text(json.dumps({"alphabet": letters, "k": k, "pairs": pairs}))
            argvs += [
                ["walk", "simulate", "--code", code, "--pi", uniform, "--steps", "2000", "--seed", "3"],
                ["rc", "generate", "--in", f"{name}_pairs.json"],
            ]
            if alphabet.size > 1:
                upper = codes.upper_approx(rc)[1]
                texts = later.sample(upper.code.texts, len(upper.code.texts))
                (directory / f"{name}_upper.json").write_text(
                    json.dumps({"alphabet": letters, "k": upper.k, "code": texts})
                )
                argvs.append(["walk", "stationary", "--code", f"{name}_upper.json", "--pi", uniform])
            cases.update((" ".join(argv), argv) for argv in argvs)
    return cases


def _digest(argv: list[str], directory: Path) -> str:
    """The sha256 of the exit code, stdout and stderr of ``main`` on
    ``argv``, with each input file read from ``directory``."""
    located = [str(directory / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(located)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def sweep(directory: Path) -> dict[str, str]:
    return {key: _digest(argv, directory) for key, argv in _cases(directory).items()}


def test_every_command_on_every_small_congruence_matches_the_corpus(tmp_path):
    recorded = json.loads(CORPUS.read_text())
    digests = sweep(tmp_path)
    assert digests.keys() == recorded.keys()
    assert len(digests) == 227 * 14 + 13
    changed = [key for key in recorded if digests[key] != recorded[key]]
    assert not changed, f"{len(changed)} cases changed, the first: {changed[0]}"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    with tempfile.TemporaryDirectory() as scratch:
        CORPUS.write_text(json.dumps(sweep(Path(scratch)), indent=0, sort_keys=True) + "\n")
