"""Command-line front end.

One binary, four subcommand groups:

  semwalk rc       validate | generate | lower | upper | resets | is-special
  semwalk walk     stationary | profile | lumped | simulate
  semwalk lattice  census
  semwalk graph    dot

Every command prints one JSON object, with rationals as "num/den" strings,
except graph dot, which prints DOT text; --out FILE writes it to FILE
instead.  Exit codes are a stable contract: 0 success, 1 validation failure
(diagnostic payload on stdout), 2 parse error, 3 internal assertion, 4
bound exceeded.  On exit 0, each caution the command reports follows the
result as one ``{"warning": ...}`` line on stderr, on every call; the one
caution is walk stationary's, for a letter of probability 0, whose
stationary vector may not be unique.  Exit 4 refuses a request before its
work starts when it asks for more than 65,536 words of one length, a
census carrier past --carrier-bound (at most 12 words), a walk lumped
matrix of more than 2^22 entries, or walk simulate --steps above 10^9; a
census lattice of more than 5,000 elements is refused once its search
reaches the 5,001st.

Every command runs on the engine's integer kernels: walk lumped reads each
row of its matrix off the Cayley table, as numerators over the common
denominator of the letter probabilities, and no command builds a matrix of
fractions.

Importing this module runs the engine's words and congruences modules, all
that lattice census, rc validate and rc generate use.  codes, walks and
graphs are bound here as lazy modules, each run on the first use of one of
its attributes: graph dot runs graphs, the other rc commands run codes, and
the walk commands run codes and walks.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import sys
from math import gcd

from . import congruences
from .words import Alphabet, WordError, WordLimitExceeded


def _lazy(name: str):
    """The engine module ``semwalk.<name>``, bound on the package as an
    import binds it, whose code runs on the first use of one of its
    attributes.  A module already imported is returned as it is, so that
    each name has one module object."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


codes, graphs, walks = map(_lazy, ("codes", "graphs", "walks"))

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_BOUND = 4


class ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseFailure, which main prints as JSON."""

    def error(self, message: str):
        raise ParseFailure(f"{self.prog}: {message}")


def _load_json(path: str) -> dict:
    # ValueError covers malformed JSON, bytes that are not UTF-8 and an
    # integer over the digit limit; RecursionError, nesting too deep.
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise ParseFailure(f"cannot read JSON from {path}: {e}") from e
    if not isinstance(data, dict):
        raise ParseFailure(f"{path}: expected a JSON object")
    return data


# What a field must be, by the JSON type it must have; k is the one integer field.
_EXPECTED = {
    int: "k must be an integer",
    list: "expected a JSON list",
    bool: "expected a JSON boolean",
    str: "expected a JSON string",
}


def _typed(value, kind: type):
    """``value`` if it has the JSON type ``kind``, else a TypeError that
    shows it: a float or boolean is never an integer, a string never a list
    of letters, and no other value is read as a boolean or a word."""
    if type(value) is not kind:
        raise TypeError(f"{_EXPECTED[kind]}, got {json.dumps(value)}")
    return value


def _alphabet_of(data: dict, path: str) -> Alphabet:
    if "alphabet" not in data:
        raise ParseFailure(f"{path}: missing 'alphabet'")
    try:
        return Alphabet(_typed(data["alphabet"], str))
    except (TypeError, WordError) as e:
        raise ParseFailure(f"{path}: {e}") from e


def _texts(value) -> list[str]:
    """A JSON list of words, each a JSON string."""
    return [_typed(text, str) for text in _typed(value, list)]


# Raised while reading a missing or malformed field: KeyError for a missing
# one, TypeError from _typed, and ValueError for a pair that is not two
# words or, as a WordError, for a letter that is not in the alphabet.
_FIELD_ERRORS = (KeyError, TypeError, ValueError)


def _parse_code_file(path: str) -> tuple[codes.IdealRep, list[str], list[tuple[int, int]]]:
    """Returns the ideal, and the code words as written in the file with
    their keys, so that output can be aligned back to the input.  A code
    marked "infinite_tail" is truncated, and no ideal holds it."""
    data = _load_json(path)
    alphabet = _alphabet_of(data, path)
    try:
        order = _texts(data["code"])
        keys = alphabet.keys_of(order)
        k = _typed(data["k"], int) if "k" in data else max((n for n, _ in keys), default=1)
        infinite_tail = _typed(data.get("infinite_tail", False), bool)
    except _FIELD_ERRORS as e:
        raise ParseFailure(f"{path}: malformed code: {e}") from e
    return codes.IdealRep(codes.SemaphoreCode.from_keys(alphabet, keys, infinite_tail), k), order, keys


def _pi_arg(alphabet: Alphabet, text: str) -> walks.LetterDistribution:
    try:
        return walks.LetterDistribution.parse(alphabet, text)
    except ValueError as e:
        raise ParseFailure(f"bad --pi value: {e}") from e


def _ratio(num: int, den: int) -> str:
    """num/den in ``str(Fraction(num, den))`` form: reduced, and a bare
    integer when the denominator is 1."""
    common = gcd(num, den)
    return f"{num // common}/{den // common}" if common != den else str(num // common)


def _congruence_json(rc: congruences.RightCongruence) -> dict:
    return {
        "alphabet": rc.alphabet.letters,
        "k": rc.k,
        "blocks": rc.block_texts,
    }


def _code_json(ideal: codes.IdealRep) -> dict:
    payload = {
        "alphabet": ideal.alphabet.letters,
        "code": list(ideal.code.texts),
        "k": ideal.k,
        "infinite_tail": ideal.code.infinite_tail,
    }
    if ideal.code.keys[:1] == ((0, 0),):
        # The empty word renders as ""; flag it so the payload is unambiguous.
        payload["epsilon"] = True
    return payload


def _write(text: str, out: str | None) -> None:
    """``text`` to the ``--out`` file if one is given, else to stdout."""
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseFailure(f"cannot write {out}: {e}") from e
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- rc group


def _read_congruence(args) -> tuple[congruences.RightCongruence, list[int]]:
    """The congruence in the --in file, and the canonical index of each of
    the file's blocks, so that output can be aligned back to the input."""
    path = args.infile
    data = _load_json(path)
    alphabet = _alphabet_of(data, path)
    try:
        k = _typed(data["k"], int)
        blocks = [alphabet.keys_of(_texts(blk)) for blk in _typed(data["blocks"], list)]
    except _FIELD_ERRORS as e:
        raise ParseFailure(f"{path}: malformed congruence: {e}") from e
    rc = congruences.validate_keys(alphabet, k, blocks)
    return rc, [rc.labels[blk[0][1]] for blk in blocks]


def _rc_validate(args) -> dict:
    return {"valid": True, "congruence": _congruence_json(_read_congruence(args)[0])}


def _approximation_json(approx: congruences.RightCongruence, ideal: codes.IdealRep) -> dict:
    return {"congruence": _congruence_json(approx), "code": _code_json(ideal)}


def _rc_lower(args) -> dict:
    return _approximation_json(*codes.lower_approx(_read_congruence(args)[0]))


def _rc_upper(args) -> dict:
    return _approximation_json(*codes.upper_approx(_read_congruence(args)[0]))


def _rc_resets(args) -> dict:
    return _code_json(codes.reset_code(_read_congruence(args)[0]))


def _rc_is_special(args) -> dict:
    return {"special": codes.is_special(_read_congruence(args)[0])}


def _rc_generate(args) -> dict:
    data = _load_json(args.infile)
    alphabet = _alphabet_of(data, args.infile)
    try:
        k = _typed(data["k"], int)
        # Read pair by pair and deduplicated in file order, so any error names the first bad pair.
        pairs = []
        for i, pair in enumerate(map(_texts, _typed(data["pairs"], list)), 1):
            if len(pair) != 2:
                raise ValueError(f"pair {i} is {json.dumps(pair)}, and a pair holds two words")
            pairs.append(tuple(alphabet.keys_of(pair)))
    except _FIELD_ERRORS as e:
        raise ParseFailure(f"{args.infile}: malformed pair set: {e}") from e
    return {"congruence": _congruence_json(congruences.generate_keys(alphabet, k, dict.fromkeys(pairs)))}


# -------------------------------------------------------------- walk group


def _walk_stationary(args) -> dict:
    ideal, order, keys = _parse_code_file(args.code)
    pi = _pi_arg(ideal.alphabet, args.pi)
    weights, total = walks.stationary_weights(ideal, pi)
    if not pi.positive:
        args.cautions.append(walks.NON_POSITIVE_CAUTION)
    # Align output to the code order given in the input file.
    aligned = map(weights.__getitem__, map(ideal.code._index.__getitem__, keys))
    return {"states": order, "stationary": [_ratio(w, total) for w in aligned]}


def _walk_profile(args) -> dict:
    rc, _ = _read_congruence(args)
    prof = walks.reset_profile(rc, _pi_arg(rc.alphabet, args.pi))
    return {
        "P": [str(x) for x in prof.cumulative],
        "p": [str(x) for x in prof.increments],
        "t": str(prof.hitting_time),
    }


def _walk_lumped(args) -> dict:
    rc, order = _read_congruence(args)
    weights, total, rows, d = walks.lumped_weights(rc, _pi_arg(rc.alphabet, args.pi))
    # Align output to the block order given in the input file: class b is
    # column at[b].  A row has at most g entries that are not zero.
    at = {b: i for i, b in enumerate(order)}
    matrix = []
    for b in order:
        row = ["0"] * len(order)
        for c, num in rows[b].items():
            row[at[c]] = _ratio(num, d)
        matrix.append(row)
    return {
        "blocks": [rc.block_texts[b] for b in order],
        "stationary": [_ratio(weights[b], total) for b in order],
        "matrix": matrix,
    }


def _walk_simulate(args) -> dict:
    if (args.code is None) == (args.infile is None):
        raise ParseFailure("walk simulate needs exactly one of --in FILE and --code FILE")
    if args.code is not None:
        ideal, _, _ = _parse_code_file(args.code)
    else:
        ideal = codes.reset_code(_read_congruence(args)[0])
    pi = _pi_arg(ideal.alphabet, args.pi)
    result = walks.simulate(ideal, pi, steps=args.steps, seed=args.seed)
    return {
        "states": list(result.labels),
        "visits": list(result.visits),
        "frequencies": [repr(f) for f in result.frequencies],
        "episodes": result.episodes,
        "mean_reset_time": repr(result.mean_reset_time),
        "steps": result.steps,
        "seed": result.seed,
    }


# ------------------------------------------------------ lattice and graph

_CHECKS = ["semimodular", "modular", "atomistic", "jordan_dedekind"]


def _lattice_census(args) -> dict:
    try:
        alphabet = Alphabet.of_size(args.alphabet_size)
    except WordError as e:
        raise ParseFailure(f"-g: {e}") from e
    labels, report = congruences._census(alphabet, args.k, args.carrier_bound)

    def names(indices) -> list[str]:  # a congruence is built only for an element printed
        return [str(congruences.RightCongruence(alphabet, args.k, labels[i])) for i in indices]

    wanted = _CHECKS if args.checks is None else args.checks
    witnesses: dict = {}
    if "modular" in wanted and not report.modular:
        witnesses["pentagon"] = names(report.pentagon)
    if "semimodular" in wanted and not report.semimodular:
        witnesses["semimodular_pentagon"] = names(report.semimodular_pentagon)
    if "atomistic" in wanted and not report.atomistic:
        witnesses["not_join_of_atoms"] = names([report.non_atomistic_witness])[0]
    if "jordan_dedekind" in wanted and not report.jordan_dedekind:
        witnesses["unequal_chains"] = list(map(names, report.unequal_chains))
    return {
        "alphabet": alphabet.letters,
        "k": args.k,
        "count": report.size,
        "atoms": names(report.atoms),
        "checks": {name: report.flags[name] for name in wanted},
        "witnesses": witnesses,
    }


def _graph_dot(args) -> str:
    return graphs.to_dot(graphs.cayley(_read_congruence(args)[0]))


# ------------------------------------------------------------------ main


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_IN = _arg("--in", dest="infile", required=True)
_PI = _arg("--pi", required=True)

# Every command, declared once: group -> (help, {leaf: (handler, arguments)}),
# in --help order.  To add a command, write a handler that takes the parsed
# arguments and returns what the command prints (a JSON payload dict, or text
# such as DOT), appending to args.cautions any caution to print after it, and
# give it a line here with its arguments as add_argument takes them; every
# leaf also gets --out.  A handler reads its input file before it parses
# --pi, so a bad file is reported first, and calls the library through its
# modules (codes.reset_code), so that a wrapper installed on a library
# function sees every call.
_COMMANDS = {
    "rc": ("right congruence operations", {
        "validate": (_rc_validate, [_IN]),
        "lower": (_rc_lower, [_IN]),
        "upper": (_rc_upper, [_IN]),
        "resets": (_rc_resets, [_IN]),
        "is-special": (_rc_is_special, [_IN]),
        "generate": (_rc_generate, [_arg("--in", dest="infile", required=True, help="JSON with alphabet, k, pairs")]),
    }),
    "walk": ("exact random-walk analytics", {
        "stationary": (_walk_stationary, [_arg("--code", required=True, help="semaphore code JSON"), _PI]),
        "profile": (_walk_profile, [_IN, _PI]),
        "lumped": (_walk_lumped, [_IN, _PI]),
        "simulate": (_walk_simulate, [
            _arg("--in", dest="infile", help="congruence JSON (walk on its reset code)"),
            _arg("--code", help="semaphore code JSON"),
            _PI,
            _arg("--steps", type=int, default=100_000),
            _arg("--seed", type=int, default=0),
        ]),
    }),
    "lattice": ("lattice census over RC(A^k)", {
        "census": (_lattice_census, [
            _arg("-g", "--alphabet-size", type=int, required=True),
            _arg("-k", "--k", type=int, required=True),
            _arg("--checks", nargs="*", choices=_CHECKS),
            _arg("--carrier-bound", type=int, default=congruences.DEFAULT_CARRIER_BOUND),
        ]),
    }),
    "graph": ("graph exports", {
        "dot": (_graph_dot, [_IN]),
    }),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    Building it costs more than a typical request, so it is done once per
    process, and lazily, so that importing the module stays cheap.  A parse
    leaves the parser unchanged: each call returns a fresh namespace.
    """
    parser = _Parser(prog="semwalk", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (summary, leaves) in _COMMANDS.items():
        actions = groups.add_parser(group, help=summary).add_subparsers(dest="action", required=True)
        for leaf, (handler, arguments) in leaves.items():
            p = actions.add_parser(leaf)
            for flags, options in arguments:
                p.add_argument(*flags, **options)
            p.add_argument("--out")
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.cautions = []
        result = args.func(args)
        _write(result if isinstance(result, str) else json.dumps(result, indent=2, sort_keys=True) + "\n", args.out)
    except ParseFailure as e:
        return _failure(EXIT_PARSE, "parse", e)
    except congruences.ClosureViolation as e:
        return _failure(EXIT_VALIDATION, "closure", e, witness={"u": str(e.u), "v": str(e.v), "letter": str(e.letter)})
    # The errors of words and congruences are matched first, so that a
    # command that never loads codes, walks or graphs reports its errors
    # without loading them.  No error class of one module derives from
    # another's, so the order changes no exit code.
    except (congruences.BoundExceeded, WordLimitExceeded) as e:
        return _failure(EXIT_BOUND, "bound", e)
    except (WordError, congruences.CongruenceError) as e:
        return _failure(EXIT_VALIDATION, "validation", e)
    except AssertionError as e:
        return _failure(EXIT_INTERNAL, "internal", e)
    except walks.WalkBoundExceeded as e:
        return _failure(EXIT_BOUND, "bound", e)
    except (codes.CodeError, walks.WalkError, graphs.GraphError) as e:
        return _failure(EXIT_VALIDATION, "validation", e)
    for caution in args.cautions:
        print(json.dumps({"warning": caution}), file=sys.stderr)
    return EXIT_OK


def _failure(code: int, kind: str, e: Exception, **fields) -> int:
    """Prints one JSON diagnostic, with ``fields`` after its message, a
    validation failure on stdout and any other on stderr, and returns the
    exit code."""
    print(json.dumps({"error": kind, "message": str(e), **fields}), file=sys.stdout if code == EXIT_VALIDATION else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
