"""Command-line front end.

One binary, four subcommand groups:

  semwalk rc       validate | generate | lower | upper | resets | is-special
  semwalk walk     stationary | profile | lumped | simulate
  semwalk lattice  census
  semwalk graph    dot

All payloads are JSON with rationals as "num/den" strings.  Exit codes are
a stable contract: 0 success, 1 validation failure (diagnostic payload on
stdout), 2 parse error, 3 internal assertion, 4 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import gcd

from . import codes, congruences, graphs, walks
from .words import Alphabet, WordError, WordLimitExceeded

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
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseFailure(f"cannot read JSON from {path}: {e}") from e
    if not isinstance(data, dict):
        raise ParseFailure(f"{path}: expected a JSON object")
    return data


def _alphabet_of(data: dict, path: str) -> Alphabet:
    if "alphabet" not in data:
        raise ParseFailure(f"{path}: missing 'alphabet'")
    try:
        return Alphabet(str(data["alphabet"]))
    except WordError as e:
        raise ParseFailure(f"{path}: {e}") from e


# Raised while reading a missing or malformed field (int(), _as_list, words).
_FIELD_ERRORS = (KeyError, TypeError, ValueError, OverflowError, WordError)


def _k_of(value) -> int:
    """The "k" field: a JSON integer, never a float or boolean truncated by int()."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"k must be an integer, got {json.dumps(value)}")
    return value


def _as_list(value) -> list:
    """A JSON array; a string would otherwise be iterated letter by letter."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {json.dumps(value)}")
    return value


def _parse_code_file(path: str) -> tuple[codes.IdealRep, list[str], list[tuple[int, int]]]:
    """Returns the ideal, and the code words as written in the file with
    their keys, so that output can be aligned back to the input."""
    data = _load_json(path)
    alphabet = _alphabet_of(data, path)
    try:
        order = [str(w) for w in _as_list(data["code"])]
        keys = alphabet.keys_of(order)
        k = _k_of(data["k"]) if "k" in data else max((n for n, _ in keys), default=1)
    except _FIELD_ERRORS as e:
        raise ParseFailure(f"{path}: malformed code: {e}") from e
    return codes.IdealRep(codes.SemaphoreCode.from_keys(alphabet, keys), k), order, keys


def _pi_arg(alphabet: Alphabet, text: str) -> walks.LetterDistribution:
    try:
        return walks.LetterDistribution.parse(alphabet, text)
    except (ValueError, ZeroDivisionError) as e:
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
        "blocks": [[str(w) for w in blk] for blk in rc.blocks],
    }


def _code_json(ideal: codes.IdealRep) -> dict:
    payload = {
        "alphabet": ideal.alphabet.letters,
        "code": [str(w) for w in ideal.code.words],
        "k": ideal.k,
        "infinite_tail": ideal.code.infinite_tail,
    }
    if ideal.code.keys[:1] == ((0, 0),):
        # The empty word renders as ""; flag it so the payload is unambiguous.
        payload["epsilon"] = True
    return payload


def _write(text: str, args) -> None:
    """``text`` to the ``--out`` file if one is given, else to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, args) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)


# ---------------------------------------------------------------- rc group


def _read_congruence(args) -> tuple[congruences.RightCongruence, list[int]]:
    """The congruence in the --in file, and the canonical index of each of
    the file's blocks, so that output can be aligned back to the input."""
    path = args.infile
    data = _load_json(path)
    alphabet = _alphabet_of(data, path)
    try:
        k = _k_of(data["k"])
        blocks = [alphabet.keys_of([str(w) for w in _as_list(blk)]) for blk in _as_list(data["blocks"])]
    except _FIELD_ERRORS as e:
        raise ParseFailure(f"{path}: malformed congruence: {e}") from e
    rc = congruences.validate_keys(alphabet, k, blocks)
    return rc, [rc.labels[blk[0][1]] for blk in blocks]


def _cmd_rc(args) -> int:
    rc, _ = _read_congruence(args)
    if args.action == "validate":
        payload = {"valid": True, "congruence": _congruence_json(rc)}
    elif args.action == "lower":
        approx, ideal = codes.lower_approx(rc)
        payload = {"congruence": _congruence_json(approx), "code": _code_json(ideal)}
    elif args.action == "upper":
        approx, ideal = codes.upper_approx(rc)
        payload = {"congruence": _congruence_json(approx), "code": _code_json(ideal)}
    elif args.action == "resets":
        payload = _code_json(codes.reset_code(rc))
    else:
        payload = {"special": codes.is_special(rc)}
    _emit(payload, args)
    return EXIT_OK


def _cmd_rc_generate(args) -> int:
    data = _load_json(args.infile)
    alphabet = _alphabet_of(data, args.infile)
    try:
        k = _k_of(data["k"])
        # Deduplicated in file order, so a refusal names the first bad pair.
        pairs = list(
            dict.fromkeys(
                (alphabet.word(str(u)), alphabet.word(str(v)))
                for u, v in map(_as_list, _as_list(data["pairs"]))
            )
        )
    except _FIELD_ERRORS as e:
        raise ParseFailure(f"{args.infile}: malformed pair set: {e}") from e
    rc = congruences.generate(pairs, alphabet, k)
    _emit({"congruence": _congruence_json(rc)}, args)
    return EXIT_OK


# -------------------------------------------------------------- walk group


def _cmd_walk(args) -> int:
    if args.action == "stationary":
        ideal, order, keys = _parse_code_file(args.code)
        pi = _pi_arg(ideal.alphabet, args.pi)
        weights, total = walks.stationary_weights(ideal, pi)
        # Align output to the code order given in the input file.
        at = ideal.code._index
        _emit({"states": order, "stationary": [_ratio(weights[at[key]], total) for key in keys]}, args)
        return EXIT_OK

    if args.action == "profile":
        rc, _ = _read_congruence(args)
        pi = _pi_arg(rc.alphabet, args.pi)
        prof = walks.reset_profile(rc, pi)
        _emit(
            {
                "P": [str(x) for x in prof.cumulative],
                "p": [str(x) for x in prof.increments],
                "t": str(prof.hitting_time),
            },
            args,
        )
        return EXIT_OK

    if args.action == "lumped":
        rc, order = _read_congruence(args)
        pi = _pi_arg(rc.alphabet, args.pi)
        lw = walks.lumped(rc, pi)
        # Align output to the block order given in the input file.
        _emit(
            {
                "blocks": [[str(w) for w in rc.blocks[b]] for b in order],
                "stationary": [str(lw.stationary.values[b]) for b in order],
                "matrix": [[str(lw.matrix.rows[b][c]) for c in order] for b in order],
            },
            args,
        )
        return EXIT_OK

    if args.action == "simulate":
        if (args.code is None) == (args.infile is None):
            raise ParseFailure("walk simulate needs exactly one of --in FILE and --code FILE")
        if args.code is not None:
            ideal, _, _ = _parse_code_file(args.code)
        else:
            ideal = codes.reset_code(_read_congruence(args)[0])
        pi = _pi_arg(ideal.alphabet, args.pi)
        result = walks.simulate(ideal, pi, steps=args.steps, seed=args.seed)
        _emit(
            {
                "states": list(result.labels),
                "visits": list(result.visits),
                "frequencies": [repr(f) for f in result.frequencies],
                "episodes": result.episodes,
                "mean_reset_time": repr(result.mean_reset_time),
                "steps": result.steps,
                "seed": result.seed,
            },
            args,
        )
        return EXIT_OK
    raise ParseFailure(f"unknown walk action {args.action!r}")


# ------------------------------------------------------ lattice and graph


def _cmd_lattice_census(args) -> int:
    try:
        alphabet = Alphabet.of_size(args.alphabet_size)
    except WordError as e:
        raise ParseFailure(f"-g: {e}") from e
    elements = congruences.enumerate_rc(alphabet, args.k, carrier_bound=args.carrier_bound)
    report = congruences.lattice_report(elements)
    wanted = args.checks or ["semimodular", "modular", "atomistic", "jordan_dedekind"]
    payload: dict = {
        "alphabet": alphabet.letters,
        "k": args.k,
        "count": report.size,
        "atoms": [str(elements[i]) for i in report.atoms],
        "checks": {name: report.flags[name] for name in wanted},
    }
    witnesses: dict = {}
    if "modular" in wanted and not report.modular:
        witnesses["pentagon"] = [str(elements[i]) for i in report.pentagon]
    if "semimodular" in wanted and not report.semimodular:
        witnesses["semimodular_pentagon"] = [str(elements[i]) for i in report.semimodular_pentagon]
    if "atomistic" in wanted and not report.atomistic:
        witnesses["not_join_of_atoms"] = str(elements[report.non_atomistic_witness])
    if "jordan_dedekind" in wanted and not report.jordan_dedekind:
        witnesses["unequal_chains"] = [
            [str(elements[i]) for i in chain] for chain in report.unequal_chains
        ]
    payload["witnesses"] = witnesses
    _emit(payload, args)
    return EXIT_OK


def _cmd_graph_dot(args) -> int:
    rc, _ = _read_congruence(args)
    _write(graphs.to_dot(graphs.cayley(rc)), args)
    return EXIT_OK


# ------------------------------------------------------------------ main


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    Building it costs more than a typical request, so it is done once per
    process, and lazily, so that importing the module stays cheap.  A parse
    leaves the parser unchanged: each call returns a fresh namespace.
    """
    parser = _Parser(prog="semwalk", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)

    rc = sub.add_parser("rc", help="right congruence operations")
    rc_sub = rc.add_subparsers(dest="action", required=True)
    for name in ["validate", "lower", "upper", "resets", "is-special"]:
        p = rc_sub.add_parser(name)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="out")
        p.set_defaults(func=_cmd_rc)
    p = rc_sub.add_parser("generate")
    p.add_argument("--in", dest="infile", required=True, help="JSON with alphabet, k, pairs")
    p.add_argument("--out", dest="out")
    p.set_defaults(func=_cmd_rc_generate)

    walk = sub.add_parser("walk", help="exact random-walk analytics")
    walk_sub = walk.add_subparsers(dest="action", required=True)
    p = walk_sub.add_parser("stationary")
    p.add_argument("--code", required=True, help="semaphore code JSON")
    p.add_argument("--pi", required=True)
    p.add_argument("--out", dest="out")
    p.set_defaults(func=_cmd_walk)
    for name in ["profile", "lumped"]:
        p = walk_sub.add_parser(name)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--pi", required=True)
        p.add_argument("--out", dest="out")
        p.set_defaults(func=_cmd_walk)
    p = walk_sub.add_parser("simulate")
    p.add_argument("--in", dest="infile", help="congruence JSON (walk on its reset code)")
    p.add_argument("--code", help="semaphore code JSON")
    p.add_argument("--pi", required=True)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out")
    p.set_defaults(func=_cmd_walk)

    lattice = sub.add_parser("lattice", help="lattice census over RC(A^k)")
    lat_sub = lattice.add_subparsers(dest="action", required=True)
    p = lat_sub.add_parser("census")
    p.add_argument("-g", "--alphabet-size", type=int, required=True)
    p.add_argument("-k", "--k", type=int, required=True)
    p.add_argument("--checks", nargs="*", choices=["semimodular", "modular", "atomistic", "jordan_dedekind"])
    p.add_argument("--carrier-bound", type=int, default=congruences.DEFAULT_CARRIER_BOUND)
    p.add_argument("--out", dest="out")
    p.set_defaults(func=_cmd_lattice_census)

    graph = sub.add_parser("graph", help="graph exports")
    graph_sub = graph.add_subparsers(dest="action", required=True)
    p = graph_sub.add_parser("dot")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="out")
    p.set_defaults(func=_cmd_graph_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ParseFailure as e:
        print(json.dumps({"error": "parse", "message": str(e)}), file=sys.stderr)
        return EXIT_PARSE
    except congruences.ClosureViolation as e:
        payload = {
            "error": "closure",
            "message": str(e),
            "witness": {"u": str(e.u), "v": str(e.v), "letter": str(e.letter)},
        }
        print(json.dumps(payload))
        return EXIT_VALIDATION
    except (congruences.BoundExceeded, WordLimitExceeded) as e:
        print(json.dumps({"error": "bound", "message": str(e)}), file=sys.stderr)
        return EXIT_BOUND
    except (congruences.NotAPartitionError, codes.CodeError, walks.WalkError, WordError, graphs.GraphError, congruences.CongruenceError) as e:
        print(json.dumps({"error": "validation", "message": str(e)}))
        return EXIT_VALIDATION
    except AssertionError as e:
        print(json.dumps({"error": "internal", "message": str(e)}), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
