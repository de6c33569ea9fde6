"""Seeded inputs for the workloads, written as the CLI's JSON input files.

Everything is drawn from one ``random.Random(seed)``, so the same seed gives
byte-identical files.  Congruences are built by the oracle's closure, never
by the program under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import oracle

ANALYZE_SETTINGS = ((2, 4), (2, 5), (3, 3))
ANALYZE_PER_SETTING = 40
# Every fifth input is a partition perturbed until it is not closed.
PERTURB_EVERY = 5
VALID_OPS = (
    ("rc", "generate"), ("rc", "validate"), ("rc", "lower"), ("rc", "upper"), ("rc", "resets"),
    ("rc", "is-special"), ("walk", "profile"), ("walk", "lumped"), ("graph", "dot"),
)
# A perturbed partition has no generating pairs, so it skips rc generate.
REJECT_OPS = VALID_OPS[1:]

# Stationary workload: the de Bruijn code of identity(ab, 8), plus one seeded
# code per (g, k, generator lengths, target word count).  Each seeded code is
# the nearest to its target of a fixed number of draws, so set-up does the
# same work for every seed; fixed denominators keep the exact arithmetic of
# every seed equally expensive.
# With the de Bruijn code a pass sends five stationary and two simulate
# requests, so the median latency is the middle of one request's latencies,
# not the boundary between two.
WALK_CODE_SHAPES = ((2, 8, (5, 7), 232), (2, 9, (4, 6), 290), (3, 5, (2, 4), 180), (3, 5, (2, 3), 110))
CODE_DRAWS = 64
PI_DENOMINATOR = {2: 5, 3: 7}
SIM_STEPS = 1_000_000
FIVE_CLASS = [["aaa", "baa", "aba"], ["bba"], ["aab", "bab"], ["abb"], ["bbb"]]
# (input kind, file, --pi, --seed) of the two seeded simulations whose
# outputs must stay byte-identical.
SIMULATIONS = (
    ("--in", "five_class.json", "a=1/2,b=1/2", 7),
    ("--code", "debruijn8.json", "a=2/5,b=3/5", 11),
)


def _pi(rng: random.Random, g: int) -> dict[str, Fraction]:
    d = PI_DENOMINATOR[g]
    while True:
        cuts = sorted(rng.sample(range(1, d), g - 1))
        nums = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        if all(nums):
            return {c: Fraction(n, d) for c, n in zip("abc"[:g], nums)}


def pi_arg(pi: dict[str, Fraction]) -> str:
    return ",".join(f"{c}={p}" for c, p in pi.items())


def _random_pairs(rng: random.Random, alphabet: str, k: int) -> list[tuple[str, str]]:
    """One to three pairs.  A pair that differs only in its first d letters
    merges little when d is small and collapses most of A^k when d = k, so
    drawing d uniformly spreads the block counts from 1 to g^k."""
    pairs = []
    for _ in range(rng.randint(1, 3)):
        u = "".join(rng.choice(alphabet) for _ in range(k))
        d = rng.randint(1, k)
        v = u
        while v == u:
            v = "".join(rng.choice(alphabet) for _ in range(d)) + u[d:]
        pairs.append((u, v))
    return pairs


def _perturb(rng: random.Random, alphabet: str, blocks) -> list[list[str]] | None:
    """Move one word to another block; None if every try stays closed."""
    if len(blocks) < 2:
        return None
    for _ in range(20):
        out = [list(b) for b in blocks]
        src = rng.choice([b for b in out if len(b) > 1] or out)
        w = src.pop(rng.randrange(len(src)))
        rng.choice([b for b in out if b is not src]).append(w)
        out = [b for b in out if b]
        if oracle.closure_witness(alphabet, out) is not None:
            return out
    return None


def _shuffled(rng: random.Random, blocks) -> list[list[str]]:
    """The same partition with block and word order scrambled, as a user
    might write it; outputs aligned to the input order must follow it."""
    out = [rng.sample(b, len(b)) for b in blocks]
    rng.shuffle(out)
    return out


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def analyze_corpus(seed: int, directory: Path) -> list[dict]:
    """Write the congruence corpus and return its request list, shuffled.

    Each request is a dict with ``argv`` and what its check needs.
    """
    rng = random.Random(seed)
    requests = []
    n = 0
    for g, k in ANALYZE_SETTINGS:
        alphabet = "abc"[:g]
        for j in range(ANALYZE_PER_SETTING):
            pairs = _random_pairs(rng, alphabet, k)
            blocks = oracle.closure(alphabet, k, pairs)
            reject = j % PERTURB_EVERY == PERTURB_EVERY - 1
            if reject:
                bad = None
                while bad is None:
                    bad = _perturb(rng, alphabet, blocks)
                    if bad is None:
                        pairs = _random_pairs(rng, alphabet, k)
                        blocks = oracle.closure(alphabet, k, pairs)
                blocks = bad
            raw = _shuffled(rng, blocks)
            pi = _pi(rng, g)
            # One file serves every command: rc generate reads "pairs", the
            # others read "blocks", and each ignores the other key.
            path = directory / f"case{n:03d}.json"
            _write(path, {"alphabet": alphabet, "k": k, "blocks": raw, "pairs": [list(p) for p in pairs]})
            case = {"alphabet": alphabet, "k": k, "blocks": raw, "pairs": pairs, "pi": pi, "reject": reject}
            for group, action in REJECT_OPS if reject else VALID_OPS:
                argv = [group, action, "--in", str(path)]
                if group == "walk":
                    argv += ["--pi", pi_arg(pi)]
                requests.append({"op": f"{group} {action}", "argv": argv, "case": case})
            n += 1
    rng.shuffle(requests)
    return requests


def _random_code(rng: random.Random, g: int, k: int, lens: tuple[int, int], target: int) -> list[str]:
    """Of CODE_DRAWS random semaphore codes, the one nearest target words.

    Each draw is the code of a two-sided ideal: the words containing one of
    a few random factors, plus A^k, and of these the suffix-minimal ones.
    """
    alphabet = "abc"[:g]
    short = [w for n in range(1, k) for w in oracle.words(alphabet, n)]
    draws = []
    for _ in range(CODE_DRAWS):
        gens = ["".join(rng.choice(alphabet) for _ in range(rng.randint(*lens))) for _ in range(rng.randint(2, 5))]
        members = {w for w in short if any(x in w for x in gens)} | set(oracle.words(alphabet, k))
        code = [w for w in members if not any(w[i:] in members for i in range(1, len(w)))]
        draws.append(sorted(code, key=lambda w: (len(w), w)))
    return min(draws, key=lambda c: abs(len(c) - target))


def stationary_inputs(seed: int, directory: Path) -> list[dict]:
    """Write the stationary workload's code files; return one request per code."""
    rng = random.Random(seed)
    codes = [(2, 8, oracle.words("ab", 8))]
    codes += [(g, k, _random_code(rng, g, k, lens, target)) for g, k, lens, target in WALK_CODE_SHAPES]
    requests = []
    for n, (g, k, code) in enumerate(codes):
        path = directory / f"code{n}.json"
        order = rng.sample(code, len(code))
        _write(path, {"alphabet": "abc"[:g], "code": order, "k": k, "infinite_tail": False})
        pi = _pi(rng, g)
        requests.append({
            "op": "walk stationary",
            "argv": ["walk", "stationary", "--code", str(path), "--pi", pi_arg(pi)],
            "order": order, "pi": pi,
        })
    return requests


def simulate_inputs(directory: Path) -> list[dict]:
    """Write the two simulated walks' input files; return their requests.

    The simulations are fixed, not drawn from the workload seed, so that
    their output can be compared byte for byte with a recorded digest.
    """
    debruijn = oracle.words("ab", 8)
    _write(directory / "five_class.json", {"alphabet": "ab", "k": 3, "blocks": FIVE_CLASS})
    _write(directory / "debruijn8.json", {"alphabet": "ab", "code": debruijn, "k": 8, "infinite_tail": False})
    states = {"five_class.json": oracle.reset_code("ab", 3, oracle.canon(FIVE_CLASS)), "debruijn8.json": debruijn}
    requests = []
    for kind, name, pi_text, sim_seed in SIMULATIONS:
        argv = ["walk", "simulate", kind, str(directory / name), "--pi", pi_text,
                "--steps", str(SIM_STEPS), "--seed", str(sim_seed)]
        requests.append({"op": "walk simulate", "argv": argv, "name": name, "pi_text": pi_text, "states": states[name]})
    return requests
