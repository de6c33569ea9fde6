"""Output checks: each takes a request and what the program printed, and
returns None when the output is right or a one-line reason when it is not.

Expected values come from ``oracle``, never from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import oracle

CENSUS_ARGV = ["lattice", "census", "-g", "3", "-k", "2", "--carrier-bound", "9"]
CENSUS_COUNT = 192
CENSUS_FLAGS = {"semimodular": True, "modular": False, "atomistic": False, "jordan_dedekind": True}

# sha256 of the stdout of each seeded simulation in inputs.SIMULATIONS, as
# printed by the seed version of semwalk.
SIMULATION_DIGESTS = {
    "five_class.json": "fec302b3c15f3a8afdcc0a34cdc16a91b193c9691c78b1250a31f69f01030ec8",
    "debruijn8.json": "e48a874b7c48a8616f7d3be959acacc863e63719a1203db2bc7c9ecd29b33e4e",
}


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _expect_exit(code, want: int, err: str) -> str | None:
    if code != want:
        return f"exit {code}, expected {want}: {err.strip()[:200]}"
    return None


# ------------------------------------------------------------------ census


def check_census(code, out: str, err: str) -> str | None:
    bad = _expect_exit(code, 0, err)
    if bad:
        return bad
    got = _json(out)
    if got is None:
        return "census output is not JSON"
    alphabet, k = "abc", 2
    if got.get("count") != CENSUS_COUNT or got.get("checks") != CENSUS_FLAGS:
        return f"census count/flags {got.get('count')} {got.get('checks')}"
    witnesses = got.get("witnesses", {})
    if set(witnesses) != {"pentagon", "not_join_of_atoms"}:
        return f"census witnesses {sorted(witnesses)}"

    parsed = [oracle.parse_rendered(t) for t in witnesses["pentagon"] + [witnesses["not_join_of_atoms"]] + got["atoms"]]
    if not all(oracle.is_congruence(alphabet, k, p) for p in parsed):
        return "census witness is not a right congruence"
    a, b, c, d, e = parsed[:5]

    def below(x, y):
        return x != y and oracle.refines(x, y)

    if not (below(e, c) and below(c, b) and below(b, a) and below(e, d) and below(d, a)):
        return "pentagon witness is not ordered as a pentagon"
    if any(oracle.meet(x, d) != e or oracle.join(alphabet, k, x, d) != a for x in (b, c)):
        return "pentagon witness fails its meet/join equations"

    carrier = oracle.words(alphabet, k)
    principal = {tuple(map(tuple, oracle.closure(alphabet, k, [(u, v)]))) for i, u in enumerate(carrier) for v in carrier[i + 1:]}
    principal = [[list(b) for b in p] for p in principal]
    atoms = sorted(p for p in principal if not any(q != p and oracle.refines(q, p) for q in principal))
    if sorted(parsed[6:]) != atoms:
        return "census atoms differ from the minimal principal congruences"
    x = parsed[5]
    acc = [[w] for w in carrier]
    for atom in atoms:
        if oracle.refines(atom, x):
            acc = oracle.join(alphabet, k, acc, atom)
    if acc == x:
        return "not_join_of_atoms witness is the join of its atoms"
    return None


# ----------------------------------------------------------------- analyze


def _congruence_payload(payload, alphabet: str, k: int):
    if not isinstance(payload, dict) or payload.get("alphabet") != alphabet or payload.get("k") != k:
        return None
    blocks = payload.get("blocks")
    return blocks if oracle.is_congruence(alphabet, k, blocks) and blocks == oracle.canon(blocks) else None


def _code_payload_ok(payload, alphabet: str, k: int, code) -> bool:
    want = {"alphabet": alphabet, "code": code, "k": k, "infinite_tail": False}
    if code == [""]:
        want["epsilon"] = True
    return payload == want


def check_analyze(req: dict, code, out: str, err: str) -> str | None:
    case = req["case"]
    alphabet, k, raw, pi = case["alphabet"], case["k"], case["blocks"], case["pi"]
    if case["reject"]:
        bad = _expect_exit(code, 1, err)
        if bad:
            return bad
        got = _json(out) or {}
        wit = got.get("witness") or {}
        u, v, a = wit.get("u"), wit.get("v"), wit.get("letter")
        at = oracle.block_index(raw)
        if got.get("error") != "closure" or u not in at or v not in at or a not in alphabet:
            return f"rejection without a closure witness: {out.strip()[:200]}"
        if at[u] != at[v] or at[u[1:] + a] == at[v[1:] + a]:
            return f"closure witness ({u}, {v}, {a}) does not hold on the input"
        return None

    bad = _expect_exit(code, 0, err)
    if bad:
        return bad
    op = req["op"]
    blocks = oracle.canon(raw)
    if op == "graph dot":
        return None if out == oracle.cayley_dot(alphabet, blocks) else "DOT output differs from the Cayley graph"
    got = _json(out)
    if got is None:
        return f"{op}: output is not JSON"
    resets = oracle.reset_code(alphabet, k, blocks)
    lower = oracle.tau(alphabet, k, resets)

    if op == "rc generate":
        ok = _congruence_payload(got.get("congruence"), alphabet, k) == oracle.closure(alphabet, k, case["pairs"])
    elif op == "rc validate":
        ok = got.get("valid") is True and _congruence_payload(got.get("congruence"), alphabet, k) == blocks
    elif op == "rc lower":
        out_rc = _congruence_payload(got.get("congruence"), alphabet, k)
        ok = out_rc is not None and oracle.refines(out_rc, blocks) and out_rc == lower
        ok = ok and _code_payload_ok(got.get("code"), alphabet, k, resets)
    elif op == "rc upper":
        upper_code = oracle.upper_code(alphabet, k, blocks)
        out_rc = _congruence_payload(got.get("congruence"), alphabet, k)
        ok = out_rc is not None and oracle.refines(blocks, out_rc) and out_rc == oracle.tau(alphabet, k, upper_code)
        ok = ok and _code_payload_ok(got.get("code"), alphabet, k, upper_code)
    elif op == "rc resets":
        ok = _code_payload_ok(got, alphabet, k, resets)
    elif op == "rc is-special":
        ok = got == {"special": lower == blocks}
    elif op == "walk profile":
        cumulative, increments, hitting = oracle.reset_profile(pi, k, resets)
        ok = got == {"P": [str(x) for x in cumulative], "p": [str(x) for x in increments], "t": str(hitting)}
        ok = ok and cumulative[-1] == 1
    elif op == "walk lumped":
        order = [sorted(b) for b in raw]
        law, matrix = oracle.class_chain(pi, order)
        ok = got == {
            "blocks": order,
            "stationary": [str(x) for x in law],
            "matrix": [[str(x) for x in row] for row in matrix],
        } and sum(law) == 1
    else:
        return f"unknown op {op}"
    return None if ok else f"{op}: output differs from the oracle: {out.strip()[:200]}"


# -------------------------------------------------------------------- walk


def check_stationary(req: dict, code, out: str, err: str) -> str | None:
    bad = _expect_exit(code, 0, err)
    if bad:
        return bad
    got = _json(out) or {}
    order, pi = req["order"], req["pi"]
    if got.get("states") != order:
        return "stationary states are not in input order"
    values = got.get("stationary")
    if not isinstance(values, list) or len(values) != len(order):
        return "stationary vector has the wrong length"
    if any(Fraction(x) != oracle.word_prob(pi, w) for x, w in zip(values, order)):
        return "stationary vector differs from the letter-probability products"
    return None


def check_simulation(req: dict, code, out: str, err: str) -> str | None:
    bad = _expect_exit(code, 0, err)
    if bad:
        return bad
    got = _json(out) or {}
    states = req["states"]
    pi = {c: Fraction(p) for c, p in (item.split("=") for item in req["pi_text"].split(","))}
    steps = got.get("steps")
    if got.get("states") != states or steps is None or sum(got.get("visits", [])) != steps:
        return "simulation states or visit counts are inconsistent"
    k = max(len(s) for s in states)
    for s, visits in zip(states, got["visits"]):
        p = oracle.word_prob(pi, s)
        # Visits within k steps of each other are dependent; allow k-fold variance.
        if abs(visits / steps - p) > 6 * math.sqrt(float(p * (1 - p)) * k / steps) + 1e-9:
            return f"simulated frequency of {s} is far from {p}"
    if hashlib.sha256(out.encode()).hexdigest() != SIMULATION_DIGESTS[req["name"]]:
        return f"seeded simulation on {req['name']} is not byte-identical to the recorded output"
    return None
