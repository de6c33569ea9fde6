"""The integer kernels of semwalk against Word-level definitions.

Congruences: the oracles below work on pair sets of words and on the
truncated product, as in the definitions, and share no code with the
kernel: a relation is a set of (u, v) word pairs, its right-congruence
closure is a fixpoint of symmetry, transitivity and (u, v) -> (u*a, v*a).

Codes and walks: the action table against ``code_action`` entry by entry,
the sparse walk step against the dense transition matrix and the Gaussian
solver, the integer fixpoint check against ``advance``, the simulator at
every chunk length against the buffer-slicing loop of an earlier version,
and its blocked letter stream against one ``randrange`` draw per letter.  The
integer reset, suffix-class, lcs and ideal scans of ``codes`` against the
Word-level scans they replaced, copied below; its keyed semaphore test,
``IdealRep`` checks (the cover sum included), ``restrict_k``,
``in_ideal``, ``tau_of`` and ideal meet, join and order against pairwise
``is_suffix`` scans; a code's suffix view against one ``_suffix_keys``
scan per word, and the action table and ``tau_of`` read from it against
``is_semaphore``, ``code_action`` and ``validate``, with no suffix scan on
a covering semaphore code, nor in the reset, lcs and ideal constructions,
which read a painting too; the one-word scan of the action table on a code
too long to view; and the integer ``word_prob`` and sparse ``left_apply``
against their Fraction loops.

Lattice order: ``enumerate_rc`` (join closure of the principal
congruences) against ``enumerate_all``, its join graph (most joins read off
finished rows) against ``oracles.join_graph`` (every join computed), the
(2,4) graph included, its principal congruences from their right
translates against the closure of each pair, its star sort key against
the order of ``_blocks`` on every partition of up to 8 points, the
equivalence join against the
action-closure join, the star-string kernel ``_join_star`` against ``join``
and the census join counts, and ``lattice_report`` (order bitsets, local cover
checks, a join-irreducible closure certificate) against a copy of the
cubic report it replaced, on the enumerable lattices and on sublattices of
RC(abc, 2); the (2,4) lattice against the public meet, join and refines;
and ``lattice_census`` (the report read off the enumeration's joins, with
a meet certificate) against ``lattice_report`` of ``enumerate_rc``.
"""

import contextlib
import io
import itertools
import json
import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semwalk import (
    Alphabet,
    BoundExceeded,
    ClosureViolation,
    CodeError,
    CongruenceError,
    IdealRep,
    LatticeReport,
    LetterDistribution,
    SemaphoreCode,
    WalkError,
    Word,
    action_table,
    advance,
    code_action,
    enumerate_all,
    enumerate_ideals,
    enumerate_rc,
    epsilon,
    from_generators,
    generate,
    ideal_join,
    ideal_leq,
    ideal_meet,
    identity,
    is_factor,
    is_semaphore,
    is_special,
    is_suffix,
    join,
    lambda_of,
    lattice_census,
    lattice_report,
    lcs,
    lcs_of,
    lower_approx,
    meet,
    product,
    reset_code,
    restrict_k,
    simulate,
    solve_stationary,
    stationary,
    suffix_classes,
    tau_of,
    transition_matrix,
    universal,
    upper_approx,
    validate,
    words_of_length,
)
from semwalk import codes, congruences, oracles, walks
from semwalk.cli import main
from semwalk.constructions import ideal_from_members
from semwalk.oracles import SemaphoreCheck, suffixes, words_up_to_length
from semwalk.words import WordLimitExceeded

SETTINGS = [(2, 2), (2, 3), (3, 1), (3, 2)]


def pair_set(rc):
    """The relation of a congruence as word pairs, diagonal included."""
    return {(u, v) for blk in rc.blocks for u in blk for v in blk}


def oracle_closure(alphabet, k, pairs):
    """Smallest right congruence containing the pairs, as a pair set."""
    rel = {(w, w) for w in words_of_length(alphabet, k)} | set(pairs)
    while True:
        new = set(rel)
        new |= {(v, u) for u, v in rel}
        new |= {(u, w) for u, v in rel for v2, w in rel if v == v2}
        new |= {(product(u, a, k), product(v, a, k)) for u, v in rel for a in alphabet}
        if new == rel:
            return rel
        rel = new


def oracle_witness(alphabet, k, blocks):
    """First (u, v, a) over sorted blocks, ordered by least word, with u the
    least word, v another word of its block, and u*a, v*a in different blocks."""
    block_of = {w: i for i, blk in enumerate(blocks) for w in blk}
    for blk in sorted((sorted(b) for b in blocks), key=lambda b: b[0]):
        u = blk[0]
        for v in blk[1:]:
            for a in alphabet:
                if block_of[product(u, a, k)] != block_of[product(v, a, k)]:
                    return u, v, a
    return None


def blocks_of_relation(relation):
    classes = {}
    for u, v in relation:
        classes.setdefault(u, set()).add(v)
    return [sorted(c) for c in {frozenset(c) for c in classes.values()}]


@st.composite
def setting_and_pairs(draw, count=2):
    g, k = draw(st.sampled_from(SETTINGS))
    alphabet = Alphabet.of_size(g)
    carrier = words_of_length(alphabet, k)
    word = st.sampled_from(carrier)
    pair_sets = [draw(st.sets(st.tuples(word, word), max_size=3)) for _ in range(count)]
    return alphabet, k, pair_sets


def congruence_of(alphabet, k, pairs):
    return validate(alphabet, k, blocks_of_relation(oracle_closure(alphabet, k, pairs)))


@given(setting_and_pairs(count=1))
@settings(max_examples=60, deadline=None)
def test_generate_matches_oracle_closure(case):
    alphabet, k, (pairs,) = case
    assert pair_set(generate(pairs, alphabet, k)) == oracle_closure(alphabet, k, pairs)


@given(setting_and_pairs())
@settings(max_examples=60, deadline=None)
def test_join_is_generate_of_union(case):
    alphabet, k, (p1, p2) = case
    r1, r2 = congruence_of(alphabet, k, p1), congruence_of(alphabet, k, p2)
    joined = join(r1, r2)
    assert joined == generate(r1.pairs() | r2.pairs(), alphabet, k)
    assert pair_set(joined) == oracle_closure(alphabet, k, pair_set(r1) | pair_set(r2))


@given(setting_and_pairs())
@settings(max_examples=60, deadline=None)
def test_meet_is_intersection_and_refines_is_inclusion(case):
    alphabet, k, (p1, p2) = case
    r1, r2 = congruence_of(alphabet, k, p1), congruence_of(alphabet, k, p2)
    assert pair_set(meet(r1, r2)) == pair_set(r1) & pair_set(r2)
    assert r1.refines(r2) == (pair_set(r1) <= pair_set(r2))
    assert r2.refines(r1) == (pair_set(r2) <= pair_set(r1))


@given(setting_and_pairs(count=1))
@settings(max_examples=60, deadline=None)
def test_labels_round_trip_to_blocks(case):
    alphabet, k, (pairs,) = case
    rc = congruence_of(alphabet, k, pairs)
    carrier = words_of_length(alphabet, k)
    rebuilt = {}
    for w, label in zip(carrier, rc.labels):
        rebuilt.setdefault(label, []).append(w)
    assert sorted(rebuilt) == list(range(len(rc.blocks)))
    assert tuple(tuple(rebuilt[b]) for b in range(len(rc.blocks))) == rc.blocks
    for b, blk in enumerate(rc.blocks):
        for a in alphabet:
            assert rc.step(b, a) == rc.block_of[product(blk[0], a, k)]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_validate_accepts_exactly_the_closed_partitions(data):
    g, k = data.draw(st.sampled_from(SETTINGS))
    alphabet = Alphabet.of_size(g)
    carrier = words_of_length(alphabet, k)
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(carrier), max_size=len(carrier)))
    blocks = [[w for w, b in zip(carrier, labels) if b == label] for label in sorted(set(labels))]
    expected = oracle_witness(alphabet, k, blocks)
    try:
        rc = validate(alphabet, k, blocks)
    except ClosureViolation as e:
        assert (e.u, e.v, e.letter) == expected
    else:
        assert expected is None
        assert pair_set(rc) == {(u, v) for blk in blocks for u in blk for v in blk}


def test_enumerate_all_counts_and_every_element_validates():
    for (g, k), count in {(2, 2): 5, (2, 3): 30, (4, 1): 15, (3, 2): 192}.items():
        alphabet = Alphabet.of_size(g)
        elements = enumerate_all(alphabet, k, carrier_bound=9)
        assert len(elements) == count
        assert len({rc.labels for rc in elements}) == count
        for rc in elements:
            assert validate(alphabet, k, [list(blk) for blk in rc.blocks]) == rc


@pytest.mark.parametrize("letters, k", [("ab", 3), ("abc", 2)])
def test_labels_and_blocks_are_the_same_key(letters, k):
    alphabet = Alphabet(letters)
    rcs = enumerate_rc(alphabet, k, carrier_bound=9)
    assert len(set(rcs)) == len({rc.blocks for rc in rcs}) == len(rcs)
    for rc in rcs:
        assert validate(alphabet, k, rc.blocks) == rc


# ------------------------------------------------------------ codes, walks

IDEAL_SETTINGS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]


@pytest.fixture(scope="module")
def enumerated_ideals():
    return {(g, k): enumerate_ideals(Alphabet.of_size(g), k) for g, k in IDEAL_SETTINGS}


def oracle_table(code):
    index = {w: i for i, w in enumerate(code.words)}
    return [[index[code_action(code, s, a)] for a in code.alphabet] for s in code.words]


def first_action_error(code):
    """Message of the first (s, a), in row-major order, that code_action rejects."""
    for s in code.words:
        for a in code.alphabet:
            try:
                code_action(code, s, a)
            except CodeError as e:
                return str(e)
    return None


def distribution(alphabet, weights):
    return LetterDistribution(alphabet, tuple(Fraction(w, sum(weights)) for w in weights))


@st.composite
def generated_ideals(draw):
    """restrict_k of the semaphore code generated by 1-3 random words."""
    g = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 4 if g == 2 else 3))
    alphabet = Alphabet.of_size(g)
    word = st.lists(st.integers(0, g - 1), min_size=1, max_size=k).map(lambda idx: Word(alphabet, idx))
    gens = draw(st.sets(word, min_size=1, max_size=3))
    return restrict_k(from_generators(alphabet, gens, k), k)


def test_action_table_matches_code_action_on_every_enumerated_ideal(enumerated_ideals):
    # An ideal's table, read with no second semaphore test, is the checked one.
    for ideals in enumerated_ideals.values():
        for ideal in ideals:
            for table in (lambda: action_table(ideal.code), lambda: list(map(list, ideal.table))):
                if ideal.code.is_epsilon:
                    with pytest.raises(CodeError, match="not defined on the epsilon code"):
                        table()
                    continue
                assert table() == oracle_table(ideal.code)


def test_action_table_refuses_what_an_ideal_refuses():
    # {a, b, ba} has no view, as a is a suffix of ba; the action on it would
    # still find a code suffix of every s+a.
    code = pinned_code(["a", "b", "ba"])
    assert code.suffix_index is None and first_action_error(code) is None
    for refused in (lambda: action_table(code), lambda: IdealRep(code, 2)):
        with pytest.raises(CodeError) as info:
            refused()
        assert str(info.value) == "not a suffix code: a is a suffix of ba"
    # The empty word is refused before the suffix-code scan would name it.
    for texts in (["", "a", "b"], [""]):
        with pytest.raises(CodeError, match="^the action is not defined on the epsilon code$"):
            action_table(pinned_code(texts))


@given(generated_ideals())
@settings(max_examples=80, deadline=None)
def test_action_table_matches_code_action_on_generated_codes(ideal):
    assert action_table(ideal.code) == oracle_table(ideal.code)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_action_table_raises_the_first_code_action_error(data):
    # Truncated codes leave the known part: the action fails at some (s, a).
    g = data.draw(st.sampled_from([2, 3]))
    alphabet = Alphabet.of_size(g)
    word = st.lists(st.integers(0, g - 1), min_size=1, max_size=3).map(lambda idx: Word(alphabet, idx))
    gens = data.draw(st.sets(word, min_size=1, max_size=3))
    code = from_generators(alphabet, gens, data.draw(st.integers(max(len(x) for x in gens), 4)))
    expected = first_action_error(code)
    if expected is None:
        assert action_table(code) == oracle_table(code)
    else:
        with pytest.raises(CodeError) as info:
            action_table(code)
        assert str(info.value) == expected


def test_action_table_rejects_a_covering_code_that_is_not_semaphore():
    ab = Alphabet("ab")
    code = SemaphoreCode(ab, tuple(ab.word(w) for w in ["a", "aab", "bab", "abb", "bbb"]))
    message = "no suffix of ab in the code; code is not semaphore or is truncated"
    assert first_action_error(code) == message
    for refused in (lambda: action_table(code), lambda: IdealRep(code, 3)):
        with pytest.raises(CodeError) as info:
            refused()
        assert str(info.value) == message


@given(generated_ideals(), st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_step_matches_dense_matrix_and_solver(ideal, data):
    n, g = len(ideal.code.words), ideal.alphabet.size
    pi = distribution(ideal.alphabet, data.draw(st.lists(st.integers(1, 9), min_size=g, max_size=g)))
    vec = tuple(Fraction(x, 7) for x in data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    matrix = transition_matrix(ideal, pi)
    nxt = action_table(ideal.code)
    assert advance(nxt, pi, vec) == matrix.left_apply(vec)
    fixed = stationary(ideal, pi)
    assert advance(nxt, pi, fixed.values) == fixed.values
    if n <= 30:
        assert solve_stationary(matrix).values == fixed.values


def buffer_slicing_simulate(ideal, pi, steps, seed):
    """The simulator loop before the action table: per-step code_action
    table, suffix slices of a letter buffer and set lookups per length."""
    code = ideal.code
    denom = lcm(*(p.denominator for p in pi.probs))
    cuts, acc = [], 0
    for p in pi.probs:
        acc += int(p * denom)
        cuts.append(acc)
    table = oracle_table(code)
    by_len = {}
    for s in code.words:
        by_len.setdefault(len(s), set()).add(s.indices)
    lens = sorted(by_len)
    rng = random.Random(seed)
    state, visits, buffer, episodes, total = 0, [0] * len(code.words), [], 0, 0
    for _ in range(steps):
        r = rng.randrange(denom)
        letter = next(i for i, c in enumerate(cuts) if r < c)
        state = table[state][letter]
        visits[state] += 1
        buffer.append(letter)
        for n in lens:
            if n <= len(buffer) and tuple(buffer[-n:]) in by_len[n]:
                episodes += 1
                total += len(buffer)
                buffer.clear()
                break
    return tuple(visits), episodes, total / episodes if episodes else float("nan")


def test_simulate_matches_the_buffer_slicing_loop(enumerated_ideals, five_class):
    ab, abc = Alphabet("ab"), Alphabet("abc")
    cases = [
        (reset_code(five_class), distribution(ab, [1, 2]), 20_000),
        (restrict_k(from_generators(ab, {ab.word("b")}, 4), 3), distribution(ab, [3, 4]), 20_000),
        (enumerated_ideals[2, 4][200], distribution(ab, [2, 5]), 20_000),
        (enumerated_ideals[3, 2][4], distribution(abc, [1, 2, 3]), 10_000),
    ]
    cases += [(ideal, distribution(ab, [1, 1]), 2_000) for ideal in enumerated_ideals[2, 3][:-1:4]]
    for ideal, pi, steps in cases:
        for seed in (1, 2, 2024):
            got = simulate(ideal, pi, steps=steps, seed=seed)
            assert (got.visits, got.episodes, got.mean_reset_time) == buffer_slicing_simulate(ideal, pi, steps, seed)


# Denominators of every bit length up to 10, and wider ones that take a
# ``randrange`` draw per letter.  ``randrange(d)`` redraws when its
# ``d.bit_length()`` bits reach d: powers of two redraw nearly half the time,
# 255 and 511 almost never.
STREAM_DENOMINATORS = [1, 2, 3, 5, 7, 9, 17, 33, 100, 128, 129, 255, 256, 257, 300, 511, 512, 513, 2**16 + 1, 2**32 + 1]


def random_cuts(rng, denom):
    g = rng.randint(1, min(denom, 5))
    return sorted(rng.sample(range(1, denom), g - 1)) + [denom]


def test_letter_blocks_are_the_randrange_stream():
    """The blocked letters equal one ``randrange`` draw per letter, which pins
    how CPython's ``randrange`` reads its 32-bit outputs."""
    rng = random.Random(0)
    for denom in [*range(1, 301), *STREAM_DENOMINATORS]:
        for seed in (1, 2, 2024):
            cuts = random_cuts(rng, denom)
            draw = random.Random(seed).randrange
            expected = bytes(bisect_right(cuts, draw(denom)) for _ in range(300))
            for n in (1, 300):
                assert b"".join(walks._letter_blocks(random.Random(seed), denom, cuts, n)) == expected[:n]
    block = walks._BLOCK
    for denom in STREAM_DENOMINATORS:
        for seed in (3, 1009):
            cuts = random_cuts(rng, denom)
            draw = random.Random(seed).randrange
            expected = bytes(bisect_right(cuts, draw(denom)) for _ in range(3 * block + 7))
            for n in (1, block - 1, block, block + 1, 3 * block + 7):
                blocks = list(walks._letter_blocks(random.Random(seed), denom, cuts, n))
                assert b"".join(blocks) == expected[:n]
                assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)


def test_simulate_matches_the_buffer_slicing_loop_on_wide_and_rejecting_draws(enumerated_ideals):
    ab, abc, abcd = (Alphabet.of_size(g) for g in (2, 3, 4))
    g3 = restrict_k(from_generators(abc, {abc.word("ab"), abc.word("cc")}, 3), 3)
    g4 = restrict_k(from_generators(abcd, {abcd.word("ad"), abcd.word("c"), abcd.word("bdb")}, 3), 3)
    assert len(g3.code.words) > 3 and len(g4.code.words) > 4
    cases = [
        (enumerated_ideals[2, 4][200], distribution(ab, [200, 313])),
        (enumerated_ideals[2, 4][200], distribution(ab, [1, 1])),
        (enumerated_ideals[2, 3][5], distribution(ab, [4, 5])),
        (enumerated_ideals[2, 3][5], distribution(ab, [100, 157])),
        (g3, distribution(abc, [2, 3, 4])),
        (g3, distribution(abc, [100, 150, 263])),
        (g4, distribution(abcd, [1, 1, 1, 6])),
        (g4, distribution(abcd, [1, 2, 3, 251])),
    ]
    block = walks._BLOCK
    for i, (ideal, pi) in enumerate(cases):
        for steps in (block - 1, block, block + 1):
            got = simulate(ideal, pi, steps=steps, seed=i)
            assert (got.visits, got.episodes, got.mean_reset_time) == buffer_slicing_simulate(ideal, pi, steps, i)


# The chunked loop at every chunk length m a code allows, forced through
# ``_chunk_length``: step counts below, at and just past m, and past one
# and two letter blocks, so that chunks straddle the block boundary and a
# tail shorter than m is left at the end.
@lru_cache(maxsize=None)
def chunk_cases():
    ab, abc, abcd = (Alphabet.of_size(g) for g in (2, 3, 4))
    five = validate(ab, 3, [[ab.word(w) for w in blk.split()] for blk in ["aaa baa aba", "bba", "aab bab", "abb", "bbb"]])
    g3 = restrict_k(from_generators(abc, {abc.word("ab"), abc.word("cc")}, 3), 3)
    g4 = restrict_k(from_generators(abcd, {abcd.word("ad"), abcd.word("c"), abcd.word("bdb")}, 3), 3)
    a = Alphabet("a")
    return (
        (reset_code(five), distribution(ab, [1, 2])),
        (reset_code(five), distribution(ab, [200, 313])),  # 9-bit denominator: one randrange per letter
        (g3, distribution(abc, [2, 3, 4])),
        (g3, distribution(abc, [100, 150, 263])),
        (g4, distribution(abcd, [1, 2, 3, 4])),
        (IdealRep(SemaphoreCode(a, (a.word("aa"),)), 2), LetterDistribution.uniform(a)),  # one word
    )


def exact(visits, episodes, mean):
    """The outcome with the mean as its repr, so that nan equals nan."""
    return visits, episodes, repr(mean)


@lru_cache(maxsize=None)
def chunk_oracle(case, steps):
    ideal, pi = chunk_cases()[case]
    return exact(*buffer_slicing_simulate(ideal, pi, steps, case))


@pytest.mark.parametrize("case", range(6))
def test_the_chunked_loop_matches_the_buffer_slicing_loop_at_every_chunk_length(monkeypatch, case):
    ideal, pi = chunk_cases()[case]
    g, block = ideal.alphabet.size, walks._BLOCK
    for m in [m for m in range(1, 9) if g**m <= 256]:
        monkeypatch.setattr(walks, "_chunk_length", lambda g, states, steps: m)
        for steps in sorted({1, 2, 3, max(m - 1, 1), m, m + 1, block - 1, block + 1 + m // 2, 2 * block + m - 1}):
            got = simulate(ideal, pi, steps=steps, seed=case)
            assert exact(got.visits, got.episodes, got.mean_reset_time) == chunk_oracle(case, steps), (m, steps)


def test_chunk_length_follows_the_alphabet_and_the_table_size():
    assert walks._chunk_length(2, 2048, 10**6) == 4  # the 256-word code of identity(ab, 8)
    assert walks._chunk_length(2, 16, 10**6) == 8  # the five-class reset code
    assert walks._chunk_length(3, 1, 10**9) == 5
    assert walks._chunk_length(4, 1, 10**9) == 4
    assert walks._chunk_length(1, 2, 10**6) == 8
    assert walks._chunk_length(17, 1, 10**9) == 1
    assert walks._chunk_length(2, 16, 16 * 16 * 4 - 1) == 1
    assert walks._chunk_length(2, 16, 16 * 16 * 4) == 2


def test_a_code_large_against_the_steps_walks_a_letter_at_a_time(enumerated_ideals):
    ideal, pi = enumerated_ideals[2, 4][200], distribution(Alphabet("ab"), [2, 5])
    states = sum(len(w) for w in ideal.code.words)
    for steps in (1, 2, 3, 16 * states * 4 - 1):
        assert walks._chunk_length(2, states, steps) == 1
        got = simulate(ideal, pi, steps=steps, seed=steps)
        assert exact(got.visits, got.episodes, got.mean_reset_time) == exact(*buffer_slicing_simulate(ideal, pi, steps, steps))
    assert walks._chunk_length(2, states, 16 * states * 4) == 2


def test_the_epsilon_code_has_no_chain_to_simulate():
    ab = Alphabet("ab")
    ideal = IdealRep(SemaphoreCode(ab, (epsilon(ab),)), 2)
    with pytest.raises(CodeError, match="no chain to simulate"):
        simulate(ideal, LetterDistribution.uniform(ab), steps=10, seed=1)


@pytest.mark.parametrize("g, k", [(2, 3), (3, 2)])
def test_the_integer_fixpoint_check_agrees_with_advance(enumerated_ideals, g, k):
    alphabet = Alphabet.of_size(g)
    pi = distribution(alphabet, [3, 4, 6][:g])
    for ideal in enumerated_ideals[g, k]:
        if ideal.code.is_epsilon:
            continue
        nxt, fixed = action_table(ideal.code), stationary(ideal, pi).values
        assert advance(nxt, pi, fixed) == fixed
        scale = lcm(*(v.denominator for v in fixed))
        weights = [v.numerator * (scale // v.denominator) for v in fixed]
        assert walks._is_fixpoint(nxt, pi, weights)
        assert walks._is_fixpoint(nxt, pi, [7 * x for x in weights])
        if len(weights) > 1:
            moved = [weights[0] + 1, weights[1] - 1, *weights[2:]]
            vec = tuple(Fraction(x, scale) for x in moved)
            assert not walks._is_fixpoint(nxt, pi, moved)
            assert advance(nxt, pi, vec) != vec


GOLDEN = Path(__file__).parent / "golden"


def word_route_stationary(alphabet, k, texts, pi):
    """``walk stationary`` at the Word level: each word parsed, the code
    built from words, and the vector's Fractions summed to 1."""
    vec = stationary(IdealRep(SemaphoreCode(alphabet, tuple(alphabet.word(t) for t in texts)), k), pi).as_dict()
    assert sum(vec.values(), Fraction(0)) == 1
    return [str(vec[t]) for t in texts]


def key_route_stationary(tmp_path, payload, pi_text):
    """``walk stationary`` through the CLI, which reads the file to keys."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps(payload))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["walk", "stationary", "--code", str(path), "--pi", pi_text]) == 0
    got = json.loads(out.getvalue())
    assert got["states"] == payload["code"]
    return got["stationary"]


@pytest.mark.parametrize("name, pi_text", [("code_g2.json", "a=2/7,b=5/7"), ("code_g3.json", "a=1/6,b=1/3,c=1/2")])
def test_the_key_route_matches_the_word_route_on_the_golden_codes(tmp_path, name, pi_text):
    payload = json.loads((GOLDEN / name).read_text())
    alphabet = Alphabet(payload["alphabet"])
    expected = word_route_stationary(alphabet, payload["k"], payload["code"], LetterDistribution.parse(alphabet, pi_text))
    assert key_route_stationary(tmp_path, payload, pi_text) == expected


@pytest.mark.parametrize("g, k", [(2, 3), (3, 2)])
def test_the_key_route_matches_the_word_route_on_every_enumerated_code(tmp_path, enumerated_ideals, g, k):
    alphabet, rng = Alphabet.of_size(g), random.Random(g * 10 + k)
    pi = distribution(alphabet, [3, 4, 6][:g])
    pi_text = ",".join(f"{c}={p}" for c, p in zip(alphabet.letters, pi.probs))
    for ideal in enumerated_ideals[g, k]:
        if ideal.code.is_epsilon:
            continue
        texts = rng.sample([str(w) for w in ideal.code.words], len(ideal.code.words))
        payload = {"alphabet": alphabet.letters, "code": texts, "k": k}
        assert key_route_stationary(tmp_path, payload, pi_text) == word_route_stationary(alphabet, k, texts, pi)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_the_integer_weights_match_word_prob(data):
    g = data.draw(st.integers(1, 4))
    alphabet = Alphabet.of_size(g)
    pi = distribution(alphabet, data.draw(st.lists(st.integers(1, 9), min_size=g, max_size=g)))
    lengths = data.draw(st.lists(st.integers(0, 14), max_size=40))
    keys = [(n, data.draw(st.integers(0, g**n - 1))) for n in lengths]
    top = max(lengths, default=0) + data.draw(st.integers(0, 2))
    scale = pi._denominator**top
    assert walks._weights(pi, keys, top) == [pi.word_prob(alphabet.word_at(n, x)) * scale for n, x in keys]


@pytest.mark.parametrize("scale", [0, 2])
def test_stationary_raises_when_the_weights_do_not_sum_to_one(monkeypatch, five_class, scale):
    # Any multiple of the weights is a fixpoint too; only the sum rejects it.
    ideal, pi = reset_code(five_class), distribution(Alphabet("ab"), [1, 2])
    weights = walks._weights
    monkeypatch.setattr(walks, "_weights", lambda *args: [scale * w for w in weights(*args)])
    with pytest.raises(WalkError, match="must sum to 1"):
        walks.stationary_weights(ideal, pi)


def test_stationary_raises_when_the_table_does_not_fix_the_word_probabilities(monkeypatch, five_class):
    ideal, pi = reset_code(five_class), distribution(Alphabet("ab"), [1, 2])
    vec = stationary(ideal, pi).values
    wrong = [row[::-1] for row in action_table(ideal.code)]  # each letter acts as the other
    assert advance(wrong, pi, vec) != vec
    monkeypatch.setattr(walks, "_code_table", lambda ideal, pi: wrong)
    with pytest.raises(AssertionError, match="not a fixpoint"):
        stationary(ideal, pi)


# ------------------------------------------------- Word-level code scans

# The scans of ``codes`` as they were before they moved onto integers.


def word_reset_code(rc):
    if rc.is_universal:
        return IdealRep(SemaphoreCode(rc.alphabet, (epsilon(rc.alphabet),)), rc.k)
    found = []
    for length in range(1, rc.k + 1):
        for w in words_of_length(rc.alphabet, length):
            if any(is_suffix(s, w) for s in found):
                continue
            blocks = {rc.block_of[x.concat(w)] for x in words_of_length(rc.alphabet, rc.k - length)}
            if len(blocks) == 1:
                found.append(w)
    return IdealRep(SemaphoreCode(rc.alphabet, tuple(found)), rc.k)


def word_suffix_classes(alphabet, k, code):
    buckets = {}
    for u in words_of_length(alphabet, k):
        hits = [s for s in code.words if is_suffix(s, u)]
        if len(hits) != 1:
            raise CodeError(f"{u} has {len(hits)} suffixes in the code, expected exactly 1")
        buckets.setdefault(hits[0], []).append(u)
    return list(buckets.values())


def word_ideal_code(alphabet, k, short_members):
    """The suffix-minimal words of A^{>=k} union short_members."""
    if epsilon(alphabet) in short_members:
        return SemaphoreCode(alphabet, (epsilon(alphabet),))
    members = set(short_members) | set(words_of_length(alphabet, k))
    minimal = sorted(w for w in members if not any(v != w and is_suffix(v, w) for v in members))
    return SemaphoreCode(alphabet, tuple(minimal))


def word_ideal_from_members(alphabet, k, short_members):
    return IdealRep(word_ideal_code(alphabet, k, short_members), k)


def word_lambda_of(rc):
    per_block = tuple(lcs_of(blk) for blk in rc.blocks)
    per_pair = frozenset(lcs(u, v) for blk in rc.blocks for u in blk for v in blk)
    if any(w.is_empty for w in per_block):
        members = {epsilon(rc.alphabet)}
    else:
        members = {
            w for w in words_up_to_length(rc.alphabet, rc.k - 1) if any(is_suffix(s, w) for s in per_block)
        }
    return per_block, per_pair, word_ideal_from_members(rc.alphabet, rc.k, members)


def word_is_special(rc):
    per_block = word_lambda_of(rc)[0]
    injective = len(set(per_block)) == len(per_block)
    antichain = not any(u != v and is_suffix(u, v) for u in per_block for v in per_block)
    return injective and antichain


def word_members_below_k(ideal):
    out = {
        w
        for w in words_up_to_length(ideal.alphabet, ideal.k - 1)
        if any(is_suffix(s, w) for s in ideal.code.words)
    }
    if ideal.code.is_epsilon:
        out.add(epsilon(ideal.alphabet))
    return out


def word_enumerate_ideals(alphabet, k):
    short = words_up_to_length(alphabet, k - 1)
    upsets, seen = [], set()
    for mask in range(1 << len(short)):
        base = {short[i] for i in range(len(short)) if mask >> i & 1}
        up = {w for w in short if any(is_factor(u, w) for u in base)} | base
        if frozenset(up) not in seen:
            seen.add(frozenset(up))
            upsets.append(up)
    out = [word_ideal_from_members(alphabet, k, up) for up in sorted(upsets, key=lambda s: (len(s), sorted(s)))]
    out.append(word_ideal_from_members(alphabet, k, {epsilon(alphabet)}))
    return out


def assert_code_scans_match(rc):
    resets = reset_code(rc)
    assert resets == word_reset_code(rc)
    lam = lambda_of(rc)
    assert (lam.per_block, lam.per_pair, lam.ideal) == word_lambda_of(rc)
    assert is_special(rc) == word_is_special(rc)
    for ideal in (resets, lam.ideal):
        assert suffix_classes(rc.alphabet, rc.k, ideal.code) == word_suffix_classes(rc.alphabet, rc.k, ideal.code)
        assert ideal.members_below_k() == word_members_below_k(ideal)


CODE_SETTINGS = [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_code_scans_match_the_word_level_scans(data):
    g, k = data.draw(st.sampled_from(CODE_SETTINGS))
    alphabet = Alphabet.of_size(g)
    word = st.sampled_from(words_of_length(alphabet, k))
    assert_code_scans_match(generate(data.draw(st.sets(st.tuples(word, word), max_size=3)), alphabet, k))


@pytest.mark.parametrize("g, k", [(2, 3), (3, 2)])
def test_code_scans_match_on_every_enumerated_congruence(g, k):
    for rc in enumerate_all(Alphabet.of_size(g), k, carrier_bound=9):
        assert_code_scans_match(rc)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_ideal_from_members_matches_the_word_level_scan(data):
    g, k = data.draw(st.sampled_from(CODE_SETTINGS))
    alphabet = Alphabet.of_size(g)
    short = [epsilon(alphabet)] + words_up_to_length(alphabet, k - 1)
    members = data.draw(st.sets(st.sampled_from(short), max_size=4))
    # A set whose left ideal is not two-sided is refused at its first (s, a).
    expected = word_ideal_or_refusal(word_ideal_code(alphabet, k, members), k)
    assert value_or_message(ideal_from_members, alphabet, k, members) == expected


@pytest.mark.parametrize(
    "words, k",
    [(["aa"], 2), (["a", "ba"], 2), (["b", "aa"], 3), (["", "a"], 1)],
)
def test_suffix_classes_raises_the_word_level_error(words, k):
    ab = Alphabet("ab")
    code = SemaphoreCode(ab, tuple(ab.word(w) for w in words))
    with pytest.raises(CodeError) as expected:
        word_suffix_classes(ab, k, code)
    with pytest.raises(CodeError) as got:
        suffix_classes(ab, k, code)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("g, k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_enumerate_ideals_matches_the_subset_filter(g, k):
    alphabet = Alphabet.of_size(g)
    assert enumerate_ideals(alphabet, k) == word_enumerate_ideals(alphabet, k)


# The keyed constructors and lookups of ``codes`` against pairwise Word scans.


def word_is_semaphore(alphabet, words):
    ws = sorted(set(words))
    if ws == [epsilon(alphabet)]:
        return SemaphoreCheck(True)
    if any(w.is_empty for w in ws):
        return SemaphoreCheck(False, comparable=(epsilon(alphabet), next(w for w in ws if len(w))))
    for u, v in itertools.combinations(ws, 2):
        if is_suffix(u, v) or is_suffix(v, u):
            return SemaphoreCheck(False, comparable=(u, v))
    for s in ws:
        for a in alphabet:
            if not any(t in ws for t in suffixes(s.concat(a)) if len(t)):
                return SemaphoreCheck(False, stuck=(s, a))
    return SemaphoreCheck(True)


def word_ideal_refusal(code, k):
    """The message IdealRep(code, k) raises for a finite code of words of
    length <= k: the longest proper code suffix of the first code word that
    has one, else the first word of A^k without a code suffix; or None."""
    for v in code.words:
        below = [u for u in code.words if len(u) < len(v) and is_suffix(u, v)]
        if below:
            return f"not a suffix code: {max(below, key=len)} is a suffix of {v}"
    for w in words_of_length(code.alphabet, k):
        if not any(is_suffix(s, w) for s in code.words):
            return f"word {w} of A^{k} has no suffix in the code"
    return None


def word_ideal_or_refusal(code, k):
    """IdealRep(code, k), or the message it refuses the code with, from the
    word-level scans: not a covering suffix code, or not semaphore."""
    refusal = word_ideal_refusal(code, k) or (None if code.is_epsilon else first_action_error(code))
    return refusal or IdealRep(code, k)


def word_restricted_words(code, k):
    short = [w for w in code.words if len(w) <= k]
    return short + [w for w in words_of_length(code.alphabet, k) if not any(is_suffix(s, w) for s in short)]


def value_or_message(fn, *args):
    """The value of fn(*args), or the message of the CodeError it raises."""
    try:
        return fn(*args)
    except CodeError as e:
        return str(e)


def assert_restrict_k_matches(code):
    for k in range(1, 4):
        restricted = SemaphoreCode(code.alphabet, tuple(word_restricted_words(code, k)))
        assert value_or_message(restrict_k, code, k) == word_ideal_or_refusal(restricted, k)


def congruence_or_witness(fn, *args):
    """The value of fn(*args), or the witness of the ClosureViolation it raises."""
    try:
        return fn(*args)
    except ClosureViolation as e:
        return e.u, e.v, e.letter


def assert_ideal_scans_match(ideal):
    alphabet, k, code = ideal.alphabet, ideal.k, ideal.code
    # An IdealRep holds a semaphore code: its classes are closed, and tau_of raises nothing.
    assert tau_of(ideal) == validate(alphabet, k, word_suffix_classes(alphabet, k, code))
    for w in [epsilon(alphabet)] + words_up_to_length(alphabet, k + 1):
        assert code.in_ideal(w) == any(is_suffix(s, w) for s in code.words)


@st.composite
def word_sets(draw):
    g = draw(st.integers(1, 3))
    alphabet = Alphabet.of_size(g)
    word = st.lists(st.integers(0, g - 1), max_size=3).map(lambda idx: Word(alphabet, idx))
    return alphabet, draw(st.sets(word, max_size=5))


@given(word_sets(), st.integers(0, 3))
@example((Alphabet("ab"), {Alphabet("ab").word(w) for w in ["a", "bb", "aab", "bab"]}), 0)
@settings(max_examples=150, deadline=None)
def test_keyed_code_checks_match_the_word_level_scans(case, extra):
    alphabet, words = case
    assert is_semaphore(alphabet, words) == word_is_semaphore(alphabet, words)
    code = SemaphoreCode(alphabet, tuple(words))
    if epsilon(alphabet) not in code:
        assert_restrict_k_matches(code)
    k = min(code.max_len + extra, 3)
    ideal = value_or_message(IdealRep, code, k)
    assert ideal == word_ideal_or_refusal(code, k)
    if isinstance(ideal, IdealRep) and k >= 1:
        assert_ideal_scans_match(ideal)


@given(generated_ideals(), st.data())
@settings(max_examples=150, deadline=None)
def test_the_cover_sum_matches_the_scan(ideal, data):
    # Any subset of a covering suffix code is a suffix code; it covers A^k
    # iff the words of A^k below its words number g^k.
    alphabet, k, g = ideal.alphabet, ideal.k, ideal.alphabet.size
    kept = data.draw(st.lists(st.sampled_from(ideal.code.words), unique=True, max_size=len(ideal.code.words)))
    code = SemaphoreCode(alphabet, tuple(kept))
    covered = all(any(is_suffix(s, w) for s in kept) for w in words_of_length(alphabet, k))
    assert (sum(g ** (k - len(s)) for s in kept) == g**k) == covered
    assert value_or_message(IdealRep, code, k) == (word_ideal_refusal(code, k) or IdealRep(code, k))


@pytest.mark.parametrize("g, k", [(2, 3), (3, 2)])
def test_keyed_ideal_operations_match_on_every_enumerated_ideal(enumerated_ideals, g, k):
    ideals = enumerated_ideals[(g, k)]
    members = [word_members_below_k(ideal) for ideal in ideals]
    for ideal in ideals:
        assert word_ideal_refusal(ideal.code, k) is None
        assert_ideal_scans_match(ideal)
        if not ideal.code.is_epsilon:
            assert_restrict_k_matches(ideal.code)
    for (i1, m1), (i2, m2) in itertools.product(zip(ideals, members), repeat=2):
        assert ideal_meet(i1, i2) == word_ideal_from_members(i1.alphabet, k, m1 & m2)
        assert ideal_join(i1, i2) == word_ideal_from_members(i1.alphabet, k, m1 | m2)
        assert ideal_leq(i1, i2) == (m1 <= m2)


# The suffix view of a code against the suffix scans it replaced.


def scanned_suffix_index(code):
    """Each word of A^m to the position of its code suffix, by one
    ``_suffix_keys`` scan per word; None when a word has none or two."""
    g, m = code.alphabet.size, code.max_len
    hits = [list(codes._suffix_keys(code._index, g, m, y)) for y in range(g**m)]
    if any(len(h) != 1 for h in hits):
        return None
    return tuple(code._index[h[0]] for h in hits)


def test_suffix_index_matches_the_scan_on_every_enumerated_ideal(enumerated_ideals):
    ideals = [*itertools.chain(*enumerated_ideals.values()), *enumerate_ideals(Alphabet.of_size(3), 3)]
    for ideal in ideals:
        code = ideal.code
        assert code.suffix_index == scanned_suffix_index(code) is not None
        # Without one of its words a code no longer covers A^m; with the
        # suffix one letter shorter of one added, it is no longer a suffix code.
        for i, (n, x) in enumerate(code.keys):
            assert SemaphoreCode.from_keys(code.alphabet, code.keys[:i] + code.keys[i + 1 :]).suffix_index is None
            if n:
                shorter = (n - 1, x % code.alphabet.size ** (n - 1))
                assert SemaphoreCode.from_keys(code.alphabet, [*code.keys, shorter]).suffix_index is None


@given(word_sets())
@example((Alphabet("ab"), {Alphabet("ab").word(w) for w in ["a", "ab", "bb"]}))
@example((Alphabet("a"), {Alphabet("a").word("aa")}))
@example((Alphabet("ab"), set()))
@settings(max_examples=200, deadline=None)
def test_suffix_index_matches_the_scan_on_drawn_codes(case):
    alphabet, words = case
    code = SemaphoreCode(alphabet, tuple(words))
    assert code.suffix_index == scanned_suffix_index(code)


def test_a_code_too_long_to_view_is_refused_as_before():
    ab = Alphabet("ab")
    long = (17, 0)  # a^17: A^17 has more words than the enumeration limit
    assert SemaphoreCode.from_keys(ab, [long]).suffix_index is None
    with pytest.raises(CodeError, match="^not a suffix code: a is a suffix of a{17}$"):
        IdealRep(SemaphoreCode.from_keys(ab, [(1, 0), long]), 17)
    with pytest.raises(WordLimitExceeded, match="^refusing to enumerate 131072 words"):
        IdealRep(SemaphoreCode.from_keys(ab, [(1, 1), long]), 17)


@st.composite
def covering_suffix_codes(draw):
    """A drawn suffix code covering A^m: from {epsilon}, drawn words w are
    replaced by the g words a+w, up to length 4 over two letters and 3
    over three, semaphore or not."""
    g = draw(st.sampled_from([2, 3]))
    top = 4 if g == 2 else 3
    keys = {(0, 0)}
    for _ in range(draw(st.integers(1, 12))):
        leaves = sorted(key for key in keys if key[0] < top)
        if not leaves:
            break
        n, x = draw(st.sampled_from(leaves))
        keys = (keys - {(n, x)}) | {(n + 1, a * g**n + x) for a in range(g)}
    return SemaphoreCode.from_keys(Alphabet.of_size(g), keys)


def pinned_code(texts):
    ab = Alphabet("ab")
    return SemaphoreCode(ab, tuple(ab.word(w) for w in texts))


@given(covering_suffix_codes(), st.integers(0, 1))
@example(pinned_code(["a", "aab", "bab", "abb", "bbb"]), 0)
@example(pinned_code(["a", "bb", "aab", "bab"]), 0)
@settings(max_examples=200, deadline=None)
def test_action_table_on_the_view_matches_is_semaphore(code, extra):
    k = code.max_len + extra  # 3 for the pinned codes
    semaphore = bool(is_semaphore(code.alphabet, code.words))
    # IdealRep and action_table read the view, or name the first (s, a) that code_action rejects.
    expected = first_action_error(code)
    assert (expected is None) == semaphore
    assert value_or_message(action_table, code) == (oracle_table(code) if semaphore else expected)
    assert value_or_message(IdealRep, code, k) == (expected or IdealRep(code, k))
    # The classes are closed iff the code is semaphore; tau_of builds them on an IdealRep.
    closed = congruence_or_witness(validate, code.alphabet, k, word_suffix_classes(code.alphabet, k, code))
    assert (closed == tau_of(IdealRep(code, k))) if semaphore else isinstance(closed, tuple)


def test_action_table_and_tau_of_read_the_view_with_no_suffix_scan(monkeypatch, enumerated_ideals):
    calls = []
    scan = codes._suffix_keys

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(codes, "_suffix_keys", counted)
    mixed = json.loads((Path(__file__).parent / "golden" / "code_ab8_mixed.json").read_text())
    ab = Alphabet("ab")
    ideals = [
        *itertools.chain(*enumerated_ideals.values()),
        IdealRep(SemaphoreCode.from_keys(ab, ab.keys_of(mixed["code"])), 9),
    ]
    for ideal in ideals:  # every enumerated code is semaphore
        # A fresh code, so that its view is built under the counter.
        ideal = IdealRep(SemaphoreCode.from_keys(ideal.alphabet, ideal.code.keys), ideal.k)
        if not ideal.code.is_epsilon:
            action_table(ideal.code)
        tau_of(ideal)
    # A covering code that is not semaphore is refused off its view too.
    with pytest.raises(CodeError, match="^no suffix of ab in the code"):
        action_table(pinned_code(["a", "aab", "bab", "abb", "bbb"]))
    assert calls == []
    # A code with no view still scans: {b, ba} does not cover A^2.
    partial = pinned_code(["b", "ba"])
    with pytest.raises(CodeError) as info:
        action_table(partial)
    assert str(info.value) == first_action_error(partial)
    assert calls


def counted_suffix_scans(monkeypatch):
    """The argument tuples of every ``codes._suffix_keys`` call from now on."""
    calls, scan = [], codes._suffix_keys

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(codes, "_suffix_keys", counted)
    return calls


def test_codes_and_ideal_operations_read_a_painting_with_no_suffix_scan(monkeypatch, enumerated_ideals):
    # Every ideal built here passes IdealRep's semaphore test, since the
    # engine builds only two-sided ideals.  Resets are closed under right
    # extension: the words ending in w+a are those ending in w with a
    # appended, cut to length k.  If w is the lcs of a block B, the lcs v
    # of the block holding B+a is a suffix of w+a; were w+a a proper suffix
    # of v, all of B would share a suffix longer than w.
    monkeypatch.setattr(congruences, "HARD_CARRIER_BOUND", 16)
    cases = [(2, 3, 9), (3, 2, 9), (2, 4, 16)]
    elements = [rc for g, k, bound in cases for rc in enumerate_rc(Alphabet.of_size(g), k, carrier_bound=bound)]
    assert len(elements) == 30 + 192 + 1247
    calls = counted_suffix_scans(monkeypatch)
    for rc in elements:
        reset_code(rc), lambda_of(rc), is_special(rc), lower_approx(rc), upper_approx(rc)
    for (g, k), ideals in enumerated_ideals.items():
        assert enumerate_ideals(Alphabet.of_size(g), k) == ideals
        for ideal in ideals:
            ideal.members_below_k()
            if not ideal.code.is_epsilon:
                restrict_k(ideal.code, k)
    for g, k in [(2, 3), (3, 2)]:
        for i1, i2 in itertools.product(enumerated_ideals[(g, k)], repeat=2):
            ideal_meet(i1, i2), ideal_join(i1, i2), ideal_leq(i1, i2)
    assert calls == []
    # The cover refusal scans nothing past the suffix-code check, one call per code word.
    ab = Alphabet("ab")
    code = SemaphoreCode.from_keys(ab, [(1, 0), (3, 7)])  # {a, bbb}: aab is the first word of A^3 it misses
    with pytest.raises(CodeError, match="^word aab of A\\^3 has no suffix in the code$"):
        IdealRep(code, 3)
    assert [args[2:] for args in calls] == [(n - 1, x) for n, x in code.keys]


@pytest.mark.parametrize("g", [2, 3, 4])
def test_reset_code_of_identity_is_a_k_and_of_universal_epsilon(monkeypatch, g):
    alphabet = Alphabet.of_size(g)
    calls = counted_suffix_scans(monkeypatch)
    for k in itertools.takewhile(lambda k: g**k <= 4096, itertools.count(1)):
        assert reset_code(identity(alphabet, k)).code.keys == tuple((k, x) for x in range(g**k))
        assert reset_code(universal(alphabet, k)).code.keys == ((0, 0),)
    assert calls == []


def test_action_table_scans_a_code_too_long_to_view():
    # {b, ba, ..., ba^16, a^17} is semaphore, and A^17 is past the
    # enumeration limit: only the one-word suffix scan can build its table.
    ab = Alphabet("ab")
    code = SemaphoreCode(ab, tuple(ab.word(text) for text in ["b" + "a" * n for n in range(17)] + ["a" * 17]))
    assert code.suffix_index is None and is_semaphore(ab, code.words)
    assert action_table(code) == oracle_table(code)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_word_prob_matches_the_fraction_product(data):
    g = data.draw(st.integers(1, 4))
    alphabet = Alphabet.of_size(g)
    weights = data.draw(st.lists(st.integers(0, 12), min_size=g, max_size=g).filter(any))
    denominators = data.draw(st.lists(st.integers(1, 5), min_size=g, max_size=g))
    # Unequal denominators before normalisation: the weights are rescaled
    # so that the common denominator differs from each one's.
    probs = [Fraction(w, d) for w, d in zip(weights, denominators)]
    pi = LetterDistribution(alphabet, tuple(p / sum(probs) for p in probs))
    w = Word(alphabet, data.draw(st.lists(st.integers(0, g - 1), max_size=8)))
    expected = Fraction(1)
    for i in w.indices:
        expected *= pi.probs[i]
    assert pi.word_prob(w) == expected


@given(generated_ideals(), st.data())
@settings(max_examples=60, deadline=None)
def test_left_apply_matches_the_dense_sum(ideal, data):
    n, g = len(ideal.code.words), ideal.alphabet.size
    pi = distribution(ideal.alphabet, data.draw(st.lists(st.integers(0, 9), min_size=g, max_size=g).filter(any)))
    vec = tuple(Fraction(x, 7) for x in data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    matrix = transition_matrix(ideal, pi)
    dense = tuple(sum((vec[i] * matrix.rows[i][j] for i in range(n)), Fraction(0)) for j in range(n))
    assert matrix.left_apply(vec) == dense


# ------------------------------------------------------------ lattice order

ENUMERABLE = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]


@lru_cache(maxsize=None)
def enumerated(g, k):
    return enumerate_all(Alphabet.of_size(g), k, carrier_bound=9)


def letter_action(g, k):
    n = g**k
    return [[(x * g + a) % n for a in range(g)] for x in range(n)]


def canonical(keys):
    first = {}
    return tuple(first.setdefault(key, len(first)) for key in keys)


def action_closure_join(nxt, labels1, labels2):
    """The join as it was computed before: union-find from the first
    partition, merging the pairs of the second and queueing the images of
    every pair that joins two classes, until fixpoint."""
    parent = list(range(len(labels1)))
    least = {}
    for x, b in enumerate(labels1):
        parent[x] = least.setdefault(b, x)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    least = {}
    work = [(x, least.setdefault(b, x)) for x, b in enumerate(labels2)]
    while work:
        u, v = work.pop()
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            work.extend(zip(nxt[u], nxt[v]))
    return canonical(find(x) for x in range(len(parent)))


def cubic_pentagon_search(leq, meets, joins, covers_set, n, require_cover):
    for b in range(n):
        for d in range(n):
            if leq[b][d] or leq[d][b]:
                continue
            e = meets[b][d]
            a = joins[b][d]
            if require_cover and (e, d) not in covers_set:
                continue
            for c in range(n):
                if c == b or not leq[c][b]:
                    continue
                if leq[c][d] or leq[d][c]:
                    continue
                if joins[c][d] == a and meets[c][d] == e:
                    return (a, b, c, d, e)
    return None


def cubic_longest_chain(covers, bottom, target, rank):
    chain = [target]
    here = target
    while here != bottom:
        here = max((i for (i, j) in covers if j == here), key=lambda i: rank[i])
        chain.append(here)
    chain.reverse()
    return chain


def cubic_lattice_report(elements):
    """The lattice report as it was computed before: all n^2 meets and
    action-closure joins, the order from the meets, covers by a cubic scan,
    and both flags of semimodularity from the exhaustive pentagon search."""
    n = len(elements)
    index = {rc.labels: i for i, rc in enumerate(elements)}
    labels = [rc.labels for rc in elements]
    nxt = letter_action(elements[0].alphabet.size, elements[0].k)
    meets = [[0] * n for _ in range(n)]
    joins = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mi = index.get(canonical(zip(labels[i], labels[j])))
            ji = index.get(action_closure_join(nxt, labels[i], labels[j]))
            if mi is None:
                raise CongruenceError("input is not closed under meet")
            if ji is None:
                raise CongruenceError("input is not closed under join")
            meets[i][j] = meets[j][i] = mi
            joins[i][j] = joins[j][i] = ji
    leq = [[meets[i][j] == i for j in range(n)] for i in range(n)]
    bottom = next(i for i in range(n) if all(leq[i][j] for j in range(n)))
    top = next(i for i in range(n) if all(leq[j][i] for j in range(n)))
    covers = []
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j]:
                if not any(x != i and x != j and leq[i][x] and leq[x][j] for x in range(n)):
                    covers.append((i, j))
    covers_set = set(covers)
    atoms = sorted(j for (i, j) in covers if i == bottom)
    pentagon = cubic_pentagon_search(leq, meets, joins, covers_set, n, require_cover=False)
    semi_pentagon = cubic_pentagon_search(leq, meets, joins, covers_set, n, require_cover=True)
    non_atomistic = None
    for x in range(n):
        acc = bottom
        for a in atoms:
            if leq[a][x]:
                acc = joins[acc][a]
        if acc != x:
            non_atomistic = x
            break
    rank = [0] * n
    for i in sorted(range(n), key=lambda i: sum(leq[j][i] for j in range(n))):
        rank[i] = max([rank[j] + 1 for (j, jj) in covers if jj == i], default=0)
    jd = all(rank[j] == rank[i] + 1 for (i, j) in covers)
    unequal = None
    if not jd:
        i, j = next((i, j) for (i, j) in covers if rank[j] != rank[i] + 1)
        unequal = (
            cubic_longest_chain(covers, bottom, j, rank),
            cubic_longest_chain(covers, bottom, i, rank) + [j],
        )
    return LatticeReport(
        size=n,
        bottom=bottom,
        top=top,
        covers=sorted(covers),
        atoms=atoms,
        semimodular=semi_pentagon is None,
        modular=pentagon is None,
        atomistic=non_atomistic is None,
        jordan_dedekind=jd,
        pentagon=pentagon,
        semimodular_pentagon=semi_pentagon,
        non_atomistic_witness=non_atomistic,
        unequal_chains=unequal,
    )


def outcome(report, elements):
    try:
        return report(elements)
    except CongruenceError as e:
        return type(e), str(e)


def sublattice_closure(nxt, seeds):
    """Labels of the closure of the seeds under meet and join."""
    found = list(dict.fromkeys(seeds))
    seen = set(found)
    for i, x in enumerate(found):
        for y in found[: i + 1]:
            for z in (canonical(zip(x, y)), action_closure_join(nxt, x, y)):
                if z not in seen:
                    seen.add(z)
                    found.append(z)
    return found


@st.composite
def sublattices_of_rc_abc2(draw):
    """The meet/join closure of 2-6 elements of RC(abc, 2), in a drawn order."""
    elements = enumerated(3, 2)
    picked = draw(st.lists(st.sampled_from(elements), min_size=2, max_size=6, unique=True))
    closure = sublattice_closure(letter_action(3, 2), [rc.labels for rc in picked])
    by_labels = {rc.labels: rc for rc in elements}
    return [by_labels[lab] for lab in draw(st.permutations(closure))]


@pytest.mark.parametrize("g, k", ENUMERABLE)
def test_enumerate_rc_matches_enumerate_all(g, k):
    alphabet = Alphabet.of_size(g)
    closure = enumerate_rc(alphabet, k, carrier_bound=9)
    assert [rc.labels for rc in closure] == [rc.labels for rc in enumerated(g, k)]
    assert closure == enumerated(g, k)


@pytest.mark.parametrize(
    "g, k, bound",
    [(2, 0, 8), (2, -1, 8), (3, 2, 8), (2, 2, 3), (3, 1, 2), (2, 4, 100), (4, 2, 16), (2, 20, 8)],
)
def test_enumerate_rc_refuses_what_enumerate_all_refuses(g, k, bound):
    alphabet = Alphabet.of_size(g)
    with pytest.raises(Exception) as old:
        enumerate_all(alphabet, k, carrier_bound=bound)
    with pytest.raises(Exception) as new:
        enumerate_rc(alphabet, k, carrier_bound=bound)
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)


@given(setting_and_pairs())
@settings(max_examples=60, deadline=None)
def test_equivalence_join_matches_the_action_closure_join(case):
    alphabet, k, (p1, p2) = case
    r1, r2 = congruence_of(alphabet, k, p1), congruence_of(alphabet, k, p2)
    nxt = letter_action(alphabet.size, k)
    assert join(r1, r2).labels == action_closure_join(nxt, r1.labels, r2.labels)
    assert join(r2, r1).labels == action_closure_join(nxt, r2.labels, r1.labels)


@pytest.mark.parametrize("g, k", [(2, 3), (3, 2)])
def test_equivalence_join_matches_on_enumerated_pairs(g, k):
    elements = enumerated(g, k)
    nxt = letter_action(g, k)
    rng = random.Random(g * 10 + k)
    pairs = [(x, y) for x in elements for y in elements]
    for x, y in rng.sample(pairs, min(len(pairs), 2000)):
        assert join(x, y).labels == action_closure_join(nxt, x.labels, y.labels)


@given(setting_and_pairs())
@settings(max_examples=60, deadline=None)
def test_the_star_string_join_matches_join(case):
    alphabet, k, (p1, p2) = case
    r1, r2 = congruence_of(alphabet, k, p1), congruence_of(alphabet, k, p2)
    star, pairs = congruences._star(r1.labels), congruences._star_pairs(congruences._star(r2.labels))
    assert congruences._canonical(congruences._join_star(star, pairs)) == join(r1, r2).labels


def test_join_at_2_16_is_generate_of_both_pairs():
    # The join merges 32,767 pairs of blocks: one pass over A^16 per merge
    # would be quadratic, so join must take the union-find closure.
    ab = Alphabet("ab")
    first = (ab.word("a" * 16), ab.word("b" + "a" * 15))
    second = (ab.word("ab" * 8), ab.word("bb" * 8))
    r1, r2 = generate([first], ab, 16), generate([second], ab, 16)
    joined = join(r1, r2)
    assert joined == join(r2, r1) == generate([first, second], ab, 16)
    assert (max(r1.labels), max(r2.labels), max(joined.labels)) == (65534, 32768, 32767)


def test_the_census_join_counts(monkeypatch):
    # The work of `lattice census -g 3 -k 2`: one join per pair u < v of the
    # 9 words builds theta(u, v) from the pair's right translates; 402 of
    # the 3,105 entries x v theta(u, v) with theta(u, v) not below x are
    # computed, the identity's row read off the principals and the rest off
    # finished rows; and one join per join-irreducible a and element
    # incomparable to a.
    calls = []
    join_star = congruences._join_star

    def counted(star, pairs):
        calls.append(None)
        return join_star(star, pairs)

    monkeypatch.setattr(congruences, "_join_star", counted)
    elements = enumerate_rc(Alphabet("abc"), 2, carrier_bound=9)
    assert len(calls) == 36 + 402
    calls.clear()
    lattice_report(elements)
    assert len(calls) == 3000


@pytest.mark.parametrize("g, k", ENUMERABLE)
def test_the_census_is_enumerate_rc_and_its_lattice_report(g, k):
    elements, report = lattice_census(Alphabet.of_size(g), k, carrier_bound=9)
    assert elements == enumerate_rc(Alphabet.of_size(g), k, carrier_bound=9)
    assert report == lattice_report(elements)


def test_the_census_of_two_letters_at_k4(ab, monkeypatch):
    monkeypatch.setattr(congruences, "HARD_CARRIER_BOUND", 16)
    elements, report = lattice_census(ab, 4, carrier_bound=16)
    assert len(elements) == 1247
    assert elements == enumerate_rc(ab, 4, carrier_bound=16)
    assert report == lattice_report(elements)


@pytest.mark.parametrize("g, k", ENUMERABLE)
def test_the_join_graph_reads_what_the_direct_search_computes(g, k):
    alphabet = Alphabet.of_size(g)
    assert congruences._join_graph(alphabet, k, 9) == oracles.join_graph(alphabet, k, 9)


@pytest.mark.parametrize("g, k", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_the_principals_from_right_translates_are_those_closed_pair_by_pair(g, k):
    assert congruences._principals(g, k) == oracles._principals_by_closure(g, k)


@pytest.mark.parametrize("n", range(9))
def test_the_star_key_sorts_every_partition_as_its_blocks_do(n):
    by_blocks = sorted(oracles._set_partitions(range(n)), key=congruences._blocks)
    keys = [congruences._star_key(congruences._star(labels)) for labels in by_blocks]
    assert keys == sorted(set(keys))


def test_the_join_graph_of_two_letters_at_k4_reads_what_the_direct_search_computes(ab, monkeypatch):
    monkeypatch.setattr(congruences, "HARD_CARRIER_BOUND", 16)
    labels, joins = congruences._join_graph(ab, 4, 16)
    assert (len(labels), sum(map(len, joins))) == (1247, 31622)
    assert (labels, joins) == oracles.join_graph(ab, 4, 16)


def test_the_cli_census_reads_its_report_off_the_enumeration_joins(monkeypatch, capsys):
    # `lattice census -g 3 -k 2`: the 36 principal and 402 computed joins of
    # enumerate_rc, and neither the pairwise meets nor the 3,000 certificate
    # joins of the oracle.
    calls = []
    join_star = congruences._join_star

    def counted(star, pairs):
        calls.append(None)
        return join_star(star, pairs)

    def refused(elements):
        raise AssertionError("the census ran lattice_report")

    monkeypatch.setattr(congruences, "_join_star", counted)
    monkeypatch.setattr(oracles, "lattice_report", refused)
    assert main(["lattice", "census", "-g", "3", "-k", "2", "--carrier-bound", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 192
    assert len(calls) == 36 + 402


def test_the_meet_certificate_refuses_a_join_closed_list_without_a_meet(monkeypatch):
    # abc|d and abd|c join to abcd, but their meet ab|c|d is missing.
    abcd = Alphabet("abcd")
    four = [congruences.RightCongruence(abcd, 1, lab) for lab in [(0, 1, 2, 3), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 0, 0)]]
    joins = [[four.index(join(x, y)) for y in four if not y.refines(x)] for x in four]
    monkeypatch.setattr(congruences, "_join_graph", lambda *args: ([x.labels for x in four], joins))
    for report in [lambda: lattice_census(abcd, 1), lambda: lattice_report(four)]:
        with pytest.raises(CongruenceError, match="^input is not closed under meet$"):
            report()


def test_the_census_refuses_a_lattice_past_the_element_bound(ab, monkeypatch):
    # The search stops at the first element past the bound; enumerate_rc,
    # which has no bound, still lists all five.
    monkeypatch.setattr(congruences, "MAX_LATTICE_ELEMENTS", 4)
    with pytest.raises(BoundExceeded, match="^lattice of more than 4 elements exceeds the exhaustive-check bound$"):
        lattice_census(ab, 2)
    assert len(enumerate_rc(ab, 2)) == 5


def test_the_census_search_stops_at_the_first_element_past_the_bound(monkeypatch):
    # RC(abc, 2) has 192 elements and 3,105 joins, 402 of them computed.
    calls = []
    join_star = congruences._join_star

    def counted(star, pairs):
        calls.append(None)
        return join_star(star, pairs)

    monkeypatch.setattr(congruences, "_join_star", counted)
    monkeypatch.setattr(congruences, "MAX_LATTICE_ELEMENTS", 20)
    with pytest.raises(BoundExceeded, match="^lattice of more than 20 elements exceeds the exhaustive-check bound$"):
        lattice_census(Alphabet("abc"), 2, carrier_bound=9)
    assert 0 < len(calls) < 3105


def test_lattice_report_refuses_a_list_past_the_element_bound(ab, monkeypatch):
    monkeypatch.setattr(congruences, "MAX_LATTICE_ELEMENTS", 4)
    with pytest.raises(BoundExceeded, match="^lattice of 5 elements exceeds the exhaustive-check bound$"):
        lattice_report(enumerate_rc(ab, 2))


@pytest.mark.parametrize("g, k", ENUMERABLE)
def test_lattice_report_matches_the_cubic_report(g, k):
    elements = enumerated(g, k)
    assert lattice_report(elements) == cubic_lattice_report(elements)
    if len(elements) <= 30:
        shuffled = random.Random(g * 10 + k).sample(elements, len(elements))
        assert lattice_report(shuffled) == cubic_lattice_report(shuffled)


@given(sublattices_of_rc_abc2())
@settings(max_examples=60, deadline=None)
def test_lattice_report_matches_the_cubic_report_on_sublattices(elements):
    assert lattice_report(elements) == cubic_lattice_report(elements)


def test_seeded_sublattices_reach_every_flag_combination():
    # Hypothesis need not draw a lattice that fails a local check; these do.
    elements = enumerated(3, 2)
    by_labels = {rc.labels: rc for rc in elements}
    rng = random.Random(5)
    seen = set()
    for _ in range(40):
        picked = rng.sample(elements, rng.randint(2, 6))
        closure = [by_labels[lab] for lab in sublattice_closure(letter_action(3, 2), [rc.labels for rc in picked])]
        rep = lattice_report(closure)
        assert rep == cubic_lattice_report(closure)
        seen.add((rep.semimodular, rep.modular))
    assert seen == {(True, True), (True, False), (False, False)}


def test_lattice_report_on_the_census_pentagon():
    elements = enumerated(3, 2)
    five = [elements[i] for i in lattice_report(elements).pentagon]
    for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [3, 0, 4, 2, 1]):
        pentagon = [five[i] for i in order]
        rep = lattice_report(pentagon)
        assert not rep.semimodular and not rep.modular
        assert rep.semimodular_pentagon is not None and rep.pentagon is not None
        assert rep == cubic_lattice_report(pentagon)


@pytest.mark.parametrize("g, k", [(2, 2), (2, 3), (3, 1), (4, 1)])
def test_a_missing_element_gives_the_cubic_outcome(g, k):
    elements = enumerated(g, k)
    messages = set()
    for drop in range(len(elements)):
        rest = elements[:drop] + elements[drop + 1 :]
        new = outcome(lattice_report, rest)
        assert new == outcome(cubic_lattice_report, rest)
        if isinstance(new, tuple):
            messages.add(new[1])
    assert messages == {"input is not closed under meet", "input is not closed under join"}


@given(sublattices_of_rc_abc2(), st.data())
@settings(max_examples=40, deadline=None)
def test_a_missing_element_of_a_sublattice_gives_the_cubic_outcome(elements, data):
    drop = data.draw(st.integers(0, len(elements) - 1))
    rest = elements[:drop] + elements[drop + 1 :]
    if rest:
        assert outcome(lattice_report, rest) == outcome(cubic_lattice_report, rest)


@pytest.mark.parametrize("with_top", [True, False])
def test_a_meet_closed_set_that_is_not_join_closed_fails_the_certificate(with_top):
    # a1 and a2 are atoms of RC(ab, 3) whose join in RC is not the universal
    # relation.  {Δ, a1, a2} is closed under meet and has no top; with ∇ it
    # is a lattice in its own order, whose join of a1 and a2 is ∇.
    ab = Alphabet("ab")
    elements = enumerated(2, 3)
    a1, a2 = (elements[i] for i in lattice_report(elements).atoms[:2])
    assert meet(a1, a2) == identity(ab, 3) and join(a1, a2) != universal(ab, 3)
    chosen = [identity(ab, 3), a1, a2] + ([universal(ab, 3)] if with_top else [])
    for order in map(list, itertools.permutations(chosen)):
        new = outcome(lattice_report, order)
        assert new == outcome(cubic_lattice_report, order) == (CongruenceError, "input is not closed under join")


def test_the_lattice_of_two_letters_at_k4(monkeypatch):
    monkeypatch.setattr(congruences, "HARD_CARRIER_BOUND", 16)
    elements = enumerate_rc(Alphabet("ab"), 4, carrier_bound=16)
    rep = lattice_report(elements)
    assert len(elements) == rep.size == 1247
    assert rep.flags == {"semimodular": True, "modular": False, "atomistic": False, "jordan_dedekind": True}
    a, b, c, d, e = (elements[i] for i in rep.pentagon)
    assert len({a, b, c, d, e}) == 5
    assert e.refines(c) and c.refines(b) and b.refines(a) and e.refines(d) and d.refines(a)
    assert meet(b, d) == meet(c, d) == e and join(b, d) == join(c, d) == a
    x, acc = elements[rep.non_atomistic_witness], elements[rep.bottom]
    for atom in (elements[i] for i in rep.atoms):
        if atom.refines(x):
            acc = join(acc, atom)
    assert acc != x
