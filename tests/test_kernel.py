"""The integer kernels of semwalk against Word-level definitions.

Congruences: the oracles below work on pair sets of words and on the
truncated product, as in the definitions, and share no code with the
kernel: a relation is a set of (u, v) word pairs, its right-congruence
closure is a fixpoint of symmetry, transitivity and (u, v) -> (u*a, v*a).

Codes and walks: the action table against ``code_action`` entry by entry,
the sparse walk step against the dense transition matrix and the Gaussian
solver, and the simulator against the buffer-slicing loop it replaced.  The
integer reset, suffix-class, lcs and ideal scans of ``codes`` against the
Word-level scans they replaced, copied below, and the integer ``word_prob``
and sparse ``left_apply`` against their Fraction loops.

Lattice order: ``enumerate_rc`` (join closure of the principal
congruences) against ``enumerate_all``, the equivalence join against the
action-closure join, and ``lattice_report`` (order bitsets, local cover
checks, a join-irreducible closure certificate) against a copy of the
cubic report it replaced, on the enumerable lattices and on sublattices of
RC(abc, 2); the (2,4) lattice against the public meet, join and refines.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semwalk import (
    Alphabet,
    ClosureViolation,
    CodeError,
    CongruenceError,
    IdealRep,
    LatticeReport,
    LetterDistribution,
    SemaphoreCode,
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
    identity,
    is_factor,
    is_special,
    is_suffix,
    join,
    lambda_of,
    lattice_report,
    lcs,
    lcs_of,
    meet,
    product,
    reset_code,
    restrict_k,
    simulate,
    solve_stationary,
    stationary,
    suffix_classes,
    transition_matrix,
    universal,
    validate,
    words_of_length,
)
from semwalk import congruences
from semwalk.codes import ideal_from_members
from semwalk.words import words_up_to_length

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
    for ideals in enumerated_ideals.values():
        for ideal in ideals:
            if ideal.code.is_epsilon:
                with pytest.raises(CodeError, match="not defined on the epsilon code"):
                    action_table(ideal.code)
                continue
            assert action_table(ideal.code) == oracle_table(ideal.code)


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
    ideal = IdealRep(SemaphoreCode(ab, tuple(ab.word(w) for w in ["a", "aab", "bab", "abb", "bbb"])), 3)
    message = "no suffix of ab in the code; code is not semaphore or is truncated"
    assert first_action_error(ideal.code) == message
    with pytest.raises(CodeError) as info:
        action_table(ideal.code)
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


def word_ideal_from_members(alphabet, k, short_members):
    if epsilon(alphabet) in short_members:
        return IdealRep(SemaphoreCode(alphabet, (epsilon(alphabet),)), k)
    members = set(short_members) | set(words_of_length(alphabet, k))
    minimal = sorted(w for w in members if not any(v != w and is_suffix(v, w) for v in members))
    return IdealRep(SemaphoreCode(alphabet, tuple(minimal)), k)


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
    assert ideal_from_members(alphabet, k, members) == word_ideal_from_members(alphabet, k, members)


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
