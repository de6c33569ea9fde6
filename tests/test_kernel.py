"""The integer kernel of semwalk.congruences against Word-level definitions.

The oracles below work on pair sets of words and on the truncated product,
as in the definitions, and share no code with the kernel: a relation is a
set of (u, v) word pairs, its right-congruence closure is a fixpoint of
symmetry, transitivity and (u, v) -> (u*a, v*a).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from semwalk import (
    Alphabet,
    ClosureViolation,
    enumerate_all,
    generate,
    join,
    meet,
    product,
    validate,
    words_of_length,
)

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
