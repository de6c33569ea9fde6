import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semwalk import (
    AGraph,
    Alphabet,
    GraphError,
    cayley,
    debruijn,
    enumerate_rc,
    generate,
    identity,
    is_reset,
    isomorphic,
    lower_approx,
    morphism,
    reset_code,
    to_dot,
    universal,
    validate,
    words_of_length,
    zeta,
)
from semwalk import congruences
from semwalk.constructions import is_morphism
from semwalk.oracles import words_up_to_length
from semwalk.words import WordLimitExceeded


def test_cayley_edge_set_of_running_example(five_class):
    g = cayley(five_class)
    assert g.labels == ("{aaa,aba,baa}", "{aab,bab}", "{abb}", "{bba}", "{bbb}")
    # Frozen edge set of the five-class example: a/b successors per block.
    assert g.transitions == ((0, 1), (0, 2), (3, 4), (0, 1), (3, 4))
    assert g.strongly_connected
    assert g.is_k_reset(3)


def test_cayley_of_identity_is_de_bruijn(ab):
    g = debruijn(ab, 3)
    words = words_of_length(ab, 3)
    assert g.vertex_count == 8
    for i, w in enumerate(words):
        for j, a in enumerate(ab):
            expected = str(w)[1:] + str(a)
            assert g.labels[g.transitions[i][j]] == "{" + expected + "}"


def test_cayley_of_universal_is_single_vertex(ab):
    g = cayley(universal(ab, 3))
    assert g.vertex_count == 1
    assert g.transitions == ((0, 0),)


def test_is_reset_examples(ab, five_class):
    g = cayley(five_class)
    assert is_reset(g, ab.word("aa"))
    assert not is_reset(g, ab.word("ba"))
    for w in words_of_length(ab, 3):
        assert is_reset(g, w)


def test_is_reset_agrees_with_reset_ideal_membership(five_class, rc_a2, rc_a3):
    # Dual-route check: graph-walk resets versus suffix membership in the
    # congruence-derived generator code, for every word up to k+2, epsilon
    # included.
    cases = [(five_class, 3)] + [(rc, 2) for rc in rc_a2] + [(rc, 3) for rc in rc_a3]
    cases += [(rc, 2) for rc in enumerate_rc(Alphabet("abc"), 2, carrier_bound=9)]
    rng = random.Random(7)
    for g, k in [(2, 6), (2, 7), (3, 4)]:
        alphabet, n = Alphabet.of_size(g), g**k
        for _ in range(10):
            pairs = [((k, rng.randrange(n)), (k, rng.randrange(n))) for _ in range(rng.randint(1, 3))]
            cases.append((congruences.generate_keys(alphabet, k, pairs), k))
    for rc, k in cases:
        g = cayley(rc)
        ideal = reset_code(rc)
        for w in [rc.alphabet.word(""), *words_up_to_length(rc.alphabet, k + 2)]:
            assert is_reset(g, w) == ideal.code.in_ideal(w)


def test_zeta_inverts_cayley_everywhere(rc_a2, rc_a3):
    for rc in rc_a2:
        assert zeta(cayley(rc), 2) == rc
    for rc in rc_a3:
        assert zeta(cayley(rc), 3) == rc


def test_zeta_trivial_cases(ab):
    single = AGraph(ab, ("q",), ((0, 0),))
    assert zeta(single, 2).is_universal
    assert zeta(debruijn(ab, 3), 3).is_identity


def test_zeta_preconditions(ab):
    disconnected = AGraph(ab, ("p", "q"), ((0, 0), (1, 1)))
    with pytest.raises(GraphError, match="strongly connected"):
        zeta(disconnected, 1)
    with pytest.raises(GraphError, match="reset"):
        zeta(debruijn(ab, 2), 1)


def test_morphism_onto_coarser_quotient(five_class):
    low, _ = lower_approx(five_class)
    src, dst = cayley(low), cayley(five_class)
    assert (src.vertex_count, dst.vertex_count) == (6, 5)
    found = morphism(src, dst)
    assert found is not None
    assert is_morphism(src, dst, found)
    assert set(found) == set(range(5))


def test_morphism_from_identity_always_exists(ab, five_class, rc_a2):
    for rc, k in [(five_class, 3)] + [(rc, 2) for rc in rc_a2]:
        assert morphism(cayley(identity(ab, k)), cayley(rc)) is not None


def test_no_morphism_onto_finer_graph(ab, five_class):
    assert morphism(cayley(five_class), debruijn(ab, 3)) is None


def test_morphism_exists_iff_relation_inclusion(rc_a2):
    for r1 in rc_a2:
        for r2 in rc_a2:
            assert (morphism(cayley(r1), cayley(r2)) is not None) == r1.refines(r2)


def test_zeta_is_order_preserving(rc_a2):
    for r1 in rc_a2:
        for r2 in rc_a2:
            if morphism(cayley(r1), cayley(r2)) is not None:
                assert zeta(cayley(r1), 2).refines(zeta(cayley(r2), 2))


def test_two_way_morphisms_certify_isomorphism(five_class):
    g = cayley(five_class)
    # Relabel and permute the vertices; the structure is unchanged.
    perm = (4, 2, 0, 1, 3)
    inv = tuple(perm.index(i) for i in range(5))
    shuffled = AGraph(
        g.alphabet,
        tuple(f"v{i}" for i in range(5)),
        tuple(tuple(inv[g.transitions[perm[i]][j]] for j in range(2)) for i in range(5)),
    )
    assert morphism(g, shuffled) is not None
    assert morphism(shuffled, g) is not None
    assert isomorphic(g, shuffled)
    assert not isomorphic(g, cayley(universal(g.alphabet, 3)))


def test_a_morphism_one_way_only_is_not_an_isomorphism(ab):
    # Swapping the two vertices maps onto the constant graph, but no map
    # back can be a morphism: the swap has no fixed vertex.
    swap = AGraph(ab, ("p", "q"), ((1, 1), (0, 0)))
    constant = AGraph(ab, ("p", "q"), ((0, 0), (0, 0)))
    assert morphism(swap, constant) is not None and morphism(constant, swap) is None
    assert not isomorphic(swap, constant)
    assert not isomorphic(constant, swap)


def test_dot_export_is_deterministic_and_complete(five_class):
    g = cayley(five_class)
    text = to_dot(g)
    assert text == to_dot(cayley(five_class))
    assert text.startswith("digraph {\n")
    for label in g.labels:
        assert f'[label="{label}"]' in text
    edges = [line for line in text.splitlines() if "->" in line]
    assert len(edges) == 10
    assert '  n0 -> n0 [label="a"];' in edges
    assert '  n2 -> n3 [label="a"];' in edges
    assert '  n4 -> n4 [label="b"];' in edges


# A DOT line of the export: a node or an edge with one quoted label, in
# which a quote or a backslash appears only escaped.
DOT_LINE = re.compile(r'  n\d+( -> n\d+)? \[label="([^"\\]|\\["\\])*"\];')


@pytest.mark.parametrize("letters", ['a"', "a\\"])
def test_dot_export_escapes_quotes_and_backslashes(letters):
    alphabet = Alphabet(letters)
    other, escaped = letters[1], "\\" + letters[1]
    text = to_dot(cayley(generate({(alphabet.word("a" + other), alphabet.word(other * 2))}, alphabet, 2)))
    lines = text.splitlines()
    assert lines[0] == "digraph {" and lines[-1] == "}"
    assert all(DOT_LINE.fullmatch(line) for line in lines[1:-1])
    assert f'  n1 [label="{{a{escaped},{escaped}{escaped}}}"];' in lines
    assert f'  n2 [label="{{{escaped}a}}"];' in lines
    assert f'  n0 -> n1 [label="{escaped}"];' in lines


def test_agraph_rejects_partial_tables(ab):
    with pytest.raises(GraphError):
        AGraph(ab, ("p", "q"), ((0,), (1, 1)))
    with pytest.raises(GraphError):
        AGraph(ab, ("p",), ((0, 5),))
    for rows in [((0, 0),), ((0, 1), (1, 0), (0, 0))]:
        with pytest.raises(GraphError, match="^one transition row per vertex required$"):
            AGraph(ab, ("p", "q"), rows)


def test_morphism_refuses_graphs_over_different_alphabets(ab):
    with pytest.raises(GraphError, match="^graphs are over different alphabets$"):
        morphism(debruijn(ab, 1), debruijn(Alphabet("xy"), 1))


def test_morphism_search_refuses_huge_graphs():
    one = Alphabet("a")
    n = 10_001
    ring = AGraph(one, tuple(f"v{i}" for i in range(n)), tuple(((i + 1) % n,) for i in range(n)))
    with pytest.raises(GraphError, match="too large"):
        morphism(ring, ring)


def test_graph_json_mirrors_enumeration_order(ab):
    from semwalk import graph_json, words_of_length

    payload = graph_json(debruijn(ab, 2))
    assert payload["vertices"] == ["{" + str(w) + "}" for w in words_of_length(ab, 2)]
    assert payload["transitions"] == [[0, 1], [2, 3], [0, 1], [2, 3]]
    assert payload["alphabet"] == "ab"


def test_zeta_inverts_cayley_on_the_lattice_of_two_letters_at_k4(ab, monkeypatch):
    # Every one of the 1,247 congruences of RC(ab, 4), the largest A^k whose
    # lattice the suite enumerates: a 4-reset graph that zeta reads back.
    monkeypatch.setattr(congruences, "HARD_CARRIER_BOUND", 16)
    elements = enumerate_rc(ab, 4, carrier_bound=16)
    assert len(elements) == 1247
    words = words_of_length(ab, 4)
    for rc in elements:
        g = cayley(rc)
        assert g.is_k_reset(4)
        assert zeta(g, 4) == rc
        assert g.images(4) == [g.image(w) for w in words]


@st.composite
def total_tables(draw):
    g = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * g), min_size=n, max_size=n))
    return AGraph(Alphabet("abc"[:g]), tuple(f"v{i}" for i in range(n)), tuple(rows))


@given(total_tables(), st.integers(0, 4))
@example(AGraph(Alphabet("ab"), ("p", "q"), ((0, 0), (1, 1))), 2)  # not strongly connected
@settings(max_examples=100, deadline=None)
def test_images_are_the_images_of_the_words_in_carrier_order(graph, k):
    expected = [graph.image(w) for w in words_of_length(graph.alphabet, k)]
    assert graph.images(k) == expected
    assert graph.is_k_reset(k) == all(len(img) == 1 for img in expected)


def test_images_refuse_a_carrier_past_the_enumeration_limit(ab):
    g = debruijn(ab, 2)
    with pytest.raises(WordLimitExceeded, match=r"^refusing to enumerate 131072 words \(limit 65536\)$"):
        g.images(17)
    with pytest.raises(WordLimitExceeded, match=r"^refusing to enumerate 2\^40 words \(limit 65536\)$"):
        g.is_k_reset(40)


def test_image_rejects_a_word_over_another_alphabet(ab):
    g = debruijn(ab, 2)
    with pytest.raises(GraphError, match="different alphabets"):
        is_reset(g, Alphabet("abc").word("c"))
    with pytest.raises(GraphError, match="different alphabets"):
        is_reset(g, Alphabet("xy").word("xx"))


def test_agraph_rejects_the_empty_graph(ab):
    with pytest.raises(GraphError, match="at least one vertex"):
        AGraph(ab, (), ())
