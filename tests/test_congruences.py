import gc
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semwalk import (
    Alphabet,
    BoundExceeded,
    ClosureViolation,
    NotAPartitionError,
    RightCongruence,
    enumerate_all,
    generate,
    identity,
    join,
    lattice_report,
    meet,
    universal,
    validate,
    words_of_length,
)
from semwalk import congruences
from semwalk.oracles import _set_partitions


def blocks_of(rc):
    return [[str(w) for w in blk] for blk in rc.blocks]


def test_validate_running_example(five_class):
    assert blocks_of(five_class) == [["aaa", "aba", "baa"], ["aab", "bab"], ["abb"], ["bba"], ["bbb"]]


def test_validate_identity_partition(ab):
    singletons = [[w] for w in words_of_length(ab, 3)]
    rc = validate(ab, 3, singletons)
    assert rc.is_identity


def test_validate_reports_closure_witness(ab):
    W = ab.word
    blocks = [[W("aaa"), W("aab")]] + [[w] for w in words_of_length(ab, 3) if str(w) not in ("aaa", "aab")]
    with pytest.raises(ClosureViolation) as exc:
        validate(ab, 3, blocks)
    witness = exc.value
    # aaa.a = aaa and aab.a = aba land in different blocks.
    assert (str(witness.u), str(witness.v), str(witness.letter)) == ("aaa", "aab", "a")


def test_validate_names_a_word_over_another_alphabet(ab):
    with pytest.raises(NotAPartitionError, match="^word c is not in A\\^1$"):
        validate(ab, 1, [[ab.word("a")], [Alphabet("abc").word("c"), ab.word("b")]])


def test_validate_rejects_non_partitions(ab):
    W = ab.word
    with pytest.raises(NotAPartitionError):
        validate(ab, 2, [[W("aa"), W("ab")], [W("ba")]])  # bb missing
    with pytest.raises(NotAPartitionError):
        validate(ab, 1, [[W("a"), W("b")], [W("b")]])  # b twice
    with pytest.raises(NotAPartitionError):
        validate(ab, 1, [[W("a"), W("b")], []])  # empty block


def test_generate_empty_is_identity(ab):
    assert generate(set(), ab, 3).is_identity


def test_generate_single_pair_examples(ab):
    W = ab.word
    rc = generate({(W("aaa"), W("bba"))}, ab, 3)
    assert blocks_of(rc) == [["aaa", "baa", "bba"], ["aab", "bab"], ["aba"], ["abb"], ["bbb"]]
    rc2 = generate({(W("aaa"), W("baa"))}, ab, 3)
    assert blocks_of(rc2) == [["aaa", "baa"], ["aab"], ["aba"], ["abb"], ["bab"], ["bba"], ["bbb"]]


def test_generate_refuses_a_pair_over_another_alphabet(ab):
    abc = Alphabet("abc")
    for pair in [(ab.word("aa"), abc.word("cc")), (abc.word("ab"), ab.word("ab"))]:
        with pytest.raises(congruences.CongruenceError, match=f"^pair \\({pair[0]}, {pair[1]}\\) is not in A\\^2 x A\\^2$"):
            generate({pair}, ab, 2)


def test_generate_keeps_no_table_of_the_letter_action(ab):
    # The images of a point are read off the point itself, so a closure on
    # A^16 leaves nothing behind; a cached 65,536 x 2 table would keep 8 MB.
    for f in vars(congruences).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()  # so that a table cached by an earlier test is built here
    pair = (ab.word("a" * 16), ab.word("b" + "a" * 15))
    gc.collect()
    tracemalloc.start()
    try:
        generate([pair], ab, 16)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_generate_agrees_with_bruteforce_oracle(ab, rc_a2):
    # Oracle: the smallest enumerated congruence containing the pair.
    W = ab.word
    for pair in [(W("aa"), W("ba")), (W("ab"), W("bb")), (W("aa"), W("bb"))]:
        generated = generate({pair}, ab, 2)
        containing = [rc for rc in rc_a2 if rc.related(*pair)]
        smallest = min(containing, key=lambda rc: len(rc.pairs()))
        assert all(smallest.refines(rc) for rc in containing)
        assert generated == smallest


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_generate_idempotent_and_extensive(data):
    ab = Alphabet("ab")
    carrier = words_of_length(ab, 3)
    pairs = data.draw(
        st.sets(st.tuples(st.sampled_from(carrier), st.sampled_from(carrier)), max_size=4)
    )
    rc = generate(pairs, ab, 3)
    for u, v in pairs:
        assert rc.related(u, v)
    again = generate(rc.pairs(), ab, 3)
    assert again == rc


def test_meet_join_four_letter_examples():
    # With four letters and k=1 every partition closes, so the lattice is
    # the full partition lattice; these are its classic witnesses.
    a4 = Alphabet("abcd")
    W = a4.word
    sp = lambda blocks: validate(a4, 1, [[W(x) for x in blk] for blk in blocks])
    sigma = sp([["a", "b"], ["c"], ["d"]])
    sigma_p = sp([["a", "b"], ["c", "d"]])
    tau = sp([["a", "d"], ["b", "c"]])
    rho = sp([["a", "b", "c", "d"]])
    lam = identity(a4, 1)
    assert meet(sigma_p, tau) == lam
    assert join(sigma, tau) == rho


def test_meet_join_trivial_bounds(five_class, ab):
    ident, univ = identity(ab, 3), universal(ab, 3)
    assert meet(five_class, ident) == ident
    assert join(five_class, univ) == univ
    assert meet(five_class, univ) == five_class
    assert join(five_class, ident) == five_class


def test_enumerate_one_letter_alphabet():
    assert len(enumerate_all(Alphabet("a"), 2)) == 1
    assert len(enumerate_all(Alphabet("a"), 3)) == 1


def test_enumerate_four_letters_k1_is_partition_lattice():
    a4 = Alphabet.of_size(4)
    rcs = enumerate_all(a4, 1)
    # k=1 actions are constant, so closure is vacuous: all Bell(4) partitions.
    assert len(rcs) == 15
    assert len(list(_set_partitions(words_of_length(a4, 1)))) == 15


def test_enumerate_a2_k2_pinned_count(rc_a2):
    # Filter of the 15 partitions of a 4-word carrier; pinned regression value.
    assert len(rc_a2) == 5
    rendered = {str(rc) for rc in rc_a2}
    assert rendered == {
        "{aa} | {ab} | {ba} | {bb}",
        "{aa,ba} | {ab} | {bb}",
        "{aa} | {ab,bb} | {ba}",
        "{aa,ba} | {ab,bb}",
        "{aa,ab,ba,bb}",
    }


def test_enumerate_a2_k3_pinned_count(rc_a3):
    assert len(rc_a3) == 30
    assert sum(1 for rc in rc_a3 if rc.is_identity) == 1
    assert sum(1 for rc in rc_a3 if rc.is_universal) == 1


def test_enumerate_bounds():
    with pytest.raises(BoundExceeded):
        enumerate_all(Alphabet("abc"), 2)  # carrier 9 > default 8
    assert len(enumerate_all(Alphabet("abc"), 2, carrier_bound=9)) > 0
    with pytest.raises(BoundExceeded):
        enumerate_all(Alphabet("ab"), 4)  # carrier 16 > hard bound 12


def test_lattice_axioms_on_enumerated_instance(rc_a2):
    for r1 in rc_a2:
        for r2 in rc_a2:
            assert meet(r1, r2) == meet(r2, r1)
            assert join(r1, r2) == join(r2, r1)
            assert join(r1, meet(r1, r2)) == r1
            assert meet(r1, join(r1, r2)) == r1
            # Meet is intersection of the relations.
            assert meet(r1, r2).pairs() == r1.pairs() & r2.pairs()
    for r1, r2, r3 in combinations(rc_a2, 3):
        assert meet(meet(r1, r2), r3) == meet(r1, meet(r2, r3))
        assert join(join(r1, r2), r3) == join(r1, join(r2, r3))


def test_lattice_report_two_element_lattice(ab):
    rep = lattice_report([identity(ab, 2), universal(ab, 2)])
    assert rep.flags == {
        "semimodular": True,
        "modular": True,
        "atomistic": True,
        "jordan_dedekind": True,
    }


def test_lattice_report_partition_lattice_four():
    a4 = Alphabet.of_size(4)
    elements = enumerate_all(a4, 1)
    rep = lattice_report(elements)
    assert rep.semimodular and rep.jordan_dedekind and rep.atomistic
    assert not rep.modular
    assert rep.pentagon is not None
    _assert_pentagon(elements, rep.pentagon)


def test_classic_witness_subset_is_a_pentagon():
    # The documented witness: with distinct letters a,b,c,d merge {a,b},
    # then {a,b}{c,d}, against {a,d}{b,c}, topped by the universal relation.
    a4 = Alphabet.of_size(4)
    W = a4.word
    sp = lambda blocks: validate(a4, 1, [[W(x) for x in blk] for blk in blocks])
    lam = identity(a4, 1)
    sigma = sp([["a", "b"], ["c"], ["d"]])
    sigma_p = sp([["a", "b"], ["c", "d"]])
    tau = sp([["a", "d"], ["b", "c"]])
    rho = universal(a4, 1)
    assert lam.refines(sigma) and sigma.refines(sigma_p) and sigma_p.refines(rho)
    assert lam.refines(tau) and tau.refines(rho)
    assert meet(sigma_p, tau) == lam
    assert join(sigma, tau) == rho
    assert meet(sigma, tau) == lam
    assert join(sigma_p, tau) == rho


def _assert_pentagon(elements, witness):
    a, b, c, d, e = (elements[i] for i in witness)
    assert e.refines(c) and c.refines(b) and b.refines(a) and e != c and c != b and b != a
    assert e.refines(d) and d.refines(a) and e != d and d != a
    assert not b.refines(d) and not d.refines(b)
    assert meet(b, d) == e and meet(c, d) == e
    assert join(b, d) == a and join(c, d) == a


def test_semimodularity_of_enumerated_instances(rc_a2, rc_a3):
    for elements in [rc_a2, rc_a3, enumerate_all(Alphabet.of_size(3), 1)]:
        rep = lattice_report(elements)
        assert rep.semimodular
        assert rep.jordan_dedekind


def test_non_atomistic_smallest_parameters(rc_a2):
    # Scanning k >= 2 by carrier size, the first failure is already (g=2, k=2):
    # the universal relation is not a join of atoms there.  Pinned.
    rep = lattice_report(rc_a2)
    assert not rep.atomistic
    assert rc_a2[rep.non_atomistic_witness].is_universal
    assert rep.atoms and all(not rc_a2[i].is_identity for i in rep.atoms)


def test_non_atomistic_at_k3_too(rc_a3):
    assert not lattice_report(rc_a3).atomistic


def test_lattice_report_rejects_non_closed_input(rc_a2):
    # Dropping the two-block middle element leaves the join of the two
    # atoms outside the input set.
    incomplete = [rc for rc in rc_a2 if len(rc.blocks) != 2]
    with pytest.raises(Exception, match="closed"):
        lattice_report(incomplete)


def test_refines_is_relation_inclusion(rc_a2):
    for r1 in rc_a2:
        for r2 in rc_a2:
            assert r1.refines(r2) == (r1.pairs() <= r2.pairs())


def test_lattice_report_refuses_malformed_lists(ab):
    ident, top = identity(ab, 2), universal(ab, 2)
    for elements, message in [
        ([], "a lattice has at least one element"),
        ([ident, top, ident], "duplicate elements"),
        ([ident, identity(ab, 1)], "congruences live on different A\\^k"),
        ([ident, identity(Alphabet("ba"), 2)], "congruences live on different A\\^k"),
    ]:
        with pytest.raises(congruences.CongruenceError, match=f"^{message}$"):
            lattice_report(elements)


def test_set_partitions_count_bell_numbers_from_the_empty_set():
    assert list(_set_partitions(range(0))) == [()]
    assert [len(list(_set_partitions(range(n)))) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_lattice_report_size_refusal(ab):
    ident = identity(ab, 2)
    with pytest.raises(BoundExceeded):
        lattice_report([ident] * 5001)
