import json
from contextlib import contextmanager
from itertools import chain, combinations
from pathlib import Path

import pytest

from semwalk import (
    Alphabet,
    ClosureViolation,
    CodeError,
    CongruenceError,
    IdealRep,
    SemaphoreCode,
    code_action,
    enumerate_ideals,
    epsilon,
    from_generators,
    ideal_join,
    ideal_leq,
    ideal_meet,
    identity,
    is_semaphore,
    is_special,
    is_suffix,
    join,
    lambda_of,
    lower_approx,
    meet,
    reset_code,
    restrict_k,
    semaphore_code,
    src_lattice,
    suffix_classes,
    tau_of,
    universal,
    upper_approx,
    validate,
    words_of_length,
)
from semwalk.constructions import ideal_from_members
from semwalk.congruences import validate_keys
from semwalk.oracles import words_up_to_length
from semwalk.words import Word

EQ3_CODE = ["aa", "ab", "aba", "bba", "abb", "bbb"]


def mkcode(alphabet, names):
    return SemaphoreCode(alphabet, tuple(alphabet.word(x) for x in names))


def test_is_semaphore_counterexample(ab):
    check = is_semaphore(ab, [ab.word("a"), ab.word("bb")])
    assert not check.ok
    assert check.stuck == (ab.word("a"), ab.word("b"))


def test_is_semaphore_running_code(ab):
    assert is_semaphore(ab, [ab.word(x) for x in EQ3_CODE]).ok


def test_is_semaphore_epsilon_code(ab):
    assert is_semaphore(ab, [epsilon(ab)]).ok


def test_is_semaphore_suffix_violation(ab):
    check = is_semaphore(ab, [ab.word("a"), ab.word("ba")])
    assert not check.ok
    assert check.comparable == (ab.word("a"), ab.word("ba"))
    with pytest.raises(CodeError, match="suffix"):
        semaphore_code(ab, [ab.word("a"), ab.word("ba")])


def test_from_generators_infinite_family(ab):
    code = from_generators(ab, {ab.word("b")}, 4)
    assert [str(w) for w in code.words] == ["b", "ba", "baa", "baaa"]
    assert code.infinite_tail


def test_from_generators_finite_family(ab):
    code = from_generators(ab, {ab.word(x) for x in ["aa", "ab", "bb"]}, 5)
    assert [str(w) for w in code.words] == ["aa", "ab", "bb", "aba", "bba"]
    assert not code.infinite_tail
    assert is_semaphore(ab, list(code.words)).ok


def test_from_generators_epsilon(ab):
    code = from_generators(ab, {epsilon(ab)}, 3)
    assert code.is_epsilon


def test_from_generators_validations(ab):
    with pytest.raises(CodeError):
        from_generators(ab, set(), 3)
    with pytest.raises(CodeError):
        from_generators(ab, {ab.word("aaa")}, 2)


def test_from_generators_truncation_aware_closure(ab):
    # On the known part of a truncated code, every action either stays
    # inside the code or would exceed the truncation length.
    code = from_generators(ab, {ab.word("b")}, 4)
    for s in code.words:
        for a in ab:
            sa = s.concat(a)
            has_suffix = any(is_suffix(t, sa) for t in code.words)
            assert has_suffix or len(sa) > 4


def test_reset_codes_are_semaphore_codes(rc_a2, rc_a3):
    for rc in rc_a2 + rc_a3:
        ideal = reset_code(rc)
        assert is_semaphore(rc.alphabet, list(ideal.code.words)).ok


def test_restrict_k_infinite_code(ab):
    code = from_generators(ab, {ab.word("b")}, 4)
    ideal = restrict_k(code, 3)
    assert [str(w) for w in ideal.code.words] == ["b", "ba", "aaa", "baa"]
    assert is_semaphore(ab, list(ideal.code.words)).ok


def test_restrict_k_fixed_point(ab):
    ideal = restrict_k(mkcode(ab, EQ3_CODE), 3)
    assert set(ideal.code.words) == {ab.word(x) for x in EQ3_CODE}


def test_restrict_k_rejects_epsilon_and_short_truncations(ab):
    with pytest.raises(CodeError):
        restrict_k(SemaphoreCode(ab, (epsilon(ab),)), 3)
    truncated = from_generators(ab, {ab.word("b")}, 2)
    with pytest.raises(CodeError):
        restrict_k(truncated, 3)


def test_code_action_on_infinite_family(ab):
    code = from_generators(ab, {ab.word("b")}, 4)
    assert str(code_action(code, ab.word("baa"), ab.word("a"))) == "baaa"
    assert str(code_action(code, ab.word("baa"), ab.word("b"))) == "b"


def test_code_action_running_code(ab):
    code = mkcode(ab, EQ3_CODE)
    # Oracle: intersect the suffixes of "abab" with the code by hand.
    got = code_action(code, ab.word("aba"), ab.word("b"))
    suffix_hits = [w for w in code.words if is_suffix(w, ab.word("abab"))]
    assert suffix_hits == [got]
    assert str(got) == "ab"


def test_code_action_rejects_non_member(ab):
    code = mkcode(ab, EQ3_CODE)
    with pytest.raises(CodeError):
        code_action(code, ab.word("ba"), ab.word("a"))


def test_code_action_refuses_the_epsilon_code(ab):
    code = SemaphoreCode(ab, [epsilon(ab)])
    with pytest.raises(CodeError, match="^the action is not defined on the epsilon code$"):
        code_action(code, epsilon(ab), ab.word("a"))


def test_ideal_rep_refuses_a_truncated_code(ab):
    truncated = from_generators(ab, {ab.word("b")}, 3)
    assert truncated.infinite_tail
    with pytest.raises(CodeError, match="^an ideal representation requires the full finite code$"):
        IdealRep(truncated, 3)


def test_ideal_rep_invariants(ab):
    with pytest.raises(CodeError, match="longer than k"):
        IdealRep(mkcode(ab, EQ3_CODE), 2)
    with pytest.raises(CodeError, match="no suffix"):
        IdealRep(mkcode(ab, ["aa"]), 2)


def test_ideal_rep_requires_a_suffix_code(ab):
    with pytest.raises(CodeError, match="not a suffix code: b is a suffix of ab"):
        IdealRep(mkcode(ab, ["a", "b", "ab"]), 2)
    with pytest.raises(CodeError, match="not a suffix code:  is a suffix of a"):
        IdealRep(mkcode(ab, ["", "a", "b"]), 1)
    assert IdealRep(mkcode(ab, [""]), 2).code.is_epsilon


def test_code_words_must_be_over_the_code_alphabet(ab):
    abc = Alphabet("abc")
    with pytest.raises(CodeError, match="^code word c is not over the alphabet 'ab'$"):
        SemaphoreCode(ab, (abc.word("c"),))
    # The first stray word in the given order is named, also when its letters are in ab.
    with pytest.raises(CodeError, match="^code word b is not over the alphabet 'ab'$"):
        SemaphoreCode(ab, (ab.word("a"), abc.word("b"), abc.word("c")))
    with pytest.raises(CodeError, match="^code word  is not over the alphabet 'abc'$"):
        SemaphoreCode(abc, (epsilon(ab),))


def test_a_word_over_another_alphabet_is_in_no_code_and_no_ideal(ab):
    code = mkcode(ab, ["a", "b"])
    ideal = IdealRep(code, 1)
    # c and a have the same key, (1, 0), over cd and over ab.
    for w in [Alphabet("cd").word("c"), Alphabet("cd").word("dc"), Alphabet("abc").word("a")]:
        assert w not in code
        assert not code.in_ideal(w)
        assert not ideal.contains(w)
    assert code.in_ideal(ab.word("ba")) and ideal.contains(ab.word("ba"))


def test_an_ideal_refuses_a_member_over_another_alphabet(ab):
    # c over cd has a's key; z over xyz is the third letter, past A^1 of ab.
    for word, text in [(Alphabet("cd").word("c"), "c"), (Alphabet("xyz").word("z"), "z")]:
        with pytest.raises(CodeError, match=f"^member {text} is not over the alphabet 'ab'$"):
            ideal_from_members(ab, 2, {ab.word("b"), word})


def test_ideal_operations_refuse_ideals_of_different_settings(ab):
    ideal = IdealRep(mkcode(ab, ["a", "b"]), 2)
    for other in [IdealRep(mkcode(ab, ["a", "b"]), 3), IdealRep(mkcode(Alphabet("abc"), ["a", "b", "c"]), 2)]:
        for operation in [ideal_meet, ideal_join, ideal_leq]:
            with pytest.raises(CodeError, match="^ideals live in different A\\^k settings$"):
                operation(ideal, other)


def test_a_code_holds_its_words_as_sorted_keys(ab):
    words = [ab.word(x) for x in ["b", "ba", "baa", "aaa"]]
    code = SemaphoreCode(ab, iter(words))
    assert code.keys == ((1, 1), (2, 2), (3, 0), (3, 4))
    assert [str(w) for w in code.words] == ["b", "ba", "aaa", "baa"]
    assert code == SemaphoreCode.from_keys(ab, [(3, 4), (1, 1), (3, 0), (2, 2)]) == SemaphoreCode(ab, words[::-1])
    assert hash(code) == hash(SemaphoreCode(ab, words[::-1]))
    assert code.max_len == 3 and not code.is_epsilon and SemaphoreCode(ab, [epsilon(ab)]).is_epsilon


def test_a_repeated_code_word_is_refused(ab):
    with pytest.raises(CodeError, match="^repeated code word 'ab'$"):
        SemaphoreCode(ab, [ab.word(x) for x in ["ab", "b", "ab", "aa"]])
    with pytest.raises(CodeError, match="^repeated code word ''$"):
        SemaphoreCode.from_keys(ab, [(0, 0), (0, 0)])


def test_tau_of_running_code(ab, five_class):
    rc = tau_of(IdealRep(mkcode(ab, EQ3_CODE), 3))
    assert [[str(w) for w in blk] for blk in rc.blocks] == [
        ["aaa", "baa"],
        ["aab", "bab"],
        ["aba"],
        ["abb"],
        ["bba"],
        ["bbb"],
    ]
    assert rc == lower_approx(five_class)[0]


def test_tau_of_four_class_code(ab, four_class):
    rc = tau_of(IdealRep(mkcode(ab, ["a", "ab", "abb", "bbb"]), 3))
    assert rc == four_class


def test_tau_of_full_length_code_is_identity(ab):
    ideal = IdealRep(SemaphoreCode(ab, tuple(words_of_length(ab, 3))), 3)
    assert tau_of(ideal).is_identity


def test_tau_of_refuses_k_below_one(ab):
    # The epsilon code covers A^0, so it holds an ideal at k = 0, but A^0 carries no congruence.
    with pytest.raises(CongruenceError, match="^k must be >= 1$"):
        tau_of(IdealRep(SemaphoreCode.from_keys(ab, [(0, 0)]), 0))


def test_tau_of_left_ideal_counterexample(ab):
    # The suffix-minimal words of a left ideal that is not two-sided still
    # bucket A^3, but the partition is not closed under the action.
    left_basis = mkcode(ab, ["b", "aaa", "aba", "baa", "bba"])
    blocks = suffix_classes(ab, 3, left_basis)
    with pytest.raises(ClosureViolation):
        validate(ab, 3, blocks)


NOT_SEMAPHORE = "^no suffix of ab in the code; code is not semaphore or is truncated$"


def test_tau_of_a_covering_code_that_is_not_semaphore_raises_the_witness(ab):
    # {a, bb, aab, bab} covers A^3, but a+b has no suffix in it: IdealRep
    # refuses it, so tau_of never sees it.  Its classes are not closed, and
    # validate raises the witness.
    code = mkcode(ab, ["a", "bb", "aab", "bab"])
    with pytest.raises(CodeError, match=NOT_SEMAPHORE):
        IdealRep(code, 3)

    @contextmanager
    def passing_through():
        yield

    with pytest.raises(ClosureViolation) as info, passing_through():
        validate(ab, 3, suffix_classes(ab, 3, code))
    assert (str(info.value.u), str(info.value.v), str(info.value.letter)) == ("aaa", "aba", "b")


def test_constructions_refuse_an_ideal_that_is_only_a_left_ideal(ab):
    # A*a and A*{a, aab, bab, abb, bbb} are left ideals, not two-sided: ab has no suffix in the code.
    with pytest.raises(CodeError, match=NOT_SEMAPHORE):
        ideal_from_members(ab, 3, {ab.word("a")})
    with pytest.raises(CodeError, match=NOT_SEMAPHORE):
        restrict_k(mkcode(ab, ["a", "aab", "bab", "abb", "bbb"]), 3)


def test_suffix_classes_requires_unique_suffix(ab):
    with pytest.raises(CodeError, match="expected exactly 1"):
        suffix_classes(ab, 2, mkcode(ab, ["a", "ba"]))


def test_suffix_classes_scan_the_words_of_the_given_alphabet(ab):
    # The code {a, b} covers A^2 over ab, but not the word ac over abc.
    with pytest.raises(CodeError, match="^ac has 0 suffixes in the code, expected exactly 1$"):
        suffix_classes(Alphabet("abc"), 2, mkcode(ab, ["a", "b"]))


def test_lambda_of_running_examples(ab, five_class, five_class_variant):
    lam = lambda_of(five_class)
    assert sorted(str(w) for w in lam.per_block) == ["a", "ab", "abb", "bba", "bbb"]
    lam2 = lambda_of(five_class_variant)
    assert sorted(str(w) for w in lam2.per_block) == ["a", "ab", "aba", "abb", "bbb"]
    # Both lcs sets generate the same ideal with code {a, ab, abb, bbb}.
    assert lam.ideal == lam2.ideal
    assert [str(w) for w in lam.ideal.code.words] == ["a", "ab", "abb", "bbb"]


def test_lambda_prime_generates_same_ideal(ab, five_class):
    lam = lambda_of(five_class)
    short = set(words_up_to_length(ab, 2))
    span = lambda gens: {w for w in short if any(is_suffix(s, w) for s in gens)}
    assert span(lam.per_block) == span(lam.per_pair)
    # Every word of A^k shows up in the pairwise lcs set (diagonal pairs).
    assert set(words_of_length(ab, 3)) <= set(lam.per_pair)


def test_lambda_of_identity(ab):
    lam = lambda_of(identity(ab, 2))
    assert sorted(str(w) for w in lam.per_block) == ["aa", "ab", "ba", "bb"]


def test_is_special(ab, five_class, four_class):
    assert not is_special(five_class)
    assert is_special(tau_of(IdealRep(mkcode(ab, EQ3_CODE), 3)))
    assert is_special(four_class)
    assert is_special(universal(ab, 3))
    with pytest.raises(CodeError):
        is_special(universal(Alphabet("a"), 2))


def test_lower_approx_running_example(ab, five_class):
    low, ideal = lower_approx(five_class)
    assert [str(w) for w in ideal.code.words] == ["aa", "ab", "aba", "abb", "bba", "bbb"]
    assert low == tau_of(IdealRep(mkcode(ab, EQ3_CODE), 3))
    assert low.refines(five_class)
    assert is_special(low)


def test_upper_approx_running_example(ab, five_class, four_class):
    up, ideal = upper_approx(five_class)
    assert up == four_class
    assert [str(w) for w in ideal.code.words] == ["a", "ab", "abb", "bbb"]
    assert five_class.refines(up)


def test_approximations_fixed_on_special(ab, four_class):
    assert lower_approx(four_class)[0] == four_class
    assert upper_approx(four_class)[0] == four_class


def test_distinct_congruences_sharing_both_approximations(five_class, five_class_variant):
    assert five_class != five_class_variant
    assert lower_approx(five_class)[0] == lower_approx(five_class_variant)[0]
    assert upper_approx(five_class)[0] == upper_approx(five_class_variant)[0]
    assert reset_code(five_class) == reset_code(five_class_variant)


def test_strict_middle_ideal(ab, five_class):
    mid = ideal_from_members(ab, 3, {ab.word("aa"), ab.word("ab"), ab.word("ba")})
    assert [str(w) for w in mid.code.words] == ["aa", "ab", "ba", "abb", "bbb"]
    t_mid = tau_of(mid)
    low, _ = lower_approx(five_class)
    up, _ = upper_approx(five_class)
    assert low.refines(t_mid) and t_mid.refines(up)
    assert low != t_mid and t_mid != up


def test_sandwich_closes_over_all_enumerated(rc_a2, rc_a3):
    for rc in rc_a2 + rc_a3:
        low, _ = lower_approx(rc)
        up, _ = upper_approx(rc)
        assert low.refines(rc) and rc.refines(up)
        assert is_special(low) and is_special(up)
        assert reset_code(low) == reset_code(rc)


def test_reset_code_trivial_cases(ab):
    assert [str(w) for w in reset_code(identity(ab, 3)).code.words] == [
        str(w) for w in words_of_length(ab, 3)
    ]
    assert reset_code(universal(ab, 3)).code.is_epsilon


def test_src_lattice_k1(ab):
    srcs = src_lattice(ab, 1)
    assert len(srcs) == 2
    assert identity(ab, 1) in srcs and universal(ab, 1) in srcs
    ideals = enumerate_ideals(ab, 1)
    codes = {str(i.code) for i in ideals}
    assert codes == {"{a,b}", "{eps}"}


def test_src_lattice_counts_pinned(ab):
    assert len(src_lattice(ab, 2)) == 5
    assert len(src_lattice(ab, 3)) == 22
    assert len({str(rc) for rc in src_lattice(ab, 3)}) == 22


def test_src_lattice_rejects_one_letter():
    with pytest.raises(CodeError):
        src_lattice(Alphabet("a"), 2)


def test_enumerate_ideals_against_subset_oracle(ab):
    # Independent oracle: scan every subset of nonempty words of length <= k
    # (plus the epsilon code) for suffix codes that cover A^k and satisfy
    # the semaphore closure.
    k = 2
    pool = words_up_to_length(ab, k)
    found = set()
    for r in range(1, len(pool) + 1):
        for subset in combinations(pool, r):
            if not is_semaphore(ab, list(subset)).ok:
                continue
            if all(any(is_suffix(s, w) for s in subset) for w in words_of_length(ab, k)):
                found.add(tuple(sorted(subset)))
    found.add((epsilon(ab),))
    enumerated = {tuple(sorted(i.code.words)) for i in enumerate_ideals(ab, k)}
    assert enumerated == found


def test_ideal_lattice_isomorphism(ab):
    ideals = enumerate_ideals(ab, 3)
    taus = [tau_of(i) for i in ideals]
    for i1, t1 in zip(ideals, taus):
        for i2, t2 in zip(ideals, taus):
            assert ideal_leq(i1, i2) == t1.refines(t2)
            assert tau_of(ideal_meet(i1, i2)) == meet(t1, t2)
            assert tau_of(ideal_join(i1, i2)) == join(t1, t2)
            # The join of two special congruences is their plain union.
            assert join(t1, t2).pairs() == t1.pairs() | t2.pairs()


def test_ideal_bounds(ab):
    ideals = enumerate_ideals(ab, 2)
    taus = [tau_of(i) for i in ideals]
    assert identity(ab, 2) in taus  # bottom: the ideal generated by A^k
    assert universal(ab, 2) in taus  # top: all of A*, code {eps}


def test_thirteen_word_code_with_repeated_entry(ab):
    # A 13-word code list with one entry repeated: the 12 distinct words are
    # not a semaphore code (the repeat masks a missing word), and completing
    # them within length 5 adds exactly one word that restores closure and
    # the expected reset polynomial.
    entries = "aa aab aba abba babb aabb bbab abab bbba aabb babbb abbbb bbbbb".split()
    dedup = [ab.word(x) for x in dict.fromkeys(entries)]
    assert len(dedup) == 12
    check = is_semaphore(ab, dedup)
    assert not check.ok
    assert check.stuck == (ab.word("aabb"), ab.word("b"))

    completed = restrict_k(SemaphoreCode(ab, tuple(dedup)), 5)
    added = set(completed.code.words) - set(dedup)
    assert {str(w) for w in added} == {"aabbb"}
    assert is_semaphore(ab, list(completed.code.words)).ok
    assert is_special(tau_of(completed))


def test_semaphore_code_accepts_a_semaphore_code(ab):
    code = semaphore_code(ab, [ab.word(w) for w in ["b", "ba", "baa", "aaa"]])
    assert str(code) == "{b,ba,aaa,baa}"
    assert not code.infinite_tail


def test_semaphore_code_refuses_a_suffix_code_that_is_not_closed(ab):
    # A suffix code covering A^3, but a+b has no suffix in it.
    words = [ab.word(w) for w in ["a", "aab", "bab", "abb", "bbb"]]
    with pytest.raises(CodeError) as info:
        semaphore_code(ab, words)
    assert str(info.value) == "not a semaphore code: a+b has no suffix in the code"
    # A truncated code may leave its known part, so it is accepted.
    code = semaphore_code(ab, words, infinite_tail=True)
    assert code.infinite_tail and set(code.words) == set(words)


@pytest.mark.parametrize("name", ["g3_k3.json", "five_class.json"])
def test_upper_approx_and_is_special_build_no_word(monkeypatch, name):
    # The lcs scan and the ideal run on keys; words are only a rendering.
    data = json.loads((Path(__file__).parent / "golden" / name).read_text())
    alphabet = Alphabet(data["alphabet"])
    rc = validate_keys(alphabet, data["k"], [alphabet.keys_of(blk) for blk in data["blocks"]])
    built = []
    init = Word.__init__
    monkeypatch.setattr(Word, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    upper_approx(rc)
    is_special(rc)
    assert built == []


def test_code_texts_render_the_code_words_from_their_keys(ab):
    codes = [ideal.code for g, k in [(2, 3), (3, 2)] for ideal in enumerate_ideals(Alphabet.of_size(g), k)]
    golden = sorted((Path(__file__).parent / "golden").glob("code_*.json"))
    assert len(golden) == 5
    for path in golden:
        data = json.loads(path.read_text())
        alphabet = Alphabet(data["alphabet"])
        codes.append(SemaphoreCode.from_keys(alphabet, alphabet.keys_of(data["code"])))
    for code in codes:
        assert code.texts == tuple(map(str, code.words))
    eps = SemaphoreCode(ab, [epsilon(ab)])
    assert eps.texts == ("",) and str(eps) == "{eps}"
