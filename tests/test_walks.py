import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semwalk import walks
from semwalk import (
    Alphabet,
    CodeError,
    IdealRep,
    LetterDistribution,
    SemaphoreCode,
    TransitionMatrix,
    WalkError,
    cayley,
    check_polynomial_identity,
    congruence_transition_matrix,
    debruijn_stationary,
    enumerate_ideals,
    enumerate_rc,
    from_generators,
    identity,
    is_reset,
    product,
    lower_approx,
    lumped,
    polynomial_identity_holds,
    profile_of_ideal,
    reset_code,
    reset_profile,
    restrict_k,
    simulate,
    solve_stationary,
    stationary,
    transition_matrix,
    universal,
    validate,
    words_of_length,
)

F = Fraction


@pytest.fixture
def uniform(ab):
    return LetterDistribution.uniform(ab)


def pi_of(ab, pa):
    return LetterDistribution(ab, (F(pa), 1 - F(pa)))


def random_distribution(alphabet, rng):
    weights = [rng.randint(1, 9) for _ in alphabet.letters]
    total = sum(weights)
    return LetterDistribution(alphabet, tuple(F(w, total) for w in weights))


def test_letter_distribution_validation(ab):
    with pytest.raises(WalkError):
        LetterDistribution(ab, (F(1, 2), F(1, 3)))
    with pytest.raises(WalkError):
        LetterDistribution(ab, (F(3, 2), F(-1, 2)))
    with pytest.raises(WalkError):
        LetterDistribution.parse(ab, "a=1/2")
    with pytest.raises(WalkError):
        LetterDistribution.parse(ab, "a=1/2,a=1/4,b=1/4")
    pi = LetterDistribution.parse(ab, "a=1/3,b=2/3")
    assert pi.of(0) == F(1, 3) and pi.positive


def test_transition_matrix_rejects_a_row_that_does_not_sum_to_one():
    zero, half, quarter = F(0), F(1, 2), F(1, 4)
    ok = (half, zero, half)
    with pytest.raises(WalkError, match=r"^row 1 sums to 3/4, not 1$"):
        TransitionMatrix(("x", "y", "z"), (ok, (half, zero, quarter), ok))
    with pytest.raises(WalkError, match=r"^row 0 sums to 0, not 1$"):
        TransitionMatrix(("x", "y"), ((zero, zero), (half, half)))
    with pytest.raises(WalkError, match=r"^row 0 sums to 5/4, not 1$"):
        TransitionMatrix(("x", "y"), ((F(3, 2), -quarter), (half, half)))
    assert TransitionMatrix(("x", "y", "z"), (ok, ok, (zero, F(1), zero))).size == 3


def test_debruijn_stationary_examples(ab):
    assert debruijn_stationary(LetterDistribution.uniform(ab), 2).values == (F(1, 4),) * 4
    vec = debruijn_stationary(pi_of(ab, F(1, 3)), 2)
    assert vec.values == (F(1, 9), F(2, 9), F(2, 9), F(4, 9))
    assert vec.labels == ("aa", "ab", "ba", "bb")


def test_debruijn_stationary_is_fixpoint_for_random_pi(ab):
    rng = random.Random(92)
    for _ in range(5):
        pi = random_distribution(ab, rng)
        vec = debruijn_stationary(pi, 3)
        matrix = congruence_transition_matrix(identity(ab, 3), pi)
        assert matrix.left_apply(vec.values) == vec.values


def test_congruence_matrix_pattern(ab, five_class):
    # With blocks ordered ({aaa,baa,aba}, {bba}, {aab,bab},
    # {abb}, {bbb}); rows there are (pa,0,pb,0,0), (pa,0,pb,0,0),
    # (pa,0,0,pb,0), (0,pa,0,0,pb), (0,pa,0,0,pb).
    for pa in (F(1, 2), F(1, 3), F(2, 7)):
        pi = pi_of(ab, pa)
        pb = 1 - pa
        matrix = congruence_transition_matrix(five_class, pi)
        order = ["{aaa,aba,baa}", "{bba}", "{aab,bab}", "{abb}", "{bbb}"]
        idx = [matrix.labels.index(lbl) for lbl in order]
        got = [[matrix.rows[i][j] for j in idx] for i in idx]
        assert got == [
            [pa, 0, pb, 0, 0],
            [pa, 0, pb, 0, 0],
            [pa, 0, 0, pb, 0],
            [0, pa, 0, 0, pb],
            [0, pa, 0, 0, pb],
        ]


def test_transition_matrix_row_sums_for_random_instances(ab):
    rng = random.Random(418)
    pool = [i for i in enumerate_ideals(ab, 3) if not i.code.is_epsilon]
    pool += [i for i in enumerate_ideals(ab, 2) if not i.code.is_epsilon]
    for _ in range(20):
        ideal = rng.choice(pool)
        pi = random_distribution(ab, rng)
        matrix = transition_matrix(ideal, pi)
        for row in matrix.rows:
            assert sum(row) == 1


def test_transition_matrix_rejects_epsilon_code(ab, uniform):
    top = IdealRep(SemaphoreCode(ab, (ab.word(""),)), 2)
    with pytest.raises(CodeError):
        transition_matrix(top, uniform)


def test_universal_congruence_has_one_by_one_chain(ab, uniform):
    matrix = congruence_transition_matrix(universal(ab, 3), uniform)
    assert matrix.rows == ((F(1),),)


def test_stationary_closed_form_examples(ab, uniform):
    s3 = restrict_k(from_generators(ab, {ab.word("b")}, 4), 3)
    vec = stationary(s3, uniform)
    assert vec.as_dict() == {"b": F(1, 2), "ba": F(1, 4), "baa": F(1, 8), "aaa": F(1, 8)}

    low = reset_code(validate(ab, 3, [[ab.word(w) for w in blk] for blk in [
        ["aaa", "baa", "aba"], ["bba"], ["aab", "bab"], ["abb"], ["bbb"]]]))
    vec2 = stationary(low, uniform)
    assert vec2.as_dict() == {
        "aa": F(1, 4), "ab": F(1, 4), "aba": F(1, 8), "bba": F(1, 8), "abb": F(1, 8), "bbb": F(1, 8),
    }


def test_stationary_on_full_code_is_product_distribution(ab):
    pi = pi_of(ab, F(2, 5))
    ideal = IdealRep(SemaphoreCode(ab, tuple(words_of_length(ab, 2))), 2)
    assert stationary(ideal, pi).values == debruijn_stationary(pi, 2).values


def test_stationary_against_exact_solver_random_instances(ab):
    rng = random.Random(1009)
    pool = [i for i in enumerate_ideals(ab, 3) if not i.code.is_epsilon]
    pool += [i for i in enumerate_ideals(Alphabet("abc"), 2) if not i.code.is_epsilon]
    for _ in range(20):
        ideal = rng.choice(pool)
        pi = random_distribution(ideal.alphabet, rng)
        matrix = transition_matrix(ideal, pi)
        assert matrix.irreducible()
        assert solve_stationary(matrix).values == stationary(ideal, pi).values


def test_stationary_warns_on_zero_probability(ab):
    s3 = restrict_k(from_generators(ab, {ab.word("b")}, 4), 3)
    with pytest.warns(UserWarning):
        stationary(s3, LetterDistribution(ab, (F(1), F(0))))


def test_profile_four_class_polynomials(ab, four_class):
    for pa in (F(1, 3), F(2, 7), F(1, 2)):
        pi = pi_of(ab, pa)
        prof = reset_profile(four_class, pi)
        pb = 1 - pa
        assert prof.cumulative == (pa, pa + pa * pb, F(1))
    prof = reset_profile(four_class, LetterDistribution.uniform(ab))
    assert prof.cumulative == (F(1, 2), F(3, 4), F(1))
    assert prof.hitting_time == F(7, 4)


def test_profile_running_example(ab, five_class, uniform):
    prof = reset_profile(five_class, uniform)
    assert prof.cumulative == (F(0), F(1, 2), F(1))
    assert prof.increments == (F(0), F(1, 2), F(1, 2))
    assert prof.hitting_time == F(5, 2)


def test_profile_thirteen_word_example(ab):
    entries = "aa aab aba abba babb aabb bbab abab bbba aabb babbb abbbb bbbbb".split()
    dedup = [ab.word(x) for x in dict.fromkeys(entries)]
    ideal = restrict_k(SemaphoreCode(ab, tuple(dedup)), 5)
    for pa in (F(1, 3), F(2, 7), F(1, 2)):
        prof = profile_of_ideal(ideal, pi_of(ab, pa))
        pb = 1 - pa
        assert prof.cumulative[0] == 0
        assert prof.cumulative[1] == pa**2
        assert prof.cumulative[2] == pa**2 + 2 * pa**2 * pb
        assert prof.cumulative[3] == pa**2 + 2 * pa**2 * pb + 3 * pa**2 * pb**2 + 3 * pa * pb**3
        assert prof.cumulative[4] == 1


def test_profile_equals_bruteforce_reset_enumeration(ab, uniform, rc_a2, rc_a3):
    # Oracle: classify every word of each length by walking the graph.
    for rc in rc_a2 + rc_a3:
        prof = reset_profile(rc, uniform)
        graph = cayley(rc)
        for ell in range(1, rc.k + 1):
            brute = sum(
                (uniform.word_prob(w) for w in words_of_length(ab, ell) if is_reset(graph, w)),
                F(0),
            )
            assert prof.cumulative[ell - 1] == brute


def test_profile_invariant_under_lower_approximation(ab, rc_a2, rc_a3):
    for pa in (F(1, 2), F(3, 7)):
        pi = pi_of(ab, pa)
        for rc in rc_a2 + rc_a3:
            assert reset_profile(rc, pi) == reset_profile(lower_approx(rc)[0], pi)


def test_profile_universal_congruence(ab, uniform):
    prof = reset_profile(universal(ab, 3), uniform)
    assert prof.cumulative == (F(1), F(1), F(1))
    assert prof.hitting_time == F(1)


def test_profile_refuses_a_distribution_over_another_alphabet(ab):
    # Read by letter position, pi over "ba" would give the code word b the
    # probability of a: P = (2/3, 1).  stationary refuses it the same way.
    ideal = IdealRep(SemaphoreCode(ab, tuple(map(ab.word, ["b", "aa", "ba"]))), 2)
    pi = LetterDistribution(Alphabet("ba"), (F(1, 3), F(2, 3)))
    message = "^the letter distribution and the code are over different alphabets$"
    with pytest.raises(WalkError, match=message):
        profile_of_ideal(ideal, pi)
    with pytest.raises(WalkError, match=message):
        stationary(ideal, pi)
    assert profile_of_ideal(ideal, LetterDistribution(ab, (F(2, 3), F(1, 3)))).cumulative == (F(1, 3), F(1))


def test_code_probabilities_sum_to_one(ab):
    # Total code probability is exactly 1 for every ideal code and pi.
    for k in (1, 2, 3):
        for ideal in enumerate_ideals(ab, k):
            for pa in (F(1, 2), F(1, 5), F(4, 7)):
                pi = pi_of(ab, pa)
                assert sum((pi.word_prob(s) for s in ideal.code.words), F(0)) == 1


def test_polynomial_identity_checks(ab, five_class):
    assert check_polynomial_identity(five_class)
    assert check_polynomial_identity(identity(ab, 3))
    three = Alphabet("abc")
    assert check_polynomial_identity(universal(three, 1))
    with pytest.raises(WalkError):
        check_polynomial_identity(universal(Alphabet("a"), 2))


def test_polynomial_identity_detects_corruption(ab, five_class):
    code = reset_code(five_class).code
    assert polynomial_identity_holds(reset_code(five_class))
    dropped = SemaphoreCode(ab, tuple(w for w in code.words if str(w) != "bbb"))
    broken = IdealRep.__new__(IdealRep)  # bypass coverage validation on purpose
    object.__setattr__(broken, "code", dropped)
    object.__setattr__(broken, "k", 3)
    assert not polynomial_identity_holds(broken)


def test_lumped_running_example_display(ab, five_class):
    # Displayed vector, in the block order ({aaa,baa,aba}, {bba}, {aab,bab},
    # {abb}, {bbb}): (pa^2 + pa^2 pb, pa pb^2, pa pb, pa pb^2, pb^3).
    for pa in (F(1, 2), F(1, 3), F(3, 5)):
        pi = pi_of(ab, pa)
        pb = 1 - pa
        lw = lumped(five_class, pi)
        got = lw.stationary.as_dict()
        assert got["{aaa,aba,baa}"] == pa**2 + pa**2 * pb
        assert got["{bba}"] == pa * pb**2
        assert got["{aab,bab}"] == pa * pb
        assert got["{abb}"] == pa * pb**2
        assert got["{bbb}"] == pb**3


def test_lumped_uniform_values(ab, five_class, uniform):
    lw = lumped(five_class, uniform)
    assert lw.stationary.labels == ("{aaa,aba,baa}", "{aab,bab}", "{abb}", "{bba}", "{bbb}")
    assert lw.stationary.values == (F(3, 8), F(1, 4), F(1, 8), F(1, 8), F(1, 8))


def test_lumped_matrix_equals_class_walk_matrix(ab, five_class, uniform):
    assert lumped(five_class, uniform).matrix == congruence_transition_matrix(five_class, uniform)


def test_lumped_universal(ab, uniform):
    lw = lumped(universal(ab, 3), uniform)
    assert lw.stationary.values == (F(1),)
    assert lw.matrix.rows == ((F(1),),)


def test_lumped_universal_checks_the_alphabet(ab):
    xy = LetterDistribution.uniform(Alphabet("xy"))
    with pytest.raises(WalkError, match="different alphabets"):
        lumped(universal(ab, 3), xy)


def test_lumped_checks_each_letter_of_each_code_word(five_class, uniform, monkeypatch):
    # At the uniform distribution, swapping the two letter columns of every
    # code word leaves the class sums of each row unchanged, so a check on
    # row sums misses it; the letter by letter check against the Cayley
    # table does not.
    table = walks.action_table
    monkeypatch.setattr(walks, "action_table", lambda code: [row[::-1] for row in table(code)])
    with pytest.raises(AssertionError, match="^lumpability violated at code word aa$"):
        lumped(five_class, uniform)


def test_lumped_two_routes_agree_everywhere(ab, rc_a2, rc_a3):
    # lumped() internally computes the stationary vector from code words
    # and from de Bruijn lumping and raises if they ever disagree; it also
    # checks each letter of each code word against the Cayley table.
    # Running it across every enumerated congruence at three distributions
    # is the check.
    for rc in rc_a2 + rc_a3:
        for pa in (F(1, 2), F(1, 3), F(2, 7)):
            lw = lumped(rc, pi_of(ab, pa))
            assert sum(lw.stationary.values) == 1


def test_simulate_is_deterministic(ab, uniform):
    s3 = restrict_k(from_generators(ab, {ab.word("b")}, 4), 3)
    r1 = simulate(s3, uniform, steps=30_000, seed=42)
    r2 = simulate(s3, uniform, steps=30_000, seed=42)
    assert r1 == r2
    r3 = simulate(s3, uniform, steps=30_000, seed=43)
    assert r3 != r1


def test_simulate_matches_closed_form(ab, uniform):
    s3 = restrict_k(from_generators(ab, {ab.word("b")}, 4), 3)
    result = simulate(s3, uniform, steps=200_000, seed=7)
    exact = stationary(s3, uniform).as_dict()
    tv = sum(abs(f - float(exact[lbl])) for lbl, f in zip(result.labels, result.frequencies)) / 2
    assert tv < 0.01
    assert abs(result.mean_reset_time - 7 / 4) < 0.02


def test_simulate_mean_reset_times(ab, five_class, four_class, uniform):
    r_five_class = simulate(reset_code(five_class), uniform, steps=200_000, seed=11)
    assert abs(r_five_class.mean_reset_time - 5 / 2) < 0.02
    r_four = simulate(reset_code(four_class), uniform, steps=200_000, seed=11)
    assert abs(r_four.mean_reset_time - 7 / 4) < 0.02


def test_simulate_validations(ab, uniform):
    s3 = restrict_k(from_generators(ab, {ab.word("b")}, 4), 3)
    with pytest.raises(WalkError):
        simulate(s3, uniform, steps=0, seed=1)
    with pytest.raises(WalkError):
        simulate(s3, LetterDistribution(ab, (F(1), F(0))), steps=10, seed=1)


@pytest.mark.parametrize("steps", [2.5, 10.0, True, "10", None])
def test_simulate_rejects_steps_that_are_not_an_int(ab, uniform, steps):
    s3 = restrict_k(from_generators(ab, {ab.word("b")}, 4), 3)
    with pytest.raises(WalkError):
        simulate(s3, uniform, steps=steps, seed=1)


def test_simulate_holds_one_block_of_letters_at_a_time(ab, uniform):
    """A whole 10^6-letter stream would take several MB; one block is 16 kB."""
    ideal = reset_code(identity(ab, 8))
    assert len(ideal.code.words) == 256
    simulate(ideal, uniform, steps=10, seed=1)
    tracemalloc.start()
    try:
        simulate(ideal, uniform, steps=1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_irreducibility_reported_for_all_enumerated_codes(ab, uniform):
    # Not assumed anywhere: measured on the support graph and recorded here.
    for k in (2, 3):
        for ideal in enumerate_ideals(ab, k):
            if ideal.code.is_epsilon:
                continue
            assert transition_matrix(ideal, uniform).irreducible()


@given(pa_num=st.integers(1, 9))
@settings(max_examples=9, deadline=None)
def test_profile_monotonicity_property(pa_num):
    ab = Alphabet("ab")
    pi = LetterDistribution(ab, (F(pa_num, 10), 1 - F(pa_num, 10)))
    for ideal in enumerate_ideals(ab, 3):
        prof = profile_of_ideal(ideal, pi)
        assert all(x <= y for x, y in zip(prof.cumulative, prof.cumulative[1:]))
        assert prof.cumulative[-1] == 1
        assert all(p >= 0 for p in prof.increments)
        assert 1 <= prof.hitting_time <= 3


def test_transition_matrix_rejects_the_empty_chain():
    with pytest.raises(WalkError, match="at least one state"):
        TransitionMatrix((), ())


def test_irreducibility_fails_on_a_reducible_chain():
    one, zero = F(1), F(0)
    assert not TransitionMatrix(("x", "y"), ((one, zero), (zero, one))).irreducible()
    assert not TransitionMatrix(("x", "y"), ((one, zero), (F(1, 2), F(1, 2)))).irreducible()
    assert TransitionMatrix(("x", "y"), ((zero, one), (one, zero))).irreducible()


def test_class_walk_matrix_against_word_products_on_all_of_rc_abc_2():
    # Oracle: block b sends pi(a) to the block of (least word of b)*a,
    # truncated to length k, and its label lists its words.
    abc, k = Alphabet("abc"), 2
    pi = LetterDistribution(abc, (F(1, 2), F(1, 3), F(1, 6)))
    elements = enumerate_rc(abc, k, carrier_bound=9)
    assert len(elements) == 192
    for rc in elements:
        n = len(rc.blocks)
        rows = [[F(0)] * n for _ in range(n)]
        for b, blk in enumerate(rc.blocks):
            for i, a in enumerate(abc):
                rows[b][rc.block_of[product(blk[0], a, k)]] += pi.probs[i]
        labels = tuple("{" + ",".join(str(w) for w in blk) + "}" for blk in rc.blocks)
        assert congruence_transition_matrix(rc, pi) == TransitionMatrix(labels, tuple(map(tuple, rows)))
    with pytest.raises(WalkError, match="different alphabets"):
        congruence_transition_matrix(elements[0], LetterDistribution.uniform(Alphabet("ab")))
