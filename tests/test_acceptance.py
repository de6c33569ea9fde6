"""Acceptance suite: the eight exit criteria, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every exact claim is checked with Fraction equality (no
tolerances); the Monte-Carlo criterion uses its stated bounds of 0.01
total variation and 0.02 on the mean reset time at one million steps.
"""

import random
from fractions import Fraction

from semwalk import (
    Alphabet,
    IdealRep,
    LetterDistribution,
    SemaphoreCode,
    cayley,
    enumerate_all,
    enumerate_ideals,
    from_generators,
    ideal_join,
    ideal_leq,
    ideal_meet,
    identity,
    is_reset,
    is_semaphore,
    is_suffix,
    join,
    lambda_of,
    lattice_report,
    lower_approx,
    lumped,
    meet,
    profile_of_ideal,
    reset_code,
    reset_profile,
    restrict_k,
    simulate,
    solve_stationary,
    stationary,
    tau_of,
    transition_matrix,
    universal,
    upper_approx,
    validate,
    words_of_length,
    zeta,
)
from semwalk.constructions import ideal_from_members

F = Fraction


def _passed(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def _pi(ab, pa):
    return LetterDistribution(ab, (F(pa), 1 - F(pa)))


def test_acceptance_1_worked_example_fidelity(ab, five_class):
    # The five-class partition validates (fixture already did); its Cayley
    # graph carries exactly the expected edge set.
    g = cayley(five_class)
    assert g.labels == ("{aaa,aba,baa}", "{aab,bab}", "{abb}", "{bba}", "{bbb}")
    assert g.transitions == ((0, 1), (0, 2), (3, 4), (0, 1), (3, 4))

    # Transition matrix pattern, with blocks in the reference order.
    from semwalk import congruence_transition_matrix

    block_order = ["{aaa,aba,baa}", "{bba}", "{aab,bab}", "{abb}", "{bbb}"]
    for pa in (F(1, 2), F(1, 3), F(2, 7)):
        pi = _pi(ab, pa)
        pb = 1 - pa
        m = congruence_transition_matrix(five_class, pi)
        idx = [m.labels.index(x) for x in block_order]
        rows = [[m.rows[i][j] for j in idx] for i in idx]
        assert rows == [
            [pa, 0, pb, 0, 0],
            [pa, 0, pb, 0, 0],
            [pa, 0, 0, pb, 0],
            [0, pa, 0, 0, pb],
            [0, pa, 0, 0, pb],
        ]
        # Lumped stationary distribution equals the expected closed form.
        got = lumped(five_class, pi).stationary.as_dict()
        expected = {
            "{aaa,aba,baa}": pa**2 + pa**2 * pb,
            "{bba}": pa * pb**2,
            "{aab,bab}": pa * pb,
            "{abb}": pa * pb**2,
            "{bbb}": pb**3,
        }
        assert got == expected
    _passed(1, "five-class example: edges, matrix pattern, lumped stationary exact at 3 pi")


def test_acceptance_2_approximation_fidelity(ab, five_class, five_class_variant):
    low, low_ideal = lower_approx(five_class)
    assert [[str(w) for w in blk] for blk in low.blocks] == [
        ["aaa", "baa"],
        ["aab", "bab"],
        ["aba"],
        ["abb"],
        ["bba"],
        ["bbb"],
    ]
    assert {str(w) for w in low_ideal.code.words} == {"aa", "ab", "aba", "bba", "abb", "bbb"}

    # Resets: the full ideal is every length-3-or-longer word plus {aa, ab};
    # checked on all words up to length 5.
    from semwalk.oracles import words_up_to_length

    ideal = reset_code(five_class)
    for w in words_up_to_length(ab, 5):
        expected = len(w) >= 3 or str(w) in ("aa", "ab")
        assert ideal.contains(w) == expected

    lam = lambda_of(five_class)
    assert {str(w) for w in lam.per_block} == {"a", "ab", "abb", "bba", "bbb"}
    assert lower_approx(five_class)[0] == lower_approx(five_class_variant)[0]
    assert upper_approx(five_class)[0] == upper_approx(five_class_variant)[0]

    mid = ideal_from_members(ab, 3, {ab.word("aa"), ab.word("ab"), ab.word("ba")})
    t_mid = tau_of(mid)
    up, _ = upper_approx(five_class)
    assert low.refines(t_mid) and t_mid.refines(up) and low != t_mid and t_mid != up
    _passed(2, "lower/upper approximations, reset ideal, lcs set, strict middle: exact")


def test_acceptance_3_semaphore_constructions(ab):
    code = from_generators(ab, {ab.word(x) for x in ["aa", "ab", "bb"]}, 5)
    assert {str(w) for w in code.words} == {"aa", "ab", "bb", "aba", "bba"}
    assert not code.infinite_tail

    restricted = restrict_k(from_generators(ab, {ab.word("b")}, 4), 3)
    assert {str(w) for w in restricted.code.words} == {"b", "ba", "baa", "aaa"}

    check = is_semaphore(ab, [ab.word("a"), ab.word("bb")])
    assert not check.ok and check.stuck == (ab.word("a"), ab.word("b"))
    _passed(3, "generator construction, length-3 restriction, rejection witness: exact")


def test_acceptance_4_probability_theorems(ab, four_class):
    # Reset probabilities as polynomial identities, on a grid of k+2 = 5
    # distinct rational points (degree of P(l) is at most k = 3).
    for j in range(1, 6):
        pa = F(j, 6)
        prof = reset_profile(four_class, _pi(ab, pa))
        pb = 1 - pa
        assert prof.cumulative == (pa, pa + pa * pb, F(1))
    uniform = LetterDistribution.uniform(ab)
    prof = reset_profile(four_class, uniform)
    assert prof.cumulative == (F(1, 2), F(3, 4), F(1))
    assert prof.hitting_time == F(7, 4)

    # The 13-word listing (deduplicated and completed within length 5).
    entries = "aa aab aba abba babb aabb bbab abab bbba aabb babbb abbbb bbbbb".split()
    dedup = [ab.word(x) for x in dict.fromkeys(entries)]
    ideal5 = restrict_k(SemaphoreCode(ab, tuple(dedup)), 5)
    for j in range(1, 8):
        pa = F(j, 8)
        prof5 = profile_of_ideal(ideal5, _pi(ab, pa))
        assert prof5.cumulative[0] == 0
        assert prof5.cumulative[1] == pa**2
        assert prof5.cumulative[4] == 1

    # Stationary theorem against the exact linear-solve oracle, 20 random
    # (code, pi) instances.
    rng = random.Random(20240811)
    pool = [i for i in enumerate_ideals(ab, 3) if not i.code.is_epsilon]
    pool += [i for i in enumerate_ideals(Alphabet("abc"), 2) if not i.code.is_epsilon]
    for _ in range(20):
        ideal = rng.choice(pool)
        weights = [rng.randint(1, 9) for _ in ideal.alphabet.letters]
        pi = LetterDistribution(
            ideal.alphabet, tuple(F(w, sum(weights)) for w in weights)
        )
        closed = stationary(ideal, pi)
        solved = solve_stationary(transition_matrix(ideal, pi))
        assert closed.values == solved.values
    _passed(4, "reset polynomials by grid, 13-word example, stationary vs solver x20: exact")


def test_acceptance_5_lattice_theorems(ab, rc_a2):
    a4 = Alphabet.of_size(4)
    elements = enumerate_all(a4, 1)
    assert len(elements) == 15
    report = lattice_report(elements)
    assert report.semimodular and report.jordan_dedekind and not report.modular

    # The documented pentagon witness is verified as a genuine sublattice.
    W = a4.word
    sp = lambda blocks: validate(a4, 1, [[W(x) for x in blk] for blk in blocks])
    lam, rho = identity(a4, 1), universal(a4, 1)
    sigma = sp([["a", "b"], ["c"], ["d"]])
    sigma_p = sp([["a", "b"], ["c", "d"]])
    tau = sp([["a", "d"], ["b", "c"]])
    assert meet(sigma_p, tau) == lam and join(sigma, tau) == rho
    assert meet(sigma, tau) == lam and join(sigma_p, tau) == rho
    assert sigma.refines(sigma_p) and not tau.refines(sigma_p) and not sigma_p.refines(tau)

    # RC(A^2) over two letters: full filter of the 15 partitions.
    assert len(rc_a2) == 5  # pinned by the brute-force enumeration oracle
    rep2 = lattice_report(rc_a2)
    assert rep2.semimodular and rep2.jordan_dedekind

    # Non-atomisticity at the smallest parameters with k >= 2, scanning by
    # carrier size: (|A|, k) = (2, 2), witness: the universal relation.
    assert not rep2.atomistic
    assert rc_a2[rep2.non_atomistic_witness].is_universal
    _passed(5, "partition lattice flags with pentagon, RC(A^2) census = 5, non-atomistic at (2,2)")


def test_acceptance_6_isomorphism_round_trips(ab, rc_a2, rc_a3):
    for rc in rc_a2:
        assert zeta(cayley(rc), 2) == rc
    for rc in rc_a3:
        assert zeta(cayley(rc), 3) == rc

    for k in (1, 2, 3):
        ideals = enumerate_ideals(ab, k)
        taus = [tau_of(i) for i in ideals]
        for i1, t1 in zip(ideals, taus):
            for i2, t2 in zip(ideals, taus):
                assert ideal_leq(i1, i2) == t1.refines(t2)
                assert tau_of(ideal_meet(i1, i2)) == meet(t1, t2)
                assert tau_of(ideal_join(i1, i2)) == join(t1, t2)
    _passed(6, "zeta o cayley identity on 35 congruences; ideal<->SRC lattice isomorphism k<=3")


def test_acceptance_7_oracle_equivalence(ab, rc_a2, rc_a3, five_class):
    uniform = LetterDistribution.uniform(ab)
    for rc in rc_a2 + rc_a3 + [five_class]:
        prof = reset_profile(rc, uniform)
        graph = cayley(rc)
        for ell in range(1, rc.k + 1):
            brute = sum(
                (uniform.word_prob(w) for w in words_of_length(ab, ell) if is_reset(graph, w)),
                F(0),
            )
            assert prof.cumulative[ell - 1] == brute
        assert reset_profile(lower_approx(rc)[0], uniform) == prof
    _passed(7, "length-probability formula = exhaustive reset enumeration; invariant under lower approx")


def test_acceptance_8_monte_carlo(ab, five_class, four_class):
    uniform = LetterDistribution.uniform(ab)
    s3 = restrict_k(from_generators(ab, {ab.word("b")}, 4), 3)
    result = simulate(s3, uniform, steps=1_000_000, seed=20240811)
    exact = stationary(s3, uniform).as_dict()
    tv = sum(abs(f - float(exact[lbl])) for lbl, f in zip(result.labels, result.frequencies)) / 2
    assert tv < 0.01

    # Byte-exact seeded determinism.
    again = simulate(s3, uniform, steps=1_000_000, seed=20240811)
    assert again == result

    # Mean reset time within 0.02 of the exact hitting times: 7/4 for the
    # four-class special congruence, 5/2 for the five-class example.
    r_four = simulate(reset_code(four_class), uniform, steps=1_000_000, seed=7)
    assert abs(r_four.mean_reset_time - 1.75) < 0.02
    assert reset_profile(four_class, uniform).hitting_time == F(7, 4)
    r_five_class = simulate(reset_code(five_class), uniform, steps=1_000_000, seed=7)
    assert abs(r_five_class.mean_reset_time - 2.5) < 0.02
    _passed(8, f"TV {tv:.4f} < 0.01; mean reset {r_four.mean_reset_time:.4f} ~ 7/4; determinism byte-exact")
