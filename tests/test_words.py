import copy
import pickle
import random
import re
from itertools import product as iproduct
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semwalk as sw
from semwalk import (
    Alphabet,
    Word,
    WordError,
    epsilon,
    identity,
    is_factor,
    is_prefix,
    is_suffix,
    lcs,
    lcs_of,
    product,
    truncate_suffix,
    words_of_length,
)
from semwalk.oracles import suffixes, words_up_to_length
from semwalk.congruences import validate_keys
from semwalk.words import DEFAULT_ENUMERATION_LIMIT, WordLimitExceeded, _Frozen, _read_keys, count_of_length


@pytest.fixture
def ab():
    return Alphabet("ab")


def test_alphabet_validation():
    assert Alphabet.of_size(3).letters == "abc"
    with pytest.raises(WordError):
        Alphabet("")
    with pytest.raises(WordError):
        Alphabet("aa")


def test_word_parsing_and_rendering(ab):
    assert str(ab.word("abab")) == "abab"
    assert len(ab.word("abab")) == 4
    assert str(epsilon(ab)) == ""
    with pytest.raises(WordError):
        ab.word("abc")
    for indices in [(0, 2), (-1,)]:
        with pytest.raises(WordError, match="^letter index out of range for alphabet 'ab'$"):
            Word(ab, indices)


def test_truncate_suffix(ab):
    assert str(truncate_suffix(ab.word("abab"), 3)) == "bab"
    assert str(truncate_suffix(ab.word("ab"), 3)) == "ab"
    assert str(truncate_suffix(ab.word("bba"), 3)) == "bba"
    with pytest.raises(WordError):
        truncate_suffix(ab.word("ab"), 0)


def test_product_examples(ab):
    assert str(product(ab.word("ab"), ab.word("ba"), 3)) == "bba"
    assert str(product(ab.word("aba"), ab.word("a"), 3)) == "baa"
    assert str(product(ab.word("aba"), ab.word("bbb"), 3)) == "bbb"
    assert str(product(ab.word("b"), ab.word("a"), 3)) == "ba"


def test_product_rejects_epsilon(ab):
    with pytest.raises(WordError):
        product(epsilon(ab), ab.word("a"), 3)
    with pytest.raises(WordError):
        product(ab.word("a"), epsilon(ab), 3)


def test_product_of_full_length_word_is_reset(ab):
    # Appending any length-k word lands exactly on it; shorter words never do.
    for u in words_of_length(ab, 3):
        for v in words_of_length(ab, 3):
            assert product(u, v, 3) == v
        for v in words_of_length(ab, 2):
            assert product(u, v, 3) != v


def test_product_associativity_sampled():
    rng = random.Random(20240811)
    checked = 0
    while checked < 1000:
        g = rng.randint(1, 3)
        k = rng.randint(1, 5)
        alphabet = Alphabet.of_size(g)
        u, v, w = (
            Word(alphabet, [rng.randrange(g) for _ in range(rng.randint(1, k + 2))])
            for _ in range(3)
        )
        assert product(product(u, v, k), w, k) == product(u, product(v, w, k), k)
        checked += 1


@given(
    g=st.integers(1, 3),
    k=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_product_length_law(g, k, data):
    alphabet = Alphabet.of_size(g)
    mk = lambda: Word(alphabet, data.draw(st.lists(st.integers(0, g - 1), min_size=1, max_size=k + 2)))
    u, v = mk(), mk()
    assert len(product(u, v, k)) == min(k, len(u) + len(v))


def test_lcs_examples(ab):
    assert str(lcs(ab.word("aab"), ab.word("bab"))) == "ab"
    assert lcs(ab.word("aaa"), ab.word("bbb")).is_empty
    assert str(lcs(ab.word("abb"), ab.word("abb"))) == "abb"
    assert str(lcs_of([ab.word("aaa"), ab.word("aba"), ab.word("baa")])) == "a"
    with pytest.raises(WordError, match="^lcs_of requires at least one word$"):
        lcs_of([])


def test_lcs_is_maximal_common_suffix(ab):
    # Exhaustive cross-check against suffix-set intersection on A^{<=4}.
    all_words = [epsilon(ab)] + words_up_to_length(ab, 4)
    for u in all_words:
        for v in all_words:
            common = set(suffixes(u)) & set(suffixes(v))
            best = max(common, key=len)
            assert lcs(u, v) == best


def test_orders_examples(ab):
    assert is_suffix(ab.word("aa"), ab.word("baa"))
    assert not is_prefix(ab.word("aa"), ab.word("baa"))
    assert is_factor(ab.word("ab"), ab.word("babb"))
    e = epsilon(ab)
    for w in words_of_length(ab, 3):
        assert is_suffix(e, w) and is_prefix(e, w) and is_factor(e, w)


@pytest.mark.parametrize("relation", [is_suffix, is_prefix, is_factor])
def test_orders_are_partial_orders(ab, relation):
    words = [epsilon(ab)] + words_up_to_length(ab, 4)
    for u in words:
        assert relation(u, u)
    for u in words:
        for v in words:
            if relation(u, v) and relation(v, u):
                assert u == v
            for w in words:
                if relation(u, v) and relation(v, w):
                    assert relation(u, w)


def test_words_of_length_order_and_counts(ab):
    assert [str(w) for w in words_of_length(ab, 1)] == ["a", "b"]
    assert [str(w) for w in words_of_length(ab, 2)] == ["aa", "ab", "ba", "bb"]
    assert [str(w) for w in words_of_length(Alphabet("a"), 3)] == ["aaa"]
    assert len(words_of_length(Alphabet.of_size(3), 4)) == 81
    assert [str(w) for w in words_of_length(ab, 0)] == [""]


def test_words_of_length_overflow_guard(ab):
    with pytest.raises(WordError):
        words_of_length(ab, 20, limit=1000)


def test_words_of_length_bounds_the_length_of_a_one_letter_word():
    a = Alphabet("a")
    with pytest.raises(WordLimitExceeded, match="refusing to build a word of length 65537"):
        words_of_length(a, DEFAULT_ENUMERATION_LIMIT + 1)
    with pytest.raises(WordLimitExceeded):
        words_of_length(a, 11, limit=10)
    assert [len(w) for w in words_of_length(a, 10, limit=10)] == [10]


def test_word_ordering_is_shortlex(ab):
    ws = sorted([ab.word(s) for s in ["ba", "b", "aaa", "ab", "a"]])
    assert [str(w) for w in ws] == ["a", "b", "ab", "ba", "aaa"]


def test_mixed_alphabet_operations_rejected():
    a2, a3 = Alphabet("ab"), Alphabet("abc")
    with pytest.raises(WordError):
        product(a2.word("a"), a3.word("a"), 2)
    with pytest.raises(WordError):
        lcs(a2.word("a"), a3.word("a"))


def test_alphabet_of_size_rejects_sizes_outside_the_letter_pool():
    assert Alphabet.of_size(26).size == 26
    for g in (0, -1, 27):
        with pytest.raises(WordError):
            Alphabet.of_size(g)


# ``Alphabet.keys_of`` reads rendered words straight to their keys; it must
# agree with ``word`` on every string, valid or not.

ALPHABETS = st.one_of(st.integers(1, 26).map(Alphabet.of_size), st.sampled_from([Alphabet("ba"), Alphabet("+1"), Alphabet(" _z")]))
STRAY = " +-_01Ap\n\u00e9"


def parsed(alphabet, text):
    """The key of ``alphabet.word(text)``, or the message it raises."""
    try:
        return alphabet.word(text).key
    except WordError as e:
        return str(e)


def keys_or_message(alphabet, texts):
    try:
        return alphabet.keys_of(texts)
    except WordError as e:
        return str(e)


@given(ALPHABETS, st.data())
@settings(max_examples=300, deadline=None)
def test_keys_of_parses_and_raises_as_word(alphabet, data):
    texts = data.draw(st.lists(st.text(alphabet=alphabet.letters + STRAY, max_size=12), max_size=5))
    expected = [parsed(alphabet, t) for t in texts]
    first_error = next((e for e in expected if isinstance(e, str)), None)
    assert keys_or_message(alphabet, texts) == (expected if first_error is None else first_error)
    for text, key in zip(texts, expected):
        assert keys_or_message(alphabet, [text]) == ([key] if isinstance(key, tuple) else key)


@st.composite
def alphabet_and_words(draw):
    alphabet = draw(ALPHABETS)
    return alphabet, draw(st.lists(st.text(alphabet=alphabet.letters, max_size=12), max_size=6))


@given(alphabet_and_words())
@example((Alphabet("a"), ["", "a", "aaaa"]))
@example((Alphabet("ab"), ["ba", "", "b"]))
@example((Alphabet("ab"), []))
@settings(max_examples=300, deadline=None)
def test_keys_of_reads_the_key_of_each_word(case):
    alphabet, texts = case
    assert alphabet.keys_of(texts) == [alphabet.word(text).key for text in texts]


def test_keys_of_reads_words_past_the_int_digit_limit():
    abc = Alphabet("abc")
    text = "cab" * 2000  # 6000 base-3 digits, more than int() reads by default
    assert abc.keys_of(["a", text]) == [(1, 0), abc.word(text).key]
    assert abc.keys_of([text])[0][1] == sum(abc.index(c) * 3**i for i, c in enumerate(reversed(text)))


@given(ALPHABETS, st.integers(0, 12), st.data())
def test_word_at_inverts_the_key(alphabet, length, data):
    x = data.draw(st.integers(0, alphabet.size**length - 1))
    w = alphabet.word_at(length, x)
    assert w.key == (length, x) and alphabet.keys_of([str(w)]) == [(length, x)]


@given(ALPHABETS, st.lists(st.integers(0, 12), max_size=40), st.integers(0, 2), st.data())
@settings(deadline=None)
def test_read_keys_renders_each_key_off_tables_in_carrier_order(alphabet, lengths, extra, data):
    keys = [(n, data.draw(st.integers(0, alphabet.size**n - 1))) for n in lengths]
    texts, tables = _read_keys(keys, max(lengths, default=0) + extra, alphabet.letters, add, "")
    assert texts == [str(alphabet.word_at(n, x)) for n, x in keys]
    for j, table in enumerate(tables):
        assert list(table) == [str(w) for w in words_of_length(alphabet, j)]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_identity_block_texts_list_the_words_in_carrier_order(g):
    alphabet = Alphabet.of_size(g)
    for k in (k for k in range(1, 13) if g**k <= 4096):  # one letter: k up to 12, as for two
        assert identity(alphabet, k).block_texts == tuple((str(w),) for w in words_of_length(alphabet, k))


@pytest.mark.parametrize("g, length, limit", [(2, 16, DEFAULT_ENUMERATION_LIMIT), (2, 17, DEFAULT_ENUMERATION_LIMIT), (2, 30, 1000), (3, 7, 1000), (1, 11, 10), (1, 65537, DEFAULT_ENUMERATION_LIMIT), (2, -1, 10)])
def test_count_of_length_refuses_as_words_of_length(g, length, limit):
    alphabet = Alphabet.of_size(g)
    try:
        expected = len(words_of_length(alphabet, length, limit=limit))
    except WordError as e:
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            count_of_length(alphabet, length, limit=limit)
    else:
        assert count_of_length(alphabet, length, limit=limit) == expected



def _values_of_every_type():
    """One constructor per value type of the package: each call builds an
    equal, separate object."""

    def rc():
        return validate_keys(Alphabet("ab"), 2, [[(2, 0), (2, 2)], [(2, 1), (2, 3)]])

    def ideal():
        return sw.IdealRep(sw.SemaphoreCode.from_keys(Alphabet("ab"), [(1, 0), (1, 1)]), 2)

    def pi():
        return sw.LetterDistribution.uniform(Alphabet("ab"))

    def words(*texts):
        return [Alphabet("ab").word(text) for text in texts]

    return {
        "Alphabet": lambda: Alphabet("ab"),
        "Word": lambda: Alphabet("ab").word("ab"),
        "ClosureViolation": lambda: sw.ClosureViolation(*words("aa", "ab", "a")),
        "RightCongruence": rc,
        "LatticeReport": lambda: sw.lattice_census(Alphabet("ab"), 1)[1],
        "SemaphoreCode": lambda: ideal().code,
        "IdealRep": ideal,
        "LambdaResult": lambda: sw.lambda_of(rc()),
        "LetterDistribution": pi,
        "ResetProfile": lambda: sw.reset_profile(rc(), pi()),
        "SimulationResult": lambda: sw.simulate(ideal(), pi(), steps=10, seed=1),
        "AGraph": lambda: sw.cayley(rc()),
        "SemaphoreCheck": lambda: sw.is_semaphore(Alphabet("ab"), words("a", "b")),
        "TransitionMatrix": lambda: sw.transition_matrix(ideal(), pi()),
        "StationaryVector": lambda: sw.stationary(ideal(), pi()),
        "LumpedWalk": lambda: sw.lumped(rc(), pi()),
    }


VALUES = _values_of_every_type()


@pytest.mark.parametrize("name", VALUES)
def test_value_types_refuse_assignment_and_compare_by_their_fields(name):
    a, b = VALUES[name](), VALUES[name]()
    cls = type(a)
    assert cls.__name__ == name and repr(a).startswith(f"{name}(")
    for field in cls._fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(a, field, getattr(b, field))
    if name == "ClosureViolation":  # an exception: equal to itself only
        assert a == a and a != b
    else:
        assert a == b and a is not b
        if name == "LatticeReport":  # it holds lists, and was never hashable
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
    # An object of another class with the same field values is not equal.
    twin = object.__new__(type(name, (_Frozen,), {"_fields": cls._fields}))
    twin.__dict__.update((field, getattr(a, field)) for field in cls._fields)
    assert twin._values() == tuple(getattr(a, field) for field in cls._fields)
    assert a != twin and twin != a
    # copy and pickle rebuild an object with the same fields.
    for clone in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is cls
        assert [getattr(clone, field) for field in cls._fields] == [getattr(a, field) for field in cls._fields]


@pytest.mark.parametrize("letters", ["a\ud800", "\udfff", "ab\udc00c"])
def test_an_alphabet_refuses_a_surrogate_letter(letters):
    with pytest.raises(WordError, match="^alphabet letters must not be surrogate code points: "):
        Alphabet(letters)
