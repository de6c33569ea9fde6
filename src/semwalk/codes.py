"""Semaphore codes and the special right congruences they induce.

A semaphore code is a suffix code S with SA contained in A*S, which is
exactly what makes "replace the current word by the unique code suffix of
word+letter" a well-defined right action.  Finite semaphore codes whose
words have length at most k and that cover A^k stand in bijection with the
ideals of A* containing A^k; through that bijection every such ideal I
yields a right congruence: u ~ v iff u and v share a suffix in I.  These
are the special right congruences, and every right congruence is sandwiched
between a best special refinement (from its reset ideal) and a best special
coarsening (from the longest common suffixes of its blocks).

Every lookup below runs on integers, as the congruence kernel does: a
word of length n is the key (n, x), x its letters read in base g, so that
its suffix of length j is (j, x mod g^j), and the word of A^k with integer
x followed by the word of length n with integer w is x*g^n + w.  A code
is its sorted keys, read from text by ``Alphabet.keys_of`` or from words.
A key set paints A^m, one slice assignment per key, shorter keys first:
a key that finds its own word painted has a shorter key as a suffix and
paints nothing.  Every question about all of A^n is read off one such
painting: a code's suffix view (each word of A^m, m its longest word
length, to its code suffix; a word of A^k, k >= m, has the code suffix
of its last m letters), the suffix-minimal part of a key set, and the
words of A^n with no suffix among the keys.  ``_suffix_keys`` looks up
the suffixes of one word, longest first.
``Word`` objects are built only on first use of a code's ``words`` or of
``lambda_of``'s lcs sets, for suffix classes and messages.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .congruences import RightCongruence, _congruence
from .words import Alphabet, Word, WordLimitExceeded, count_of_length, epsilon, is_suffix, words_of_length, words_up_to_length


class CodeError(ValueError):
    """Raised on inputs outside a code operation's domain."""


@dataclass(frozen=True)
class SemaphoreCheck:
    """Outcome of the semaphore test, with a witness when it fails.

    Exactly one of the witnesses is set on failure: ``comparable`` names two
    code words where one is a suffix of the other, ``stuck`` names a pair
    (s, a) such that s+a has no suffix in the code.
    """

    ok: bool
    comparable: tuple[Word, Word] | None = None
    stuck: tuple[Word, Word] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, init=False)
class SemaphoreCode:
    """A finite semaphore code, or the finite prefix of an infinite one.

    Given by its words or, through ``from_keys``, their keys, it holds the
    keys sorted, that is its words in shortlex order, and refuses a repeated
    word.  ``infinite_tail`` marks a code that was truncated at some maximal
    length and continues beyond it.
    """

    alphabet: Alphabet
    keys: tuple[tuple[int, int], ...]
    infinite_tail: bool = False

    def __init__(self, alphabet: Alphabet, words: Iterable[Word], infinite_tail: bool = False):
        words, letters = tuple(words), alphabet.letters  # equal letters are equal alphabets, and cheaper to compare
        stray = next((w for w in words if w.alphabet.letters != letters), None)
        if stray is not None:
            raise CodeError(f"code word {stray} is not over the alphabet {letters!r}")
        # A frozen dataclass: its fields are set past its __setattr__.
        self.__dict__.update(SemaphoreCode.from_keys(alphabet, [w.key for w in words], infinite_tail).__dict__)

    @classmethod
    def from_keys(cls, alphabet: Alphabet, keys: Iterable[tuple[int, int]], infinite_tail: bool = False) -> "SemaphoreCode":
        """The code of the words with the given keys (length, x), 0 <= x < g^length."""
        keys = sorted(keys)
        index = {key: i for i, key in enumerate(keys)}  # each key to its position, in key order
        if len(index) < len(keys):
            n, x = next(u for u, v in zip(keys, keys[1:]) if u == v)
            raise CodeError(f"repeated code word {str(alphabet.word_at(n, x))!r}")
        code = cls.__new__(cls)
        code.__dict__.update(alphabet=alphabet, keys=tuple(keys), infinite_tail=infinite_tail, _index=index)
        return code

    @cached_property
    def words(self) -> tuple[Word, ...]:
        """The code words in shortlex order."""
        return tuple(self.alphabet.word_at(n, x) for n, x in self.keys)

    @property
    def max_len(self) -> int:
        return self.keys[-1][0] if self.keys else 0

    @cached_property
    def suffix_index(self) -> tuple[int, ...] | None:
        """The suffix view: for each word y of A^m, m = ``max_len``, read in
        base g, the position in ``keys`` of its unique suffix in the code.

        None unless every word of A^m has exactly one code suffix, that is,
        unless the code is a suffix code covering A^m, and with it A^k for
        every k >= m; None also when A^m is too large to list.
        """
        try:
            view, clashes = _paint(self.keys, self.alphabet, self.max_len)
        except WordLimitExceeded:
            return None
        return None if clashes or None in view else tuple(view)

    @property
    def is_epsilon(self) -> bool:
        return self.keys == ((0, 0),)

    def __contains__(self, w: Word) -> bool:
        return w.alphabet == self.alphabet and w.key in self._index

    def in_ideal(self, w: Word) -> bool:
        """Membership in the left ideal A*S: does w have a suffix in S?"""
        return w.alphabet == self.alphabet and any(_suffix_keys(self._index, self.alphabet.size, *w.key))

    def __str__(self) -> str:
        return "{" + ",".join(str(w) if len(w) else "eps" for w in self.words) + "}"


@dataclass(frozen=True)
class IdealRep:
    """An ideal of A* containing A^k, held by its finite code.

    Invariants enforced on construction: all code words have length <= k,
    no code word is a suffix of another, and every word of A^k has a (then
    unique) suffix in the code: a covering suffix code, whose left ideal
    need not be two-sided.  Both hold iff the code's suffix view exists.
    A code that is not semaphore is refused where it is used, by
    ``action_table`` (CodeError) and ``tau_of`` (ClosureViolation).
    """

    code: SemaphoreCode
    k: int

    def __post_init__(self) -> None:
        if self.code.infinite_tail:
            raise CodeError("an ideal representation requires the full finite code")
        if self.code.max_len > self.k:
            raise CodeError(f"code word longer than k={self.k}")
        if self.code.suffix_index is None:  # the scan, then a painting of A^k, names the first fault
            alphabet, index, g = self.alphabet, self.code._index, self.alphabet.size
            for n, x in index:
                u = next(_suffix_keys(index, g, n - 1, x), None)
                if u is not None:
                    raise CodeError(f"not a suffix code: {alphabet.word_at(*u)} is a suffix of {alphabet.word_at(n, x)}")
            x = _paint(self.code.keys, alphabet, self.k)[0].index(None)
            raise CodeError(f"word {alphabet.word_at(self.k, x)} of A^{self.k} has no suffix in the code")
        else:
            count_of_length(self.alphabet, self.k)  # with a view of A^m, m <= k: refuses an A^k too large to list

    @property
    def alphabet(self) -> Alphabet:
        return self.code.alphabet

    def contains(self, w: Word) -> bool:
        """Ideal membership: suffix in the code, or any word of length >= k."""
        return w.alphabet == self.alphabet and (len(w) >= self.k or self.code.in_ideal(w))

    def members_below_k(self) -> set[Word]:
        """The finite determining part: members of length < k (epsilon included)."""
        return {self.alphabet.word_at(n, x) for n, x in self._keys_below_k()}

    def _keys_below_k(self) -> set[tuple[int, int]]:
        # (n, x) is a member iff the code suffix of the word x mod g^m of A^m is no longer than n.
        g, keys, view = self.alphabet.size, self.code.keys, self.code.suffix_index
        return {(n, x) for n in range(self.k) for x in range(g**n) if keys[view[x % len(view)]][0] <= n}


def _paint(keys, alphabet: Alphabet, m: int) -> tuple[list[int | None], set[int]]:
    """For each word of A^m, the position in ``keys``, sorted and no longer
    than m, of its suffix among their suffix-minimal part, or None where it
    has none; and the positions of the other keys.  Refuses an A^m too
    large to list.

    Key (n, x) paints the g^(m-n) words x + j*g^n that end in it, shorter
    keys first, so a key that finds its own word x painted has a shorter
    key as a suffix: it clashes, and paints nothing.
    """
    out: list[int | None] = [None] * count_of_length(alphabet, m)
    g, clashes = alphabet.size, set()
    for i, (n, x) in enumerate(keys):
        if out[x] is not None:
            clashes.add(i)
        elif n < m:
            out[x :: g**n] = [i] * g ** (m - n)
        else:  # one word: an item is several times cheaper to set than a one-item extended slice
            out[x] = i
    return out, clashes


def _suffix_keys(keys, g: int, n: int, x: int):
    """The keys (j, x mod g^j) in ``keys``, j from n down to 0: the suffixes
    of the word (n, x mod g^n) that are in the key set, longest first."""
    for j in range(n, -1, -1):
        x %= g**j
        if (j, x) in keys:
            yield j, x


def _ideal(alphabet: Alphabet, k: int, keys) -> IdealRep:
    return IdealRep(SemaphoreCode.from_keys(alphabet, keys), k)


def is_semaphore(alphabet: Alphabet, words: list[Word] | set[Word]) -> SemaphoreCheck:
    """Test the two defining properties, reporting a witness on failure."""
    ws = sorted(set(words))
    if ws == [epsilon(alphabet)]:
        return SemaphoreCheck(True)
    if any(w.is_empty for w in ws):
        return SemaphoreCheck(False, comparable=(epsilon(alphabet), next(w for w in ws if len(w))))
    g, index = alphabet.size, {w.key: i for i, w in enumerate(ws)}
    # In shortlex order a comparable pair is (proper suffix, word); the
    # first such pair in pair order has the least suffix position first.
    pairs = [(index[u], j) for j, (n, x) in enumerate(index) for u in _suffix_keys(index, g, n - 1, x)]
    if pairs:
        i, j = min(pairs)
        return SemaphoreCheck(False, comparable=(ws[i], ws[j]))
    for s, (n, x) in zip(ws, index):
        for a in range(g):
            if not any(_suffix_keys(index, g, n + 1, x * g + a)):
                return SemaphoreCheck(False, stuck=(s, Word(alphabet, (a,))))
    return SemaphoreCheck(True)


def semaphore_code(alphabet: Alphabet, words: list[Word] | set[Word], infinite_tail: bool = False) -> SemaphoreCode:
    """Build a SemaphoreCode after checking the defining properties.

    A truncated code (``infinite_tail``) is only checked for being a suffix
    code; the action can leave the known part, so closure is not required.
    """
    check = is_semaphore(alphabet, words)
    if check.comparable is not None:
        u, v = check.comparable
        raise CodeError(f"not a suffix code: {u} is a suffix of {v}")
    if not check.ok and not infinite_tail:
        s, a = check.stuck
        raise CodeError(f"not a semaphore code: {s}+{a} has no suffix in the code")
    return SemaphoreCode(alphabet, tuple(words), infinite_tail)


def _in_generated_code(x_words: set[Word], w: Word) -> bool:
    # Membership in XA* \ A+XA*: some X word is a prefix, and no X word
    # occurs starting at any later position.
    n = len(w)
    starts = [
        i
        for i in range(n + 1)
        for x in x_words
        if i + len(x) <= n and w.indices[i : i + len(x)] == x.indices
    ]
    return 0 in starts and all(i == 0 for i in starts)


def from_generators(alphabet: Alphabet, x_words: set[Word] | list[Word], max_len: int) -> SemaphoreCode:
    """The semaphore code generated by X, truncated at max_len.

    The code consists of the words that start with an X word and contain no
    later occurrence of any X word.  The ``infinite_tail`` flag is set when
    some word of length max_len in the code still extends to a longer one.
    """
    xs = set(x_words)
    if not xs:
        raise CodeError("generator set must be nonempty")
    if epsilon(alphabet) in xs:
        return SemaphoreCode(alphabet, (epsilon(alphabet),))
    if max_len < max(len(x) for x in xs):
        raise CodeError("max_len must cover the generators")
    kept = [w for w in words_up_to_length(alphabet, max_len) if _in_generated_code(xs, w)]
    tail = any(
        len(w) == max_len and _in_generated_code(xs, w.concat(a))
        for w in kept
        for a in alphabet
    )
    return SemaphoreCode(alphabet, tuple(kept), infinite_tail=tail)


def restrict_k(code: SemaphoreCode, k: int) -> IdealRep:
    """Restrict a semaphore code to length <= k, completing within A^k.

    Keeps the code words of length at most k and adds every word of A^k
    that has no suffix among them; the result covers A^k.
    """
    if code.keys[:1] == ((0, 0),):
        raise CodeError("restriction requires a code of nonempty words")
    if code.infinite_tail and code.max_len < k:
        raise CodeError(f"truncated code is only known up to length {code.max_len} < k")
    short = [key for key in code.keys if key[0] <= k]
    view = _paint(short, code.alphabet, k)[0]
    return _ideal(code.alphabet, k, [*short, *((k, x) for x, i in enumerate(view) if i is None)])


def code_action(code: SemaphoreCode, s: Word, a: Word) -> Word:
    """The right action: the unique suffix of s+a that lies in the code."""
    if s not in code:
        raise CodeError(f"{s} is not a code word")
    if s.is_empty:
        raise CodeError("the action is not defined on the epsilon code")
    sa = s.concat(a)
    for t in sorted(code.words, key=len, reverse=True):
        if is_suffix(t, sa):
            return t
    raise CodeError(f"no suffix of {sa} in the code; code is not semaphore or is truncated")


def action_table(code: SemaphoreCode) -> list[list[int]]:
    """The right action on state numbers: ``nxt[i][a]`` is the position in
    ``code.words`` of ``code_action(code, code.words[i], letter a)``.

    A covering code has its table in its suffix view.  With t = x*g mod g^m,
    the words t + a of A^m end in s+a when n < m, and are its last m
    letters when n = m.  Row (n, x) is then ``view[t : t + g]``, provided
    s+a has a code suffix: always when n = m, and when n < m iff the row's
    entries are no longer than s+a.  So the code is semaphore iff the rows
    of its words shorter than m pass.  Any other code has each suffix of
    s+a looked up in its key index, longest first, and the first pair
    (s, a) without a code suffix, in row-major order, raises the same error
    as ``code_action``.
    """
    if code.keys[:1] == ((0, 0),):
        raise CodeError("the action is not defined on the epsilon code")
    view, g, keys = code.suffix_index, code.alphabet.size, code.keys
    if view is not None:
        size, short = len(view), bisect_left(keys, (code.max_len, 0))
        nxt = [list(view[t : t + g]) for t in [x * g % size for _, x in keys]]
        if all(keys[j][0] <= n + 1 for (n, _), row in zip(keys[:short], nxt) for j in row):
            return nxt
    index, nxt = code._index, []
    for n, x in index:
        row = []
        for sa in range(x * g, x * g + g):
            u = next(_suffix_keys(index, g, n + 1, sa), None)
            if u is None:
                raise CodeError(
                    f"no suffix of {code.alphabet.word_at(n + 1, sa)} in the code; code is not semaphore or is truncated"
                )
            row.append(index[u])
        nxt.append(row)
    return nxt


def ideal_from_members(alphabet: Alphabet, k: int, short_members: set[Word]) -> IdealRep:
    """Ideal A^{>=k} union short_members, given by its suffix-minimal code.
    A member over another alphabet is refused, as ``SemaphoreCode`` refuses
    such a code word."""
    stray = next((w for w in short_members if w.alphabet.letters != alphabet.letters), None)
    if stray is not None:
        raise CodeError(f"member {stray} is not over the alphabet {alphabet.letters!r}")
    return _ideal_from_keys(alphabet, k, {w.key for w in short_members})


def _ideal_from_keys(alphabet: Alphabet, k: int, keys: set[tuple[int, int]]) -> IdealRep:
    # Its code: the keys shorter than k that paint A^k, and the words of A^k that none paints.
    keys = sorted(key for key in keys if key[0] < k)  # A^k holds a suffix of every longer key
    view, clashes = _paint(keys, alphabet, k)
    painted = [key for i, key in enumerate(keys) if i not in clashes]
    return _ideal(alphabet, k, [*painted, *((k, x) for x, i in enumerate(view) if i is None)])


def ideal_meet(i1: IdealRep, i2: IdealRep) -> IdealRep:
    _require_same_k(i1, i2)
    return _ideal_from_keys(i1.alphabet, i1.k, i1._keys_below_k() & i2._keys_below_k())


def ideal_join(i1: IdealRep, i2: IdealRep) -> IdealRep:
    _require_same_k(i1, i2)
    return _ideal_from_keys(i1.alphabet, i1.k, i1._keys_below_k() | i2._keys_below_k())


def ideal_leq(i1: IdealRep, i2: IdealRep) -> bool:
    _require_same_k(i1, i2)
    return i1._keys_below_k() <= i2._keys_below_k()


def _require_same_k(i1: IdealRep, i2: IdealRep) -> None:
    if i1.alphabet != i2.alphabet or i1.k != i2.k:
        raise CodeError("ideals live in different A^k settings")


def suffix_classes(alphabet: Alphabet, k: int, code: SemaphoreCode) -> list[list[Word]]:
    """Partition of A^k by the unique code suffix of each word.

    Defined for any suffix code covering A^k, semaphore or not; the result
    is a right congruence exactly when the code's left ideal is two-sided.
    """
    buckets: dict[tuple[int, int], list[Word]] = {}
    for x, u in enumerate(words_of_length(alphabet, k)):
        hits = list(_suffix_keys(code._index, alphabet.size, k, x))
        if len(hits) != 1:
            raise CodeError(f"{u} has {len(hits)} suffixes in the code, expected exactly 1")
        buckets.setdefault(hits[0], []).append(u)
    return list(buckets.values())


def tau_of(ideal: IdealRep) -> RightCongruence:
    """The right congruence of an ideal: u ~ v iff they share a suffix in it.

    Its labels are the code's suffix view, read g^(k-m) times over: word x
    of A^k has the code suffix of its last m letters, x mod g^m.  Raises
    ClosureViolation when the code covers A^k but is not semaphore: its
    left ideal is not two-sided, so the classes are not closed.
    """
    view = ideal.code.suffix_index
    return _congruence(ideal.alphabet, ideal.k, view * (ideal.alphabet.size**ideal.k // len(view)))


@dataclass(frozen=True)
class LambdaResult:
    """Longest common suffix data of a congruence and the ideal it spans;
    the lcs sets as words are built on first read."""

    rc: RightCongruence
    keys: tuple[tuple[int, int], ...]  # (length, x) of each block's lcs, canonical block order
    ideal: IdealRep  # A* times the lcs set

    @cached_property
    def per_block(self) -> tuple[Word, ...]:
        """The lcs of each block, in canonical block order."""
        return tuple(self.rc.alphabet.word_at(n, x) for n, x in self.keys)

    @cached_property
    def per_pair(self) -> frozenset[Word]:
        """The lcs over all related pairs, the diagonal included; A* times
        it is the same ideal."""
        rc = self.rc
        g, k, word_at = rc.alphabet.size, rc.k, rc.alphabet.word_at
        # Diagonal pairs: every word of A^k is its own lcs.
        out = set(words_of_length(rc.alphabet, k))
        for (n, _), xs in zip(self.keys, rc.block_points):
            # (j, r) is the lcs of two words of the block when both end in r
            # and differ in the letter before it.
            for j in range(n, k):
                before: dict[int, set[int]] = {}
                for x in xs:
                    before.setdefault(x % g**j, set()).add(x % g ** (j + 1))
                out.update(word_at(j, r) for r, seen in before.items() if len(seen) > 1)
        return frozenset(out)


def lambda_of(rc: RightCongruence) -> LambdaResult:
    g, k = rc.alphabet.size, rc.k
    keys = []
    for xs in rc.block_points:
        n = k
        for x in xs[1:]:
            while (x - xs[0]) % g**n:
                n -= 1
        keys.append((n, xs[0] % g**n))
    # Every word of A^k has its block's lcs as a suffix, so the lcs set
    # generates an ideal containing A^k; its code is the lcs set's
    # suffix-minimal part, the epsilon code when some block mixes last letters.
    return LambdaResult(rc, tuple(keys), _ideal_from_keys(rc.alphabet, k, set(keys)))


def reset_code(rc: RightCongruence) -> IdealRep:
    """The reset ideal of a congruence: A^{>=k} and the resets.

    A word w of length n < k resets when all words of A^k ending in it, the
    points w + j*g^n, carry one label.  Its code is the suffix-minimal part
    of the resets together with A^k.
    """
    if rc.is_universal:
        # Every word resets a one-vertex graph, epsilon included; the
        # definition would test, and then paint, every word of length < k.
        return _ideal(rc.alphabet, rc.k, [(0, 0)])
    g, labels = rc.alphabet.size, rc.labels
    resets = {(n, w) for n in range(rc.k) for w in range(g**n) if len(set(labels[w :: g**n])) == 1}
    return _ideal_from_keys(rc.alphabet, rc.k, resets)


def is_special(rc: RightCongruence) -> bool:
    """Whether the congruence arises from an ideal containing A^k.

    Checked definitionally: lcs must be injective on blocks and the block
    lcs set must be a suffix code, that is, its suffix-minimal part (the
    code of the lcs ideal) has one word per block.  Cross-checked against
    the independent characterization "equal to the congruence of its own
    reset ideal"; the two must agree.
    """
    _require_nontrivial_alphabet(rc)
    lam = lambda_of(rc)
    by_lcs = len(lam.ideal.code.keys) == len(lam.keys)
    by_resets = tau_of(reset_code(rc)) == rc
    assert by_lcs == by_resets, f"special-congruence criteria disagree on {rc}"
    return by_lcs


def lower_approx(rc: RightCongruence) -> tuple[RightCongruence, IdealRep]:
    """Finest special congruence with the same resets; refines the input."""
    _require_nontrivial_alphabet(rc)
    ideal = reset_code(rc)
    return tau_of(ideal), ideal


def upper_approx(rc: RightCongruence) -> tuple[RightCongruence, IdealRep]:
    """Coarsest special bound from above: the congruence of A* Lambda."""
    _require_nontrivial_alphabet(rc)
    ideal = lambda_of(rc).ideal
    return tau_of(ideal), ideal


def _require_nontrivial_alphabet(rc: RightCongruence) -> None:
    if rc.alphabet.size < 2:
        raise CodeError("special right congruences require at least two letters")


def enumerate_ideals(alphabet: Alphabet, k: int) -> list[IdealRep]:
    """All ideals of A* containing A^k.

    Such an ideal is determined by its members of length < k, which form an
    upward-closed set in the factor order (epsilon forces everything).  The
    up-closed sets are found by closing the up-sets of single words under
    union.
    """
    g = alphabet.size
    short = [(n, x) for n in range(1, k) for x in range(count_of_length(alphabet, n))]

    def occurs_in(u: tuple[int, int], w: tuple[int, int]) -> bool:
        """Whether u is a factor of w: w with i letters cut from its end ends in u."""
        (n, x), (m, y) = u, w
        return any(y // g**i % g**n == x for i in range(m - n + 1))

    # The up-set of each short word, as a bit mask over ``short``.
    ups = [sum(1 << j for j, w in enumerate(short) if occurs_in(u, w)) for u in short]
    masks = {0}
    for up in ups:
        masks |= {mask | up for mask in masks}
    upsets = [{w for i, w in enumerate(short) if mask >> i & 1} for mask in masks]
    out = [_ideal_from_keys(alphabet, k, up) for up in sorted(upsets, key=lambda s: (len(s), sorted(s)))]
    out.append(_ideal_from_keys(alphabet, k, {(0, 0)}))
    return out


def src_lattice(alphabet: Alphabet, k: int) -> list[RightCongruence]:
    """All special right congruences, one per ideal containing A^k."""
    if alphabet.size < 2:
        raise CodeError("special right congruences require at least two letters")
    return [tau_of(ideal) for ideal in enumerate_ideals(alphabet, k)]
