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

This module is the engine of the ``rc`` and ``walk`` commands: codes and
ideals held by their keys, a code's suffix view and action table, the reset
and lcs ideals, ``tau_of``, ``is_special`` and the two approximations.  One
test on the suffix view decides whether a code is semaphore: an ``IdealRep``
runs it on construction, and its ``table``, the walk's action table, and
``tau_of`` read the view with no second test.  ``action_table`` takes a
bare code, which it checks first: a code with a view by the same test, and
one with none by the suffix-code scan ``IdealRep`` runs, before the
suffixes of each s+a are looked up.
Codes checked from their words, generated by a set of words or restricted
to A^k, and the lattice of ideals (an ideal from its members, meet, join,
order, ``enumerate_ideals`` and ``src_lattice``) are in ``constructions``;
the word-by-word ``is_semaphore`` and ``suffix_classes`` are in
``oracles``.  The CLI imports neither.

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
A code's ``texts`` are read off its keys by ``words._read_keys``, the
routine that also gives the walk's word weights; ``Word`` objects are built
only on first use of a code's ``words`` or of ``lambda_of``'s lcs sets, and
for messages.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from functools import cached_property
from operator import add, itemgetter

from .congruences import CongruenceError, RightCongruence, _canonical
from .words import Alphabet, Word, WordLimitExceeded, _Frozen, _Refusal, _read_keys, count_of_length, is_suffix, words_of_length


class CodeError(_Refusal):
    """Raised on inputs outside a code operation's domain."""


class SemaphoreCode(_Frozen):
    """A finite semaphore code, or the finite prefix of an infinite one.

    Given by its words or, through ``from_keys``, their keys, it holds the
    keys sorted, that is its words in shortlex order, and refuses a repeated
    word.  It checks nothing else: an ``IdealRep``'s code is checked to be
    semaphore.  ``infinite_tail`` marks a code that was truncated at some
    maximal length and continues beyond it.
    """

    _fields = ("alphabet", "keys", "infinite_tail")

    def __init__(self, alphabet: Alphabet, words: Iterable[Word], infinite_tail: bool = False):
        words, letters = tuple(words), alphabet.letters  # equal letters are equal alphabets, and cheaper to compare
        stray = next((w for w in words if w.alphabet.letters != letters), None)
        if stray is not None:
            raise CodeError(f"code word {stray} is not over the alphabet {letters!r}")
        self.__dict__.update(SemaphoreCode.from_keys(alphabet, [w.key for w in words], infinite_tail).__dict__)

    @classmethod
    def from_keys(cls, alphabet: Alphabet, keys: Iterable[tuple[int, int]], infinite_tail: bool = False) -> "SemaphoreCode":
        """The code of the words with the given keys (length, x), 0 <= x < g^length."""
        keys = sorted(keys, key=itemgetter(1))
        keys.sort(key=itemgetter(0))  # stable: by length, then by x, as the tuples sort
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

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """The code words rendered, in shortlex order, epsilon as "", read
        off their keys by ``words._read_keys`` without a ``Word``."""
        return tuple(_read_keys(self.keys, self.max_len, self.alphabet.letters, add, "")[0])

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
        return "{" + ",".join(text or "eps" for text in self.texts) + "}"


class IdealRep(_Frozen):
    """An ideal of A* containing A^k, held by its finite code.

    Invariant enforced on construction: the code is a semaphore code of
    words of length <= k that covers A^k.  It is a covering suffix code iff
    its suffix view exists, and then semaphore iff ``_require_semaphore``
    passes.
    """

    _fields = ("code", "k")

    def __post_init__(self) -> None:
        if self.code.infinite_tail:
            raise CodeError("an ideal representation requires the full finite code")
        if self.code.max_len > self.k:
            raise CodeError(f"code word longer than k={self.k}")
        if self.code.suffix_index is None:  # the scan, then a painting of A^k, names the first fault
            _require_suffix_code(self.code)
            x = _paint(self.code.keys, self.alphabet, self.k)[0].index(None)
            raise CodeError(f"word {self.alphabet.word_at(self.k, x)} of A^{self.k} has no suffix in the code")
        count_of_length(self.alphabet, self.k)  # with a view of A^m, m <= k: refuses an A^k too large to list
        _require_semaphore(self.code)

    @property
    def alphabet(self) -> Alphabet:
        return self.code.alphabet

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The right action on state numbers, the rows of ``action_table``
        as tuples: ``table[i][a]`` is the position in ``code.keys`` of the
        code suffix of word i followed by letter a.  Read off the suffix
        view that construction checked, with no second test.  Refuses the
        epsilon code."""
        return _view_table(self.code)

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


def _require_suffix_code(code: SemaphoreCode) -> None:
    """Refuses a code with a word that is a suffix of another, naming the
    first longer word, in key order, and its longest such suffix: one
    suffix lookup per code word."""
    alphabet, index, g = code.alphabet, code._index, code.alphabet.size
    for n, x in index:
        u = next(_suffix_keys(index, g, n - 1, x), None)
        if u is not None:
            raise CodeError(f"not a suffix code: {alphabet.word_at(*u)} is a suffix of {alphabet.word_at(n, x)}")


def _ideal(alphabet: Alphabet, k: int, keys) -> IdealRep:
    return IdealRep(SemaphoreCode.from_keys(alphabet, keys), k)


_NO_ACTION = "the action is not defined on the epsilon code"


def code_action(code: SemaphoreCode, s: Word, a: Word) -> Word:
    """The right action: the longest suffix of s+a that lies in the code,
    which is the unique one when the code is a suffix code."""
    if s not in code:
        raise CodeError(f"{s} is not a code word")
    if s.is_empty:
        raise CodeError(_NO_ACTION)
    sa = s.concat(a)
    for t in sorted(code.words, key=len, reverse=True):
        if is_suffix(t, sa):
            return t
    raise _no_suffix(code.alphabet, *sa.key)


def _require_semaphore(code: SemaphoreCode) -> None:
    """Refuses a code with a suffix view that is not semaphore, naming the
    first (s, a), in row-major order, such that s+a has no code suffix.

    With t = x*g mod g^m, the words t + a of A^m end in s+a when n < m,
    and are its last m letters when n = m.  Row (n, x) of the view,
    ``view[t : t + g]``, then gives the code suffix of s+a: always when
    n = m, and when n < m iff the entry is no longer than s+a.
    """
    view, keys, g = code.suffix_index, code.keys, code.alphabet.size
    for n, x in keys[: bisect_left(keys, (code.max_len, 0))]:
        t = x * g % len(view)
        for a, j in enumerate(view[t : t + g]):
            if keys[j][0] > n + 1:
                raise _no_suffix(code.alphabet, n + 1, x * g + a)


def _no_suffix(alphabet: Alphabet, n: int, x: int) -> CodeError:
    return CodeError(f"no suffix of {alphabet.word_at(n, x)} in the code; code is not semaphore or is truncated")


def action_table(code: SemaphoreCode) -> list[list[int]]:
    """The right action on state numbers of a code that is not held by an
    ideal: ``nxt[i][a]`` is the position in ``code.words`` of
    ``code_action(code, code.words[i], letter a)``.

    A code with a suffix view is read off it, as ``IdealRep.table`` is,
    once ``_require_semaphore`` passes.  A code with no view (truncated,
    not covering, or with A^m too large to list) must pass the suffix-code
    scan that ``IdealRep`` runs, and then has each suffix of s+a looked up,
    longest first.  A code that holds the empty word is refused first; then
    a code word that is a suffix of another, and then the first (s, a)
    with no code suffix, with the same error as ``code_action``.
    """
    if code.suffix_index is not None:
        _require_semaphore(code)
        return list(map(list, _view_table(code)))
    if code.keys[:1] == ((0, 0),):
        raise CodeError(_NO_ACTION)
    _require_suffix_code(code)
    index, g, nxt = code._index, code.alphabet.size, []
    for n, x in index:
        row = []
        for sa in range(x * g, x * g + g):
            u = next(_suffix_keys(index, g, n + 1, sa), None)
            if u is None:
                raise _no_suffix(code.alphabet, n + 1, sa)
            row.append(index[u])
        nxt.append(row)
    return nxt


def _view_table(code: SemaphoreCode) -> tuple[tuple[int, ...], ...]:
    """The action table of a code whose view passed ``_require_semaphore``:
    row (n, x) is ``view[t : t + g]``, t = x*g mod g^m.  Refuses the
    epsilon code, the one code with a view that holds the empty word."""
    if code.is_epsilon:
        raise CodeError(_NO_ACTION)
    view, g = code.suffix_index, code.alphabet.size
    return tuple(view[t : t + g] for t in [x * g % len(view) for _, x in code.keys])


def _ideal_from_keys(alphabet: Alphabet, k: int, keys: set[tuple[int, int]]) -> IdealRep:
    # Its code: the keys shorter than k that paint A^k, and the words of A^k that none paints.
    keys = sorted(key for key in keys if key[0] < k)  # A^k holds a suffix of every longer key
    view, clashes = _paint(keys, alphabet, k)
    painted = [key for i, key in enumerate(keys) if i not in clashes]
    return _ideal(alphabet, k, [*painted, *((k, x) for x, i in enumerate(view) if i is None)])


def tau_of(ideal: IdealRep) -> RightCongruence:
    """The right congruence of an ideal: u ~ v iff they share a suffix in it.

    Its labels are the code's suffix view, read g^(k-m) times over and
    renumbered canonically: word x of A^k has the code suffix of its last
    m letters, x mod g^m.  An ``IdealRep``'s code is semaphore, so the
    classes are closed and are not checked again.  Refuses k < 1.
    """
    if ideal.k < 1:
        raise CongruenceError("k must be >= 1")
    view = ideal.code.suffix_index
    return RightCongruence(ideal.alphabet, ideal.k, _canonical(view * (ideal.alphabet.size**ideal.k // len(view))))


class LambdaResult(_Frozen):
    """Longest common suffix data of a congruence and the ideal it spans:
    ``keys`` holds the key (length, x) of each block's lcs, in canonical
    block order, and ``ideal`` is A* times the lcs set.  The lcs sets as
    words are built on first read."""

    _fields = ("rc", "keys", "ideal")

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
