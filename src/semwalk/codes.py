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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .congruences import RightCongruence, validate
from .words import (
    Alphabet,
    Word,
    epsilon,
    is_factor,
    is_suffix,
    lcs,
    lcs_of,
    suffixes,
    words_of_length,
    words_up_to_length,
)


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


@dataclass(frozen=True)
class SemaphoreCode:
    """A finite semaphore code, or the finite prefix of an infinite one.

    Words are kept in shortlex order.  ``infinite_tail`` marks a code that
    was truncated at some maximal length and continues beyond it.
    """

    alphabet: Alphabet
    words: tuple[Word, ...]
    infinite_tail: bool = False

    def __post_init__(self) -> None:
        words = tuple(sorted(set(self.words)))
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "_members", frozenset(words))

    @property
    def max_len(self) -> int:
        return max((len(w) for w in self.words), default=0)

    @property
    def is_epsilon(self) -> bool:
        return self.words == (epsilon(self.alphabet),)

    def __contains__(self, w: Word) -> bool:
        return w in self._members

    def in_ideal(self, w: Word) -> bool:
        """Membership in the left ideal A*S: does w have a suffix in S?"""
        return any(is_suffix(s, w) for s in self.words)

    def __str__(self) -> str:
        return "{" + ",".join(str(w) if len(w) else "eps" for w in self.words) + "}"


@dataclass(frozen=True)
class IdealRep:
    """An ideal of A* containing A^k, held by its finite semaphore code.

    Invariants enforced on construction: all code words have length <= k,
    no code word is a suffix of another, and every word of A^k has a (then
    unique) suffix in the code.
    """

    code: SemaphoreCode
    k: int

    def __post_init__(self) -> None:
        if self.code.infinite_tail:
            raise CodeError("an ideal representation requires the full finite code")
        if self.code.max_len > self.k:
            raise CodeError(f"code word longer than k={self.k}")
        present = {w.indices for w in self.code.words}
        if len(self.code.words) > 1:
            # Linear in the total length: look up each word's proper suffixes,
            # epsilon included, which is a suffix of every other word.
            for v in self.code.words:
                for i in range(1, len(v) + 1):
                    if v.indices[i:] in present:
                        u = Word(self.alphabet, v.indices[i:])
                        raise CodeError(f"not a suffix code: {u} is a suffix of {v}")
        for w in words_of_length(self.code.alphabet, self.k):
            if not _has_suffix_in(w.indices, present):
                raise CodeError(f"word {w} of A^{self.k} has no suffix in the code")

    @property
    def alphabet(self) -> Alphabet:
        return self.code.alphabet

    def contains(self, w: Word) -> bool:
        """Ideal membership: suffix in the code, or any word of length >= k."""
        return len(w) >= self.k or self.code.in_ideal(w)

    def members_below_k(self) -> set[Word]:
        """The finite determining part: members of length < k (epsilon included)."""
        out = {w for w in words_up_to_length(self.alphabet, self.k - 1) if self.code.in_ideal(w)}
        if self.code.is_epsilon:
            out.add(epsilon(self.alphabet))
        return out


def _has_suffix_in(indices: tuple[int, ...], present: set[tuple[int, ...]]) -> bool:
    """Whether some suffix of the word, epsilon included, is in ``present``."""
    return any(indices[j:] in present for j in range(len(indices) + 1))


def is_semaphore(alphabet: Alphabet, words: list[Word] | set[Word]) -> SemaphoreCheck:
    """Test the two defining properties, reporting a witness on failure."""
    ws = sorted(set(words))
    if ws == [epsilon(alphabet)]:
        return SemaphoreCheck(True)
    if any(w.is_empty for w in ws):
        return SemaphoreCheck(False, comparable=(epsilon(alphabet), next(w for w in ws if len(w))))
    for u, v in combinations(ws, 2):
        if is_suffix(u, v) or is_suffix(v, u):
            return SemaphoreCheck(False, comparable=(u, v))
    wset = set(ws)
    for s in ws:
        for a in alphabet:
            sa = s.concat(a)
            if not any(t in wset for t in suffixes(sa) if len(t)):
                return SemaphoreCheck(False, stuck=(s, a))
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
    if code.is_epsilon or any(w.is_empty for w in code.words):
        raise CodeError("restriction requires a code of nonempty words")
    if code.infinite_tail and code.max_len < k:
        raise CodeError(f"truncated code is only known up to length {code.max_len} < k")
    short = [w for w in code.words if len(w) <= k]
    present = {w.indices for w in short}
    added = [w for w in words_of_length(code.alphabet, k) if not _has_suffix_in(w.indices, present)]
    return IdealRep(SemaphoreCode(code.alphabet, tuple(short + added)), k)


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

    Each suffix of s+a is looked up in a dict, longest first, so the table
    costs O(n*g*k) instead of a scan of the code per entry.  The first pair
    (s, a) without a code suffix, in row-major order, raises the same error
    as ``code_action``.
    """
    if code.words and code.words[0].is_empty:
        raise CodeError("the action is not defined on the epsilon code")
    index = {w.indices: i for i, w in enumerate(code.words)}
    letters = range(code.alphabet.size)
    nxt = []
    for s in code.words:
        row = []
        for a in letters:
            sa = s.indices + (a,)
            for j in range(len(sa)):
                t = index.get(sa[j:])
                if t is not None:
                    row.append(t)
                    break
            else:
                raise CodeError(
                    f"no suffix of {Word(code.alphabet, sa)} in the code; code is not semaphore or is truncated"
                )
        nxt.append(row)
    return nxt


def _suffix_minimal(words: set[Word]) -> list[Word]:
    return sorted(w for w in words if not any(v != w and is_suffix(v, w) for v in words))


def ideal_from_members(alphabet: Alphabet, k: int, short_members: set[Word]) -> IdealRep:
    """Ideal A^{>=k} union short_members, given by its suffix-minimal code."""
    if epsilon(alphabet) in short_members:
        return IdealRep(SemaphoreCode(alphabet, (epsilon(alphabet),)), k)
    members = set(short_members) | set(words_of_length(alphabet, k))
    return IdealRep(SemaphoreCode(alphabet, tuple(_suffix_minimal(members))), k)


def ideal_meet(i1: IdealRep, i2: IdealRep) -> IdealRep:
    _require_same_k(i1, i2)
    return ideal_from_members(i1.alphabet, i1.k, i1.members_below_k() & i2.members_below_k())


def ideal_join(i1: IdealRep, i2: IdealRep) -> IdealRep:
    _require_same_k(i1, i2)
    return ideal_from_members(i1.alphabet, i1.k, i1.members_below_k() | i2.members_below_k())


def ideal_leq(i1: IdealRep, i2: IdealRep) -> bool:
    _require_same_k(i1, i2)
    return i1.members_below_k() <= i2.members_below_k()


def _require_same_k(i1: IdealRep, i2: IdealRep) -> None:
    if i1.alphabet != i2.alphabet or i1.k != i2.k:
        raise CodeError("ideals live in different A^k settings")


def suffix_classes(alphabet: Alphabet, k: int, code: SemaphoreCode) -> list[list[Word]]:
    """Partition of A^k by the unique code suffix of each word.

    Defined for any suffix code covering A^k, semaphore or not; the result
    is a right congruence exactly when the code's left ideal is two-sided.
    """
    buckets: dict[Word, list[Word]] = {}
    for u in words_of_length(alphabet, k):
        hits = [s for s in code.words if is_suffix(s, u)]
        if len(hits) != 1:
            raise CodeError(f"{u} has {len(hits)} suffixes in the code, expected exactly 1")
        buckets.setdefault(hits[0], []).append(u)
    return list(buckets.values())


def tau_of(ideal: IdealRep) -> RightCongruence:
    """The right congruence of an ideal: u ~ v iff they share a suffix in it."""
    blocks = suffix_classes(ideal.alphabet, ideal.k, ideal.code)
    return validate(ideal.alphabet, ideal.k, blocks)


@dataclass(frozen=True)
class LambdaResult:
    """Longest common suffix data of a congruence and the ideal it spans."""

    per_block: tuple[Word, ...]  # lcs of each block, canonical block order
    per_pair: frozenset[Word]  # lcs over all related pairs (diagonal included)
    ideal: IdealRep  # A* times either set; they generate the same ideal


def lambda_of(rc: RightCongruence) -> LambdaResult:
    per_block = tuple(lcs_of(blk) for blk in rc.blocks)
    per_pair = {lcs(u, v) for blk in rc.blocks for u in blk for v in blk}
    if any(w.is_empty for w in per_block):
        # Some block mixes last letters, so epsilon spans the whole of A*.
        members = {epsilon(rc.alphabet)}
    else:
        members = {
            w
            for w in words_up_to_length(rc.alphabet, rc.k - 1)
            if any(is_suffix(s, w) for s in per_block)
        }
    ideal = ideal_from_members(rc.alphabet, rc.k, members)
    return LambdaResult(per_block, frozenset(per_pair), ideal)


def reset_code(rc: RightCongruence) -> IdealRep:
    """The reset ideal of a congruence, by its suffix-minimal generators.

    A word w resets when all words of A^k ending in w are equivalent; the
    generators are the resets none of whose proper suffixes reset.  Words
    are scanned by increasing length, so a word is suffix-minimal exactly
    when it has no suffix among the generators already found.
    """
    if rc.is_universal:
        # Every word resets a one-vertex graph, epsilon included.
        return IdealRep(SemaphoreCode(rc.alphabet, (epsilon(rc.alphabet),)), rc.k)
    found: list[Word] = []
    for length in range(1, rc.k + 1):
        for w in words_of_length(rc.alphabet, length):
            if any(is_suffix(s, w) for s in found):
                continue
            blocks = {
                rc.block_of[x.concat(w)]
                for x in words_of_length(rc.alphabet, rc.k - length)
            }
            if len(blocks) == 1:
                found.append(w)
    return IdealRep(SemaphoreCode(rc.alphabet, tuple(found)), rc.k)


def is_special(rc: RightCongruence) -> bool:
    """Whether the congruence arises from an ideal containing A^k.

    Checked definitionally: lcs must be injective on blocks and the block
    lcs set must be a suffix code.  Cross-checked against the independent
    characterization "equal to the congruence of its own reset ideal"; the
    two must agree.
    """
    _require_nontrivial_alphabet(rc)
    lam = lambda_of(rc)
    injective = len(set(lam.per_block)) == len(lam.per_block)
    antichain = not any(
        u != v and is_suffix(u, v) for u in lam.per_block for v in lam.per_block
    )
    by_lcs = injective and antichain
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
    short words are few at desk scale, so the upward-closed sets are found
    by direct filtering.
    """
    short = words_up_to_length(alphabet, k - 1)
    upsets: list[set[Word]] = []

    def closed_up(base: set[Word]) -> set[Word]:
        return {w for w in short if any(is_factor(u, w) for u in base)} | base

    seen: set[frozenset[Word]] = set()
    for mask in range(1 << len(short)):
        base = {short[i] for i in range(len(short)) if mask >> i & 1}
        up = closed_up(base)
        if frozenset(up) not in seen:
            seen.add(frozenset(up))
            upsets.append(up)
    out = [ideal_from_members(alphabet, k, up) for up in sorted(upsets, key=lambda s: (len(s), sorted(s)))]
    out.append(ideal_from_members(alphabet, k, {epsilon(alphabet)}))
    return out


def src_lattice(alphabet: Alphabet, k: int) -> list[RightCongruence]:
    """All special right congruences, one per ideal containing A^k."""
    if alphabet.size < 2:
        raise CodeError("special right congruences require at least two letters")
    return [tau_of(ideal) for ideal in enumerate_ideals(alphabet, k)]
