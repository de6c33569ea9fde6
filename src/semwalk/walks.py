"""Exact random-walk analytics on semaphore codes and congruence classes.

Every analytic quantity here is an exact rational: stationary vectors are
verified fixpoints, reset probabilities are polynomial identities checked
on grids, and the lumped chain is the class walk of the Cayley table,
checked letter by letter against the walk on the reset code, with a
stationary vector computed two independent ways that must agree to the
last bit.  Floating point appears only in the Monte-Carlo reporting layer.
"""

from __future__ import annotations

import random
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm

from .codes import CodeError, IdealRep, action_table, reset_code
# Unused here: perfbench/test_perfbench.py::test_tracer_restores_the_program
# reads walks.code_action to check that its tracer restores the binding.
from .codes import code_action  # noqa: F401
from .congruences import RightCongruence
from .graphs import _strongly_connected
from .words import Alphabet, Word, words_of_length


class WalkError(ValueError):
    pass


@dataclass(frozen=True)
class LetterDistribution:
    """Exact letter probabilities, summing to one."""

    alphabet: Alphabet
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.probs) != self.alphabet.size:
            raise WalkError("one probability per letter required")
        if any(p < 0 or p > 1 for p in self.probs):
            raise WalkError("letter probabilities must lie in [0, 1]")
        if sum(self.probs) != 1:
            raise WalkError(f"letter probabilities sum to {sum(self.probs)}, not 1")
        # Each probability as numerator / denominator over one common denominator.
        denom = lcm(*(p.denominator for p in self.probs))
        object.__setattr__(self, "_denominator", denom)
        object.__setattr__(self, "_numerators", tuple(p.numerator * (denom // p.denominator) for p in self.probs))

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "LetterDistribution":
        g = alphabet.size
        return cls(alphabet, tuple(Fraction(1, g) for _ in range(g)))

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "LetterDistribution":
        """Parse assignments like ``a=1/2,b=1/2`` (every letter required)."""
        values: dict[str, Fraction] = {}
        for item in text.split(","):
            letter, _, frac = item.partition("=")
            letter = letter.strip()
            if letter in values:
                raise WalkError(f"duplicate probability for letter {letter!r}")
            values[letter] = Fraction(frac.strip())
        if set(values) != set(alphabet.letters):
            raise WalkError(f"need exactly the letters {alphabet.letters!r}")
        return cls(alphabet, tuple(values[c] for c in alphabet.letters))

    @property
    def positive(self) -> bool:
        return all(p > 0 for p in self.probs)

    def of(self, letter_index: int) -> Fraction:
        return self.probs[letter_index]

    def word_prob(self, w: Word) -> Fraction:
        num = 1
        for i in w.indices:
            num *= self._numerators[i]
        return Fraction(num, self._denominator ** len(w))


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix over explicitly labelled states."""

    labels: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise WalkError("a transition matrix needs at least one state")
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise WalkError("matrix shape does not match the state labels")
        for i, row in enumerate(self.rows):
            total = sum(filter(None, row))  # zeros add nothing; rows are mostly zeros
            if total != 1:
                raise WalkError(f"row {i} sums to {total}, not 1")

    @property
    def size(self) -> int:
        return len(self.labels)

    def left_apply(self, vec: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        """vec times the matrix, summing only the nonzero terms."""
        out = [Fraction(0)] * self.size
        for x, row in zip(vec, self.rows):
            if x:
                for j, p in enumerate(row):
                    if p:
                        out[j] += x * p
        return tuple(out)

    def irreducible(self) -> bool:
        """Strong connectivity of the positive-entry support graph."""
        return _strongly_connected([[j for j, p in enumerate(row) if p > 0] for row in self.rows])


@dataclass(frozen=True)
class StationaryVector:
    labels: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.values):
            raise WalkError("one value per state required")
        den = lcm(*(v.denominator for v in self.values))  # the sum on integers, over one denominator
        if sum(v.numerator * (den // v.denominator) for v in self.values) != den:
            raise WalkError("stationary vector must sum to 1")

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.labels, self.values))


def debruijn_stationary(pi: LetterDistribution, k: int) -> StationaryVector:
    """The product distribution over A^k, in enumeration order."""
    ws = words_of_length(pi.alphabet, k)
    return StationaryVector(tuple(str(w) for w in ws), tuple(pi.word_prob(w) for w in ws))


def _code_table(ideal: IdealRep, pi: LetterDistribution) -> list[list[int]]:
    if pi.alphabet != ideal.alphabet:
        raise WalkError("the letter distribution and the code are over different alphabets")
    return action_table(ideal.code)


def _matrix(labels: tuple[str, ...], nxt, pi: LetterDistribution) -> TransitionMatrix:
    """The dense matrix of the walk with action table ``nxt``: row x puts
    pi(a) on column nxt[x][a]."""
    n = len(nxt)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for row, succ in zip(rows, nxt):
        for p, j in zip(pi.probs, succ):
            row[j] += p
    return TransitionMatrix(labels, tuple(tuple(r) for r in rows))


def transition_matrix(ideal: IdealRep, pi: LetterDistribution) -> TransitionMatrix:
    """Transition matrix of the walk on the code words of an ideal."""
    if ideal.code.is_epsilon:
        raise CodeError("the one-word code has no action; use the 1x1 chain directly")
    return _matrix(tuple(str(w) for w in ideal.code.words), _code_table(ideal, pi), pi)


def _weights(pi: LetterDistribution, g: int, keys: list[tuple[int, int]], top: int) -> list[int]:
    """The probability of each word, given by its key (n, x) over g letters,
    as an integer over d^top, for d the common denominator of ``pi`` and top
    at least every n: d^(top-n) times the numerators of the word's letters.
    ``prods[j][x]`` is that product for the word (j, x), for j up to the
    largest m <= top with g^m at most the number of keys; a longer word is
    read off its key m letters at a time."""
    nums, d = pi._numerators, pi._denominator
    prods = [(1,), nums]
    while len(prods) <= top and g * len(prods[-1]) <= len(keys):
        prods.append([p * q for p in prods[-1] for q in nums])
    m, out = len(prods) - 1, []
    for n, x in keys:
        num = d ** (top - n)
        while n > m:
            x, c = divmod(x, g**m)
            num *= prods[m][c]
            n -= m
        out.append(num * prods[n][x])
    return out


def _is_fixpoint(nxt: list[list[int]], pi: LetterDistribution, weights: list[int]) -> bool:
    """Whether the vector ``weights`` / c, for any c > 0, is fixed by one
    walk step: ``advance`` on integers, with the letter probabilities as
    numerators over their common denominator d.  The step sends weight
    w_i * num_a to state nxt[i][a], and the vector is fixed iff every state
    then holds d times its own weight."""
    out = [0] * len(nxt)
    for x, succ in zip(weights, nxt):
        for p, j in zip(pi._numerators, succ):
            out[j] += x * p
    d = pi._denominator
    return all(y == d * x for x, y in zip(weights, out))


def advance(nxt: list[list[int]], pi: LetterDistribution, vec: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """One step of the walk on a distribution: ``vec`` times the transition
    matrix, read off the action table in O(n*g) exact operations."""
    out = [Fraction(0)] * len(nxt)
    for x, succ in zip(vec, nxt):
        for p, j in zip(pi.probs, succ):
            out[j] += x * p
    return tuple(out)


def congruence_transition_matrix(rc: RightCongruence, pi: LetterDistribution) -> TransitionMatrix:
    """Transition matrix of the walk on congruence classes."""
    if pi.alphabet != rc.alphabet:
        raise WalkError("the letter distribution and the congruence are over different alphabets")
    return _matrix(rc.block_labels, rc.block_action, pi)


def stationary_weights(ideal: IdealRep, pi: LetterDistribution) -> tuple[list[int], int]:
    """The stationary vector of ``stationary`` as integers: the weight N_w
    of each code word, in the code's key order, and their sum d^L."""
    if not pi.positive:
        warnings.warn("non-positive letter distribution: stationary vector may not be unique")
    code = ideal.code
    if code.is_epsilon:
        raise CodeError("the one-word code has no action; its chain is the 1x1 identity")
    nxt, top = _code_table(ideal, pi), code.max_len
    weights = _weights(pi, ideal.alphabet.size, code.keys, top)
    if not _is_fixpoint(nxt, pi, weights):
        raise AssertionError("closed-form stationary vector is not a fixpoint")
    total = pi._denominator**top
    if sum(weights) != total:
        raise WalkError("stationary vector must sum to 1")
    return weights, total


def stationary(ideal: IdealRep, pi: LetterDistribution) -> StationaryVector:
    """Closed-form stationary distribution: the word probabilities.

    The result is asserted to be an exact fixpoint of one walk step, taken
    through the action table on integers: with d the common denominator and
    L the longest code word, word w has probability N_w / d^L, where
    N_w = d^(L-|w|) times the numerators of its letters, and the N_w must
    sum to d^L.  A non-positive distribution still satisfies the equations
    but loses the uniqueness argument, hence the warning.
    """
    weights, total = stationary_weights(ideal, pi)
    return StationaryVector(tuple(str(w) for w in ideal.code.words), tuple(Fraction(x, total) for x in weights))


def solve_stationary(matrix: TransitionMatrix) -> StationaryVector:
    """Independent oracle: exact Gaussian elimination for I with I T = I.

    Solves the n fixpoint equations plus the normalization row; raises if
    the solution is not unique (reducible chain).
    """
    n = matrix.size
    # Unknowns I_0..I_{n-1}; equations indexed by column, then the sum row.
    aug: list[list[Fraction]] = []
    for j in range(n):
        row = [matrix.rows[i][j] - (1 if i == j else 0) for i in range(n)]
        aug.append([Fraction(x) for x in row] + [Fraction(0)])
    aug.append([Fraction(1)] * n + [Fraction(1)])

    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if pivot is None:
            raise WalkError("stationary distribution is not unique (reducible chain)")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        r += 1
    for i in range(r, len(aug)):
        if aug[i][n] != 0:
            raise WalkError("inconsistent stationary system")
    values = tuple(aug[i][n] for i in range(n))
    return StationaryVector(matrix.labels, values)


@dataclass(frozen=True)
class ResetProfile:
    """Cumulative reset probabilities P(1..k), increments, and hitting time."""

    cumulative: tuple[Fraction, ...]
    increments: tuple[Fraction, ...]
    hitting_time: Fraction

    def __post_init__(self) -> None:
        P = self.cumulative
        if any(P[i] > P[i + 1] for i in range(len(P) - 1)):
            raise WalkError("reset probabilities must be nondecreasing")
        if P[-1] != 1:
            raise WalkError(f"P(k) = {P[-1]}, expected exactly 1")
        if any(p < 0 for p in self.increments):
            raise WalkError("negative reset increment")
        if not (1 <= self.hitting_time <= len(P)):
            raise WalkError("hitting time out of range")


def profile_of_ideal(ideal: IdealRep, pi: LetterDistribution) -> ResetProfile:
    """The reset profile of the ideal's code: P(l) sums code words of
    length at most l; P(0) counts as 0, so the epsilon code resets at the
    first step."""
    if pi.alphabet != ideal.alphabet:
        raise WalkError("the letter distribution and the code are over different alphabets")
    k, keys = ideal.k, ideal.code.keys
    by_length = [0] * (k + 1)
    for (n, _), weight in zip(keys, _weights(pi, ideal.alphabet.size, keys, k)):
        by_length[n] += weight
    P = [Fraction(x, pi._denominator**k) for x in accumulate(by_length)][1:]
    inc = [P[0]] + [P[i] - P[i - 1] for i in range(1, k)]
    t = sum((Fraction(length + 1) * p for length, p in enumerate(inc)), Fraction(0))
    return ResetProfile(tuple(P), tuple(inc), t)


def reset_profile(rc: RightCongruence, pi: LetterDistribution) -> ResetProfile:
    """Reset profile of a congruence, via its reset ideal."""
    if rc.alphabet.size < 2:
        raise WalkError("reset profiles require at least two letters")
    return profile_of_ideal(reset_code(rc), pi)


def _grid_distributions(alphabet: Alphabet, points: int) -> list[LetterDistribution]:
    """A deterministic evaluation grid: `points` distinct positive values
    per free letter, the last letter absorbing the remainder."""
    g = alphabet.size
    if g == 1:
        return [LetterDistribution(alphabet, (Fraction(1),))]
    denom = (points + 1) * (g - 1)
    grids = [[Fraction(j, denom) for j in range(1, points + 1)] for _ in range(g - 1)]
    out = []

    def rec(i: int, chosen: list[Fraction]):
        if i == g - 1:
            rest = 1 - sum(chosen)
            out.append(LetterDistribution(alphabet, tuple(chosen) + (rest,)))
            return
        for v in grids[i]:
            rec(i + 1, chosen + [v])

    rec(0, [])
    return out


def polynomial_identity_holds(ideal: IdealRep) -> bool:
    """Whether P(k) = 1 holds identically in the letter probabilities.

    P(k) - 1 has degree at most k in each letter probability, so vanishing
    on a grid of k+2 values per free variable proves the identity.
    """
    g, keys, k = ideal.alphabet.size, ideal.code.keys, ideal.k
    return all(sum(_weights(pi, g, keys, k)) == pi._denominator**k for pi in _grid_distributions(ideal.alphabet, k + 2))


def check_polynomial_identity(rc: RightCongruence) -> bool:
    """Grid-verify that the congruence's reset probabilities reach exactly 1."""
    if rc.alphabet.size < 2:
        raise WalkError("the identity check needs at least two letters")
    return polynomial_identity_holds(reset_code(rc))


@dataclass(frozen=True)
class LumpedWalk:
    """The walk on congruence classes, which the walk on the reset code
    lumps onto: its Cayley-table matrix and its stationary vector."""

    matrix: TransitionMatrix
    stationary: StationaryVector


def lumped(rc: RightCongruence, pi: LetterDistribution) -> LumpedWalk:
    """Lump the walk on the reset code of ``rc`` onto its classes.

    The matrix is the class walk of ``congruence_transition_matrix``.
    Lumpability is checked letter by letter on integers, whatever ``pi``:
    each code word lies in one class, and the code word its letter a leads
    to must lie in the class the Cayley table gives for that class and a.
    The stationary vector is computed both from code-word probabilities and
    by summing the product distribution over each class, as integers over
    d^k; the two must agree exactly, and the result must be a fixpoint of
    the class walk.
    """
    if rc.alphabet.size < 2:
        raise WalkError("lumping requires at least two letters")
    matrix = congruence_transition_matrix(rc, pi)
    labels = matrix.labels
    if rc.is_universal:
        # The reset code is {epsilon}: one state, and no action table.
        return LumpedWalk(matrix, StationaryVector(labels, (Fraction(1),)))

    code = reset_code(rc).code
    # Each code word's bucket of A^k words lies inside one class of rc; the
    # code word padded on the left with letter 0 is in it and has its integer.
    cls = [rc.labels[x] for _, x in code.keys]
    for key, b, succ in zip(code.keys, cls, action_table(code)):
        if tuple(map(cls.__getitem__, succ)) != rc.block_action[b]:
            raise AssertionError(f"lumpability violated at code word {rc.alphabet.word_at(*key)}")

    g, k, n = rc.alphabet.size, rc.k, len(labels)
    by_debruijn = [0] * n
    for b, weight in zip(rc.labels, _weights(pi, g, [(k, x) for x in range(len(rc.labels))], k)):
        by_debruijn[b] += weight
    by_code = [0] * n
    for b, weight in zip(cls, _weights(pi, g, code.keys, k)):
        by_code[b] += weight
    if by_code != by_debruijn:
        raise AssertionError("code-word and de Bruijn lumped stationary vectors differ")
    if not _is_fixpoint(rc.block_action, pi, by_code):
        raise AssertionError("lumped stationary vector is not a fixpoint")
    return LumpedWalk(matrix, StationaryVector(labels, tuple(Fraction(x, pi._denominator**k) for x in by_code)))


@dataclass(frozen=True)
class SimulationResult:
    """Empirical statistics from a seeded walk; reporting is float-valued."""

    labels: tuple[str, ...]
    visits: tuple[int, ...]
    steps: int
    seed: int
    episodes: int
    mean_reset_time: float

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(v / self.steps for v in self.visits)


_BLOCK = 1 << 14  # letters per block: bounds the simulator's buffers at a few hundred kB


def _letter_blocks(rng: random.Random, denom: int, cuts: list[int], steps: int):
    """The letters ``bisect_right(cuts, rng.randrange(denom))``, ``steps`` of
    them, as ``bytes`` blocks of ``_BLOCK`` letters (the last one shorter).

    ``randrange(denom)`` keeps the top ``denom.bit_length()`` bits of one
    32-bit generator output and draws again while they are >= denom.  When
    that is at most 8 bits, ``getrandbits(32 * n)`` holds n outputs, the
    first in the lowest word, so every fourth byte of it is the top byte of
    one output, and a translation table both maps it to its letter and
    deletes the rejected ones.  Wider denominators draw one letter at a time.
    """
    bits = denom.bit_length()
    if bits > 8:
        randrange = rng.randrange
        for start in range(0, steps, _BLOCK):
            yield bytes(bisect_right(cuts, randrange(denom)) for _ in range(min(_BLOCK, steps - start)))
        return
    tops = [byte >> (8 - bits) for byte in range(256)]
    table = bytes(bisect_right(cuts, r) for r in tops)
    reject = bytes(byte for byte, r in enumerate(tops) if r >= denom)
    buffer = b""
    for start in range(0, steps, _BLOCK):
        size = min(_BLOCK, steps - start)
        while len(buffer) < size:
            need = -(-((size - len(buffer)) << bits) // denom)  # outputs expected to give the rest
            buffer += rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4].translate(table, reject)
        yield buffer[:size]
        buffer = buffer[size:]


def _chunk_length(g: int, states: int, steps: int) -> int:
    """Letters per chunk: the largest m with g^m <= 256 whose table of
    states * g^m entries is at most steps / 16, and at least 1.  Building
    the table and spreading its counts cost a few operations per entry,
    against one loop pass per m letters, so set-up stays a small share."""
    return max((m for m in range(2, 9) if g**m <= 256 and 16 * states * g**m <= steps), default=1)


def simulate(ideal: IdealRep, pi: LetterDistribution, steps: int, seed: int) -> SimulationResult:
    """Seeded Monte-Carlo walk on the code words of an ideal.

    One letter stream drives both statistics: the visit counts of the chain
    and the reset episodes (an episode ends as soon as the letters read
    since its start have a suffix in the code).  Letters are drawn by exact
    cumulative inversion over a common denominator, so the sampler honours
    pi exactly.  They are drawn in blocks from the generator's 32-bit
    outputs: like ``randrange(denom)``, each letter reads the top bits of
    one output and skips outputs whose bits reach denom, so a seed gives
    the same walk as one ``randrange`` per step (see ``_letter_blocks``).

    The walk runs on augmented states (since, s): s is the code word
    reached, since the number of letters read in the current episode, in
    [0, len(s)).  The state is the unique code suffix of all letters read,
    so the episode's letters have a suffix in the code iff s fits in them,
    and a step to s' lands on since 0 when len(s') <= since + 1: an episode
    ends exactly on a visit to a since-0 state.  The walk reads m letters
    at a time, one byte per chunk computed from the block in C, through a
    table of the state after each of the g^m chunks from each state; the
    loop only counts (state, chunk) pairs, and each count is spread along
    its chunk's path into the visits at the end.  m comes from the sizes
    (``_chunk_length``), and the last letters of the stream, fewer than m,
    take single steps.
    """
    if type(steps) is not int or steps < 1:
        raise WalkError("steps must be an integer >= 1")
    if not pi.positive:
        raise WalkError("simulation requires a positive letter distribution")
    code = ideal.code
    if code.is_epsilon:
        raise CodeError("the one-word code has no chain to simulate")

    # Exact letter sampler: cumulative integer thresholds over one denominator.
    denom = pi._denominator
    cuts = list(accumulate(pi._numerators))

    nxt = _code_table(ideal, pi)
    g, lengths = len(cuts), [n for n, _ in code.keys]
    # (since, s) is the augmented state offset[s] + since; cols[l][a] is
    # the state after letter l from a.  Their entries share the ints of ``ids``.
    offset = [0, *accumulate(lengths)]
    ids = list(range(offset[-1]))
    cols = tuple(zip(*(
        [ids[offset[t] + (since + 1 if since + 1 < lengths[t] else 0)] for t in succ]
        for succ, n in zip(nxt, lengths)
        for since in range(n)
    )))

    def extend(path):
        """The states one letter further along each path, letters in order."""
        return chain.from_iterable(zip(*(map(col.__getitem__, path) for col in cols)))

    m = _chunk_length(g, len(ids), steps)
    # paths[j][a*g^j + p]: the state reached from a by the j letters p.
    paths = [ids]
    for _ in range(m - 1):
        paths.append(list(extend(paths[-1])))
    # The loop holds its state times g^m, so state + chunk indexes the table.
    scaled = [a * g**m for a in ids]
    table = list(map(scaled.__getitem__, extend(paths[-1])))
    pairs = [0] * len(table)
    # Chunk l_0..l_{m-1} is the byte sum of l_j * g^(m-1-j), below g^m <= 256.
    place = [bytes(l * g ** (m - 1 - j) for l in range(g)).ljust(256, b"\0") for j in range(m)]

    a, rest = 0, b""
    for block in _letter_blocks(random.Random(seed), denom, cuts, steps):
        letters = rest + block
        q = len(letters) // m
        rest = letters[q * m :]
        chunks = sum(int.from_bytes(letters[j : q * m : m].translate(place[j]), "little") for j in range(m))
        for c in chunks.to_bytes(q, "little"):
            i = a + c
            a = table[i]
            pairs[i] += 1

    a //= g**m
    aug = [0] * len(ids)  # visits of each augmented state
    # The visits after each chunk's last letter: the chunk starts, counted
    # below through paths[0], less the first one, plus the last end.
    aug[a] += 1
    aug[0] -= 1
    for letter in rest:
        a = cols[letter][a]
        aug[a] += 1
    counts = pairs
    for path in reversed(paths):
        # The counts of the chunk prefixes one letter shorter.
        counts = list(map(sum, zip(*[iter(counts)] * g)))
        for t, c in zip(path, counts):
            aug[t] += c

    episodes = sum(aug[i] for i in offset[:-1])
    unfinished = a - offset[bisect_right(offset, a) - 1]  # letters of the last, open episode
    mean = (steps - unfinished) / episodes if episodes else float("nan")
    return SimulationResult(
        labels=tuple(str(w) for w in code.words),
        visits=tuple(sum(aug[i:j]) for i, j in zip(offset, offset[1:])),
        steps=steps,
        seed=seed,
        episodes=episodes,
        mean_reset_time=mean,
    )
