"""Exact random-walk analytics on semaphore codes and congruence classes.

Every analytic quantity here is an exact rational: a code's stationary
weights are checked on integers to be a fixpoint of one walk step, reset
probabilities are sums of the same weights, and the lumped chain is the
class walk of the Cayley table, checked letter by letter against the walk
on the reset code, with a stationary vector computed two independent ways
that must agree to the last bit.  A walk is held as its action table, with
the letter probabilities as integer numerators over their common
denominator d; a row of the class walk is read off the Cayley table as at
most g numerators over d.  Floating point appears only in the Monte-Carlo
reporting layer.

This is the engine of the ``walk`` commands.  The closed-form stationary
vector and the lumped walk as ``Fraction``s are ``constructions.stationary``
and ``constructions.lumped``; the dense ``Fraction`` matrices of a code's
walk and of the class walk, one step on ``Fraction``s, the
Gaussian-elimination solver and the grid check of the reset polynomial,
its oracles, are in ``oracles``.  Neither module is imported by the CLI.

Two bounds refuse a request before its work starts, with
``WalkBoundExceeded``: the class walk printed by ``walk lumped`` has at
most ``MAX_MATRIX_ENTRIES`` entries, and ``simulate`` runs at most
``MAX_SIMULATION_STEPS`` steps.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm
from operator import mul

from .codes import CodeError, IdealRep, reset_code
# Unused here: perfbench/test_perfbench.py::test_tracer_restores_the_program
# reads walks.code_action to check that its tracer restores the binding.
from .codes import code_action  # noqa: F401
from .congruences import RightCongruence
from .words import Alphabet, Word, _Frozen, _read_keys

# Refused before the work starts: a class walk of more matrix entries (2^22
# is 2,048 classes, k = 11 over two letters, and the CLI prints every entry),
# and more simulated steps (10^9 take about a minute at 17-19 million steps
# per second).
MAX_MATRIX_ENTRIES = 1 << 22
MAX_SIMULATION_STEPS = 10**9

# What the callers of stationary_weights report for a distribution with a zero.
NON_POSITIVE_CAUTION = "non-positive letter distribution: stationary vector may not be unique"


class WalkError(ValueError):
    pass


class WalkBoundExceeded(WalkError):
    """A walk was refused because its size exceeds its bound."""


class LetterDistribution(_Frozen):
    """Exact letter probabilities, summing to one."""

    _fields = ("alphabet", "probs")

    def __post_init__(self) -> None:
        if len(self.probs) != self.alphabet.size:
            raise WalkError("one probability per letter required")
        if any(p < 0 or p > 1 for p in self.probs):
            raise WalkError("letter probabilities must lie in [0, 1]")
        if sum(self.probs) != 1:
            raise WalkError(f"letter probabilities sum to {sum(self.probs)}, not 1")
        # Each probability as numerator / denominator over one common denominator.
        denom = lcm(*(p.denominator for p in self.probs))
        numerators = tuple(p.numerator * (denom // p.denominator) for p in self.probs)
        self.__dict__.update(_denominator=denom, _numerators=numerators)

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
            letter, frac = letter.strip(), frac.strip()
            if letter in values:
                raise WalkError(f"duplicate probability for letter {letter!r}")
            try:
                values[letter] = Fraction(frac)
            except ZeroDivisionError:
                raise WalkError(f"zero denominator in the probability of letter {letter!r}: {frac!r}") from None
            except ValueError:
                raise WalkError(f"cannot read the probability of letter {letter!r}: {frac!r}") from None
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


def _code_table(ideal: IdealRep, pi: LetterDistribution) -> tuple[tuple[int, ...], ...]:
    if pi.alphabet != ideal.alphabet:
        raise WalkError("the letter distribution and the code are over different alphabets")
    return ideal.table


def _weights(pi: LetterDistribution, g: int, keys: list[tuple[int, int]], top: int) -> list[int]:
    """The probability of each word, given by its key (n, x) over g letters,
    as an integer over d^top, for d the common denominator of ``pi`` and top
    at least every n: d^(top-n) times the product of the numerators of the
    word's letters, read off its key by ``words._read_keys``."""
    d = pi._denominator
    scale = [d ** (top - n) for n in range(top + 1)]
    return [scale[n] * p for (n, _), p in zip(keys, _read_keys(keys, top, pi._numerators, mul, 1)[0])]


def _is_fixpoint(nxt: tuple[tuple[int, ...], ...], pi: LetterDistribution, weights: list[int]) -> bool:
    """Whether the vector ``weights`` / c, for any c > 0, is fixed by one
    walk step: ``advance`` on integers, with the letter probabilities as
    numerators over their common denominator d.  The step sends weight
    w_i * num_a to state nxt[i][a], letter column by letter column, and the
    vector is fixed iff every state then holds d times its own weight."""
    out = [0] * len(nxt)
    for p, column in zip(pi._numerators, zip(*nxt)):
        for x, j in zip(weights, column):
            out[j] += x * p
    d = pi._denominator
    return all(y == d * x for x, y in zip(weights, out))


def stationary_weights(ideal: IdealRep, pi: LetterDistribution) -> tuple[list[int], int]:
    """The stationary vector of ``stationary`` as integers: the weight N_w
    of each code word, in the code's key order, and their sum d^L.

    A distribution with a zero is not refused and warns nothing: the
    weights are still a fixpoint, though maybe not the only one.  The
    callers report ``NON_POSITIVE_CAUTION`` for it, ``walk stationary`` as
    a line on stderr and ``constructions.stationary`` as a ``UserWarning``."""
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


class ResetProfile(_Frozen):
    """Cumulative reset probabilities P(1..k), increments, and hitting time."""

    _fields = ("cumulative", "increments", "hitting_time")

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


def lumped_weights(
    rc: RightCongruence, pi: LetterDistribution
) -> tuple[list[int], int, list[dict[int, int]], int]:
    """Lump the walk on the reset code of ``rc`` onto its classes, on integers.

    Returns the stationary weight of each class, in canonical class order,
    with their sum d^k, and each class's row of the class walk: the class
    the Cayley table gives for it and a letter, mapped to the sum of those
    letters' numerators over their common denominator d, which is returned
    last.  Lumpability is checked letter by letter, whatever ``pi``: each
    code word lies in one class, and the code word its letter a leads to
    must lie in the class the Cayley table gives for that class and a.  The
    weights are computed both from code-word probabilities and by summing
    the product distribution over each class; the two must agree exactly,
    and they must be a fixpoint of the class walk.
    """
    if rc.alphabet.size < 2:
        raise WalkError("lumping requires at least two letters")
    if pi.alphabet != rc.alphabet:
        raise WalkError("the letter distribution and the congruence are over different alphabets")
    n = max(rc.labels) + 1
    if n * n > MAX_MATRIX_ENTRIES:
        raise WalkBoundExceeded(f"refusing to build a {n}x{n} transition matrix (limit {MAX_MATRIX_ENTRIES} entries)")
    g, k, d = rc.alphabet.size, rc.k, pi._denominator
    weights = [d**k]
    # The universal congruence's reset code is {epsilon}: one state, and no
    # action table.
    if not rc.is_universal:
        ideal = reset_code(rc)
        code = ideal.code
        # Each code word's bucket of A^k words lies inside one class of rc; the
        # code word padded on the left with letter 0 is in it and has its integer.
        cls = [rc.labels[x] for _, x in code.keys]
        for key, b, succ in zip(code.keys, cls, ideal.table):
            if tuple(map(cls.__getitem__, succ)) != rc.block_action[b]:
                raise AssertionError(f"lumpability violated at code word {rc.alphabet.word_at(*key)}")

        # The weights of the words of A^k are the table of A^k, over d^k.
        by_debruijn = [0] * n
        for b, weight in zip(rc.labels, _read_keys((), k, pi._numerators, mul, 1, len(rc.labels))[1][k]):
            by_debruijn[b] += weight
        weights = [0] * n
        for b, weight in zip(cls, _weights(pi, g, code.keys, k)):
            weights[b] += weight
        if weights != by_debruijn:
            raise AssertionError("code-word and de Bruijn lumped stationary vectors differ")
        if not _is_fixpoint(rc.block_action, pi, weights):
            raise AssertionError("lumped stationary vector is not a fixpoint")

    rows = []
    for succ in rc.block_action:
        row: dict[int, int] = {}
        for p, c in zip(pi._numerators, succ):
            row[c] = row.get(c, 0) + p
        rows.append(row)
    return weights, d**k, rows, d


class SimulationResult(_Frozen):
    """Empirical statistics from a seeded walk; reporting is float-valued."""

    _fields = ("labels", "visits", "steps", "seed", "episodes", "mean_reset_time")

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
    if steps > MAX_SIMULATION_STEPS:
        raise WalkBoundExceeded(f"refusing to simulate {steps} steps (limit {MAX_SIMULATION_STEPS})")
    if not pi.positive:
        raise WalkError("simulation requires a positive letter distribution")
    code = ideal.code
    if code.is_epsilon:
        raise CodeError("the one-word code has no chain to simulate")
    # random.Random seeds with abs(seed), so a negative seed would repeat the walk of its absolute value.
    if type(seed) is not int or seed < 0:
        raise WalkError("seed must be an integer >= 0")

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
        labels=code.texts,
        visits=tuple(sum(aug[i:j]) for i, j in zip(offset, offset[1:])),
        steps=steps,
        seed=seed,
        episodes=episodes,
        mean_reset_time=mean,
    )
