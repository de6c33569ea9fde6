"""The definitional checks that the integer engine is tested against.

Nothing on the command-line path imports this module: ``import semwalk.cli``
compiles the engine (``words``, ``congruences``, ``codes``, ``graphs`` and
``walks``) and not these routines, which ``semwalk`` loads on first use of
one of their names.  Each one is brute force on purpose, so that it stays
definitional, except ``validate`` and ``generate`` on ``Word``s, which
check their words' alphabet and hand the keys to
``congruences.validate_keys`` and ``generate_keys``:

- the ``Word`` algebra: prefix and factor orders, longest common suffixes,
  the suffixes of a word, and the words of length 1..n;
- ``enumerate_all``, which filters every set partition of A^k through the
  closure check, ``join_graph``, the census search with every join
  computed, from principal congruences closed pair by pair, and
  ``lattice_report``, the lattice checks of any list of congruences read
  off its pairwise meets, the oracle of ``congruences.lattice_census``;
- ``is_semaphore``, with its witness in a ``SemaphoreCheck``, and
  ``suffix_classes``, which look up the suffixes of each word one by one;
- the dense ``Fraction`` matrices (``TransitionMatrix``) of a code's walk,
  ``transition_matrix``, and of a congruence's class walk,
  ``congruence_transition_matrix``, which ``walk lumped`` prints from the
  Cayley table on integers instead; one ``advance`` step on ``Fraction``s;
  the ``StationaryVector``s of ``solve_stationary``, by exact Gaussian
  elimination, and of the product distribution ``debruijn_stationary``;
  and the grid check of the reset polynomial.

The routines and bounds of ``congruences``, ``codes`` and ``walks`` are
read through their module at call time (``congruences.MAX_LATTICE_ELEMENTS``,
``congruences._join_star``, ``walks.MAX_MATRIX_ENTRIES``), so a bound or a
kernel replaced there reaches these checks too.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import Iterable, Iterator

from . import codes, congruences, walks
from .codes import CodeError, IdealRep, SemaphoreCode
from .congruences import BoundExceeded, CongruenceError, LatticeReport, NotAPartitionError, RightCongruence
from .graphs import _strongly_connected
from .walks import LetterDistribution, WalkBoundExceeded, WalkError
from .words import DEFAULT_ENUMERATION_LIMIT, Alphabet, Word, WordError, _Frozen, _require_same_alphabet, words_of_length

# ------------------------------------------------------------------- words


def epsilon(alphabet: Alphabet) -> Word:
    return Word(alphabet, ())


def is_prefix(u: Word, v: Word) -> bool:
    _require_same_alphabet(u, v)
    n = len(u)
    return n <= len(v) and v.indices[:n] == u.indices


def is_factor(u: Word, v: Word) -> bool:
    _require_same_alphabet(u, v)
    n = len(u)
    if n == 0:
        return True
    return any(v.indices[i : i + n] == u.indices for i in range(len(v) - n + 1))


def lcs(u: Word, v: Word) -> Word:
    """Longest common suffix; the empty word when the last letters differ."""
    _require_same_alphabet(u, v)
    n = 0
    while n < len(u) and n < len(v) and u.indices[-1 - n] == v.indices[-1 - n]:
        n += 1
    return Word(u.alphabet, u.indices[len(u) - n :])


def lcs_of(words: Iterable[Word]) -> Word:
    """Longest common suffix of a nonempty collection."""
    it = iter(words)
    try:
        out = next(it)
    except StopIteration:
        raise WordError("lcs_of requires at least one word") from None
    for w in it:
        out = lcs(out, w)
    return out


def suffixes(u: Word) -> Iterator[Word]:
    """All suffixes of ``u``, shortest first, epsilon included."""
    for n in range(len(u) + 1):
        yield Word(u.alphabet, u.indices[len(u) - n :])


def words_up_to_length(alphabet: Alphabet, max_len: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[Word]:
    """All nonempty words of length 1..max_len, in shortlex order."""
    out: list[Word] = []
    for n in range(1, max_len + 1):
        out.extend(words_of_length(alphabet, n, limit=limit))
    return out


# ------------------------------------------------------------- congruences


def validate(alphabet: Alphabet, k: int, blocks: list[list[Word]]) -> RightCongruence:
    """Canonicalize a partition of A^k and check closure under the action.

    Raises NotAPartitionError when the blocks do not cover A^k exactly once,
    and ClosureViolation with a witness (u, v, a) when they do but the
    right action does not preserve them.
    """

    def keys(blk):
        for w in blk:
            if w.alphabet != alphabet:
                raise NotAPartitionError(f"word {w} is not in A^{k}")
            yield w.key

    return congruences.validate_keys(alphabet, k, (list(keys(blk)) for blk in blocks))


def generate(
    pairs: set[tuple[Word, Word]] | list[tuple[Word, Word]],
    alphabet: Alphabet,
    k: int,
) -> RightCongruence:
    """Smallest right congruence containing the given pairs.

    Refuses a pair with a word over another alphabet, and hands the pairs'
    keys to ``congruences.generate_keys``, which checks their length and
    closes them.
    """

    def keys():
        for u, v in pairs:
            if u.alphabet != alphabet or v.alphabet != alphabet:
                raise CongruenceError(f"pair ({u}, {v}) is not in A^{k} x A^{k}")
            yield u.key, v.key

    return congruences.generate_keys(alphabet, k, keys())


def _set_partitions(items):
    """All set partitions of items, as restricted-growth strings: item i
    goes to block s[i], and each block first appears after the ones before."""
    n = len(items)
    labels = [0] * n

    def rec(i: int, maxcode: int):
        if i == n:
            yield tuple(labels)
            return
        for c in range(maxcode + 2):
            labels[i] = c
            yield from rec(i + 1, max(maxcode, c))

    yield from rec(0, -1)


def enumerate_all(
    alphabet: Alphabet, k: int, carrier_bound: int = congruences.DEFAULT_CARRIER_BOUND
) -> list[RightCongruence]:
    """Every right congruence on A^k, by filtering all set partitions.

    Deliberately brute force: this is the oracle that lattice results are
    checked against, so it must stay definitional.  Each partition goes
    through the same closure check as ``validate``.
    """
    n, g = congruences._enumerable_size(alphabet, k, carrier_bound), alphabet.size
    kept = [s for s in _set_partitions(range(n)) if congruences._closure_witness(g, s, congruences._blocks(s)) is None]
    kept.sort(key=congruences._blocks)
    return [RightCongruence(alphabet, k, s) for s in kept]


def _principals_by_closure(g: int, k: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """``congruences._principals`` by the union-find closure of each pair
    (u, v) under the action: the same principal congruences, pairs and
    order."""
    n = g**k
    principal: dict[str, tuple[int, int]] = {}
    for u in range(n):
        for v in range(u + 1, n):
            principal.setdefault(congruences._star(congruences._close(g, range(n), [(u, v)])), (u, v))
    return [(u, v, congruences._star_pairs(star)) for star, (u, v) in principal.items()]


def join_graph(
    alphabet: Alphabet, k: int, carrier_bound: int, max_elements: int | None = None
) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """``congruences._join_graph`` with every entry computed: one
    ``_join_star`` per element and principal congruence not below it, each
    join looked up in, or added to, the list, and the list sorted by
    ``_blocks``.  Same list, order, joins and refusals, with no entry read
    off another element's row."""
    n = congruences._enumerable_size(alphabet, k, carrier_bound)
    gens = _principals_by_closure(alphabet.size, k)
    stars = [congruences._star(range(n))]
    index = {stars[0]: 0}
    joins: list[list[int]] = []
    for x in stars:  # a breadth-first search: the list grows as it is read
        out = []
        for u, v, pairs in gens:
            if x[u] != x[v]:  # else theta(u, v) is below x
                y = congruences._join_star(x, pairs)
                if y not in index:
                    if len(stars) == max_elements:
                        raise BoundExceeded(f"lattice of more than {max_elements} elements exceeds the exhaustive-check bound")
                    index[y] = len(stars)
                    stars.append(y)
                out.append(index[y])
        joins.append(out)
    labels = list(map(congruences._canonical, stars))
    order = sorted(range(len(stars)), key=lambda i: congruences._blocks(labels[i]))
    at = dict(zip(order, range(len(order))))
    return [labels[i] for i in order], [[at[j] for j in joins[i]] for i in order]


def _first_unclosed(rel, by_rel, stars) -> str:
    """The first failing pair, in order, meet before join, as its message."""
    joins = set(stars)
    for i, j in combinations_with_replacement(range(len(rel)), 2):
        m = by_rel.get(rel[i] & rel[j])
        if m is None:
            return "input is not closed under meet"
        if m != i and m != j and congruences._join_star(stars[i], congruences._star_pairs(stars[j])) not in joins:
            return "input is not closed under join"
    raise AssertionError("a failed closure check has a failing pair")


def lattice_report(elements: list[RightCongruence]) -> LatticeReport:
    """Lattice checks over an arbitrary list, read off its order: the oracle
    of ``congruences.lattice_census``, which reads the same report off its
    enumeration.

    An element is one int of relation bits (``_relation``), so a meet is an
    AND and a lookup; every pair's is looked up, and x <= y iff
    x meet y = x.  The order is kept as up- and down-set bitsets; y covers x
    when up(x) & down(y) is {x, y}.  A meet-closed finite set with a top is
    a lattice, in which the join of x and y has up-set up(x) & up(y).  It is
    closed under the join of right congruences if x v a is in it for every
    x and every join-irreducible a (one lower cover), since every y is the
    join of the join-irreducibles below it; only those joins are computed,
    each by ``_join_star`` on the element's star (one ``str.replace`` per
    merged block) and compared with the star of the up-set join.  On a
    failed check the first failing pair, meet before join, is raised.  The
    flags are ``congruences._report``'s.
    """
    n = len(elements)
    if n > congruences.MAX_LATTICE_ELEMENTS:
        raise BoundExceeded(f"lattice of {n} elements exceeds the exhaustive-check bound")
    if not elements:
        raise CongruenceError("a lattice has at least one element")
    for rc in elements[1:]:
        congruences._require_same_setting(elements[0], rc)
    labels = [rc.labels for rc in elements]
    if len(set(labels)) != n:
        raise CongruenceError("duplicate elements")

    rel = [congruences._relation(lab) for lab in labels]
    by_rel = {r: i for i, r in enumerate(rel)}
    stars = [congruences._star(lab) for lab in labels]
    up = [0] * n  # bit j of up[i]: element i refines element j
    down = [0] * n  # bit i of down[j]: the same
    for i, r in enumerate(rel):
        for j in range(i, n):
            m = by_rel.get(r & rel[j])
            if m == i:
                up[i] |= 1 << j
                down[j] |= 1 << i
            elif m == j:
                up[j] |= 1 << i
                down[i] |= 1 << j
            elif m is None:
                raise CongruenceError(_first_unclosed(rel, by_rel, stars))

    covers = congruences._covers(down, [up_i ^ (1 << i) for i, up_i in enumerate(up)])
    everything = (1 << n) - 1
    by_up = {u: i for i, u in enumerate(up)}
    lower = Counter(j for _, j in covers)
    irreducible = {a: congruences._star_pairs(stars[a]) for a in range(n) if lower[a] == 1}
    if everything not in down or not all(
        congruences._join_star(stars[x], pairs) == stars[by_up[up[x] & up[a]]]
        for a, pairs in irreducible.items()
        for x in congruences._bits(everything & ~(up[a] | down[a]))
    ):
        raise CongruenceError(_first_unclosed(rel, by_rel, stars))
    return congruences._report(up, down, covers)


# ------------------------------------------------------------------- codes


class SemaphoreCheck(_Frozen):
    """Outcome of the semaphore test, with a witness when it fails.

    Exactly one of the witnesses is set on failure: ``comparable`` names two
    code words where one is a suffix of the other, ``stuck`` names a pair
    (s, a) such that s+a has no suffix in the code.
    """

    _fields = ("ok", "comparable", "stuck")
    comparable: tuple[Word, Word] | None = None
    stuck: tuple[Word, Word] | None = None

    def __bool__(self) -> bool:
        return self.ok


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
    pairs = [(index[u], j) for j, (n, x) in enumerate(index) for u in codes._suffix_keys(index, g, n - 1, x)]
    if pairs:
        i, j = min(pairs)
        return SemaphoreCheck(False, comparable=(ws[i], ws[j]))
    for s, (n, x) in zip(ws, index):
        for a in range(g):
            if not any(codes._suffix_keys(index, g, n + 1, x * g + a)):
                return SemaphoreCheck(False, stuck=(s, Word(alphabet, (a,))))
    return SemaphoreCheck(True)


def suffix_classes(alphabet: Alphabet, k: int, code: SemaphoreCode) -> list[list[Word]]:
    """Partition of A^k by the unique code suffix of each word.

    Defined for any suffix code covering A^k, semaphore or not; the result
    is a right congruence exactly when the code's left ideal is two-sided.
    """
    buckets: dict[tuple[int, int], list[Word]] = {}
    for x, u in enumerate(words_of_length(alphabet, k)):
        hits = list(codes._suffix_keys(code._index, alphabet.size, k, x))
        if len(hits) != 1:
            raise CodeError(f"{u} has {len(hits)} suffixes in the code, expected exactly 1")
        buckets.setdefault(hits[0], []).append(u)
    return list(buckets.values())


# ------------------------------------------------------------------- walks


class TransitionMatrix(_Frozen):
    """Row-stochastic matrix over explicitly labelled states."""

    _fields = ("labels", "rows")

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


class StationaryVector(_Frozen):
    _fields = ("labels", "values")

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.values):
            raise WalkError("one value per state required")
        den = lcm(*(v.denominator for v in self.values))  # the sum on integers, over one denominator
        if sum(v.numerator * (den // v.denominator) for v in self.values) != den:
            raise WalkError("stationary vector must sum to 1")

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.labels, self.values))


def _matrix(labels: tuple[str, ...], nxt, pi: LetterDistribution) -> TransitionMatrix:
    """The dense matrix of the walk with action table ``nxt``: row x puts
    pi(a) on column nxt[x][a]."""
    n = len(nxt)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for row, succ in zip(rows, nxt):
        for p, j in zip(pi.probs, succ):
            row[j] += p
    return TransitionMatrix(labels, tuple(tuple(r) for r in rows))


def congruence_transition_matrix(rc: RightCongruence, pi: LetterDistribution) -> TransitionMatrix:
    """Transition matrix of the walk on congruence classes."""
    if pi.alphabet != rc.alphabet:
        raise WalkError("the letter distribution and the congruence are over different alphabets")
    n = max(rc.labels) + 1
    if n * n > walks.MAX_MATRIX_ENTRIES:
        raise WalkBoundExceeded(
            f"refusing to build a {n}x{n} transition matrix (limit {walks.MAX_MATRIX_ENTRIES} entries)"
        )
    return _matrix(rc.block_labels, rc.block_action, pi)


def debruijn_stationary(pi: LetterDistribution, k: int) -> StationaryVector:
    """The product distribution over A^k, in enumeration order."""
    ws = words_of_length(pi.alphabet, k)
    return StationaryVector(tuple(str(w) for w in ws), tuple(pi.word_prob(w) for w in ws))


def transition_matrix(ideal: IdealRep, pi: LetterDistribution) -> TransitionMatrix:
    """Transition matrix of the walk on the code words of an ideal."""
    if ideal.code.is_epsilon:
        raise CodeError("the one-word code has no action; use the 1x1 chain directly")
    return _matrix(tuple(str(w) for w in ideal.code.words), walks._code_table(ideal, pi), pi)


def advance(nxt: list[list[int]], pi: LetterDistribution, vec: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """One step of the walk on a distribution: ``vec`` times the transition
    matrix, read off the action table in O(n*g) exact operations."""
    out = [Fraction(0)] * len(nxt)
    for x, succ in zip(vec, nxt):
        for p, j in zip(pi.probs, succ):
            out[j] += x * p
    return tuple(out)


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


def _grid_distributions(alphabet: Alphabet, points: int) -> list[LetterDistribution]:
    """A deterministic evaluation grid: `points` distinct positive values
    per free letter, the last letter absorbing the remainder."""
    g = alphabet.size
    denom = (points + 1) * (g - 1)
    grids = [[Fraction(j, denom) for j in range(1, points + 1)] for _ in range(g - 1)]
    out = []

    def rec(i: int, chosen: list[Fraction]):
        if i == g - 1:
            rest = 1 - sum(chosen, Fraction(0))
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
    return all(
        sum(walks._weights(pi, g, keys, k)) == pi._denominator**k for pi in _grid_distributions(ideal.alphabet, k + 2)
    )


def check_polynomial_identity(rc: RightCongruence) -> bool:
    """Grid-verify that the congruence's reset probabilities reach exactly 1."""
    if rc.alphabet.size < 2:
        raise WalkError("the identity check needs at least two letters")
    return polynomial_identity_holds(codes.reset_code(rc))
