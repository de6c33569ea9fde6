"""Right congruences on the words of length k.

A right congruence is a partition of A^k that is preserved by appending a
letter (and truncating back to length k).  Under inclusion of relations the
right congruences form a finite lattice: meet is common refinement, join is
the generated congruence of the union.  This module provides validation,
generation from pairs, enumeration at small parameters (the join closure of
the principal congruences, and the exhaustive partition filter that is its
oracle), and the lattice analytics (covers, atoms, semimodularity,
modularity, atomisticity, equal maximal chain lengths).

Internally A^k is the integers 0..g^k-1 in the lexicographic order of
``words_of_length``: a word is its letter indices read in base g, and
appending letter a sends x to (x*g + a) mod g^k.  A congruence is stored
as its canonical labels, the block index of each integer, and nothing
else; ``Word`` objects are built only for parsed input, the ``blocks``
rendering and witnesses in messages.  The lattice enumeration and the join
certificate of the lattice report work on stars instead: the string whose
character x is ``chr`` of the least point of x's block.  Joining a
principal or join-irreducible congruence into a star is one C-level
``str.replace`` per pair of blocks it merges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement

# Unused here: perfbench/test_perfbench.py::test_tracer_restores_the_program
# reads congruences.product to check that its tracer restores the binding.
from .words import Alphabet, Word, count_of_length, product, words_of_length  # noqa: F401

# The oracle enumeration is a Bell-number filter.  Both enumerations refuse
# carriers of more than 12 points outright, and more than 8 requires an
# explicit opt-in bound.
DEFAULT_CARRIER_BOUND = 8
HARD_CARRIER_BOUND = 12
# lattice_report looks up n^2 meet-table entries, one AND of relation bitsets
# each and no per-pair closure, and keeps n-bit up- and down-sets (the cubic
# pentagon search only finds witnesses); beyond this it refuses, not samples.
MAX_LATTICE_ELEMENTS = 5000


class CongruenceError(ValueError):
    """Malformed partition input (not a partition of A^k, bad parameters)."""


class NotAPartitionError(CongruenceError):
    pass


class BoundExceeded(CongruenceError):
    """An enumeration was refused because it would blow past its size bound."""


@dataclass(frozen=True)
class ClosureViolation(CongruenceError):
    """Witness that a partition is not closed under the right action."""

    u: Word
    v: Word
    letter: Word

    def __str__(self) -> str:
        return (
            f"not a right congruence: {self.u} and {self.v} share a block but "
            f"{self.u}*{self.letter} and {self.v}*{self.letter} do not"
        )


# ------------------------------------------------------------ integer kernel


@lru_cache(maxsize=8)
def _action(g: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The right action on A^k as integers: nxt[x][a] = (x*g + a) mod g^k."""
    n = g**k
    return tuple(tuple((x * g + a) % n for a in range(g)) for x in range(n))


@lru_cache(maxsize=8)
def _carrier(alphabet: Alphabet, k: int) -> tuple[Word, ...]:
    """A^k as words; position x holds the word whose integer is x."""
    return tuple(words_of_length(alphabet, k))


def _canonical(keys) -> tuple[int, ...]:
    """Renumber keys by first occurrence: a restricted-growth string."""
    first: dict = {}
    return tuple(first.setdefault(key, len(first)) for key in keys)


def _blocks(labels: tuple[int, ...]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
    for x, b in enumerate(labels):
        out[b].append(x)
    return out


def _star(labels: tuple[int, ...]) -> str:
    """Each point mapped to the least point of its block, as the string of
    ``chr`` of those minima: a canonical key like the labels, and, read as
    pairs (x, star[x]), a generating set.  Two blocks merge by one
    ``str.replace`` of the larger minimum by the smaller, a C-level pass."""
    first: list[str] = []
    for x, b in enumerate(labels):
        if b == len(first):
            first.append(chr(x))
    return "".join(map(first.__getitem__, labels))


def _star_pairs(star: str) -> list[tuple[int, int]]:
    return [(x, p) for x, p in enumerate(map(ord, star)) if x != p]


def _block_masks(labels: tuple[int, ...]) -> tuple[int, ...]:
    """Each point mapped to the bitset of its block: a canonical key under
    which the meet of two partitions is the pointwise AND."""
    masks = [0] * (max(labels, default=-1) + 1)
    for x, b in enumerate(labels):
        masks[b] |= 1 << x
    return tuple(masks[b] for b in labels)


def _close(nxt, parent, pairs) -> tuple[int, ...]:
    """Union-find closure under the action, returned as canonical labels.

    ``parent`` is a union-find forest of a right-closed partition (identity
    or the ``ord`` of a congruence's ``_star``); it is copied, not changed.
    Each pair is merged, and every pair that joins two classes queues its
    images under every letter, until fixpoint.
    """
    parent = list(parent)
    work = list(pairs)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while work:
        u, v = work.pop()
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            work.extend(zip(nxt[u], nxt[v]))
    return _canonical(find(x) for x in range(len(parent)))


def _join_star(star: str, pairs: list[tuple[int, int]]) -> str:
    """Star of the join of two right congruences, the first given by its
    ``_star``, the second by its ``_star_pairs``.

    The join is the equivalence generated by the union; it needs no closure
    under the action, because a chain u = w0 ~ w1 ~ ... ~ wm = v of steps in
    either congruence maps letter by letter to the chain w0*a ~ ... ~ wm*a.
    Each pair whose points have different minima merges their blocks: the
    larger minimum is replaced by the smaller, so the result is the star
    again.  The cost is one C pass over the star per merge, which is meant
    for a second operand with few blocks to merge, such as a principal or
    join-irreducible congruence; ``join`` takes the union-find ``_close``.
    """
    for x, p in pairs:
        a, b = star[x], star[p]
        if a < b:
            star = star.replace(b, a)
        elif b < a:
            star = star.replace(a, b)
    return star


def _closure_witness(nxt, labels: tuple[int, ...]) -> tuple[int, int, int] | None:
    """First (u, v, a) in canonical block order such that u and v share a
    block but u*a and v*a do not; None when the partition is right-closed."""
    for blk in _blocks(labels):
        u = blk[0]
        image = [labels[y] for y in nxt[u]]
        for v in blk[1:]:
            for a, y in enumerate(nxt[v]):
                if labels[y] != image[a]:
                    return u, v, a
    return None


# ------------------------------------------------------------- congruences


@dataclass(frozen=True)
class RightCongruence:
    """A partition of A^k closed under the right action, in canonical form.

    ``labels`` is the block index of each word of A^k, in carrier order,
    as a restricted-growth string: blocks are numbered by their least word,
    so the largest label is the number of blocks minus one.  It is a
    canonical key, so equality and hashing compare labels.
    """

    alphabet: Alphabet
    k: int
    labels: tuple[int, ...]

    @cached_property
    def blocks(self) -> tuple[tuple[Word, ...], ...]:
        """The blocks as sorted words, blocks ordered by their least word."""
        words = self.carrier
        return tuple(tuple(words[x] for x in blk) for blk in _blocks(self.labels))

    @cached_property
    def block_of(self) -> dict[Word, int]:
        return dict(zip(self.carrier, self.labels))

    @cached_property
    def carrier(self) -> tuple[Word, ...]:
        return _carrier(self.alphabet, self.k)

    def related(self, u: Word, v: Word) -> bool:
        return self.block_of[u] == self.block_of[v]

    def pairs(self) -> set[tuple[Word, Word]]:
        """All related pairs (u, v) with u != v, both orientations."""
        out: set[tuple[Word, Word]] = set()
        for blk in self.blocks:
            for u, v in combinations(blk, 2):
                out.add((u, v))
                out.add((v, u))
        return out

    @cached_property
    def block_labels(self) -> tuple[str, ...]:
        """Each block rendered ``{w1,w2}``, in canonical block order."""
        return tuple("{" + ",".join(map(str, blk)) + "}" for blk in self.blocks)

    @cached_property
    def block_action(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table: ``block_action[b][a]`` is the block reached from
        block b by appending letter a, read off the block's least word."""
        nxt, labels = _action(self.alphabet.size, self.k), self.labels
        return tuple(tuple(labels[y] for y in nxt[blk[0]]) for blk in _blocks(labels))

    def step(self, block_index: int, letter: Word) -> int:
        """Index of the block reached from a block by appending a letter."""
        for a in letter.indices:
            block_index = self.block_action[block_index][a]
        return block_index

    @property
    def is_identity(self) -> bool:
        return max(self.labels) == len(self.labels) - 1

    @property
    def is_universal(self) -> bool:
        return max(self.labels) == 0

    def refines(self, other: "RightCongruence") -> bool:
        """Relation inclusion: every block of self lies inside a block of other."""
        _require_same_setting(self, other)
        return len(set(zip(self.labels, other.labels))) == max(self.labels) + 1

    def __str__(self) -> str:
        return " | ".join(self.block_labels)


def _require_same_setting(r1: RightCongruence, r2: RightCongruence) -> None:
    if r1.alphabet != r2.alphabet or r1.k != r2.k:
        raise CongruenceError("congruences live on different A^k")


def _congruence(alphabet: Alphabet, k: int, keys) -> RightCongruence:
    """The partition of A^k into points x with equal keys[x], checked to be
    a right congruence.

    Raises CongruenceError when k < 1, and ClosureViolation with a witness
    (u, v, a) when the right action does not preserve the partition.  The
    keys are read after the k check, so a lazy parse raises after it too.
    """
    if k < 1:
        raise CongruenceError("k must be >= 1")
    labels = _canonical(keys)
    witness = _closure_witness(_action(alphabet.size, k), labels)
    if witness is not None:
        u, v, a = witness
        raise ClosureViolation(alphabet.word_at(k, u), alphabet.word_at(k, v), Word(alphabet, (a,)))
    return RightCongruence(alphabet, k, labels)


def _parse_blocks(alphabet: Alphabet, k: int, blocks):
    """Yields the index of each word's block, in carrier order, once the
    blocks of keys (length, x) are known to cover A^k exactly once."""
    raw = [-1] * count_of_length(alphabet, k)
    for b, blk in enumerate(blocks):
        if not blk:
            raise NotAPartitionError("empty block")
        for n, x in blk:
            if n != k:
                raise NotAPartitionError(f"word {alphabet.word_at(n, x)} is not in A^{k}")
            if raw[x] >= 0:
                raise NotAPartitionError(f"word {alphabet.word_at(n, x)} appears in two blocks")
            raw[x] = b
    if -1 in raw:
        raise NotAPartitionError(f"word {alphabet.word_at(k, raw.index(-1))} is not covered")
    yield from raw


def validate_keys(alphabet: Alphabet, k: int, blocks) -> RightCongruence:
    """``validate`` on blocks of word keys (length, x), as read by
    ``Alphabet.keys_of``: the same checks, messages and result."""
    return _congruence(alphabet, k, _parse_blocks(alphabet, k, blocks))


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

    return validate_keys(alphabet, k, (list(keys(blk)) for blk in blocks))


def identity(alphabet: Alphabet, k: int) -> RightCongruence:
    return RightCongruence(alphabet, k, tuple(range(count_of_length(alphabet, k))))


def universal(alphabet: Alphabet, k: int) -> RightCongruence:
    return RightCongruence(alphabet, k, (0,) * count_of_length(alphabet, k))


def generate(
    pairs: set[tuple[Word, Word]] | list[tuple[Word, Word]],
    alphabet: Alphabet,
    k: int,
) -> RightCongruence:
    """Smallest right congruence containing the given pairs.

    Disjoint-set closure with a worklist: merge each input pair, then keep
    merging the images of merged pairs under every letter until fixpoint.
    The result does not depend on merge order; canonical form is restored
    at the end regardless.
    """
    if k < 1:
        raise CongruenceError("k must be >= 1")
    n = count_of_length(alphabet, k)
    for u, v in pairs:
        if not all(w.alphabet == alphabet and len(w) == k for w in (u, v)):
            raise CongruenceError(f"pair ({u}, {v}) is not in A^{k} x A^{k}")
    work = [(u.key[1], v.key[1]) for u, v in pairs]
    return RightCongruence(alphabet, k, _close(_action(alphabet.size, k), range(n), work))


def meet(r1: RightCongruence, r2: RightCongruence) -> RightCongruence:
    """Common refinement: u ~ v iff related in both."""
    _require_same_setting(r1, r2)
    return RightCongruence(r1.alphabet, r1.k, _canonical(zip(r1.labels, r2.labels)))


def join(r1: RightCongruence, r2: RightCongruence) -> RightCongruence:
    """Smallest right congruence containing both relations.

    The pairs of the finer operand are merged into the star of the coarser
    by the union-find ``_close``, near-linear in |A^k| whatever the
    operands.  It gets an action with no letters, so it queues no image
    pairs: the join is right-closed already (see ``_join_star``).  The
    ``str.replace`` kernel ``_join_star`` would pay one pass over A^k per
    merged block, quadratic when the second operand merges many blocks of
    the first.
    """
    _require_same_setting(r1, r2)
    if max(r1.labels) > max(r2.labels):
        r1, r2 = r2, r1
    parent = map(ord, _star(r1.labels))
    labels = _close([()] * len(r1.labels), parent, _star_pairs(_star(r2.labels)))
    return RightCongruence(r1.alphabet, r1.k, labels)


def _set_partitions(items):
    """All set partitions of items, as restricted-growth strings: item i
    goes to block s[i], and each block first appears after the ones before."""
    n = len(items)
    if n == 0:
        yield ()
        return
    codes = [0] * n

    def rec(i: int, maxcode: int):
        if i == n:
            yield tuple(codes)
            return
        for c in range(maxcode + 2):
            codes[i] = c
            yield from rec(i + 1, max(maxcode, c))

    yield from rec(1, 0)


def _enumerable_size(alphabet: Alphabet, k: int, carrier_bound: int) -> int:
    """The size of A^k, once it is known that both enumerations may run."""
    if k < 1:
        raise CongruenceError("k must be >= 1")
    n = count_of_length(alphabet, k)
    if n > HARD_CARRIER_BOUND:
        raise BoundExceeded(f"carrier size {n} exceeds hard bound {HARD_CARRIER_BOUND}")
    if n > carrier_bound:
        raise BoundExceeded(f"carrier size {n} exceeds bound {carrier_bound}")
    return n


def enumerate_all(alphabet: Alphabet, k: int, carrier_bound: int = DEFAULT_CARRIER_BOUND) -> list[RightCongruence]:
    """Every right congruence on A^k, by filtering all set partitions.

    Deliberately brute force: this is the oracle that lattice results are
    checked against, so it must stay definitional.  Each partition goes
    through the same closure check as ``validate``.
    """
    n = _enumerable_size(alphabet, k, carrier_bound)
    nxt = _action(alphabet.size, k)
    kept = [s for s in _set_partitions(range(n)) if _closure_witness(nxt, s) is None]
    kept.sort(key=_blocks)
    return [RightCongruence(alphabet, k, s) for s in kept]


def enumerate_rc(alphabet: Alphabet, k: int, carrier_bound: int = DEFAULT_CARRIER_BOUND) -> list[RightCongruence]:
    """Every right congruence on A^k, as the join closure of the principal ones.

    A right congruence is the join of the principal congruences theta(u, v)
    of its pairs, so joining the identity with one theta(u, v) at a time
    reaches every element: one join per element and principal congruence
    instead of a closure check per set partition.  Elements are held as
    ``_star`` strings, so the seen set hashes and compares strings and each
    join is ``_join_star``, one ``str.replace`` per merged block.  Same
    list, order and refusals as ``enumerate_all``.
    """
    n = _enumerable_size(alphabet, k, carrier_bound)
    nxt = _action(alphabet.size, k)
    principal: dict[str, tuple[int, int]] = {}
    for u in range(n):
        for v in range(u + 1, n):
            principal.setdefault(_star(_close(nxt, range(n), [(u, v)])), (u, v))
    gens = [(u, v, _star_pairs(star)) for star, (u, v) in principal.items()]
    seen = {_star(range(n))}
    todo = list(seen)
    while todo:
        x = todo.pop()
        for u, v, pairs in gens:
            if x[u] != x[v]:  # else theta(u, v) is below x
                y = _join_star(x, pairs)
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
    kept = sorted(map(_canonical, seen), key=_blocks)
    return [RightCongruence(alphabet, k, s) for s in kept]


@dataclass
class LatticeReport:
    """Result of the definitional lattice checks on an enumerated set."""

    size: int
    bottom: int
    top: int
    covers: list[tuple[int, int]]  # (lower, upper) pairs of element indices
    atoms: list[int]
    semimodular: bool
    modular: bool
    atomistic: bool
    jordan_dedekind: bool
    # Witnesses for the failed flags, by element index.
    pentagon: tuple[int, int, int, int, int] | None = None  # (top, b, c, d, bottom)
    semimodular_pentagon: tuple[int, int, int, int, int] | None = None
    non_atomistic_witness: int | None = None
    unequal_chains: tuple[list[int], list[int]] | None = None

    @property
    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in ("semimodular", "modular", "atomistic", "jordan_dedekind")}


def _bits(mask: int):
    """The set bits of mask, in increasing order."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _pentagon_search(up, down, by_up, by_down, covers_set, require_cover: bool):
    """Exhaustive search for the forbidden pentagon sublattice.

    Pattern: five distinct elements with e < c < b < a, e < d < a, where
    b meet d = c meet d = e and b join d = c join d = a.  When
    require_cover is set, d must in addition cover e in the ambient
    lattice.  Returns the first (a, b, c, d, e) in (b, d, c) order, or None.
    """
    everything = (1 << len(up)) - 1
    for b, (up_b, down_b) in enumerate(zip(up, down)):
        for d in _bits(everything & ~(up_b | down_b)):
            up_a, down_e = up_b & up[d], down_b & down[d]
            if require_cover and (by_down[down_e], d) not in covers_set:
                continue
            for c in _bits(down_b & ~(1 << b) & ~(up[d] | down[d])):
                if up[c] & up[d] == up_a and down[c] & down[d] == down_e:
                    return (by_up[up_a], b, c, d, by_down[down_e])
    return None


def _first_unclosed(rel, by_rel, stars) -> str:
    """The first failing pair, in order, meet before join, as its message."""
    joins = set(stars)
    for i, j in combinations_with_replacement(range(len(rel)), 2):
        m = by_rel.get(rel[i] & rel[j])
        if m is None:
            return "input is not closed under meet"
        if m != i and m != j and _join_star(stars[i], _star_pairs(stars[j])) not in joins:
            return "input is not closed under join"
    raise AssertionError("a failed closure check has a failing pair")


def lattice_report(elements: list[RightCongruence]) -> LatticeReport:
    """Lattice checks over an explicitly enumerated set, read off its order.

    An element is one int of relation bits (point x's block bitset at bit
    x*N), so a meet is an AND and a lookup; every pair's is looked up, and
    x <= y iff x meet y = x.  The order is kept as up- and down-set bitsets;
    y covers x when up(x) & down(y) is {x, y}.  A meet-closed finite set
    with a top is a lattice, in which the join of x and y has up-set
    up(x) & up(y) (a meet, down-set down(x) & down(y)).  It is closed under
    the join of right congruences if x v a is in it for every x and every
    join-irreducible a (one lower cover), since every y is the join of the
    join-irreducibles below it; only those joins are computed, each by
    ``_join_star`` on the element's star (one ``str.replace`` per merged
    block) and compared with the star of the up-set join.  On a failed check the first failing
    pair, meet before join, is raised.  The flags rest on two theorems:

    - Upper semimodularity (if a and b cover a meet b, then a join b covers
      a and b) holds iff there is no pentagon sublattice e < c < b < a,
      e < d < a whose d covers e in the whole lattice.
    - The lattice is modular iff it is upper and lower semimodular (the
      dual condition: if a join b covers a and b, then a and b cover
      a meet b), and modular iff it has no pentagon sublattice.

    Both conditions are checked locally, on pairs of covers; the exhaustive
    ``_pentagon_search`` runs only when one fails, to find the witness.
    """
    n = len(elements)
    if n > MAX_LATTICE_ELEMENTS:
        raise BoundExceeded(f"lattice of {n} elements exceeds the exhaustive-check bound")
    if not elements:
        raise CongruenceError("a lattice has at least one element")
    for rc in elements[1:]:
        _require_same_setting(elements[0], rc)
    labels = [rc.labels for rc in elements]
    if len(set(labels)) != n:
        raise CongruenceError("duplicate elements")

    rel = [sum(m << (x * len(lab)) for x, m in enumerate(_block_masks(lab))) for lab in labels]
    by_rel = {r: i for i, r in enumerate(rel)}
    stars = [_star(lab) for lab in labels]
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

    covers = []
    for i, up_i in enumerate(up):
        bit = 1 << i
        rest = up_i ^ bit
        while rest:  # the bits of rest, lowest first, without a _bits generator step each
            low = rest & -rest
            rest ^= low
            if up_i & down[low.bit_length() - 1] == bit | low:
                covers.append((i, low.bit_length() - 1))
    upper: list[list[int]] = [[] for _ in range(n)]
    lower: list[list[int]] = [[] for _ in range(n)]
    for i, j in covers:
        upper[i].append(j)
        lower[j].append(i)
    covers_set = set(covers)

    everything = (1 << n) - 1
    by_up = {u: i for i, u in enumerate(up)}
    by_down = {d: i for i, d in enumerate(down)}
    irreducible = {a: _star_pairs(stars[a]) for a in range(n) if len(lower[a]) == 1}
    top = by_down.get(everything)
    if top is None or not all(
        _join_star(stars[x], pairs) == stars[by_up[up[x] & up[a]]]
        for a, pairs in irreducible.items()
        for x in _bits(everything & ~(up[a] | down[a]))
    ):
        raise CongruenceError(_first_unclosed(rel, by_rel, stars))
    bottom = by_up[everything]
    atoms = upper[bottom]

    upper_semimodular = all(
        (a, j) in covers_set and (b, j) in covers_set
        for m in range(n)
        for a, b in combinations(upper[m], 2)
        for j in [by_up[up[a] & up[b]]]
    )
    lower_semimodular = all(
        (e, a) in covers_set and (e, b) in covers_set
        for x in range(n)
        for a, b in combinations(lower[x], 2)
        for e in [by_down[down[a] & down[b]]]
    )
    pentagon = semi_pentagon = None
    if not (upper_semimodular and lower_semimodular):
        pentagon = _pentagon_search(up, down, by_up, by_down, covers_set, require_cover=False)
        if not upper_semimodular:
            semi_pentagon = _pentagon_search(up, down, by_up, by_down, covers_set, require_cover=True)

    # Atomistic: each element must be the join of the atoms below it, whose
    # up-set is the intersection of theirs.
    non_atomistic = None
    for x in range(n):
        acc = everything
        for a in atoms:
            if down[x] >> a & 1:
                acc &= up[a]
        if acc != up[x]:
            non_atomistic = x
            break

    # Equal maximal chain lengths: the cover relation must be graded.  An
    # element has more elements below it than any element below it.
    rank = [0] * n
    for i in sorted(range(n), key=lambda i: down[i].bit_count()):
        rank[i] = max([rank[j] + 1 for j in lower[i]], default=0)
    jd = all(rank[j] == rank[i] + 1 for (i, j) in covers)
    unequal = None
    if not jd:
        i, j = next((i, j) for (i, j) in covers if rank[j] != rank[i] + 1)
        unequal = (_longest_chain(lower, bottom, j, rank), _longest_chain(lower, bottom, i, rank) + [j])

    return LatticeReport(
        size=n,
        bottom=bottom,
        top=top,
        covers=covers,
        atoms=atoms,
        semimodular=semi_pentagon is None,
        modular=pentagon is None,
        atomistic=non_atomistic is None,
        jordan_dedekind=jd,
        pentagon=pentagon,
        semimodular_pentagon=semi_pentagon,
        non_atomistic_witness=non_atomistic,
        unequal_chains=unequal,
    )


def _longest_chain(lower, bottom, target, rank):
    chain = [target]
    while chain[-1] != bottom:
        chain.append(max(lower[chain[-1]], key=rank.__getitem__))
    return chain[::-1]
