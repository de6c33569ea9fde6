"""Right congruences on the words of length k.

A right congruence is a partition of A^k that is preserved by appending a
letter (and truncating back to length k).  Under inclusion of relations the
right congruences form a finite lattice: meet is common refinement, join is
the generated congruence of the union.  This module is the engine of the
``rc`` and ``lattice`` commands: validation and generation from pairs on
word keys, and ``lattice_census``, which enumerates RC(A^k) at small
parameters as the join closure of the principal congruences and reads the
lattice analytics (covers, atoms, semimodularity, modularity,
atomisticity, equal maximal chain lengths) off the joins of that one
enumeration, most of which it reads off the rows of elements found
before instead of computing them.  Its oracles, ``enumerate_all`` (the
exhaustive partition filter), ``join_graph`` (the enumeration with every
join computed), ``lattice_report`` (the same report off the pairwise meets
of any list) and ``validate``/``generate`` on ``Word``s, are in ``oracles``; the
identity and universal congruences, ``meet``, ``join`` and
``enumerate_rc`` are in ``constructions``.  The CLI imports neither.

Internally A^k is the integers 0..n-1, n = g^k, in the lexicographic order
of ``words_of_length``: a word is its letter indices read in base g, and
appending letter a sends x to (x*g + a) mod n.  As g divides n, the images
of x are the g integers from t = x*g mod n on, so no table of the action is
kept: x reaches the blocks ``labels[t : t + g]``, and ``_close`` with
g = 0 letters queues no images.  A congruence is its canonical labels, the
block index of each integer, and nothing else: its one view of its blocks,
``block_points``, is what the closure check, the rendering from the texts
of A^k, the Cayley table and the lcs scan of ``codes`` all read.  ``Word``
objects are built only for the word API, witnesses in messages and, per
object, the ``blocks`` and ``block_of`` views.
The lattice enumeration and the join certificate of the lattice report
work on stars instead: the string whose character x is ``chr`` of the
least point of x's block (its ``_roots``), in which a join merges two
blocks by one C-level ``str.replace``.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations
from operator import add

# Unused here: perfbench/test_perfbench.py::test_tracer_restores_the_program
# reads congruences.product to check that its tracer restores the binding.
from .words import Alphabet, Word, _Frozen, _read_keys, count_of_length, product, words_of_length  # noqa: F401

# The oracle enumeration is a Bell-number filter.  Both enumerations refuse
# carriers of more than 12 points outright, and more than 8 requires an
# explicit opt-in bound.
DEFAULT_CARRIER_BOUND = 8
HARD_CARRIER_BOUND = 12
# lattice_census and its oracle lattice_report keep n-bit up- and down-sets
# of n elements (the cubic pentagon search only finds witnesses), and the
# oracle looks up n^2 meet-table entries.  Beyond this both refuse, not
# sample: the census stops its search at the first element past the bound.
MAX_LATTICE_ELEMENTS = 5000


class CongruenceError(ValueError):
    """Malformed partition input (not a partition of A^k, bad parameters)."""


class NotAPartitionError(CongruenceError):
    pass


class BoundExceeded(CongruenceError):
    """An enumeration was refused because it would blow past its size bound."""


class ClosureViolation(CongruenceError):
    """Witness that a partition is not closed under the right action.

    Its fields are read-only, and it compares by identity, as exceptions
    do; ``copy`` and ``pickle`` rebuild it from them.  Other attributes stay
    assignable: re-raising an exception assigns
    ``__traceback__`` (as ``contextlib.contextmanager`` does) and
    ``add_note`` sets ``__notes__``.
    """

    _fields = ("u", "v", "letter")

    def __init__(self, u: Word, v: Word, letter: Word):
        super().__init__(u, v, letter)
        self.__dict__.update(u=u, v=v, letter=letter)

    def __setattr__(self, name: str, value) -> None:
        if name in self._fields:
            raise AttributeError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __reduce__(self):
        # BaseException would restore the fields from __dict__ by setattr.
        return type(self), (self.u, self.v, self.letter)

    def __str__(self) -> str:
        return (
            f"not a right congruence: {self.u} and {self.v} share a block but "
            f"{self.u}*{self.letter} and {self.v}*{self.letter} do not"
        )


# ------------------------------------------------------------ integer kernel


def _canonical(keys) -> tuple[int, ...]:
    """Renumber keys by first occurrence: a restricted-growth string."""
    first: dict = {}
    return tuple(first.setdefault(key, len(first)) for key in keys)


def _blocks(labels: tuple[int, ...]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
    for x, b in enumerate(labels):
        out[b].append(x)
    return out


def _blocks_key(labels: tuple[int, ...]) -> str:
    """A string that sorts as ``_blocks(labels)`` does, at about a byte a
    point instead of a list per block: each block's points as ``chr(x + 1)``,
    blocks joined by ``chr(0)``, which sorts a block before any longer block
    it starts."""
    return "\0".join("".join([chr(x + 1) for x in blk]) for blk in _blocks(labels))


def _roots(labels) -> list[int]:
    """Each point mapped to the least point of its block: a union-find
    forest of the partition and, read as pairs (x, root), a generating set."""
    first: list[int] = []
    for x, b in enumerate(labels):
        if b == len(first):
            first.append(x)
    return [first[b] for b in labels]


def _star(labels: tuple[int, ...]) -> str:
    """The ``_roots`` as the string of their ``chr``: a canonical key like the
    labels, in which two blocks merge by one ``str.replace`` of the larger
    root by the smaller, a C-level pass."""
    return "".join(map(chr, _roots(labels)))


def _star_pairs(star: str) -> list[tuple[int, int]]:
    return [(x, p) for x, p in enumerate(map(ord, star)) if x != p]


def _relation(labels: tuple[int, ...]) -> int:
    """The relation as one int, point x's block bitset at bit x*n: a
    canonical key under which the meet of two partitions is the AND."""
    masks = [0] * (max(labels, default=-1) + 1)
    for x, b in enumerate(labels):
        masks[b] |= 1 << x
    return sum(masks[b] << (x * len(labels)) for x, b in enumerate(labels))


def _close(g: int, parent, pairs) -> tuple[int, ...]:
    """Union-find closure under the action of g letters, as canonical labels.

    ``parent`` is a union-find forest of a right-closed partition of n
    points (identity or a congruence's ``_roots``); it is copied, not
    changed.  Each pair is merged, and every pair (u, v) that joins two
    classes queues its images (su + a, sv + a) for a < g, with
    su = u*g mod n and sv = v*g mod n, until fixpoint.  g = 0 queues none,
    leaving the equivalence the pairs generate on the forest (``join``).
    """
    parent = list(parent)
    n = len(parent)
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
            su, sv = u * g % n, v * g % n
            for a in range(g):
                work.append((su + a, sv + a))
    return _canonical(find(x) for x in range(n))


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


def _closure_witness(g: int, labels: tuple[int, ...], blocks) -> tuple[int, int, int] | None:
    """First (u, v, a) in canonical block order such that u and v share a
    block but u*a and v*a do not; None when the partition is right-closed."""
    n = len(labels)
    for u, *rest in blocks:
        t = u * g % n
        image = labels[t : t + g]
        for v in rest:
            t = v * g % n
            if labels[t : t + g] != image:
                return u, v, next(a for a, y in enumerate(labels[t : t + g]) if y != image[a])
    return None


# ------------------------------------------------------------- congruences


class RightCongruence(_Frozen):
    """A partition of A^k closed under the right action, in canonical form.

    ``labels`` is the block index of each word of A^k, in carrier order,
    as a restricted-growth string: blocks are numbered by their least word,
    so the largest label is the number of blocks minus one.  It is a
    canonical key, so equality and hashing compare labels.
    """

    _fields = ("alphabet", "k", "labels")

    @cached_property
    def block_points(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as sorted points, blocks ordered by their least point:
        the one place where the labels become blocks, read by every view."""
        return tuple(map(tuple, _blocks(self.labels)))

    @cached_property
    def block_texts(self) -> tuple[tuple[str, ...], ...]:
        """The blocks as the sorted texts of their words, blocks ordered by
        their least word: the rendering, read off the texts of A^k that
        ``words._read_keys`` tables, without a ``Word``."""
        texts = _read_keys((), self.k, self.alphabet.letters, add, "", len(self.labels))[1][self.k]
        return tuple(tuple(map(texts.__getitem__, blk)) for blk in self.block_points)

    @cached_property
    def blocks(self) -> tuple[tuple[Word, ...], ...]:
        """The blocks as sorted words, blocks ordered by their least word."""
        words = words_of_length(self.alphabet, self.k)
        return tuple(tuple(words[x] for x in blk) for blk in self.block_points)

    @cached_property
    def block_of(self) -> dict[Word, int]:
        return {w: b for b, blk in enumerate(self.blocks) for w in blk}

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
        return tuple("{" + ",".join(blk) + "}" for blk in self.block_texts)

    @cached_property
    def block_action(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table: ``block_action[b][a]`` is the block reached from
        block b by appending letter a, read off the block's least word."""
        g, labels, n = self.alphabet.size, self.labels, len(self.labels)
        return tuple(labels[t : t + g] for t in (blk[0] * g % n for blk in self.block_points))

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
    rc = RightCongruence(alphabet, k, _canonical(keys))
    witness = _closure_witness(alphabet.size, rc.labels, rc.block_points)
    if witness is not None:
        u, v, a = witness
        raise ClosureViolation(alphabet.word_at(k, u), alphabet.word_at(k, v), Word(alphabet, (a,)))
    return rc


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
    """``oracles.validate`` on blocks of word keys (length, x), as read by
    ``Alphabet.keys_of``: the same checks, messages and result."""
    return _congruence(alphabet, k, _parse_blocks(alphabet, k, blocks))


def generate_keys(alphabet: Alphabet, k: int, pairs) -> RightCongruence:
    """``oracles.generate`` on pairs of word keys (length, x), as read by
    ``Alphabet.keys_of``: the same checks, in the same order, and result."""
    if k < 1:
        raise CongruenceError("k must be >= 1")
    n = count_of_length(alphabet, k)
    work = []
    for u, v in pairs:
        if u[0] != k or v[0] != k:
            raise CongruenceError(f"pair ({alphabet.word_at(*u)}, {alphabet.word_at(*v)}) is not in A^{k} x A^{k}")
        work.append((u[1], v[1]))
    return RightCongruence(alphabet, k, _close(alphabet.size, range(n), work))


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


def _principals(g: int, n: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """The principal congruences theta(u, v) on n points under g letters,
    each once, as (u, v, its ``_star_pairs``) for the first pair that
    generates it."""
    principal: dict[str, tuple[int, int]] = {}
    for u in range(n):
        for v in range(u + 1, n):
            principal.setdefault(_star(_close(g, range(n), [(u, v)])), (u, v))
    return [(u, v, _star_pairs(star)) for star, (u, v) in principal.items()]


def _join_graph(
    alphabet: Alphabet, k: int, carrier_bound: int, max_elements: int | None = None
) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Every right congruence on A^k as labels, in ``oracles.enumerate_all``'s
    order, with the indices of each one's joins x v theta(u, v) with the
    principal congruences not below it.  Every right congruence is a join of
    principals, so the breadth-first search from the identity reaches it;
    each new join is looked up in, or added to, the list.  Given
    ``max_elements``, the search raises BoundExceeded as soon as the list
    holds one element more.

    Each element x has one row, the index of x v theta_p for every
    principal p (x itself when theta_p is below x), and most entries are
    read off finished rows instead of computed.  The search first reached
    x as parent v theta_q, so x v theta_p = z v theta_q for z = parent v
    theta_p, an entry of the parent's row: when z was reached before x,
    z's row is finished and holds it.  Only the other entries, the
    identity's row among them, take a ``_join_star``: 423 of the 3,105
    joins at (3, 2).  Reading an entry adds no element, so the list, its
    order and the point where the bound stops the search are those of the
    search that computes every join (``oracles.join_graph``).
    """
    n = _enumerable_size(alphabet, k, carrier_bound)
    gens = _principals(alphabet.size, n)
    stars = [_star(range(n))]
    index = {stars[0]: 0}
    # The (parent, q) of each element.  The identity has none: its stand-in
    # parent row of zeros names no element reached before it.
    reached = [(0, 0)]
    rows: list[list[int]] = []
    for i, x in enumerate(stars):  # the list grows as it is read
        parent, q = reached[i]
        row = []
        for p, ((u, v, pairs), z) in enumerate(zip(gens, rows[parent] if i else [0] * len(gens))):
            if x[u] == x[v]:  # theta_p is below x
                row.append(i)
            elif z < i:
                row.append(rows[z][q])
            else:
                y = _join_star(x, pairs)
                j = index.get(y)
                if j is None:
                    if len(stars) == max_elements:
                        raise BoundExceeded(f"lattice of more than {max_elements} elements exceeds the exhaustive-check bound")
                    j = index[y] = len(stars)
                    stars.append(y)
                    reached.append((i, p))
                row.append(j)
        rows.append(row)
    labels = list(map(_canonical, stars))
    order = sorted(range(len(stars)), key=lambda i: _blocks_key(labels[i]))
    at = [0] * len(order)
    for new, old in enumerate(order):
        at[old] = new
    joins = []
    for i in order:  # each row is dropped as its joins are read off it
        joins.append([at[j] for j in rows[i] if j != i])
        rows[i] = None
    return [labels[i] for i in order], joins


class LatticeReport(_Frozen):
    """Result of the definitional lattice checks on an enumerated set.

    ``covers`` holds the (lower, upper) pairs of element indices.  The
    witnesses of the failed flags are by element index: ``pentagon`` and
    ``semimodular_pentagon`` as (top, b, c, d, bottom).
    """

    _fields = (
        "size", "bottom", "top", "covers", "atoms", "semimodular", "modular", "atomistic", "jordan_dedekind",
        "pentagon", "semimodular_pentagon", "non_atomistic_witness", "unequal_chains",
    )
    pentagon: tuple[int, int, int, int, int] | None = None
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


def _covers(down: list[int], above: list[int]) -> list[tuple[int, int]]:
    """The pairs (x, y) with y covering x, in order, given for each x a
    bitset of elements above it that holds its covers: the minimal ones."""
    covers = []
    for x, rest in enumerate(above):
        candidates = rest
        while rest:  # the bits of rest, lowest first, without a _bits generator step each
            low = rest & -rest
            rest ^= low
            if down[low.bit_length() - 1] & candidates == low:
                covers.append((x, low.bit_length() - 1))
    return covers


def lattice_census(
    alphabet: Alphabet, k: int, carrier_bound: int = DEFAULT_CARRIER_BOUND
) -> tuple[list[RightCongruence], LatticeReport]:
    """``constructions.enumerate_rc`` and its ``oracles.lattice_report``
    (same list and report), read off one ``_join_graph``, which stops at
    the first element past ``MAX_LATTICE_ELEMENTS``.  Every z > x holds a pair
    (u, v) that x does not, so x < x v theta(u, v) <= z: coarse to fine, the
    up-set of x is x and the up-sets of its joins, the down-sets are the
    reverse, and the upper covers of x are its minimal joins.

    Meet closure is certified by looking up x meet m for every
    meet-irreducible m (one upper cover) and x incomparable to it.  The
    list holds the identity and is closed under join, so it is a finite
    lattice L, in which every y is the lattice meet of the set M(y) of
    meet-irreducibles above it.  By the lookups (a comparable pair meets in
    one of the two), meeting any x in L with the m in M(y) one at a time
    stays in L.  From the top this gives their partition meet P in L, below
    them all, so P <= y; y refines them all, so y = P, and from x it gives
    x meet y.
    """
    labels, joins = _join_graph(alphabet, k, carrier_bound, MAX_LATTICE_ELEMENTS)
    n = len(labels)
    up = [1 << x for x in range(n)]
    down = up[:]
    above = [0] * n  # the joins of each x, as a bitset
    coarse_first = sorted(range(n), key=lambda x: max(labels[x]))
    for x in coarse_first:
        acc, targets = up[x], 0
        for y in joins[x]:
            acc |= up[y]
            targets |= 1 << y
        up[x], above[x] = acc, targets
    for x in reversed(coarse_first):
        below = down[x]
        for y in joins[x]:
            down[y] |= below
    covers = _covers(down, above)
    upper = Counter(x for x, _ in covers)
    irreducible = [m for m in range(n) if upper[m] == 1]
    rel = list(map(_relation, labels))
    kept, everything = set(rel), (1 << n) - 1
    for m in irreducible:
        rel_m, rest = rel[m], everything & ~(up[m] | down[m])
        while rest:  # the bits of rest, as in _covers
            low = rest & -rest
            rest ^= low
            if rel[low.bit_length() - 1] & rel_m not in kept:
                raise CongruenceError("input is not closed under meet")
    return [RightCongruence(alphabet, k, lab) for lab in labels], _report(up, down, covers)


def _report(up: list[int], down: list[int], covers: list[tuple[int, int]]) -> LatticeReport:
    """The report of a lattice given by its up- and down-set bitsets and its
    covers in (lower, upper) order.  The flags rest on two theorems:

    - Upper semimodularity (if a and b cover a meet b, then a join b covers
      a and b) holds iff there is no pentagon sublattice e < c < b < a,
      e < d < a whose d covers e in the whole lattice.
    - The lattice is modular iff it is upper and lower semimodular (the
      dual condition: if a join b covers a and b, then a and b cover
      a meet b), and modular iff it has no pentagon sublattice.

    Both conditions are checked locally, on pairs of covers; the exhaustive
    ``_pentagon_search`` runs only when one fails, to find the witness.
    """
    n = len(up)
    upper: list[list[int]] = [[] for _ in range(n)]
    lower: list[list[int]] = [[] for _ in range(n)]
    for i, j in covers:
        upper[i].append(j)
        lower[j].append(i)
    covers_set = set(covers)

    everything = (1 << n) - 1
    by_up = {u: i for i, u in enumerate(up)}
    by_down = {d: i for i, d in enumerate(down)}
    top, bottom = by_down[everything], by_up[everything]
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
