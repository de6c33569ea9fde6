"""The paper's constructions that no command of the CLI runs.

Nothing on the command-line path imports this module: ``import semwalk.cli``
compiles the engine (``words``, ``congruences``, ``codes``, ``graphs`` and
``walks``) and not these, which ``semwalk`` loads on first use of one of
their names.  They are built on the engine's integer kernels:

- the identity and universal congruences, ``meet`` and ``join``, and
  ``enumerate_rc``, the lattice RC(A^k) as the join closure of the
  principal congruences;
- semaphore codes checked from their words (``semaphore_code``), generated
  by a set of words (``from_generators``) or restricted to A^k
  (``restrict_k``), and the lattice of ideals containing A^k: an ideal from
  its members, meet, join and order, every ideal (``enumerate_ideals``) and
  the special congruences they induce (``src_lattice``);
- the de Bruijn graph, reset words, the inverse ``zeta`` of the Cayley
  construction, exact morphism search and isomorphism of automata, and a
  graph's transition table as JSON;
- the closed-form stationary vector of a code's walk (``stationary``), and
  the walk on a congruence's classes (``lumped``), as ``Fraction``s: the
  engine's integer weights over their denominator, with the oracle's dense
  matrix of the class walk.

The routines and bounds of ``congruences``, ``codes``, ``graphs`` and
``walks`` are read through their module at call time, so a bound or a
kernel replaced there reaches these constructions too.
"""

from __future__ import annotations

from fractions import Fraction

from . import codes, congruences, graphs, walks
from .codes import CodeError, IdealRep, SemaphoreCode
from .congruences import RightCongruence
from .graphs import AGraph, GraphError
from .oracles import (
    StationaryVector,
    congruence_transition_matrix,
    epsilon,
    is_semaphore,
    words_up_to_length,
)
from .walks import LetterDistribution
from .words import Alphabet, Word, _Frozen, count_of_length

MAX_MORPHISM_VERTICES = 10_000

# ------------------------------------------------------------- congruences


def identity(alphabet: Alphabet, k: int) -> RightCongruence:
    return RightCongruence(alphabet, k, tuple(range(count_of_length(alphabet, k))))


def universal(alphabet: Alphabet, k: int) -> RightCongruence:
    return RightCongruence(alphabet, k, (0,) * count_of_length(alphabet, k))


def meet(r1: RightCongruence, r2: RightCongruence) -> RightCongruence:
    """Common refinement: u ~ v iff related in both."""
    congruences._require_same_setting(r1, r2)
    return RightCongruence(r1.alphabet, r1.k, congruences._canonical(zip(r1.labels, r2.labels)))


def join(r1: RightCongruence, r2: RightCongruence) -> RightCongruence:
    """Smallest right congruence containing both relations.

    The pairs (x, root) of the finer operand's ``_roots`` are merged into
    the coarser's, as a forest, by the union-find ``_close``, near-linear
    in |A^k| whatever the operands.  With g = 0 it queues no image pairs: the join is
    right-closed already (see ``_join_star``).  The ``str.replace`` kernel
    ``_join_star`` would pay one pass over A^k per merged block, quadratic
    when the second operand merges many blocks of the first.
    """
    congruences._require_same_setting(r1, r2)
    if max(r1.labels) > max(r2.labels):
        r1, r2 = r2, r1
    roots = congruences._roots(r2.labels)
    labels = congruences._close(0, congruences._roots(r1.labels), [(x, p) for x, p in enumerate(roots) if x != p])
    return RightCongruence(r1.alphabet, r1.k, labels)


def enumerate_rc(
    alphabet: Alphabet, k: int, carrier_bound: int = congruences.DEFAULT_CARRIER_BOUND
) -> list[RightCongruence]:
    """Every right congruence on A^k, as the join closure of the principal
    ones (``congruences._join_graph``).  Same list, order and refusals as
    ``enumerate_all``, however many elements it has."""
    return [RightCongruence(alphabet, k, s) for s in congruences._join_graph(alphabet, k, carrier_bound)[0]]


# ------------------------------------------------------------------- codes


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
    that has no suffix among them; the result covers A^k, and is refused
    as ``IdealRep`` refuses it when it is not semaphore.
    """
    if code.keys[:1] == ((0, 0),):
        raise CodeError("restriction requires a code of nonempty words")
    if code.infinite_tail and code.max_len < k:
        raise CodeError(f"truncated code is only known up to length {code.max_len} < k")
    short = [key for key in code.keys if key[0] <= k]
    view = codes._paint(short, code.alphabet, k)[0]
    return codes._ideal(code.alphabet, k, [*short, *((k, x) for x, i in enumerate(view) if i is None)])


def ideal_from_members(alphabet: Alphabet, k: int, short_members: set[Word]) -> IdealRep:
    """Ideal A^{>=k} union short_members, given by its suffix-minimal code.
    A member over another alphabet is refused, as ``SemaphoreCode`` refuses
    such a code word, and so is a set whose left ideal is not two-sided."""
    stray = next((w for w in short_members if w.alphabet.letters != alphabet.letters), None)
    if stray is not None:
        raise CodeError(f"member {stray} is not over the alphabet {alphabet.letters!r}")
    return codes._ideal_from_keys(alphabet, k, {w.key for w in short_members})


def ideal_meet(i1: IdealRep, i2: IdealRep) -> IdealRep:
    _require_same_k(i1, i2)
    return codes._ideal_from_keys(i1.alphabet, i1.k, i1._keys_below_k() & i2._keys_below_k())


def ideal_join(i1: IdealRep, i2: IdealRep) -> IdealRep:
    _require_same_k(i1, i2)
    return codes._ideal_from_keys(i1.alphabet, i1.k, i1._keys_below_k() | i2._keys_below_k())


def ideal_leq(i1: IdealRep, i2: IdealRep) -> bool:
    _require_same_k(i1, i2)
    return i1._keys_below_k() <= i2._keys_below_k()


def _require_same_k(i1: IdealRep, i2: IdealRep) -> None:
    if i1.alphabet != i2.alphabet or i1.k != i2.k:
        raise CodeError("ideals live in different A^k settings")


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
    out = [codes._ideal_from_keys(alphabet, k, up) for up in sorted(upsets, key=lambda s: (len(s), sorted(s)))]
    out.append(codes._ideal_from_keys(alphabet, k, {(0, 0)}))
    return out


def src_lattice(alphabet: Alphabet, k: int) -> list[RightCongruence]:
    """All special right congruences, one per ideal containing A^k."""
    if alphabet.size < 2:
        raise CodeError("special right congruences require at least two letters")
    return [codes.tau_of(ideal) for ideal in enumerate_ideals(alphabet, k)]


# ------------------------------------------------------------------ graphs


def is_reset(graph: AGraph, word: Word) -> bool:
    """Whether all paths labelled by the word end at one common vertex."""
    return len(graph.image(word)) == 1


def debruijn(alphabet: Alphabet, k: int) -> AGraph:
    """The k-dimensional de Bruijn graph, vertices in enumeration order."""
    return graphs.cayley(identity(alphabet, k))


def zeta(graph: AGraph, k: int) -> RightCongruence:
    """The congruence identifying length-k words with equal images.

    Inverse of the Cayley construction on strongly connected graphs where
    every length-k word is a reset; both preconditions are checked.
    """
    if not graph.strongly_connected:
        raise GraphError("zeta requires a strongly connected graph")
    images = graph.images(k)
    for x, img in enumerate(images):
        if len(img) != 1:
            raise GraphError(f"not a {k}-reset graph: {graph.alphabet.word_at(k, x)} has image of size {len(img)}")
    return congruences._congruence(graph.alphabet, k, images)


def morphism(source: AGraph, target: AGraph) -> tuple[int, ...] | None:
    """A label-preserving vertex map between the graphs, or None.

    Determinism makes the image of one vertex propagate along edges, so the
    search fixes a seed image per unexplored region and backtracks over the
    target's vertices.  Exact, not heuristic.
    """
    if source.alphabet != target.alphabet:
        raise GraphError("graphs are over different alphabets")
    if max(source.vertex_count, target.vertex_count) > MAX_MORPHISM_VERTICES:
        raise GraphError("graph too large for exact morphism search")

    n = source.vertex_count
    assignment: list[int | None] = [None] * n

    def propagate(v: int, image: int, trail: list[int]) -> bool:
        """BFS from v := image; record assignments in trail; False on clash."""
        queue = [(v, image)]
        while queue:
            x, y = queue.pop()
            if assignment[x] is not None:
                if assignment[x] != y:
                    return False
                continue
            assignment[x] = y
            trail.append(x)
            for i in range(source.alphabet.size):
                queue.append((source.transitions[x][i], target.transitions[y][i]))
        return True

    def solve(start: int) -> bool:
        while start < n and assignment[start] is not None:
            start += 1
        if start == n:
            return True
        for image in range(target.vertex_count):
            trail: list[int] = []
            if propagate(start, image, trail) and solve(start + 1):
                return True
            for x in trail:
                assignment[x] = None
        return False

    if solve(0):
        return tuple(assignment)  # type: ignore[arg-type]
    return None


def is_morphism(source: AGraph, target: AGraph, mapping: tuple[int, ...]) -> bool:
    return all(
        target.transitions[mapping[v]][i] == mapping[source.transitions[v][i]]
        for v in range(source.vertex_count)
        for i in range(source.alphabet.size)
    )


def isomorphic(g1: AGraph, g2: AGraph) -> bool:
    """Morphisms both ways certify isomorphism for strongly connected
    deterministic complete graphs."""
    if g1.vertex_count != g2.vertex_count:
        return False
    f = morphism(g1, g2)
    if f is None or morphism(g2, g1) is None:
        return False
    return len(set(f)) == g1.vertex_count and is_morphism(g1, g2, f)


def graph_json(graph: AGraph) -> dict:
    """Transition-table payload; row order follows the vertex labels, which
    for de Bruijn graphs is the word enumeration order."""
    return {
        "alphabet": graph.alphabet.letters,
        "vertices": list(graph.labels),
        "transitions": [list(row) for row in graph.transitions],
    }


# ------------------------------------------------------------------- walks


def stationary(ideal: IdealRep, pi: LetterDistribution) -> StationaryVector:
    """Closed-form stationary distribution: the word probabilities.

    The result is asserted to be an exact fixpoint of one walk step, taken
    through the action table on integers: with d the common denominator and
    L the longest code word, word w has probability N_w / d^L, where
    N_w = d^(L-|w|) times the numerators of its letters, and the N_w must
    sum to d^L.  A non-positive distribution still satisfies the equations
    but loses the uniqueness argument, hence the warning.
    """
    weights, total = walks.stationary_weights(ideal, pi)
    return StationaryVector(ideal.code.texts, tuple(Fraction(x, total) for x in weights))


class LumpedWalk(_Frozen):
    """The walk on congruence classes, which the walk on the reset code
    lumps onto: its Cayley-table matrix and its stationary vector."""

    _fields = ("matrix", "stationary")


def lumped(rc: RightCongruence, pi: LetterDistribution) -> LumpedWalk:
    """Lump the walk on the reset code of ``rc`` onto its classes.

    The stationary vector is the weights of ``walks.lumped_weights`` over
    their sum; that routine checks lumpability letter by letter and the
    vector two ways.  The matrix is the oracle's dense class walk,
    ``congruence_transition_matrix``.
    """
    weights, total, _, _ = walks.lumped_weights(rc, pi)
    matrix = congruence_transition_matrix(rc, pi)
    return LumpedWalk(matrix, StationaryVector(matrix.labels, tuple(Fraction(x, total) for x in weights)))
