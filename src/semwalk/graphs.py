"""Deterministic complete edge-labelled graphs and reset words.

Cayley graphs of right congruences are the bridge between the relation
lattice and automata: vertices are the congruence classes, edges append a
letter.  Conversely, a strongly connected graph in which every word of
length k acts as a constant map gives back a congruence by identifying the
length-k words with equal one-point images.  These two constructions are
mutually inverse, which the test suite checks exhaustively on every
congruence of (2,2), (2,3) and (2,4).

Reset checks run on the integer carrier of ``congruences``: the images of
all words of length k are extended level by level, x -> x*g + a, so no
``Word`` is built for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .congruences import RightCongruence, _congruence, identity
from .words import Alphabet, Word, count_of_length

MAX_MORPHISM_VERTICES = 10_000


class GraphError(ValueError):
    pass


def _strongly_connected(succ) -> bool:
    """Whether every vertex reaches vertex 0 and is reached from it, where
    ``succ[v]`` holds the successors of vertex v."""
    pred: list[list[int]] = [[] for _ in succ]
    for v, row in enumerate(succ):
        for t in row:
            pred[t].append(v)
    for adj in (succ, pred):
        seen = {0}
        stack = [0]
        while stack:
            for t in adj[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) != len(succ):
            return False
    return True


@dataclass(frozen=True)
class AGraph:
    """A deterministic complete edge-labelled graph.

    ``transitions[v][i]`` is the vertex reached from vertex v by the i-th
    letter; the table being total makes the graph deterministic and
    complete by construction.
    """

    alphabet: Alphabet
    labels: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise GraphError("a graph needs at least one vertex")
        if len(self.transitions) != n:
            raise GraphError("one transition row per vertex required")
        for row in self.transitions:
            if len(row) != self.alphabet.size or any(not (0 <= t < n) for t in row):
                raise GraphError("transition table is not total")

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def image(self, word: Word) -> frozenset[int]:
        """The set Q.w of endpoints of all paths labelled by the word."""
        if word.alphabet != self.alphabet:
            raise GraphError("the word and the graph are over different alphabets")
        image = range(self.vertex_count)
        for i in word.indices:
            image = {self.transitions[v][i] for v in image}
        return frozenset(image)

    def images(self, k: int) -> list[frozenset[int]]:
        """Q.w for every word w of length k, in carrier order (the order of
        ``words_of_length``), each extended from its prefix's image."""
        count_of_length(self.alphabet, k)  # refuses g^k beyond the enumeration limit
        table, letters = self.transitions, range(self.alphabet.size)
        level = [frozenset(range(self.vertex_count))]
        for _ in range(k):
            level = [frozenset(table[v][a] for v in image) for image in level for a in letters]
        return level

    @cached_property
    def strongly_connected(self) -> bool:
        return _strongly_connected(self.transitions)

    def is_k_reset(self, k: int) -> bool:
        return all(len(image) == 1 for image in self.images(k))


def is_reset(graph: AGraph, word: Word) -> bool:
    """Whether all paths labelled by the word end at one common vertex."""
    return len(graph.image(word)) == 1


def cayley(rc: RightCongruence) -> AGraph:
    """The Cayley graph of a congruence: blocks as vertices, letters as edges."""
    return AGraph(rc.alphabet, rc.block_labels, rc.block_action)


def debruijn(alphabet: Alphabet, k: int) -> AGraph:
    """The k-dimensional de Bruijn graph, vertices in enumeration order."""
    return cayley(identity(alphabet, k))


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
    return _congruence(graph.alphabet, k, images)


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


def _dot_string(text: str) -> str:
    """A DOT quoted string: a letter may be a quote or a backslash."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: AGraph) -> str:
    """Render as DOT with deterministic node order and edge listing."""
    lines = ["digraph {"]
    for i, label in enumerate(graph.labels):
        lines.append(f"  n{i} [label={_dot_string(label)}];")
    letters = [_dot_string(letter) for letter in graph.alphabet.letters]
    for v in range(graph.vertex_count):
        for i, letter in enumerate(letters):
            lines.append(f"  n{v} -> n{graph.transitions[v][i]} [label={letter}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(graph: AGraph) -> dict:
    """Transition-table payload; row order follows the vertex labels, which
    for de Bruijn graphs is the word enumeration order."""
    return {
        "alphabet": graph.alphabet.letters,
        "vertices": list(graph.labels),
        "transitions": [list(row) for row in graph.transitions],
    }
