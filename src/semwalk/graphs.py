"""Deterministic complete edge-labelled graphs: the Cayley graph of a right
congruence and its DOT export.

Cayley graphs of right congruences are the bridge between the relation
lattice and automata: vertices are the congruence classes, edges append a
letter.  Conversely, a strongly connected graph in which every word of
length k acts as a constant map gives back a congruence by identifying the
length-k words with equal one-point images (``constructions.zeta``).  These
two constructions are mutually inverse, which the test suite checks
exhaustively on every congruence of (2,2), (2,3) and (2,4).  The de Bruijn
graph, reset words and the morphism search are in ``constructions`` too,
which the CLI does not import.

Reset checks run on the integer carrier of ``congruences``: the images of
all words of length k are extended level by level, x -> x*g + a, so no
``Word`` is built for them.
"""

from __future__ import annotations

from functools import cached_property

from .congruences import RightCongruence
from .words import Alphabet, Word, _Frozen, count_of_length


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


class AGraph(_Frozen):
    """A deterministic complete edge-labelled graph.

    ``transitions[v][i]`` is the vertex reached from vertex v by the i-th
    letter; the table being total makes the graph deterministic and
    complete by construction.
    """

    _fields = ("alphabet", "labels", "transitions")

    def __init__(self, alphabet: Alphabet, labels: tuple[str, ...], transitions: tuple[tuple[int, ...], ...]):
        self.__dict__.update(alphabet=alphabet, labels=labels, transitions=transitions)
        self.__post_init__()

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


def cayley(rc: RightCongruence) -> AGraph:
    """The Cayley graph of a congruence: blocks as vertices, letters as edges."""
    return AGraph(rc.alphabet, rc.block_labels, rc.block_action)


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
