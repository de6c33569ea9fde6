"""The benchmark's own word algebra, on plain strings, used to check outputs.

Nothing here imports semwalk: every expected output is recomputed from the
definitions, so a wrong answer from the program under test cannot also make
its check pass.  A word of A^k is a string of length k over the alphabet;
appending a letter and keeping the last k letters is ``u[1:] + a``.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction


def words(alphabet: str, length: int) -> list[str]:
    """All words of one length, in lexicographic order."""
    return ["".join(p) for p in itertools.product(alphabet, repeat=length)]


def canon(blocks) -> list[list[str]]:
    """Canonical form: each block sorted, blocks ordered by least word."""
    return sorted(sorted(b) for b in blocks)


def block_index(blocks) -> dict[str, int]:
    return {w: i for i, b in enumerate(blocks) for w in b}


def is_partition(alphabet: str, k: int, blocks) -> bool:
    flat = [w for b in blocks for w in b]
    return all(blocks) and sorted(flat) == words(alphabet, k)


def closure_witness(alphabet: str, blocks) -> tuple[str, str, str] | None:
    """A triple (u, v, a) with u ~ v but ua, va apart, or None when closed."""
    at = block_index(blocks)
    for b in canon(blocks):
        for v in b[1:]:
            for a in alphabet:
                if at[b[0][1:] + a] != at[v[1:] + a]:
                    return b[0], v, a
    return None


def is_congruence(alphabet: str, k: int, blocks) -> bool:
    return is_partition(alphabet, k, blocks) and closure_witness(alphabet, blocks) is None


def refines(fine, coarse) -> bool:
    at = block_index(coarse)
    return all(len({at[w] for w in b}) == 1 for b in fine)


def closure(alphabet: str, k: int, pairs) -> list[list[str]]:
    """Smallest right congruence on A^k containing the pairs."""
    parent = {w: w for w in words(alphabet, k)}

    def find(w):
        while parent[w] != w:
            w = parent[w]
        return w

    work = list(pairs)
    while work:
        u, v = work.pop()
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            work.extend((u[1:] + a, v[1:] + a) for a in alphabet)
    groups: dict[str, list[str]] = {}
    for w in parent:
        groups.setdefault(find(w), []).append(w)
    return canon(groups.values())


def reset_code(alphabet: str, k: int, blocks) -> list[str]:
    """Suffix-minimal words w such that all of A^k ending in w is one class.

    The empty word resets only the universal congruence.  The result is in
    shortlex order.
    """
    at = block_index(blocks)
    found: list[str] = []
    for length in range(k + 1):
        for w in words(alphabet, length):
            if any(w.endswith(s) for s in found):
                continue
            if len({at[x + w] for x in words(alphabet, k - length)}) == 1:
                found.append(w)
    return found


def tau(alphabet: str, k: int, code) -> list[list[str]]:
    """Partition of A^k by the unique code suffix of each word."""
    groups: dict[str, list[str]] = {}
    for u in words(alphabet, k):
        (s,) = [s for s in code if u.endswith(s)]
        groups.setdefault(s, []).append(u)
    return canon(groups.values())


def upper_code(alphabet: str, k: int, blocks) -> list[str]:
    """Code of the ideal spanned by the longest common suffixes of the blocks."""
    lcs = [os.path.commonprefix([w[::-1] for w in b])[::-1] for b in blocks]
    if "" in lcs:
        return [""]
    members = {w for n in range(1, k) for w in words(alphabet, n) if any(w.endswith(s) for s in lcs)}
    members |= set(words(alphabet, k))
    minimal = [w for w in members if not any(w[i:] in members for i in range(1, len(w)))]
    return sorted(minimal, key=lambda w: (len(w), w))


def word_prob(pi: dict[str, Fraction], w: str) -> Fraction:
    out = Fraction(1)
    for c in w:
        out *= pi[c]
    return out


def reset_profile(pi: dict[str, Fraction], k: int, code) -> tuple[list[Fraction], list[Fraction], Fraction]:
    cumulative = [sum((word_prob(pi, s) for s in code if len(s) <= n), Fraction(0)) for n in range(1, k + 1)]
    increments = [cumulative[0]] + [cumulative[i] - cumulative[i - 1] for i in range(1, k)]
    hitting = sum((n * p for n, p in enumerate(increments, start=1)), Fraction(0))
    return cumulative, increments, hitting


def class_chain(pi: dict[str, Fraction], blocks) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Stationary law and transition matrix of the walk on the classes.

    The law is the product measure summed over each class; the matrix sends
    a class by letter a to the class of u[1:] + a for any u in it.  Rows and
    columns follow the order of ``blocks``.
    """
    at = block_index(blocks)
    law = [sum((word_prob(pi, w) for w in b), Fraction(0)) for b in blocks]
    matrix = [[Fraction(0)] * len(blocks) for _ in blocks]
    for i, b in enumerate(blocks):
        for a, p in pi.items():
            matrix[i][at[b[0][1:] + a]] += p
    return law, matrix


def cayley_dot(alphabet: str, blocks) -> str:
    """The DOT rendering of the Cayley graph of a canonical congruence."""
    at = block_index(blocks)
    lines = ["digraph {"]
    lines += [f'  n{i} [label="{{{",".join(b)}}}"];' for i, b in enumerate(blocks)]
    lines += [
        f'  n{i} -> n{at[b[0][1:] + a]} [label="{a}"];' for i, b in enumerate(blocks) for a in alphabet
    ]
    return "\n".join(lines + ["}"]) + "\n"


def parse_rendered(text: str) -> list[list[str]]:
    return [part.strip()[1:-1].split(",") for part in text.split("|")]


def meet(p, q) -> list[list[str]]:
    ap, aq = block_index(p), block_index(q)
    groups: dict[tuple[int, int], list[str]] = {}
    for w in ap:
        groups.setdefault((ap[w], aq[w]), []).append(w)
    return canon(groups.values())


def join(alphabet: str, k: int, p, q) -> list[list[str]]:
    pairs = [(b[0], w) for part in (p, q) for b in part for w in b[1:]]
    return closure(alphabet, k, pairs)
