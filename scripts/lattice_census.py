#!/usr/bin/env python3
"""Census of the right-congruence lattices at desk scale.

For each small (alphabet size, k) pair this enumerates every right
congruence as the join closure of the principal congruences, counts the
special ones, and reads the lattice checks off that enumeration's joins.
The script passes a carrier bound of 9 words, which covers every pair
above; the library refuses anything past it, and a carrier of more than 12
words under any bound.
"""

from semwalk import enumerate_ideals, lattice_census, src_lattice
from semwalk.words import Alphabet


def main() -> None:
    header = f"{'g':>2} {'k':>2} {'|RC|':>5} {'|SRC|':>5}  semimod modular atomistic jordan-dedekind"
    print(header)
    print("-" * len(header))
    for g, k in [(2, 1), (2, 2), (2, 3), (3, 1), (4, 1), (3, 2)]:
        alphabet = Alphabet.of_size(g)
        elements, report = lattice_census(alphabet, k, carrier_bound=9)
        n_src = len(src_lattice(alphabet, k)) if g > 1 else "-"
        print(
            f"{g:>2} {k:>2} {len(elements):>5} {n_src:>5}"
            f"  {str(report.semimodular):>7} {str(report.modular):>7}"
            f" {str(report.atomistic):>9} {str(report.jordan_dedekind):>15}"
        )
        if not report.modular:
            names = [str(elements[i]) for i in report.pentagon]
            print("     pentagon witness:", " / ".join(names))
        if not report.atomistic:
            print("     not a join of atoms:", elements[report.non_atomistic_witness])
    print()
    for k in (1, 2, 3):
        ideals = enumerate_ideals(Alphabet("ab"), k)
        print(f"ideals containing A^{k} over two letters: {len(ideals)}")


if __name__ == "__main__":
    main()
