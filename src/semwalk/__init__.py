"""Right congruences on A^k, semaphore codes, and exact walk analytics.

The package is split by what the CLI runs.  The engine is ``words``,
``congruences``, ``codes``, ``graphs`` and ``walks``, on integer keys;
``cli`` imports only these, and runs ``codes``, ``graphs`` and ``walks``
only for the commands that use them, so the lattice census compiles
``words`` and ``congruences`` alone.  The brute-force checks the engine is
tested against are in ``oracles``, and the paper's constructions that no
command runs are in ``constructions``.  Every public name is importable
from here, ``from semwalk import enumerate_all`` included: its module is
imported on first use of the name, so ``import semwalk.cli`` compiles no
more than the engine.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "words": "Alphabet Word WordError product is_suffix truncate_suffix words_of_length",
        "congruences": (
            "BoundExceeded ClosureViolation CongruenceError LatticeReport NotAPartitionError RightCongruence"
            " lattice_census"
        ),
        "codes": (
            "CodeError IdealRep SemaphoreCode action_table code_action is_special lambda_of lower_approx"
            " reset_code tau_of upper_approx"
        ),
        "graphs": "AGraph GraphError cayley to_dot",
        "walks": "LetterDistribution ResetProfile SimulationResult WalkError profile_of_ideal reset_profile simulate",
        "oracles": (
            "epsilon is_factor is_prefix lcs lcs_of enumerate_all generate lattice_report validate"
            " is_semaphore suffix_classes StationaryVector TransitionMatrix advance check_polynomial_identity"
            " congruence_transition_matrix debruijn_stationary polynomial_identity_holds solve_stationary"
            " transition_matrix"
        ),
        "constructions": (
            "enumerate_rc identity join meet universal enumerate_ideals from_generators ideal_join ideal_leq"
            " ideal_meet restrict_k semaphore_code src_lattice debruijn graph_json is_reset isomorphic"
            " morphism zeta LumpedWalk lumped stationary"
        ),
    }.items()
    for name in names.split()
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A public name, read from its module, which is imported on first use."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
