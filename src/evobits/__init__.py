"""Evolutionary algorithms over bitstring genomes.

Building blocks: seeded random sources, bit genomes with variation operators
chosen by priority rate, and the OneMax and Royal Road counts
(:mod:`evobits.core`); steady-state and generational population steps with
fitness caching and terminators (:mod:`evobits.engine`); a deterministic
island model with migration (:mod:`evobits.islands`); the rectangle-stabbing
dot problem (:mod:`evobits.problems`); and a CSV-reporting command line
(:mod:`evobits.cli`).

``import evobits`` loads core, engine and islands. The dot problem's module
loads the first time one of its names is read from this package.
"""

from .core import (
    BitFlip,
    BitGenome,
    NPointCrossover,
    OperatorSpec,
    RandomSource,
    bitflip,
    choose_operator,
    decode,
    hamming,
    n_point_crossover,
    onemax,
    random_genome,
    royal_road,
)
from .engine import (
    EasyStepConfig,
    EvaluationError,
    FitnessFunction,
    Individual,
    MaxGenerations,
    RunStats,
    TargetFitness,
    Terminator,
    canonical_step,
    easy_step,
    evaluate_population,
    run,
    sort_by_fitness,
)
from .islands import (
    Archipelago,
    IslandConfig,
    MigrantMessage,
    MigrationPolicy,
    consensus_genome,
    integrate_migrant,
    run_archipelago,
    select_migrant,
)

__version__ = "0.1.0"

# read from evobits.problems on first use
_DOT_NAMES = (
    "DotProblemConfig",
    "Rectangle",
    "RectangleArena",
    "dot_fitness",
    "generate_random_arena",
    "grid_oracle",
    "load_arena",
    "save_arena",
)

# what ``from evobits import *`` bound when every submodule loaded eagerly:
# each public name above, the submodules core, engine and islands among them,
# and the dot problem's module and names
__all__ = sorted(
    {"problems", *_DOT_NAMES, *(name for name in globals() if not name.startswith("_"))}
)


def __getattr__(name: str) -> object:
    if name == "problems" or name in _DOT_NAMES:
        from importlib import import_module

        # not ``from . import problems``, which reads the attribute through this hook
        problems = import_module(".problems", __name__)
        # bound here, so later reads skip this hook
        globals().update({dot_name: getattr(problems, dot_name) for dot_name in _DOT_NAMES})
        return problems if name == "problems" else globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
