"""Evolutionary algorithms over bitstring genomes.

Building blocks: seeded random sources, bit genomes with variation operators
chosen by priority rate, and the OneMax and Royal Road counts
(:mod:`evobits.core`); steady-state and generational population steps with
fitness caching and terminators (:mod:`evobits.engine`); a deterministic
island model with migration (:mod:`evobits.islands`); the rectangle-stabbing
dot problem (:mod:`evobits.problems`); and a CSV-reporting command line
(:mod:`evobits.cli`).

Every name a module lists in its ``__all__`` can be imported from this
package. ``import evobits`` loads core, engine and islands; the dot problem's
module loads the first time one of its names is read from this package.
"""

from . import core, engine, islands
from .core import *
from .engine import *
from .islands import *

__version__ = "0.1.0"

# read from evobits.problems on first use: its ``__all__`` less the names core
# defines, listed here because the module is not loaded yet
_DOT_NAMES = (
    "MAX_RECTANGLES",
    "DotProblemConfig",
    "Rectangle",
    "RectangleArena",
    "dot_fitness",
    "generate_random_arena",
    "grid_oracle",
    "load_arena",
    "save_arena",
)

__all__ = sorted(
    {"core", "engine", "islands", "problems", *core.__all__, *engine.__all__,
     *islands.__all__, *_DOT_NAMES}
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
