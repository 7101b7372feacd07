"""Population lifecycle: cached evaluation, generation steps, and the run loop.

Fitness is always maximized and must be a finite, non-negative real number
(parent selection is fitness-proportional). Populations returned by the step
strategies are sorted best-first, so ``pop[0]`` is the current best individual.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Real
from typing import Callable, Sequence, Union

from .core import BitGenome, OperatorSpec, RandomSource, choose_operator

__all__ = [
    "EasyStepConfig",
    "EvaluationError",
    "Evolution",
    "FitnessFunction",
    "Individual",
    "MaxGenerations",
    "RunStats",
    "StepFunction",
    "TargetFitness",
    "Terminator",
    "canonical_step",
    "easy_step",
    "evaluate_population",
    "run",
    "sort_by_fitness",
]

FitnessFunction = Callable[[BitGenome], float]


class EvaluationError(Exception):
    """A fitness function failed or returned an unusable value."""


@dataclass
class Individual:
    """One candidate solution: a genome plus its cached fitness.

    ``fitness`` is None until evaluated; variation operators always produce
    individuals with fitness unset so the cache can never go stale.
    """

    genome: BitGenome
    fitness: float | None = None

    def copy(self) -> "Individual":
        return Individual(self.genome, self.fitness)


@dataclass
class EasyStepConfig:
    """Shared settings of the generation-step strategies.

    ``selection_rate`` is the fraction of the population turned over each
    generation (worst individuals destroyed, or elites kept, depending on
    the strategy); ``operators`` are drawn by rate for each offspring.
    """

    selection_rate: float
    operators: Sequence[OperatorSpec]

    def __post_init__(self) -> None:
        if not 0.0 < self.selection_rate < 1.0:
            raise ValueError(
                f"selection_rate must be in (0, 1), got {self.selection_rate}"
            )
        if not self.operators:
            raise ValueError("at least one variation operator is required")


@dataclass(frozen=True)
class MaxGenerations:
    """Stop once the given number of generation steps has been executed."""

    limit: int

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(f"generation limit must be positive, got {self.limit}")

    def should_stop(self, generations_executed: int, best_fitness: float) -> bool:
        return generations_executed >= self.limit


@dataclass(frozen=True)
class TargetFitness:
    """Stop once the best fitness reaches the target."""

    target: float

    def __post_init__(self) -> None:
        # NaN or +inf can never be reached, and -inf is met by any population
        if not math.isfinite(self.target):
            raise ValueError(f"target fitness must be finite, got {self.target}")

    def should_stop(self, generations_executed: int, best_fitness: float) -> bool:
        return best_fitness >= self.target


Terminator = Union[MaxGenerations, TargetFitness]


@dataclass
class RunStats:
    """Bookkeeping for one run.

    ``best_per_generation`` holds one ``(generation, best fitness)`` pair per
    executed step, numbered from 1. ``cumulative_evaluations`` and
    ``elapsed_seconds`` are aligned with it; elapsed times are wall-clock and
    excluded from determinism guarantees.
    """

    generations_executed: int = 0
    evaluations: int = 0
    best_per_generation: list[tuple[int, float]] = field(default_factory=list)
    cumulative_evaluations: list[int] = field(default_factory=list)
    elapsed_seconds: list[float] = field(default_factory=list)
    wall_time: float = 0.0


def _evaluate(ind: Individual, f: FitnessFunction, stats: RunStats, label: object) -> None:
    try:
        value = f(ind.genome)
        # plain int/float first: an isinstance check against the ABC is far slower
        real = isinstance(value, (int, float)) or isinstance(value, Real)
        fitness = float(value) if real else math.nan
    except Exception as exc:
        raise EvaluationError(
            f"fitness evaluation failed for individual {label}: {exc}"
        ) from exc
    # also false for NaN, which would poison the roulette wheel's prefix sums
    if not 0.0 <= fitness < math.inf:
        raise EvaluationError(
            "fitness must be a finite non-negative real number, "
            f"individual {label} scored {value!r}"
        )
    ind.fitness = fitness
    stats.evaluations += 1


def evaluate_population(
    pop: Sequence[Individual], f: FitnessFunction, stats: RunStats
) -> Sequence[Individual]:
    """Set fitness on every individual, calling ``f`` only where it is unset."""
    for i, ind in enumerate(pop):
        if ind.fitness is None:
            _evaluate(ind, f, stats, i)
    return pop


def sort_by_fitness(pop: Sequence[Individual]) -> list[Individual]:
    """Population sorted best-first; ties keep their original order."""
    return sorted(pop, key=lambda ind: ind.fitness, reverse=True)


def _rank(
    pop: Sequence[Individual], cfg: EasyStepConfig, f: FitnessFunction, stats: RunStats
) -> tuple[list[Individual], int]:
    """The population evaluated and sorted best-first, and the step's turnover
    count ``max(1, round(selection_rate * N))``, which must stay below N."""
    size = len(pop)
    if size < 2:
        raise ValueError(f"population must hold at least 2 individuals, got {size}")
    evaluate_population(pop, f, stats)
    ranked = sort_by_fitness(pop)
    # round half up
    count = max(1, math.floor(cfg.selection_rate * size + 0.5))
    if count >= size:
        raise ValueError(
            f"selection_rate {cfg.selection_rate} rounds to the whole population "
            f"of {size}"
        )
    return ranked, count


def _spin(cumulative: Sequence[float], rng: RandomSource) -> int:
    """Roulette index drawn from the pool's running fitness sums.

    An all-zero pool falls back to a uniform choice; a draw that rounds up to
    the total lands on the last slot.
    """
    total = cumulative[-1]
    if total <= 0.0:
        return rng.randrange(len(cumulative))
    return min(bisect_right(cumulative, rng.random() * total), len(cumulative) - 1)


def _spin_without(
    cumulative: Sequence[float], first: int, weight: float, rng: RandomSource
) -> int:
    """Roulette index over every slot but ``first``, whose fitness is ``weight``.

    Draws and picks exactly as a wheel rebuilt without that slot would: the
    slots after ``first`` are searched on their sums minus ``weight``, which
    equal that wheel's sums for whole-number fitness (``u + weight`` can round
    onto a boundary and would not).
    """
    last = len(cumulative) - 1
    if not last:
        # lone candidate: crossover degenerates to copying it
        return first
    rest = cumulative[-1] - weight
    if rest <= 0.0:
        pick = rng.randrange(last)
        return pick if pick < first else pick + 1
    u = rng.random() * rest
    if first and u < cumulative[first - 1]:
        return bisect_right(cumulative, u, 0, first)
    pick = bisect_right(cumulative, u, first + 1, key=lambda c: c - weight)
    if pick <= last:
        return pick
    return last if first != last else last - 1


def _make_offspring(
    count: int,
    parent_pool: Sequence[Individual],
    cfg: EasyStepConfig,
    rng: RandomSource,
) -> list[Individual]:
    # one prefix-sum wheel per step: each roulette pick is a bisection, O(log N)
    cumulative = list(accumulate(ind.fitness for ind in parent_pool))
    offspring = []
    for _ in range(count):
        op = cfg.operators[choose_operator(cfg.operators, rng)]
        first = _spin(cumulative, rng)
        parents = [parent_pool[first].genome]
        if op.arity != 1:
            second = _spin_without(cumulative, first, parent_pool[first].fitness, rng)
            parents.append(parent_pool[second].genome)
        offspring.append(Individual(op.apply(parents, rng)))
    return offspring


def easy_step(
    pop: Sequence[Individual],
    cfg: EasyStepConfig,
    f: FitnessFunction,
    rng: RandomSource,
    stats: RunStats,
) -> list[Individual]:
    """Steady-state generation: destroy the worst, breed from the rest.

    The ``r = max(1, round(selection_rate * N))`` lowest-fitness individuals
    are removed and replaced by offspring of fitness-proportionally chosen
    survivors. Population size is preserved; the result is sorted best-first.
    """
    ranked, replaced = _rank(pop, cfg, f, stats)
    survivors = ranked[:-replaced]
    offspring = _make_offspring(replaced, survivors, cfg, rng)
    evaluate_population(offspring, f, stats)
    return sort_by_fitness(survivors + offspring)


def canonical_step(
    pop: Sequence[Individual],
    cfg: EasyStepConfig,
    f: FitnessFunction,
    rng: RandomSource,
    stats: RunStats,
) -> list[Individual]:
    """Generational replacement with elitism.

    The best ``max(1, round(selection_rate * N))`` individuals are copied
    unchanged; every remaining slot is filled with an offspring whose parents
    are drawn fitness-proportionally from the whole previous population.
    """
    ranked, elite_count = _rank(pop, cfg, f, stats)
    elites = [ind.copy() for ind in ranked[:elite_count]]
    offspring = _make_offspring(len(ranked) - elite_count, ranked, cfg, rng)
    evaluate_population(offspring, f, stats)
    return sort_by_fitness(elites + offspring)


StepFunction = Callable[
    [Sequence[Individual], EasyStepConfig, FitnessFunction, RandomSource, RunStats],
    list[Individual],
]


@dataclass
class Evolution:
    """One run in progress, advanced one generation step at a time.

    Construction starts the clock, evaluates and sorts the initial population
    and checks the terminators, so a target already met leaves the run
    ``finished`` after zero steps. The owner may replace ``pop`` between steps
    (islands integrate migrants); the terminators see it after the next step.
    """

    pop: list[Individual]
    step: StepFunction
    cfg: EasyStepConfig
    f: FitnessFunction
    terminators: Sequence[Terminator]
    rng: RandomSource
    stats: RunStats = field(default_factory=RunStats, init=False)
    start: float = field(default_factory=time.perf_counter, init=False)
    finished: bool = field(init=False)

    def __post_init__(self) -> None:
        if not self.terminators:
            raise ValueError("at least one terminator is required")
        self.pop = sort_by_fitness(evaluate_population(list(self.pop), self.f, self.stats))
        self.finished = self._should_stop()

    def _should_stop(self) -> bool:
        executed, best = self.stats.generations_executed, self.pop[0].fitness
        return any(t.should_stop(executed, best) for t in self.terminators)

    def advance(self) -> None:
        """Execute and record one generation step."""
        stats = self.stats
        self.pop = self.step(self.pop, self.cfg, self.f, self.rng, stats)
        stats.generations_executed += 1
        stats.best_per_generation.append((stats.generations_executed, self.pop[0].fitness))
        stats.cumulative_evaluations.append(stats.evaluations)
        stats.elapsed_seconds.append(time.perf_counter() - self.start)
        self.finished = self._should_stop()


def run(
    initial_pop: Sequence[Individual],
    step: StepFunction,
    cfg: EasyStepConfig,
    f: FitnessFunction,
    terminators: Sequence[Terminator],
    rng: RandomSource,
) -> tuple[list[Individual], RunStats]:
    """Evaluate the initial population, then step until any terminator fires.

    Terminators are also checked before the first step, so a target already
    met by the initial population executes zero steps. Returns the final
    population sorted best-first together with the collected statistics.
    """
    evolution = Evolution(initial_pop, step, cfg, f, terminators, rng)
    while not evolution.finished:
        evolution.advance()
    evolution.stats.wall_time = time.perf_counter() - evolution.start
    return evolution.pop, evolution.stats
