"""Population lifecycle: cached evaluation, generation steps, and the run loop.

Fitness is always maximized and must be a finite, non-negative real number
(parent selection is fitness-proportional). Populations returned by the step
strategies are sorted best-first, so ``pop[0]`` is the current best individual.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Sequence, Union

from .core import (
    BitFlip,
    BitGenome,
    NPointCrossover,
    OperatorSpec,
    RandomSource,
    _MAX_FLOAT,
    _check_count,
    _is_real,
    _is_real_not_bool,
    _rate_wheel,
    bitflip,
    n_point_crossover,
)

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
    "checked_fitness",
    "easy_step",
    "evaluate_population",
    "run",
    "sort_by_fitness",
    "turnover_count",
]

FitnessFunction = Callable[[BitGenome], float]


class EvaluationError(Exception):
    """A fitness function failed or returned an unusable value."""


class Individual:
    """One candidate solution: a genome plus its cached fitness.

    ``fitness`` is None until evaluated; variation operators always produce
    individuals with fitness unset so the cache can never go stale.

    Slotted, with the equality, repr and match arguments of a dataclass and
    no hash, written out so that importing this module generates no code.
    """

    __slots__ = ("genome", "fitness")
    __match_args__ = ("genome", "fitness")
    __hash__ = None  # mutable, so unhashable

    def __init__(self, genome: BitGenome, fitness: float | None = None) -> None:
        self.genome = genome
        self.fitness = fitness

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.genome, self.fitness) == (other.genome, other.fitness)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(genome={self.genome!r}, fitness={self.fitness!r})"

    def copy(self) -> "Individual":
        return Individual(self.genome, self.fitness)


# the sort key and the wheel's sums read fitness in C, without a Python frame
_fitness_of = attrgetter("fitness")


class EasyStepConfig:
    """Shared settings of the generation-step strategies.

    ``selection_rate`` is the fraction of the population turned over each
    generation (worst individuals destroyed, or elites kept, depending on
    the strategy); ``operators`` are drawn by rate for each offspring.
    """

    def __init__(self, selection_rate: float, operators: Sequence[OperatorSpec]) -> None:
        if not (_is_real_not_bool(selection_rate) and 0.0 < selection_rate < 1.0):
            raise ValueError(f"selection_rate must be in (0, 1), got {selection_rate}")
        _rate_wheel(operators)
        self.selection_rate = selection_rate
        self.operators = operators


class MaxGenerations:
    """Stop once the given number of generation steps has been executed."""

    def __init__(self, limit: int) -> None:
        _check_count("generation limit", limit)
        self.limit = limit

    def should_stop(self, generations_executed: int, best_fitness: float) -> bool:
        return generations_executed >= self.limit


class TargetFitness:
    """Stop once the best fitness reaches the target."""

    def __init__(self, target: float) -> None:
        # NaN or a value past the float range can never be reached (an int
        # such as 10**400 too), and one below it is met by any population;
        # the comparisons are exact for ints, where math.isfinite overflows
        if not (_is_real_not_bool(target) and -_MAX_FLOAT <= target <= _MAX_FLOAT):
            raise ValueError(f"target fitness must be finite as a float, got {target!r}")
        self.target = target

    def should_stop(self, generations_executed: int, best_fitness: float) -> bool:
        return best_fitness >= self.target


Terminator = Union[MaxGenerations, TargetFitness]


class RunStats:
    """Bookkeeping for one run.

    ``best_per_generation`` holds one ``(generation, best fitness)`` pair per
    executed step, numbered from 1. ``cumulative_evaluations`` and
    ``elapsed_seconds`` are aligned with it; elapsed times are wall-clock and
    excluded from determinism guarantees.
    """

    def __init__(self) -> None:
        self.generations_executed = 0
        self.evaluations = 0
        self.best_per_generation: list[tuple[int, float]] = []
        self.cumulative_evaluations: list[int] = []
        self.elapsed_seconds: list[float] = []
        self.wall_time = 0.0


def checked_fitness(value: object) -> float:
    """``value`` as a float if it is a usable fitness, a finite non-negative
    real number; ValueError for anything else, NaN and infinities included."""
    if _is_real(value):  # a bool too
        try:
            fitness = float(value)
        except OverflowError:  # an int past the float range
            fitness = math.inf
        # also false for NaN, which would poison the roulette wheel's prefix sums
        if 0.0 <= fitness < math.inf:
            return fitness
    raise ValueError(f"fitness must be a finite non-negative real number, got {value!r}")


def evaluate_population(
    pop: Sequence[Individual], f: FitnessFunction, stats: RunStats
) -> Sequence[Individual]:
    """Set fitness on every individual, calling ``f`` only where it is unset.

    Each value is stored as :func:`checked_fitness` returns it. A plain int or
    float is checked inline, with no call; any other type (bools included)
    goes through ``checked_fitness``. A failed call or an unusable value raises
    EvaluationError naming the individual's index; the individuals before it
    keep their fitness and are counted in ``stats.evaluations``.
    """
    for i, ind in enumerate(pop):
        if ind.fitness is None:
            try:
                value = f(ind.genome)
            except Exception as exc:
                raise EvaluationError(
                    f"fitness evaluation failed for individual {i}: {exc}"
                ) from exc
            kind = type(value)
            # the comparisons are exact for ints and false for NaN
            if (kind is int or kind is float) and 0 <= value <= _MAX_FLOAT:
                ind.fitness = float(value)
            else:
                try:
                    ind.fitness = checked_fitness(value)
                except ValueError:
                    raise EvaluationError(
                        "fitness must be a finite non-negative real number, "
                        f"individual {i} scored {value!r}"
                    ) from None
            stats.evaluations += 1
    return pop


def sort_by_fitness(pop: Sequence[Individual]) -> list[Individual]:
    """Population sorted best-first; ties keep their original order."""
    return sorted(pop, key=_fitness_of, reverse=True)


def turnover_count(selection_rate: float, size: int) -> int:
    """Individuals a step turns over, ``max(1, round(selection_rate * size))``
    rounded half up; it must stay below ``size``, so ``size`` is at least 2."""
    count = max(1, math.floor(selection_rate * size + 0.5))
    if count >= size:
        raise ValueError(
            f"selection_rate {selection_rate} rounds to the whole population of {size}"
        )
    return count


def _spin_without(
    cumulative: Sequence[float], first: int, weight: float, rng: RandomSource
) -> int:
    """Roulette index over every slot but ``first``, whose fitness is ``weight``.

    Draws and picks as a wheel rebuilt without that slot would: a slot ``i``
    after ``first`` is hit when ``u < cumulative[i] - weight``, which equals
    that wheel's test for whole-number fitness. The search bisects on
    ``u + weight``, which can round across a boundary, then steps to the
    first slot where that exact test holds; the test only turns from false
    to true along the wheel, so the pick is the same for every fitness.
    """
    last = len(cumulative) - 1
    if not last:
        # lone candidate: crossover degenerates to copying it
        return first
    rest = cumulative[-1] - weight
    if rest <= 0.0:
        pick = rng.randrange(last)
        return pick if pick < first else pick + 1
    # a plain source's own random(), as in _make_offspring
    u = (rng._random() if type(rng) is RandomSource else rng.random()) * rest
    if first and u < cumulative[first - 1]:
        return bisect_right(cumulative, u, 0, first)
    lo = first + 1
    pick = bisect_right(cumulative, u + weight, lo)
    while pick > lo and u < cumulative[pick - 1] - weight:
        pick -= 1
    while pick <= last and not u < cumulative[pick] - weight:
        pick += 1
    if pick <= last:
        return pick
    return last if first != last else last - 1


def _make_offspring(
    count: int,
    parent_pool: Sequence[Individual],
    cfg: EasyStepConfig,
    rng: RandomSource,
) -> list[Individual]:
    # one operator wheel and one prefix-sum fitness wheel per step, so each
    # pick is a bisection; the rates are checked here, before any draw
    ops = cfg.operators
    op_wheel = _rate_wheel(ops)
    op_total, last_op = op_wheel[-1], len(ops) - 1
    cumulative = list(accumulate(map(_fitness_of, parent_pool)))
    total, last = cumulative[-1], len(cumulative) - 1
    # a plain RandomSource's random() is the generator's own, so it is called
    # without the method's frame; any other source (a subclass that counts
    # its draws, a scripted one) is looked up as it is, so it sees every draw
    random = rng._random if type(rng) is RandomSource else rng.random
    offspring = []
    for _ in range(count):
        # bisecting below the last slot clamps a draw that rounds up to the total
        op = ops[bisect_right(op_wheel, op_total * random(), 0, last_op)]
        # first parent by roulette: an all-zero pool falls back to a uniform
        # choice, and a draw that rounds up to the total lands on the last slot
        if total > 0.0:
            first = bisect_right(cumulative, random() * total, 0, last)
        else:
            first = rng.randrange(last + 1)
        parent = parent_pool[first]
        # the built-in operators by exact type, with the call their apply makes;
        # a subclass or any other operator (a traced stand-in) gets its apply
        kind = type(op)
        if kind is NPointCrossover:
            second = _spin_without(cumulative, first, parent.fitness, rng)
            child = n_point_crossover(parent.genome, parent_pool[second].genome, op.points, rng)
        elif kind is BitFlip:
            child = bitflip(parent.genome, op.flip_count, rng)
        else:
            parents = [parent.genome]
            if op.arity != 1:
                second = _spin_without(cumulative, first, parent.fitness, rng)
                parents.append(parent_pool[second].genome)
            child = op.apply(parents, rng)
        offspring.append(Individual(child))
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
    replaced = turnover_count(cfg.selection_rate, len(pop))
    try:  # an unset fitness is None, which a sort of two or more cannot order
        ranked = sort_by_fitness(pop)
    except TypeError:
        ranked = sort_by_fitness(evaluate_population(pop, f, stats))
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
    elite_count = turnover_count(cfg.selection_rate, len(pop))
    try:  # as in easy_step
        ranked = sort_by_fitness(pop)
    except TypeError:
        ranked = sort_by_fitness(evaluate_population(pop, f, stats))
    elites = [ind.copy() for ind in ranked[:elite_count]]
    offspring = _make_offspring(len(ranked) - elite_count, ranked, cfg, rng)
    evaluate_population(offspring, f, stats)
    return sort_by_fitness(elites + offspring)


StepFunction = Callable[
    [Sequence[Individual], EasyStepConfig, FitnessFunction, RandomSource, RunStats],
    list[Individual],
]


class Evolution:
    """One run in progress, advanced one generation step at a time.

    Construction starts the clock, evaluates and sorts the initial population
    and checks the terminators, so a target already met leaves the run
    ``finished`` after zero steps. The owner may replace ``pop`` between steps
    (islands integrate migrants); the terminators see it after the next step.
    """

    def __init__(
        self,
        pop: Sequence[Individual],
        step: StepFunction,
        cfg: EasyStepConfig,
        f: FitnessFunction,
        terminators: Sequence[Terminator],
        rng: RandomSource,
    ) -> None:
        if not terminators:
            raise ValueError("at least one terminator is required")
        if not pop:
            raise ValueError("population must not be empty")
        # a size no step can turn over is rejected before any evaluation
        turnover_count(cfg.selection_rate, len(pop))
        self.step, self.cfg, self.f, self.terminators, self.rng = step, cfg, f, terminators, rng
        self.stats = RunStats()
        self.start = time.perf_counter()
        self.pop: list[Individual] = sort_by_fitness(evaluate_population(list(pop), f, self.stats))
        self.finished = self._should_stop()

    def _should_stop(self) -> bool:
        executed, best = self.stats.generations_executed, self.pop[0].fitness
        for terminator in self.terminators:
            if terminator.should_stop(executed, best):
                return True
        return False

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
