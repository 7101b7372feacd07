"""Tests for evaluation caching, generation steps, terminators, and the run loop."""

import math
import random
import sys
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evobits.core import (
    BitFlip,
    BitGenome,
    NPointCrossover,
    RandomSource,
    bitflip,
    choose_operator,
    hamming,
    n_point_crossover,
    random_genome,
)
from evobits.engine import (
    EasyStepConfig,
    EvaluationError,
    Evolution,
    Individual,
    MaxGenerations,
    RunStats,
    TargetFitness,
    _make_offspring,
    _spin_without,
    canonical_step,
    checked_fitness,
    easy_step,
    evaluate_population,
    run,
    sort_by_fitness,
    turnover_count,
)
from evobits.problems import DotProblemConfig, dot_fitness, generate_random_arena, onemax


class CountingFitness:
    """Wraps a fitness function and counts invocations."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, genome):
        self.calls += 1
        return self.f(genome)


def fresh_population(size, length, seed):
    rng = RandomSource(seed)
    return [Individual(random_genome(length, rng)) for _ in range(size)], rng


def default_config(operators=None):
    if operators is None:
        operators = [BitFlip(rate=1.0), NPointCrossover(points=2, rate=9.0)]
    return EasyStepConfig(selection_rate=0.2, operators=operators)


class CountingRandomSource(RandomSource):
    """Counts calls to each public draw method, as a profiling subclass would."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = {}

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def random(self):
        self._count("random")
        return super().random()

    def randrange(self, n):
        self._count("randrange")
        return super().randrange(n)

    def sample(self, population, k):
        self._count("sample")
        return super().sample(population, k)


class TestDrawCountingContract:
    """A subclass overriding the public draw methods sees every draw.

    Benchmarks count draws this way, so the counts below are those of the
    plain stdlib calls, and the counted run breeds the same genomes.
    """

    def test_draw_methods_stay_on_the_class(self):
        # an instance attribute would shadow a subclass's override
        bound = vars(RandomSource(0)).keys()
        assert not {"random", "uniform", "randrange", "sample"} & bound

    def test_one_randrange_call_per_gene(self):
        rng = CountingRandomSource(4)
        random_genome(77, rng)
        assert rng.calls == {"randrange": 77}

    @pytest.mark.parametrize(
        "step, calls",
        [(easy_step, {"random": 113, "sample": 39}),
         (canonical_step, {"random": 446, "sample": 153})],
        ids=["easy_step", "canonical_step"],
    )
    def test_step_counts_and_genomes(self, step, calls):
        def three_steps(rng):
            pop = [Individual(random_genome(32, rng)) for _ in range(64)]
            stats = RunStats()
            for _ in range(3):
                pop = step(pop, default_config(), onemax, rng, stats)
            return [ind.genome for ind in pop]

        counted = CountingRandomSource(7)
        assert three_steps(counted) == three_steps(RandomSource(7))
        # one sample per offspring (3 steps of 13 or 51), one random to pick
        # its operator and one or two to pick its parents
        assert counted.calls == {"randrange": 64 * 32, **calls}


class DelegatingRandomSource(RandomSource):
    """Overrides ``random`` and ``sample`` with plain delegations, so steps look
    up ``random`` on the class and the operators draw their loci through ``sample``."""

    def random(self):
        return super().random()

    def sample(self, population, k):
        return super().sample(population, k)


class TestBoundDraw:
    """A plain source's bound ``random`` and loci kernel draw as the class
    lookups a subclass gets."""

    @staticmethod
    def vary(rng_class, length, size, seed):
        """A bitflip and then a crossover of two seeded parents, with the
        generator state after each."""
        value = random.Random(seed).getrandbits(2 * length)
        a, b = BitGenome(value >> length, length), BitGenome(value & ~(-1 << length), length)
        rng = rng_class(seed)
        flipped = bitflip(a, min(size, length), rng)
        state = rng._rng.getstate()
        child = n_point_crossover(a, b, min(size, length - 1), rng)
        return flipped, state, child, rng._rng.getstate()

    @given(st.integers(2, 300), st.integers(1, 8), st.integers(0, 2**64 - 1))
    @example(21, 5, 2)  # bitflip's longest genome off sample's inline path
    @example(22, 5, 2)  # bitflip's shortest on it, crossover's longest off it
    @example(23, 5, 2)  # crossover's shortest on it
    @example(23, 6, 2)  # one locus past the inline path
    @example(2, 1, 2**64 - 1)
    @settings(max_examples=300, deadline=None)
    def test_operators_draw_their_loci_as_sample(self, length, size, seed):
        assert self.vary(RandomSource, length, size, seed) == self.vary(
            DelegatingRandomSource, length, size, seed
        )

    @pytest.mark.parametrize("length", [21, 22, 23])
    def test_loci_at_the_inline_path_boundary(self, length):
        # off the inline path the stdlib's pool path often picks the same
        # loci, so one seed seldom tells the two paths apart
        for size in range(1, 9):
            for seed in range(40):
                assert self.vary(RandomSource, length, size, seed) == self.vary(
                    DelegatingRandomSource, length, size, seed
                )

    @given(
        st.sampled_from([easy_step, canonical_step]),
        st.integers(0, 2**64 - 1),
        st.integers(2, 40),
        st.integers(2, 300),
        st.floats(0.01, 0.99),
        st.lists(st.floats(1e-3, 1e3) | st.integers(1, 10), min_size=2, max_size=2),
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(1, 8),
        st.sampled_from(["onemax", "zero", "scaled"]),
    )
    @example(easy_step, 2, 20, 22, 0.5, [1.0, 1.0], 5, 5, 3, "onemax")  # both fallbacks
    @example(easy_step, 2, 20, 23, 0.5, [1.0, 1.0], 6, 6, 3, "onemax")  # sizes past 5
    @example(canonical_step, 2, 20, 23, 0.5, [1.0, 1.0], 5, 5, 3, "onemax")  # both kernels
    @settings(max_examples=200, deadline=None)
    def test_steps_match_the_class_lookup(
        self, step, seed, size, bits, selection_rate, rates, flips, points, generations, fitness
    ):
        try:
            turnover_count(selection_rate, size)
        except ValueError:
            assume(False)
        f = {"onemax": onemax, "zero": lambda g: 0, "scaled": lambda g: g.value / 7}[fitness]
        built_ins = [
            BitFlip(min(flips, bits), rates[0]),
            NPointCrossover(min(points, bits - 1), rates[1]),
        ]

        def evolve(rng_class, wrap):
            """The run's populations, records, evaluations and generator state,
            with each operator wrapped by ``wrap`` (which logs its children)."""
            children = []
            cfg = EasyStepConfig(selection_rate, [wrap(op, children) for op in built_ins])
            rng = rng_class(seed)
            pop = [Individual(random_genome(bits, rng)) for _ in range(size)]
            evolution = Evolution(pop, step, cfg, f, [MaxGenerations(generations)], rng)
            pops = []
            while not evolution.finished:
                before = {id(ind.genome) for ind in evolution.pop}
                evolution.advance()
                pops.append(evolution.pop)
                if wrap is not as_built:
                    # apply ran once per offspring: the step's new genomes are
                    # exactly the children it returned
                    bred = [id(ind.genome) for ind in evolution.pop if id(ind.genome) not in before]
                    assert sorted(bred) == sorted(map(id, children))
                    children.clear()
            stats = evolution.stats
            return pops, stats.best_per_generation, stats.evaluations, rng._rng.getstate()

        outcomes = [
            evolve(rng_class, wrap)
            for wrap in (as_built, as_recording_subclass, TracedStandIn)
            for rng_class in (RandomSource, DelegatingRandomSource)
        ]
        assert all(outcome == outcomes[0] for outcome in outcomes)


def as_built(op, children):
    return op


class RecordingBitFlip(BitFlip):
    """A subclass: the steps call its ``apply``, which logs each child."""

    def apply(self, parents, rng):
        child = super().apply(parents, rng)
        self.children.append(child)
        return child


class RecordingNPointCrossover(NPointCrossover):
    """As ``RecordingBitFlip``, for crossover."""

    def apply(self, parents, rng):
        child = super().apply(parents, rng)
        self.children.append(child)
        return child


def as_recording_subclass(op, children):
    if type(op) is BitFlip:
        recording = RecordingBitFlip(op.flip_count, op.rate)
    else:
        recording = RecordingNPointCrossover(op.points, op.rate)
    recording.children = children
    return recording


class TracedStandIn:
    """Duck-typed operator with only ``rate``, ``arity`` and an instance
    ``apply`` that wraps the built-in's, as a benchmark's tracer builds one."""

    def __init__(self, op, children):
        self.rate = op.rate
        self.arity = op.arity

        def apply(parents, rng):
            child = op.apply(parents, rng)
            children.append(child)
            return child

        self.apply = apply


def swept_easy_step(pop, cfg, f, rng, stats):
    """``easy_step`` as it was: every step swept ``pop`` for unset fitness."""
    replaced = turnover_count(cfg.selection_rate, len(pop))
    ranked = sort_by_fitness(evaluate_population(pop, f, stats))
    survivors = ranked[:-replaced]
    offspring = _make_offspring(replaced, survivors, cfg, rng)
    evaluate_population(offspring, f, stats)
    return sort_by_fitness(survivors + offspring)


def swept_canonical_step(pop, cfg, f, rng, stats):
    """``canonical_step`` as it was: every step swept ``pop`` for unset fitness."""
    elite_count = turnover_count(cfg.selection_rate, len(pop))
    ranked = sort_by_fitness(evaluate_population(pop, f, stats))
    elites = [ind.copy() for ind in ranked[:elite_count]]
    offspring = _make_offspring(len(ranked) - elite_count, ranked, cfg, rng)
    evaluate_population(offspring, f, stats)
    return sort_by_fitness(elites + offspring)


class Unordered:
    """A fitness whose comparisons fail with an error other than TypeError."""

    def __lt__(self, other):
        raise ArithmeticError("no order")

    __gt__ = __lt__


def step_outcome(step, fitnesses, fail_at, seed):
    """Everything a step leaves behind: its result or error, the incoming
    population, the fitness calls in order, the evaluation count and the
    generator state. ``f`` fails on its call number ``fail_at``."""
    rng = RandomSource(seed)
    pop = [Individual(random_genome(16, rng), fitness) for fitness in fitnesses]
    calls = []

    def f(genome):
        calls.append(genome)
        if len(calls) == fail_at:
            raise RuntimeError(f"call {fail_at} failed")
        return onemax(genome)

    stats = RunStats()
    try:
        result = step(pop, default_config(), f, rng, stats)
    except (EvaluationError, TypeError) as exc:
        result = (type(exc), str(exc))
    return result, pop, calls, stats.evaluations, rng._rng.getstate()


STEPS_AND_SWEPT = pytest.mark.parametrize(
    "step, swept",
    [(easy_step, swept_easy_step), (canonical_step, swept_canonical_step)],
    ids=["easy_step", "canonical_step"],
)


class TestSortFirst:
    """The steps sort first and evaluate only when the sort meets an unset
    fitness; they leave what the sweep before every sort left."""

    @STEPS_AND_SWEPT
    @given(
        st.lists(st.none() | st.integers(0, 16) | st.floats(0, 16), min_size=2, max_size=30),
        st.none() | st.integers(1, 40),
        st.integers(0, 2**64 - 1),
    )
    @example([None, None], None, 0)  # the smallest population, all unset
    @example([None, None], 2, 0)
    @example([None] + [8.0] * 9, None, 1)  # one unset, first
    @example([8.0] * 9 + [None], None, 1)  # one unset, last
    @example([8.0] * 9 + [None], 1, 1)
    @example([3, 9.5, 0.0, 16], None, 2)  # all set
    @example([None] * 12, 5, 3)  # f fails on the fifth unset individual
    @settings(max_examples=150, deadline=None)
    def test_step_matches_the_swept_step(self, step, swept, fitnesses, fail_at, seed):
        assert step_outcome(step, fitnesses, fail_at, seed) == step_outcome(
            swept, fitnesses, fail_at, seed
        )

    @STEPS_AND_SWEPT
    @pytest.mark.parametrize(
        "fitnesses",
        [["x", 1.0], [None, "x", 2.0], [1.0, None, None, "x"]],
        ids=["set_only", "unset_first", "unset_between"],
    )
    def test_fitness_that_cannot_be_ordered_raises_type_error(self, step, swept, fitnesses):
        outcome = step_outcome(step, fitnesses, None, 4)
        assert outcome[0][0] is TypeError
        assert outcome == step_outcome(swept, fitnesses, None, 4)

    @pytest.mark.parametrize("step", [easy_step, canonical_step])
    def test_other_comparison_errors_are_not_taken_for_unset_fitness(self, step):
        # only a TypeError means an unset fitness; any other error from the
        # sort propagates before a fitness call
        pop, rng = fresh_population(2, 8, 5)
        pop[0].fitness = Unordered()  # the sort's first comparison meets it
        f = CountingFitness(onemax)
        stats = RunStats()
        with pytest.raises(ArithmeticError, match="no order"):
            step(pop, default_config(), f, rng, stats)
        assert f.calls == stats.evaluations == 0


class TestIndividual:
    def test_slotted_without_an_instance_dict(self):
        ind = Individual(BitGenome.from_string("1010"), 2.0)
        assert not hasattr(ind, "__dict__")
        with pytest.raises(AttributeError):
            ind.age = 1

    def test_copy_is_equal_and_independent(self):
        ind = Individual(BitGenome.from_string("1010"), 2.0)
        twin = ind.copy()
        assert twin == ind and twin is not ind
        twin.fitness = 3.0
        assert ind.fitness == 2.0
        assert Individual(ind.genome).copy() == Individual(ind.genome, None)


class TestSortByFitness:
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e300, 5e-324]), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_ties_keep_their_order(self, fitnesses):
        pop = evaluated_pool(fitnesses)
        expected = sorted(pop, key=lambda i: i.fitness, reverse=True)
        ranked = sort_by_fitness(pop)
        assert len(ranked) == len(expected)
        assert all(a is b for a, b in zip(ranked, expected))


class TestEvaluatePopulation:
    def test_fresh_population_evaluates_everyone(self):
        pop, _ = fresh_population(64, 16, 1)
        f = CountingFitness(onemax)
        stats = RunStats()
        evaluate_population(pop, f, stats)
        assert f.calls == 64
        assert stats.evaluations == 64
        assert all(ind.fitness is not None for ind in pop)

    def test_cached_population_is_not_reevaluated(self):
        pop, _ = fresh_population(16, 8, 2)
        f = CountingFitness(onemax)
        stats = RunStats()
        evaluate_population(pop, f, stats)
        f.calls = 0
        evaluate_population(pop, f, stats)
        assert f.calls == 0
        assert stats.evaluations == 16

    def test_mixed_cache_counts_only_fresh(self):
        pop, rng = fresh_population(8, 8, 3)
        stats = RunStats()
        evaluate_population(pop, onemax, stats)
        pop += [Individual(random_genome(8, rng)) for _ in range(2)]
        f = CountingFitness(onemax)
        evaluate_population(pop, f, stats)
        assert f.calls == 2
        assert stats.evaluations == 10

    def test_failure_names_individual_index(self):
        pop, _ = fresh_population(5, 4, 4)
        calls = iter(range(5))

        def broken(genome):
            if next(calls) == 3:
                raise RuntimeError("boom")
            return 1.0

        with pytest.raises(EvaluationError, match="individual 3"):
            evaluate_population(pop, broken, RunStats())

    def test_negative_fitness_rejected(self):
        pop, _ = fresh_population(2, 4, 5)
        with pytest.raises(EvaluationError, match="non-negative"):
            evaluate_population(pop, lambda g: -1.0, RunStats())

    @pytest.mark.parametrize("value", [math.nan, math.inf, None, "3"])
    def test_unusable_fitness_names_individual(self, value):
        pop, _ = fresh_population(3, 4, 5)
        results = iter([1.0, value, 1.0])
        stats = RunStats()
        with pytest.raises(EvaluationError, match="individual 1 scored"):
            evaluate_population(pop, lambda g: next(results), stats)
        assert pop[1].fitness is None
        assert stats.evaluations == 1


class Score(float):
    """A float subclass: not the inline path's plain float."""


class Count(int):
    """An int subclass: not the inline path's plain int."""


fitness_values = (
    st.integers(-(2**1100), 2**1100)
    | st.integers(0, 2**64)
    | st.booleans()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(0.0, 1e-307)
    | st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, sys.float_info.max,
                       math.nan, -math.nan, math.inf, -math.inf, 2**1024, 2**1024 - 2**970,
                       2**1024 - 2**970 - 1, -1, None, "3", Decimal("3"), Decimal("NaN"),
                       Fraction(1, 3), Fraction(-1, 3), Fraction(2**1100, 3),
                       Score(2.5), Score(-1.0), Count(7)])
    | st.fractions()
    | st.decimals(allow_nan=True)
)


def same_value(a, b):
    # float.hex tells 0.0 from -0.0; the type tells 3 from 3.0
    return type(a) is type(b) and (a.hex() == b.hex() if type(a) is float else a == b)


class TestEvaluationFastPath:
    """``evaluate_population`` stores and rejects exactly as ``checked_fitness``."""

    @given(st.lists(fitness_values, min_size=1, max_size=12))
    @example([sys.float_info.max, -0.0, 5e-324, True, Fraction(7, 2)])
    @example([2**1024 - 2**970 - 1])  # past the float range, yet rounds down to its max
    @example([2**1024 - 2**970])  # the first int that float() overflows on
    @example([1.0, math.nan, 2.0])
    @settings(max_examples=500, deadline=None)
    def test_stores_what_checked_fitness_returns(self, values):
        expected, bad = [], None
        for i, value in enumerate(values):
            try:
                expected.append(checked_fitness(value))
            except ValueError:
                bad = i
                break
        pop = [Individual(BitGenome(i, 16)) for i in range(len(values))]
        stats = RunStats()
        if bad is None:
            evaluate_population(pop, lambda g: values[g.value], stats)
        else:
            with pytest.raises(EvaluationError) as info:
                evaluate_population(pop, lambda g: values[g.value], stats)
            assert str(info.value) == (
                "fitness must be a finite non-negative real number, "
                f"individual {bad} scored {values[bad]!r}"
            )
            assert info.value.__cause__ is None and info.value.__suppress_context__
            assert all(ind.fitness is None for ind in pop[bad:])
        assert stats.evaluations == len(expected)
        stored = [ind.fitness for ind in pop[: len(expected)]]
        assert all(map(same_value, stored, expected)), (stored, expected)


def linear_roulette_pick(pool, rng):
    """Oracle: the linear roulette wheel, re-summing the pool on every pick."""
    total = sum(ind.fitness for ind in pool)
    if total <= 0.0:
        return pool[rng.randrange(len(pool))]
    u = rng.random() * total
    acc = 0.0
    for ind in pool:
        acc += ind.fitness
        if u < acc:
            return ind
    return pool[-1]


def linear_pick_parents(pool, arity, rng):
    """Oracle: the second parent comes from a wheel rebuilt without the first."""
    first = linear_roulette_pick(pool, rng)
    if arity == 1:
        return [first.genome]
    if len(pool) == 1:
        return [first.genome, first.genome]
    rest = [ind for ind in pool if ind is not first]
    return [first.genome, linear_roulette_pick(rest, rng).genome]


class RecordingOperator:
    """Variation stand-in that records the parents it is handed."""

    rate = 1.0

    def __init__(self, arity):
        self.arity = arity
        self.parents = []

    def apply(self, parents, rng):
        self.parents.append(list(parents))
        return parents[0]


class ScriptedRandom:
    """Random source replaying fixed ``random()`` values, for exact boundaries."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def randrange(self, n):
        raise AssertionError("scripted draws must not reach randrange")


def linear_choose_operator(ops, rng):
    """Oracle: ``choose_operator`` as a linear scan of the running sums."""
    total = 0.0
    for op in ops:
        total += op.rate
    u = total * rng.random()
    acc = 0.0
    for i, op in enumerate(ops):
        acc += op.rate
        if u < acc:
            return i
    return len(ops) - 1


def evaluated_pool(fitnesses):
    # distinct genomes, so each recorded parent names its pool slot
    pool = [Individual(BitGenome.from_string(f"{i:08b}")) for i in range(len(fitnesses))]
    for ind, value in zip(pool, fitnesses):
        ind.fitness = float(value)
    return pool


def oracle_and_prefix_picks(fitnesses, arity, count, rng_oracle, rng_prefix):
    pool = evaluated_pool(fitnesses)
    op = RecordingOperator(arity)
    expected = []
    for _ in range(count):
        linear_choose_operator([op], rng_oracle)
        expected.append(linear_pick_parents(pool, arity, rng_oracle))
    _make_offspring(count, pool, EasyStepConfig(0.5, [op]), rng_prefix)
    return expected, op.parents


class TestRouletteSelection:
    @given(
        st.lists(
            st.integers(0, 30) | st.just(0) | st.integers(0, 10**12), min_size=1, max_size=40
        ),
        st.sampled_from([1, 2]),
        st.integers(1, 12),
        st.integers(0, 2**32),
    )
    @example([0, 0, 0, 0], 2, 6, 0)  # all-zero pool: uniform choice for both parents
    @example([7], 2, 3, 2)  # lone candidate
    @example([0], 1, 3, 3)
    @example([0, 5], 2, 4, 4)  # pool of two, one of them zero
    @example([3, 3], 2, 4, 5)
    @example([0, 0, 0, 9], 2, 6, 6)  # first pick always the last slot
    @settings(max_examples=300, deadline=None)
    def test_prefix_sum_picks_match_linear_oracle(self, fitnesses, arity, count, seed):
        rng_oracle, rng_prefix = RandomSource(seed), RandomSource(seed)
        expected, picked = oracle_and_prefix_picks(
            fitnesses, arity, count, rng_oracle, rng_prefix
        )
        assert picked == expected
        assert rng_prefix.random() == rng_oracle.random()

    @pytest.mark.parametrize(
        "fitnesses, draws",
        [
            # second draw lands just below the boundary between slots 1 and 2
            # of the wheel without slot 0; u + 1000 would round onto it
            ([1000, 1, 1], [0.0, 0.5, 0.49999999999999994]),
            # draws that reach the total fall back to the last slot, or the
            # one before it when the first parent is last
            ([1, 2, 0], [0.0, 1.0, 1.0]),
            ([1, 0, 2], [0.0, 1.0, 1.0]),
            # the zero-fitness slot after the first parent is never drawn
            ([4, 0, 1, 2], [0.0, 0.3, 0.5]),
        ],
    )
    def test_boundary_draws_match_linear_oracle(self, fitnesses, draws):
        expected, picked = oracle_and_prefix_picks(
            fitnesses, 2, 1, ScriptedRandom(draws), ScriptedRandom(draws)
        )
        assert picked == expected


def keyed_spin_without(cumulative, first, weight, rng):
    """Oracle: the second spin's search with a key on every bisect comparison."""
    last = len(cumulative) - 1
    if not last:
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


class OneDraw:
    """Random source whose ``random()`` is one fixed value, for exact boundaries."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value

    def randrange(self, n):
        return int(self.value * n)


fitness_floats = (
    st.floats(0.0, 1e12)
    | st.floats(0.0, 1e-290)
    | st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 0.2, 0.3, 1 / 3, 1e12, 1e12 + 0.5])
)


class TestSpinWithoutSearch:
    @given(st.lists(fitness_floats, min_size=1, max_size=40), st.data())
    @settings(max_examples=500, deadline=None)
    def test_picks_match_keyed_search(self, fitnesses, data):
        cumulative = list(accumulate(fitnesses))
        first = data.draw(st.integers(0, len(fitnesses) - 1))
        draw = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        weight = fitnesses[first]
        assert _spin_without(cumulative, first, weight, OneDraw(draw)) == keyed_spin_without(
            cumulative, first, weight, OneDraw(draw)
        )

    @pytest.mark.parametrize(
        "fitnesses, first, draw, expected",
        [
            # u + weight rounds up onto the next sum, past the slot the exact
            # test picks, so the search steps back (across the zero slots)
            ([9.301, 0.1, 6.3], 0, 0.015624999999999941, 1),
            ([9.301, 0.1, 0.0, 0.0, 6.3], 0, 0.015624999999999941, 1),
            ([3.6, 1.585, 0.74, 7.4], 0, 0.16298200514138814, 1),
            ([6.544, 2.379, 1.242, 1.2], 0, 0.7510889856876166, 2),
            # u + weight rounds down below a sum the exact test rejects, so
            # the search steps forward
            ([2.7, 3.8, 4.6, 8.88], 0, 0.486111111111111, 3),
            ([8.94, 9.75, 9.233, 5.6], 0, 0.7722003010210307, 3),
            ([2.752, 4.06, 8.86, 2.561], 0, 0.8345714101156256, 3),
            # the same forward case with a slot ahead of the first parent
            ([0.0, 2.7, 3.8, 4.6, 8.88], 1, 0.486111111111111, 4),
        ],
    )
    def test_rounded_boundaries_match_keyed_search(self, fitnesses, first, draw, expected):
        cumulative = list(accumulate(fitnesses))
        weight = fitnesses[first]
        u = draw * (cumulative[-1] - weight)
        pick = bisect_right(cumulative, u + weight, first + 1)
        assert pick != expected  # the rounded bisection alone would miss
        assert keyed_spin_without(cumulative, first, weight, OneDraw(draw)) == expected
        assert _spin_without(cumulative, first, weight, OneDraw(draw)) == expected


def spin(cumulative, rng):
    """Oracle: the first roulette pick as a function of the running sums alone.

    An all-zero pool falls back to a uniform choice; a draw that rounds up to
    the total lands on the last slot.
    """
    total = cumulative[-1]
    if total <= 0.0:
        return rng.randrange(len(cumulative))
    return min(bisect_right(cumulative, rng.random() * total), len(cumulative) - 1)


class ReplayedDraws:
    """Random source replaying fixed values; ``randrange(n)`` scales one onto [0, n)."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def randrange(self, n):
        return min(int(self.values.pop(0) * n), n - 1)


unit_draws = st.floats(0.0, 1.0, exclude_max=True) | st.just(0.9999999999999999)


class TestFirstPick:
    """The step's inline first pick picks as :func:`spin` does on the same draws."""

    @staticmethod
    def picks(fitnesses, draws):
        # one operator: each offspring draws for it (0.5 here), then its parent
        script = [d for draw in draws for d in (0.5, draw)]
        op = RecordingOperator(1)
        _make_offspring(len(draws), evaluated_pool(fitnesses), EasyStepConfig(0.5, [op]),
                        ReplayedDraws(script))
        cumulative = list(accumulate(fitnesses))
        oracle = ReplayedDraws(draws)
        expected = [f"{spin(cumulative, oracle):08b}" for _ in draws]
        return [str(parents[0]) for parents in op.parents], expected

    @given(st.lists(fitness_floats, min_size=1, max_size=40),
           st.lists(unit_draws, min_size=1, max_size=8))
    @example([0.0, 0.0, 0.0], [0.0, 0.5, 0.9999999999999999])  # all-zero pool
    @example([0.0], [0.3])
    @settings(max_examples=500, deadline=None)
    def test_picks_match_spin(self, fitnesses, draws):
        picked, expected = self.picks(fitnesses, draws)
        assert picked == expected

    @pytest.mark.parametrize(
        "fitnesses, draw, expected",
        [
            ([0.0, 0.0, 0.0, 0.0], 0.6, 2),  # all zero: uniform over the slots
            ([5e-324, 0.0], 0.75, 1),  # u rounds up to the total: the last slot
            ([1e-323, 5e-324, 0.0, 0.0], 0.9, 3),
            ([1.0, 2.0, 0.0], 1 / 3, 1),  # u lands exactly on the first sum
        ],
    )
    def test_boundary_draws_match_spin(self, fitnesses, draw, expected):
        cumulative = list(accumulate(fitnesses))
        if cumulative[-1] > 0.0 and expected == len(fitnesses) - 1:
            # the clamp is what picks the last slot here
            assert bisect_right(cumulative, draw * cumulative[-1]) == len(fitnesses)
        picked, oracle = self.picks(fitnesses, [draw])
        assert picked == oracle == [f"{expected:08b}"]


class LoggingOperator:
    """Variation stand-in that logs its index and parents to a shared list."""

    def __init__(self, index, arity, rate, log):
        self.index, self.arity, self.rate, self.log = index, arity, rate, log

    def apply(self, parents, rng):
        self.log.append((self.index, list(parents)))
        return parents[0]


def oracle_operator_picks(ops, pool, count, rng):
    """Oracle: one linear operator scan per offspring, then the linear wheels."""
    picks = []
    for _ in range(count):
        i = linear_choose_operator(ops, rng)
        picks.append((i, linear_pick_parents(pool, ops[i].arity, rng)))
    return picks


operator_rates = (
    st.floats(0.0, 1e300, exclude_min=True)
    | st.integers(1, 10**6)
    | st.sampled_from([5e-324, 0.1, 0.2, 0.3, 1 / 3])
)


class TestOperatorWheel:
    @given(
        st.lists(st.tuples(operator_rates, st.sampled_from([1, 2])), min_size=1, max_size=5),
        st.lists(st.integers(0, 30), min_size=1, max_size=12),
        st.integers(1, 12),
        st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_picks_match_choose_operator(self, specs, fitnesses, count, seed):
        log = []
        ops = [LoggingOperator(i, arity, rate, log) for i, (rate, arity) in enumerate(specs)]
        pool = evaluated_pool(fitnesses)
        rng_oracle, rng_wheel = RandomSource(seed), RandomSource(seed)
        expected = oracle_operator_picks(ops, pool, count, rng_oracle)
        _make_offspring(count, pool, EasyStepConfig(0.5, ops), rng_wheel)
        assert log == expected
        assert rng_wheel.random() == rng_oracle.random()

    @given(
        st.lists(operator_rates, min_size=1, max_size=5),
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 4),
    )
    @example([1.0, 2.0], 0.5, 0)
    @example([5e-324, 5e-324], 0.5, 1)
    @example([1e308 / 8] * 5, 0.5, 3)
    @settings(max_examples=300, deadline=None)
    def test_choose_operator_matches_linear_scan(self, rates, draw, k):
        ops = [LoggingOperator(i, 1, rate, []) for i, rate in enumerate(rates)]
        sums = list(accumulate(rates, initial=0.0))[1:]
        # draws that put u at the k-th running sum: the nearest float to it, and either side
        on_sum = sums[k % len(sums)] / sums[-1]
        near_sum = [math.nextafter(on_sum, 0), on_sum, math.nextafter(on_sum, 1)]
        for d in [draw, 0.0, 1 - 2**-53, *(d for d in near_sum if d < 1)]:
            picked = choose_operator(ops, ScriptedRandom([d]))
            assert picked == linear_choose_operator(ops, ScriptedRandom([d])), d

    @pytest.mark.parametrize(
        "rates, draw",
        [
            ((1.0, 2.0), 1 / 3),  # u lands exactly on the first running sum
            ((0.1, 0.2), 0.9999999999999999),
            # a subnormal total: u rounds up to the total, past every sum
            ((5e-324, 5e-324), 0.9999999999999999),
        ],
    )
    def test_boundary_draws_match_choose_operator(self, rates, draw):
        log = []
        ops = [LoggingOperator(i, 1, rate, log) for i, rate in enumerate(rates)]
        expected = linear_choose_operator(ops, ScriptedRandom([draw]))
        _make_offspring(1, evaluated_pool([1, 1]), EasyStepConfig(0.5, ops), ScriptedRandom([draw, 0.0]))
        assert log[0][0] == expected

    @pytest.mark.parametrize("step", [easy_step, canonical_step])
    @pytest.mark.parametrize(
        "rate", [0.0, -1.0, math.nan, math.inf, pytest.param(10**400, id="int_10**400")]
    )
    def test_rate_broken_between_steps_raises_before_any_draw(self, step, rate):
        pop, rng = fresh_population(20, 16, 13)
        cfg = default_config()
        stats = RunStats()
        pop = step(pop, cfg, onemax, rng, stats)
        cfg.operators[1].rate = rate
        state = rng._rng.getstate()
        with pytest.raises(ValueError, match="rate"):
            step(pop, cfg, onemax, rng, stats)
        assert rng._rng.getstate() == state

    def test_new_rate_takes_effect_at_next_step(self):
        log = []
        ops = [LoggingOperator(0, 1, 1.0, log), LoggingOperator(1, 1, 1.0, log)]
        pop, rng = fresh_population(40, 16, 14)
        cfg = EasyStepConfig(0.5, ops)
        stats = RunStats()
        pop = easy_step(pop, cfg, onemax, rng, stats)
        assert {i for i, _ in log} == {0, 1}
        ops[0].rate = 1e-300
        log.clear()
        easy_step(pop, cfg, onemax, rng, stats)
        assert [i for i, _ in log] == [1] * 20


class TestExactTypeDispatch:
    """The steps call ``bitflip`` and ``n_point_crossover`` themselves for the
    exact built-in classes; every other operator gets its ``apply``."""

    def test_a_subclass_instance_apply_is_called(self):
        class Unslotted(BitFlip):
            pass

        op, log = Unslotted(), []
        op.apply = lambda parents, rng: log.append(parents) or parents[0]
        pop, rng = fresh_population(20, 16, 3)
        easy_step(pop, EasyStepConfig(0.2, [op]), onemax, rng, RunStats())
        assert len(log) == turnover_count(0.2, 20)

    @pytest.mark.parametrize(
        "op, message",
        [(NPointCrossover(points=16), "points must be an int in \\[1, 15\\]"),
         (BitFlip(flip_count=17), "flip_count must be an int in \\[1, 16\\]")],
        ids=["crossover", "bitflip"],
    )
    def test_a_size_past_the_genome_raises_as_apply_does(self, op, message):
        def outcome(op):
            pop, rng = fresh_population(20, 16, 5)
            with pytest.raises(ValueError, match=message) as raised:
                easy_step(pop, EasyStepConfig(0.2, [op]), onemax, rng, RunStats())
            return str(raised.value), rng._rng.getstate()

        subclassed = as_recording_subclass(op, [])
        assert outcome(op) == outcome(subclassed) == outcome(TracedStandIn(op, []))


class TestEasyStep:
    def test_replacement_arithmetic(self):
        pop, rng = fresh_population(10, 16, 6)
        stats = RunStats()
        evaluate_population(pop, onemax, stats)
        new_pop = easy_step(pop, default_config(), onemax, rng, stats)
        assert len(new_pop) == 10
        pop_ids = {id(ind) for ind in pop}
        survivors = [ind for ind in new_pop if id(ind) in pop_ids]
        assert len(survivors) == 8

    def test_offspring_count_at_default_rates(self):
        pop, rng = fresh_population(64, 32, 7)
        stats = RunStats()
        evaluate_population(pop, onemax, stats)
        before = stats.evaluations
        easy_step(pop, default_config(), onemax, rng, stats)
        assert stats.evaluations - before == 13  # max(1, round(0.2 * 64))

    def test_crossover_share_matches_rates(self):
        # all survivors share one genome, so crossover children are exact
        # copies and bit-flip children sit at Hamming distance 1; with rates
        # (1, 9) about 10% of offspring should be flips
        genome = BitGenome.from_string("10" * 8)
        rng = RandomSource(8)
        flips = 0
        total = 0
        for _ in range(300):
            pop = [Individual(genome) for _ in range(64)]
            stats = RunStats()
            evaluate_population(pop, onemax, stats)
            new_pop = easy_step(pop, default_config(), onemax, rng, stats)
            pop_ids = {id(ind) for ind in pop}
            children = [ind for ind in new_pop if id(ind) not in pop_ids]
            flips += sum(hamming(ind.genome, genome) == 1 for ind in children)
            total += len(children)
        assert total == 300 * 13
        assert abs(flips / total - 0.1) < 0.02

    def test_identical_survivors_bitflip_only(self):
        genome = BitGenome.from_string("0000000011111111")
        pop = [Individual(genome) for _ in range(10)]
        stats = RunStats()
        evaluate_population(pop, onemax, stats)
        cfg = EasyStepConfig(selection_rate=0.2, operators=[BitFlip()])
        new_pop = easy_step(pop, cfg, onemax, RandomSource(9), stats)
        pop_ids = {id(ind) for ind in pop}
        children = [ind for ind in new_pop if id(ind) not in pop_ids]
        assert children and all(
            hamming(ind.genome, genome) == 1 for ind in children
        )

    def test_all_zero_fitness_falls_back_to_uniform(self):
        pop, rng = fresh_population(10, 8, 10)
        stats = RunStats()
        new_pop = easy_step(pop, default_config(), lambda g: 0.0, rng, stats)
        assert len(new_pop) == 10

    def test_sorted_best_first(self):
        pop, rng = fresh_population(20, 16, 11)
        stats = RunStats()
        new_pop = easy_step(pop, default_config(), onemax, rng, stats)
        fitnesses = [ind.fitness for ind in new_pop]
        assert fitnesses == sorted(fitnesses, reverse=True)

    def test_tiny_population_rejected(self):
        pop, rng = fresh_population(1, 8, 12)
        with pytest.raises(ValueError):
            easy_step(pop, default_config(), onemax, rng, RunStats())

    @pytest.mark.parametrize(
        "rate, size, count",
        [(0.2, 64, 13), (0.2, 10, 2), (0.25, 10, 3), (0.01, 10, 1), (0.2, 2, 1), (0.94, 10, 9)],
    )
    def test_turnover_count_rounds_half_up(self, rate, size, count):
        assert turnover_count(rate, size) == count

    @pytest.mark.parametrize("rate, size", [(0.75, 2), (0.95, 10), (0.5, 1)])
    def test_turnover_of_whole_population_rejected(self, rate, size):
        with pytest.raises(ValueError, match="whole population"):
            turnover_count(rate, size)

    @pytest.mark.parametrize(
        "operators",
        [[], [BitFlip(rate=1e308), NPointCrossover(rate=1e308)]],
        ids=["no_operators", "rate_sum_overflow"],
    )
    def test_step_config_rejects_unusable_operators(self, operators):
        with pytest.raises(ValueError):
            EasyStepConfig(selection_rate=0.2, operators=operators)

    def test_step_config_rejects_a_rate_past_the_float_range(self):
        op = BitFlip()
        op.rate = 10**400  # would overflow the float sum of the rates
        with pytest.raises(ValueError, match="rate"):
            EasyStepConfig(selection_rate=0.2, operators=[op])


class TestCanonicalStep:
    def test_elite_arithmetic(self):
        pop, rng = fresh_population(10, 16, 13)
        stats = RunStats()
        evaluate_population(pop, onemax, stats)
        ranked = sort_by_fitness(pop)
        new_pop = canonical_step(pop, default_config(), onemax, rng, stats)
        assert len(new_pop) == 10
        elite_genomes = [ind.genome for ind in ranked[:2]]
        assert all(g in [ind.genome for ind in new_pop] for g in elite_genomes)
        # elites are copies, not the original individuals
        pop_ids = {id(ind) for ind in pop}
        assert sum(id(ind) in pop_ids for ind in new_pop) == 0

    def test_offspring_count(self):
        pop, rng = fresh_population(10, 16, 14)
        stats = RunStats()
        evaluate_population(pop, onemax, stats)
        before = stats.evaluations
        canonical_step(pop, default_config(), onemax, rng, stats)
        assert stats.evaluations - before == 8

    def test_best_never_degrades(self):
        pop, rng = fresh_population(16, 24, 15)
        stats = RunStats()
        evaluate_population(pop, onemax, stats)
        best = sort_by_fitness(pop)[0].fitness
        for _ in range(20):
            pop = canonical_step(pop, default_config(), onemax, rng, stats)
            assert pop[0].fitness >= best
            best = pop[0].fitness

    def test_identical_parents_bitflip_only(self):
        genome = BitGenome.from_string("11110000")
        pop = [Individual(genome) for _ in range(10)]
        stats = RunStats()
        evaluate_population(pop, onemax, stats)
        cfg = EasyStepConfig(selection_rate=0.2, operators=[BitFlip()])
        new_pop = canonical_step(pop, cfg, onemax, RandomSource(16), stats)
        children = [ind for ind in new_pop if ind.genome != genome]
        assert len(children) == 8
        assert all(hamming(ind.genome, genome) == 1 for ind in children)


class TestRun:
    def test_generation_limit_counts_steps(self):
        pop, rng = fresh_population(8, 64, 17)
        final, stats = run(
            pop, easy_step, default_config(), onemax, [MaxGenerations(10)], rng
        )
        assert stats.generations_executed == 10
        assert [g for g, _ in stats.best_per_generation] == list(range(1, 11))
        assert len(final) == 8

    def test_target_met_by_initial_population_runs_zero_steps(self):
        pop, rng = fresh_population(8, 8, 18)
        _, stats = run(
            pop, easy_step, default_config(), onemax, [TargetFitness(0.0)], rng
        )
        assert stats.generations_executed == 0
        assert stats.best_per_generation == []
        assert stats.evaluations == 8

    def test_either_terminator_stops(self):
        pop, rng = fresh_population(32, 8, 19)
        _, stats = run(
            pop,
            easy_step,
            default_config(),
            onemax,
            [MaxGenerations(200), TargetFitness(8.0)],
            rng,
        )
        assert stats.generations_executed < 200

    def test_dot_problem_stops_within_limit(self):
        cfg = DotProblemConfig()
        arena = generate_random_arena(cfg, RandomSource(2009))
        fitness = dot_fitness(cfg, arena)
        rng = RandomSource(20)
        pop = [Individual(random_genome(32, rng)) for _ in range(64)]
        _, stats = run(
            pop,
            easy_step,
            default_config(),
            fitness,
            [MaxGenerations(50), TargetFitness(25.0)],
            rng,
        )
        assert stats.generations_executed <= 50

    def test_empty_terminators_rejected(self):
        pop, rng = fresh_population(4, 8, 21)
        with pytest.raises(ValueError):
            run(pop, easy_step, default_config(), onemax, [], rng)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="population must not be empty"):
            run([], easy_step, default_config(), onemax, [MaxGenerations(1)], RandomSource(1))

    @pytest.mark.parametrize("step", [easy_step, canonical_step])
    @pytest.mark.parametrize(
        "size, rate", [(1, 0.2), (1, 0.9), (2, 0.75), (4, 0.9), (10, 0.96)]
    )
    def test_untouchable_population_rejected_before_any_evaluation(self, step, size, rate):
        # the turnover rounds to the whole population: no step could run
        f = CountingFitness(onemax)
        pop, rng = fresh_population(size, 8, 24)
        state = rng._rng.getstate()
        cfg = EasyStepConfig(rate, [BitFlip()])
        message = f"selection_rate {rate} rounds to the whole population of {size}"
        with pytest.raises(ValueError, match=message):
            run(pop, step, cfg, f, [MaxGenerations(3)], rng)
        # a target the first population already meets does not excuse it
        with pytest.raises(ValueError, match=message):
            Evolution(pop, step, cfg, f, [TargetFitness(0.0)], rng)
        assert f.calls == 0
        assert all(ind.fitness is None for ind in pop)
        assert rng._rng.getstate() == state

    def test_smallest_turnable_population_runs(self):
        # two individuals at rate 0.2 turn one over each step
        f = CountingFitness(onemax)
        pop, rng = fresh_population(2, 8, 25)
        _, stats = run(pop, easy_step, default_config(), f, [MaxGenerations(3)], rng)
        assert f.calls == stats.evaluations == 2 + 3

    def test_evaluation_accounting_is_exact(self):
        f = CountingFitness(onemax)
        pop, rng = fresh_population(20, 16, 22)
        _, stats = run(pop, easy_step, default_config(), f, [MaxGenerations(10)], rng)
        offspring_per_generation = 4  # max(1, round(0.2 * 20))
        assert stats.evaluations == 20 + 10 * offspring_per_generation
        assert stats.evaluations == f.calls
        assert stats.cumulative_evaluations[-1] == stats.evaluations

    def test_seed_determinism(self):
        def one_run():
            pop, rng = fresh_population(16, 32, 23)
            final, stats = run(
                pop, easy_step, default_config(), onemax, [MaxGenerations(25)], rng
            )
            return stats.best_per_generation, [str(ind.genome) for ind in final]

        assert one_run() == one_run()

    @pytest.mark.parametrize("step", [easy_step, canonical_step])
    def test_best_per_generation_non_decreasing(self, step):
        for seed in range(10):
            pop, rng = fresh_population(12, 16, 100 + seed)
            _, stats = run(pop, step, default_config(), onemax, [MaxGenerations(15)], rng)
            values = [best for _, best in stats.best_per_generation]
            assert values == sorted(values)

    @pytest.mark.parametrize(
        "target",
        [math.nan, math.inf, -math.inf,
         pytest.param(10**400, id="int_10**400"), pytest.param(-(10**400), id="int_-10**400"),
         pytest.param(int(sys.float_info.max) + 1, id="int_just_past_max_float")],
    )
    def test_target_must_be_finite(self, target):
        with pytest.raises(ValueError):
            TargetFitness(target)

    def test_terminator_validation(self):
        with pytest.raises(ValueError):
            MaxGenerations(0)

    # NaN would never be reached, so a run with it would never return
    @pytest.mark.parametrize("limit", [math.nan, 2.5, 3.0, math.inf, True, "3", -1])
    def test_generation_limit_must_be_a_positive_int(self, limit):
        with pytest.raises(ValueError, match="generation limit must be positive and an int"):
            MaxGenerations(limit)

    @pytest.mark.parametrize("target", [sys.float_info.max, int(sys.float_info.max), 10**300, 0])
    def test_target_in_the_float_range_accepted(self, target):
        assert TargetFitness(target).target == target


class TestNonRealSettingsRejected:
    """Each numeric setting refuses a value that is not a real number, or is a
    bool, with its documented ValueError: a comparison with a float bound
    raises TypeError for a str, None or a complex, and a bool or a Decimal
    compares without complaint."""

    SETTINGS = {
        "EasyStepConfig": (
            lambda v: EasyStepConfig(v, [BitFlip()]),
            r"selection_rate must be in \(0, 1\)",
        ),
        "TargetFitness": (TargetFitness, "target fitness must be finite as a float"),
        "BitFlip": (
            lambda v: BitFlip(rate=v),
            "operator rate must be positive and finite as a float",
        ),
        "NPointCrossover": (
            lambda v: NPointCrossover(rate=v),
            "operator rate must be positive and finite as a float",
        ),
    }

    @pytest.mark.parametrize("value", ["x", None, True, 1j, Decimal("0.5")], ids=repr)
    @pytest.mark.parametrize("setting", list(SETTINGS))
    def test_rejected_with_the_documented_error(self, setting, value):
        build, message = self.SETTINGS[setting]
        with pytest.raises(ValueError, match=message):
            build(value)

    @pytest.mark.parametrize("value", [0.5, Fraction(1, 2)], ids=repr)
    @pytest.mark.parametrize("setting", list(SETTINGS))
    def test_real_numbers_still_accepted(self, setting, value):
        self.SETTINGS[setting][0](value)
