"""Tests for evaluation caching, generation steps, terminators, and the run loop."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evobits.core import (
    BitFlip,
    BitGenome,
    NPointCrossover,
    RandomSource,
    choose_operator,
    hamming,
    random_genome,
)
from evobits.engine import (
    EasyStepConfig,
    EvaluationError,
    Individual,
    MaxGenerations,
    RunStats,
    TargetFitness,
    _make_offspring,
    canonical_step,
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
        choose_operator([op], rng_oracle)
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

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_target_must_be_finite(self, target):
        with pytest.raises(ValueError):
            TargetFitness(target)

    def test_terminator_validation(self):
        with pytest.raises(ValueError):
            MaxGenerations(0)
