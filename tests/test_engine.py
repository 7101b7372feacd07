"""Tests for evaluation caching, generation steps, terminators, and the run loop."""

import math
import sys
from bisect import bisect_right
from itertools import accumulate

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
    _spin_without,
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
