"""Tests for genomes, decoding, variation operators, and operator choice."""

import copy
import dataclasses
import itertools
import math
import pickle
import random
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evobits.core import (
    BitFlip,
    BitGenome,
    NPointCrossover,
    RandomSource,
    bitflip,
    choose_operator,
    decode,
    hamming,
    n_point_crossover,
    random_genome,
    royal_road,
)

genomes = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
).map(lambda bits: BitGenome.from_bits(tuple(bits)))


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(123)
        b = RandomSource(123)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_uniform_reals_in_unit_interval(self):
        rng = RandomSource(7)
        assert all(0.0 <= rng.random() < 1.0 for _ in range(1000))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError):
            RandomSource(seed)

    @pytest.mark.parametrize("seed", [1.5, 7.0, True, math.nan, math.inf, "7", None])
    def test_seed_not_an_int_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            RandomSource(seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        assert RandomSource(seed).seed == seed

    @given(
        st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, min(n, 8)))),
        st.integers(0, 2**64 - 1),
    )
    @example((21, 5), 0)  # largest population on the stdlib's pool path
    @example((22, 5), 0)  # smallest population on the set path
    @example((22, 6), 0)  # k past the set path's small-table bound
    @example((127, 2), 1)
    @settings(max_examples=500, deadline=None)
    def test_sample_draws_as_the_stdlib(self, n_k, seed):
        n, k = n_k
        oracle = random.Random(seed)
        rng = RandomSource(seed)
        assert rng.sample(range(n), k) == oracle.sample(range(n), k)
        assert rng.random() == oracle.random()

    @given(
        st.integers(-1000, 1000),
        st.integers(-9, 9).filter(bool),
        st.integers(22, 300),
        st.integers(0, 5),
        st.integers(0, 2**64 - 1),
    )
    @example(7, 1, 22, 5, 0)  # start other than 0
    @example(0, 3, 300, 5, 1)  # step above 1
    @example(299, -1, 300, 5, 2)  # negative step
    @example(-50, -7, 22, 5, 3)
    @settings(max_examples=300, deadline=None)
    def test_sample_draws_as_the_stdlib_on_any_range(self, start, step, n, k, seed):
        population = range(start, start + n * step, step)
        assert len(population) == n
        oracle = random.Random(seed)
        rng = RandomSource(seed)
        assert rng.sample(population, k) == oracle.sample(population, k)
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("n", [20, 21, 22, 23])
    def test_sample_draws_as_the_stdlib_at_the_path_boundary(self, n):
        for k in range(9):
            for seed in range(100):
                oracle = random.Random(seed)
                rng = RandomSource(seed)
                assert rng.sample(range(n), k) == oracle.sample(range(n), k)
                assert rng.random() == oracle.random()

    @pytest.mark.parametrize("population", [range(1, 128), range(0, 300, 7), list(range(40))])
    def test_sample_draws_as_the_stdlib_off_zero(self, population):
        for seed in range(50):
            oracle = random.Random(seed)
            rng = RandomSource(seed)
            assert rng.sample(population, 3) == oracle.sample(population, 3)
            assert rng.random() == oracle.random()

    @pytest.mark.parametrize("k", [-1, 41])
    def test_sample_size_outside_population_rejected(self, k):
        with pytest.raises(ValueError):
            RandomSource(0).sample(range(40), k)

    @given(st.integers(1, 2**70), st.integers(0, 2**64 - 1))
    @example(1, 0)
    @example(2, 0)
    @example(3, 0)  # redraws whenever getrandbits(2) is 3
    @example(2**70, 1)
    @example(2**70 + 1, 1)
    @settings(max_examples=500, deadline=None)
    def test_randrange_draws_as_the_stdlib(self, n, seed):
        oracle = random.Random(seed)
        rng = RandomSource(seed)
        assert [rng.randrange(n) for _ in range(4)] == [oracle.randrange(n) for _ in range(4)]
        assert rng.random() == oracle.random()

    def test_randrange_draws_as_the_stdlib_around_powers_of_two(self):
        # 2**k and 2**k + 1 redraw about half the time, 2**k - 1 seldom
        for n in {2**k + d for k in range(71) for d in (-1, 0, 1)} - {0}:
            for seed in range(20):
                oracle = random.Random(seed)
                rng = RandomSource(seed)
                assert [rng.randrange(n) for _ in range(5)] == [
                    oracle.randrange(n) for _ in range(5)
                ]
                assert rng.random() == oracle.random()

    @pytest.mark.parametrize(
        "n",
        [0, -1, True, False, 3.0, 2.5, "3", None],
        ids=["zero", "negative", "true", "false", "float_3", "float_2.5", "str", "none"],
    )
    def test_randrange_off_the_inline_path_behaves_as_the_stdlib(self, n):
        def outcome(randrange):
            # the same value or exception type, with the same warnings
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = randrange(n)
                except Exception as exc:
                    result = type(exc)
            return result, [w.category for w in caught]

        oracle = random.Random(3)
        rng = RandomSource(3)
        assert outcome(rng.randrange) == outcome(oracle.randrange)
        assert rng.random() == oracle.random()


class TestBitGenome:
    def test_round_trip_string(self):
        g = BitGenome.from_string("10100")
        assert str(g) == "10100"
        assert g.length == 5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BitGenome.from_bits(())

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="bits must all be 0 or 1"):
            BitGenome.from_bits((0, 2, 1))

    @pytest.mark.parametrize(
        "value, length",
        [(0, 0), (0, -1), (-1, 4), (16, 4), (2, 1), (1 << 300, 300),
         (1.5, 4), (1, 4.0), ("3", 4), (True, 4), (1, True)],
        ids=["length_0", "length_negative", "value_negative", "value_16_of_4_bits",
             "value_2_of_1_bit", "value_2**300_of_300_bits",
             "value_float", "length_float", "value_str", "value_bool", "length_bool"],
    )
    def test_rejects_value_outside_its_length(self, value, length):
        with pytest.raises(ValueError):
            BitGenome(value, length)

    @pytest.mark.parametrize("value, length", [(0, 1), (1, 1), (15, 4), ((1 << 300) - 1, 300)])
    def test_accepts_every_value_of_its_length(self, value, length):
        assert BitGenome(value, length).value == value

    @pytest.mark.parametrize("value, length", [(2**8, 8), (-1, 8), (0, 0)])
    def test_public_constructor_is_still_the_boundary(self, value, length):
        with pytest.raises(ValueError):
            BitGenome(value, length)

    @given(st.integers(1, 300), st.integers(0, 2**64 - 1))
    @example(1, 0)
    @example(300, 1)
    def test_trusted_genome_equals_checked_genome(self, length, seed):
        # random_genome sets the slots itself, without the constructor's check
        trusted = random_genome(length, RandomSource(seed))
        checked = BitGenome(trusted.value, length)
        assert type(trusted) is BitGenome
        assert trusted == checked
        assert hash(trusted) == hash(checked)
        assert str(trusted) == str(checked)
        assert trusted.length == length

    def test_trusted_genome_is_frozen(self):
        genome = random_genome(4, RandomSource(5))
        value = genome.value
        with pytest.raises(dataclasses.FrozenInstanceError):
            genome.value = value ^ 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            genome.length = 3
        assert genome == BitGenome(value, 4)

    def test_other_attributes_are_refused_as_frozen(self):
        # a frozen slotted dataclass raised TypeError from a broken super() here
        genome = BitGenome(5, 4)
        with pytest.raises(dataclasses.FrozenInstanceError, match="'extra'"):
            genome.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError, match="'extra'"):
            del genome.extra

    @given(genomes, st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_operator_outputs_pass_the_public_check(self, genome, seed):
        rng = RandomSource(seed)
        children = [bitflip(genome, 1, rng)]
        if genome.length > 1:
            children.append(n_point_crossover(genome, children[0], 1, rng))
        for child in children:
            assert type(child) is BitGenome
            assert child == BitGenome(child.value, child.length)


class TestRandomGenome:
    def test_deterministic_by_seed(self):
        assert random_genome(32, RandomSource(5)) == random_genome(32, RandomSource(5))

    def test_single_bit(self):
        assert random_genome(1, RandomSource(0)).length == 1

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            random_genome(0, RandomSource(0))

    @given(st.integers(1, 300), st.integers(0, 2**64 - 1))
    @example(1, 0)
    @settings(max_examples=200, deadline=None)
    def test_draws_as_the_stdlib(self, length, seed):
        oracle = random.Random(seed)
        rng = RandomSource(seed)
        expected = BitGenome.from_bits([oracle.randrange(2) for _ in range(length)])
        assert random_genome(length, rng) == expected
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ones_fraction_near_half(self, seed):
        g = random_genome(10_000, RandomSource(seed))
        fraction = sum(g.bits) / g.length
        assert 0.45 <= fraction <= 0.55


class TestDecode:
    def test_all_zeros_maps_to_low(self):
        assert decode(BitGenome.from_string("00000000"), 4, 0.0, 10.0) == [0.0, 0.0]

    def test_all_ones_maps_to_high(self):
        assert decode(BitGenome.from_string("11111111"), 4, 0.0, 10.0) == [10.0, 10.0]

    def test_big_endian_chunks(self):
        values = decode(BitGenome.from_string("10000100"), 4, 0.0, 10.0)
        assert values == pytest.approx([8 / 15 * 10, 4 / 15 * 10])

    def test_endpoints_exact_for_shifted_range(self):
        # fractional bounds are where naive scaling loses exactness
        values = decode(BitGenome.from_string("0000000011111111"), 8, 0.1, 0.3)
        assert values == [0.1, 0.3]

    @pytest.mark.parametrize("gene_bits", range(1, 9))
    def test_monotone_in_chunk_value_exhaustive(self, gene_bits):
        previous = None
        for u in range(2**gene_bits):
            bits = tuple((u >> (gene_bits - 1 - i)) & 1 for i in range(gene_bits))
            (value,) = decode(BitGenome.from_bits(bits), gene_bits, -5.0, 5.0)
            if previous is not None:
                assert value >= previous
            previous = value

    def test_gene_bits_must_be_positive(self):
        with pytest.raises(ValueError, match="gene_bits must be positive"):
            decode(BitGenome.from_string("1010"), 0, 0.0, 1.0)

    def test_gene_bits_must_divide_length(self):
        with pytest.raises(ValueError):
            decode(BitGenome.from_string("101"), 2, 0.0, 1.0)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            decode(BitGenome.from_string("1010"), 2, 1.0, 0.0)

    @given(genomes, st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_values_stay_inside_range(self, genome, gene_bits):
        if genome.length % gene_bits != 0:
            gene_bits = 1
        for value in decode(genome, gene_bits, -2.5, 7.5):
            assert -2.5 <= value <= 7.5


class TestBitflip:
    def test_flipping_all_bits_complements(self):
        flipped = bitflip(BitGenome.from_string("0000"), 4, RandomSource(1))
        assert str(flipped) == "1111"

    def test_single_flip_hamming_distance(self):
        g = BitGenome.from_string("1010")
        assert hamming(g, bitflip(g, 1, RandomSource(9))) == 1

    def test_input_untouched(self):
        g = BitGenome.from_string("0000")
        bitflip(g, 2, RandomSource(3))
        assert str(g) == "0000"

    def test_flip_count_above_length_rejected(self):
        with pytest.raises(ValueError):
            bitflip(BitGenome.from_string("101"), 4, RandomSource(0))

    def test_positions_uniform(self):
        # 10,000 single flips on 8 bits: each position expected 1250 +- 150
        rng = RandomSource(7)
        g = BitGenome.from_string("00000000")
        counts = [0] * 8
        for _ in range(10_000):
            child = bitflip(g, 1, rng)
            counts[child.bits.index(1)] += 1
        assert all(1100 <= c <= 1400 for c in counts)

    @given(genomes, st.integers(1, 64), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_hamming_distance_equals_flip_count(self, genome, flip_count, seed):
        flip_count = min(flip_count, genome.length)
        child = bitflip(genome, flip_count, RandomSource(seed))
        assert hamming(genome, child) == flip_count
        assert child.length == genome.length


class TestNPointCrossover:
    def test_identical_parents_identity(self):
        g = BitGenome.from_string("0000")
        assert n_point_crossover(g, g, 2, RandomSource(4)) == g

    def test_single_cut_shape(self):
        a = BitGenome.from_string("1111")
        b = BitGenome.from_string("0000")
        child = n_point_crossover(a, b, 1, RandomSource(0))
        text = str(child)
        # one cut: a prefix of ones followed by zeros
        assert text in {"1000", "1100", "1110"}

    def test_two_point_patterns_enumerated(self):
        a = BitGenome.from_string("11111111")
        b = BitGenome.from_string("00000000")
        expected = {
            "1" * i + "0" * (j - i) + "1" * (8 - j)
            for i, j in itertools.combinations(range(1, 8), 2)
        }
        seen = {str(n_point_crossover(a, b, 2, RandomSource(s))) for s in range(500)}
        assert seen <= expected
        assert seen == expected  # 500 seeds cover all 21 cut pairs

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            n_point_crossover(
                BitGenome.from_string("11"), BitGenome.from_string("111"), 1, RandomSource(0)
            )

    def test_too_many_points_rejected(self):
        g = BitGenome.from_string("1010")
        with pytest.raises(ValueError):
            n_point_crossover(g, g, 4, RandomSource(0))

    @given(genomes, st.integers(0, 2**32), st.integers(0, 2**32), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_mask_property(self, a, seed_b, seed_cuts, points):
        if a.length < 2:
            return
        b = random_genome(a.length, RandomSource(seed_b))
        points = min(points, a.length - 1)
        child = n_point_crossover(a, b, points, RandomSource(seed_cuts))
        assert child.length == a.length
        assert all(c in (x, y) for c, x, y in zip(child.bits, a.bits, b.bits))


class TestChooseOperator:
    def test_single_operator_always_chosen(self):
        ops = [BitFlip(rate=17.0)]
        rng = RandomSource(2)
        assert all(choose_operator(ops, rng) == 0 for _ in range(100))

    def test_frequencies_match_normalized_rates(self):
        ops = [BitFlip(rate=2.0), BitFlip(rate=2.0), NPointCrossover(rate=4.0)]
        rng = RandomSource(11)
        counts = [0, 0, 0]
        draws = 100_000
        for _ in range(draws):
            counts[choose_operator(ops, rng)] += 1
        for count, expected in zip(counts, (0.25, 0.25, 0.5)):
            assert abs(count / draws - expected) < 0.01

    def test_rates_read_at_call_time(self):
        ops = [BitFlip(rate=1.0), NPointCrossover(rate=1000.0)]
        rng = RandomSource(3)
        ops[1].rate = 1e-9
        assert all(choose_operator(ops, rng) == 0 for _ in range(100))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            choose_operator([], RandomSource(0))

    def test_non_positive_rate_rejected(self):
        ops = [BitFlip(rate=1.0)]
        ops[0].rate = 0.0
        with pytest.raises(ValueError):
            choose_operator(ops, RandomSource(0))

    @pytest.mark.parametrize(
        "rates",
        [(math.inf, 1.0), (math.nan, 1.0), (1e308, 1e308),
         pytest.param((10**400, 1.0), id="int_past_float_range-1.0")],
    )
    def test_non_finite_rate_sum_rejected_before_drawing(self, rates):
        ops = [BitFlip(), NPointCrossover()]
        for op, rate in zip(ops, rates):
            op.rate = rate
        rng = RandomSource(5)
        with pytest.raises(ValueError, match="finite"):
            choose_operator(ops, rng)
        assert rng.random() == RandomSource(5).random()


class TestHamming:
    @pytest.mark.parametrize(
        "a, b, expected",
        [("0000", "0000", 0), ("0000", "1111", 4), ("1010", "1001", 2)],
    )
    def test_known_distances(self, a, b, expected):
        assert hamming(BitGenome.from_string(a), BitGenome.from_string(b)) == expected

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            hamming(BitGenome.from_string("10"), BitGenome.from_string("100"))

    @given(genomes, st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_zero_iff_equal(self, a, seed):
        b = random_genome(a.length, RandomSource(seed))
        assert hamming(a, b) == hamming(b, a)
        assert (hamming(a, b) == 0) == (a == b)


class TestOperatorSpecs:
    def test_bitflip_defaults(self):
        op = BitFlip()
        assert op.flip_count == 1 and op.arity == 1

    def test_crossover_validates_points_at_application(self):
        op = NPointCrossover(points=5)
        g = BitGenome.from_string("1010")
        with pytest.raises(ValueError):
            op.apply([g, g], RandomSource(0))

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            BitFlip(rate=0.0)
        with pytest.raises(ValueError):
            NPointCrossover(rate=-1.0)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: BitFlip(flip_count=0), "flip_count"),
            (lambda: NPointCrossover(points=0), "points"),
        ],
        ids=["bitflip_flip_count_0", "crossover_points_0"],
    )
    def test_rejects_non_positive_count(self, make, message):
        with pytest.raises(ValueError, match=f"{message} must be positive"):
            make()

    @pytest.mark.parametrize("count", [1.5, 2.0, math.nan, math.inf, True, "2"])
    def test_rejects_a_count_that_is_not_an_int(self, count):
        # a float would pass a plain comparison, then fail at the first step
        with pytest.raises(ValueError, match="flip_count must be positive and an int"):
            BitFlip(flip_count=count)
        with pytest.raises(ValueError, match="points must be positive and an int"):
            NPointCrossover(points=count)

    @pytest.mark.parametrize(
        "rate",
        [math.inf, math.nan,
         pytest.param(10**400, id="int_10**400"),
         pytest.param(int(sys.float_info.max) + 1, id="int_just_past_max_float")],
    )
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError):
            BitFlip(rate=rate)
        with pytest.raises(ValueError):
            NPointCrossover(rate=rate)

    @pytest.mark.parametrize("rate", [sys.float_info.max, int(sys.float_info.max), 10**300, 3])
    def test_accepts_every_rate_in_the_float_range(self, rate):
        assert BitFlip(rate=rate).rate == rate
        assert NPointCrossover(rate=rate).rate == rate

    @pytest.mark.parametrize("make", [BitFlip, NPointCrossover])
    @pytest.mark.parametrize("name", ["apply", "arity", "anything_else"])
    def test_instance_cannot_replace_apply_or_arity(self, make, name):
        # the steps call the built-in operators by exact type, without their
        # apply, so an instance's replacement would be silently skipped
        op = make()
        with pytest.raises(AttributeError):
            setattr(op, name, lambda parents, rng: parents[0])
        assert not hasattr(op, "__dict__")
        assert op.apply.__func__ is type(op).apply

    @pytest.mark.parametrize(
        "make, fields",
        [(lambda: BitFlip(3, 0.5), ("flip_count", "rate")),
         (lambda: NPointCrossover(4, 2.5), ("points", "rate"))],
        ids=["bitflip", "crossover"],
    )
    def test_slotted_fields_can_be_set_and_copied(self, make, fields):
        op = make()
        op.rate = 7.0
        for clone in (copy.copy(op), copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
            assert type(clone) is type(op)
            assert [getattr(clone, f) for f in fields] == [getattr(op, f) for f in fields]


_EIGHT_BITS = BitGenome.from_string("10110100")

# each free function's size argument, named as its error names it
_SIZED_CALLS = {
    "bitflip": ("flip_count", lambda size, rng: bitflip(_EIGHT_BITS, size, rng)),
    "n_point_crossover": (
        "points", lambda size, rng: n_point_crossover(_EIGHT_BITS, _EIGHT_BITS, size, rng)
    ),
    "royal_road": ("block_size", lambda size, rng: royal_road(_EIGHT_BITS, size)),
    "decode": ("gene_bits", lambda size, rng: decode(_EIGHT_BITS, size, 0.0, 1.0)),
}


class TestFreeFunctionSizes:
    """The free functions check their size argument as the operator classes do."""

    @pytest.mark.parametrize("size", [2.0, True, "2"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize("function", sorted(_SIZED_CALLS))
    def test_size_that_is_not_an_int_rejected_before_any_draw(self, function, size):
        # a float failed in bit arithmetic far from here, a bool ran as size 1
        name, call = _SIZED_CALLS[function]
        rng = RandomSource(3)
        state = rng._rng.getstate()
        with pytest.raises(ValueError, match=f"^{name} must be (positive and )?an int"):
            call(size, rng)
        assert rng._rng.getstate() == state
