"""Int-genome operators against tuple-of-bits oracles, and the genome,
individual and rectangle classes against the dataclasses they were written
out from.

Each operator oracle below is the gene-by-gene tuple implementation that the
mask arithmetic in ``evobits`` replaced, kept here only as a reference. Every
equivalence test checks the same genome (or value) and, where a random stream
is used, the same next draw (for ``random_genome``, the same generator state)
afterwards, so both consumed the same draws.
"""

import copy
import dataclasses
import functools
import math
import operator
import pickle
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evobits.core import (
    BitGenome,
    RandomSource,
    _cut_mask,
    _flip_mask,
    bitflip,
    decode,
    hamming,
    n_point_crossover,
    random_genome,
)
from evobits.engine import Individual
from evobits.islands import consensus_genome
from evobits.problems import Rectangle, onemax, royal_road


def random_genome_oracle(length, rng):
    return tuple(rng.randrange(2) for _ in range(length))


def bitflip_oracle(bits, flip_count, rng):
    positions = set(rng.sample(range(len(bits)), flip_count))
    return tuple(bit ^ 1 if i in positions else bit for i, bit in enumerate(bits))


def n_point_crossover_oracle(a, b, points, rng):
    cuts = sorted(rng.sample(range(1, len(a)), points))
    bits = []
    take_a = True
    prev = 0
    for cut in cuts + [len(a)]:
        bits.extend((a if take_a else b)[prev:cut])
        take_a = not take_a
        prev = cut
    return tuple(bits)


def decode_oracle(bits, gene_bits, low, high):
    denom = (1 << gene_bits) - 1
    values = []
    for start in range(0, len(bits), gene_bits):
        u = 0
        for bit in bits[start : start + gene_bits]:
            u = (u << 1) | bit
        if u == 0:
            values.append(low)
        elif u == denom:
            values.append(high)
        else:
            values.append(min(high, low + (u / denom) * (high - low)))
    return values


def hamming_oracle(a, b):
    return sum(x != y for x, y in zip(a, b))


def consensus_oracle(genomes):
    n = len(genomes)
    return tuple(
        1 if 2 * sum(bits[locus] for bits in genomes) >= n else 0
        for locus in range(len(genomes[0]))
    )


def onemax_oracle(bits):
    return sum(bits)


def royal_road_oracle(bits, block_size):
    return sum(all(bits[start : start + block_size]) for start in range(0, len(bits), block_size))


def single_zero_examples(block_size):
    """One ``@example((block_size, bits))`` per position in a block: three
    blocks of ones with a single zero at that position of the middle one."""

    def decorate(test):
        for position in range(block_size):
            bits = [1] * (3 * block_size)
            bits[block_size + position] = 0
            test = example((block_size, tuple(bits)))(test)
        return test

    return decorate


seeds = st.integers(0, 2**64 - 1)


def to_bits(value, length):
    return tuple((value >> (length - 1 - i)) & 1 for i in range(length))


def bit_tuples(length, ones_bias=0):
    """Tuples of ``length`` genes; each bias step ORs in one more random word,
    so a gene is 1 with probability 1 - 2**-(ones_bias + 1)."""
    words = st.lists(st.integers(0, (1 << length) - 1), min_size=ones_bias + 1, max_size=ones_bias + 1)
    return words.map(lambda ws: to_bits(functools.reduce(operator.or_, ws), length))


genes = st.integers(1, 300).flatmap(bit_tuples)
gene_pairs = st.integers(2, 300).flatmap(lambda n: st.tuples(bit_tuples(n), bit_tuples(n)))


def same_next_draw(a, b):
    return a.random() == b.random()


class ScriptedCuts(RandomSource):
    """Random source whose ``sample`` returns fixed cut positions."""

    def __init__(self, cuts):
        super().__init__(0)
        self.cuts = cuts

    def sample(self, population, k):
        assert len(self.cuts) == k and all(cut in population for cut in self.cuts)
        return list(self.cuts)


class TestGenomeRepresentation:
    @given(genes)
    @example((0,))
    @example((1,))
    @settings(max_examples=200, deadline=None)
    def test_from_bits_round_trips(self, bits):
        genome = BitGenome.from_bits(bits)
        assert str(genome) == "".join(map(str, bits))
        assert genome.bits == bits
        assert genome.length == len(genome) == len(bits)
        assert BitGenome.from_string(str(genome)) == genome

    def test_gene_zero_is_the_most_significant_bit(self):
        assert BitGenome.from_bits((1, 0, 0)).value == 4
        assert str(BitGenome(1, 3)) == "001"


class CountingRandrange(RandomSource):
    """Random source that counts its ``randrange`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def randrange(self, n):
        self.calls += 1
        return super().randrange(n)


class OwnRandom(RandomSource):
    """Random source overriding ``random`` only; it records every
    ``getrandbits`` width drawn."""

    def __init__(self, seed):
        super().__init__(seed)
        self.widths = []
        getrandbits = self._getrandbits

        def recorded(k):
            self.widths.append(k)
            return getrandbits(k)

        self._getrandbits = recorded

    def random(self):
        return super().random()


def same_state(a, b):
    return a._rng.getstate() == b._rng.getstate()


class TestBulkGenomeDraw:
    """The bulk draw against one ``randrange(2)`` per gene: the same genome,
    and the generator left in the same state."""

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 63, 64, 65, 4301, 2**16])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_word_boundaries(self, length, seed):
        ours, theirs = RandomSource(seed), RandomSource(seed)
        assert random_genome(length, ours).bits == random_genome_oracle(length, theirs)
        assert same_state(ours, theirs)

    @pytest.mark.parametrize("length", [1, 33, 300])
    def test_overridden_randrange_sees_every_gene(self, length):
        counting, plain = CountingRandrange(3), RandomSource(3)
        assert random_genome(length, counting) == random_genome(length, plain)
        assert counting.calls == length
        assert same_state(counting, plain)

    @pytest.mark.parametrize("length", [1, 33, 300])
    def test_overridden_random_draws_in_bulk(self, length):
        own, plain = OwnRandom(3), RandomSource(3)
        assert random_genome(length, own) == random_genome(length, plain)
        assert own.widths[0] == 32 * length
        assert same_state(own, plain)

    @pytest.mark.parametrize(
        "length, error, message",
        [
            (0, ValueError, "got value 0, length 0"),
            (-1, ValueError, "got value 0, length -1"),
            (2.0, TypeError, "'float' object cannot be interpreted as an integer"),
            # one gene is drawn before the genome refuses a bool length
            (True, ValueError, "got value 1, length True"),
            ("8", TypeError, "'str' object cannot be interpreted as an integer"),
        ],
    )
    def test_unusable_length_keeps_its_error(self, length, error, message):
        with pytest.raises(error) as info:
            random_genome(length, RandomSource(0))
        assert type(info.value) is error
        assert str(info.value).endswith(message)


class TestCoreOperators:
    @given(st.integers(1, 5000), seeds)
    @example(1, 0)
    @settings(max_examples=100, deadline=None)
    def test_random_genome(self, length, seed):
        ours, theirs = RandomSource(seed), RandomSource(seed)
        assert random_genome(length, ours).bits == random_genome_oracle(length, theirs)
        # the whole generator state, not only the next draw
        assert same_state(ours, theirs)

    @given(genes.flatmap(lambda bits: st.tuples(st.just(bits), st.integers(1, len(bits)))), seeds)
    @example(((0,), 1), 0)
    @example(((1,), 1), 0)
    @settings(max_examples=200, deadline=None)
    def test_bitflip(self, case, seed):
        bits, flip_count = case
        ours, theirs = RandomSource(seed), RandomSource(seed)
        child = bitflip(BitGenome.from_bits(bits), flip_count, ours)
        assert child.bits == bitflip_oracle(bits, flip_count, theirs)
        assert same_next_draw(ours, theirs)

    @given(
        gene_pairs.flatmap(
            lambda pair: st.tuples(st.just(pair), st.integers(1, len(pair[0]) - 1))
        ),
        seeds,
    )
    @settings(max_examples=200, deadline=None)
    def test_n_point_crossover(self, case, seed):
        (a, b), points = case
        ours, theirs = RandomSource(seed), RandomSource(seed)
        child = n_point_crossover(BitGenome.from_bits(a), BitGenome.from_bits(b), points, ours)
        assert child.bits == n_point_crossover_oracle(a, b, points, theirs)
        assert same_next_draw(ours, theirs)

    @pytest.mark.parametrize("length", [2, 3, 9, 300])
    @pytest.mark.parametrize("where", ["first", "last", "both", "all"])
    def test_crossover_cuts_at_the_ends(self, length, where):
        cuts = {
            "first": [1],
            "last": [length - 1],
            "both": sorted({1, length - 1}),
            "all": list(range(1, length)),
        }[where]
        a = tuple(1 for _ in range(length))
        b = tuple(i % 2 for i in range(length))
        child = n_point_crossover(
            BitGenome.from_bits(a), BitGenome.from_bits(b), len(cuts), ScriptedCuts(cuts)
        )
        assert child.bits == n_point_crossover_oracle(a, b, len(cuts), ScriptedCuts(cuts))

    @given(st.integers(1, 16).flatmap(
        lambda w: st.tuples(st.just(w), st.integers(1, 300 // w).flatmap(lambda k: bit_tuples(w * k)))
    ), st.floats(-1e6, 1e6), st.floats(1e-3, 1e6))
    @example((1, (0,)), 0.0, 1.0)
    @example((1, (1,)), -5.0, 10.0)
    @settings(max_examples=200, deadline=None)
    def test_decode(self, chunked, low, width):
        gene_bits, bits = chunked
        high = low + width
        expected = decode_oracle(bits, gene_bits, low, high)
        assert decode(BitGenome.from_bits(bits), gene_bits, low, high) == expected

    @given(gene_pairs)
    @example(((0,), (1,)))
    @example(((1,), (1,)))
    @settings(max_examples=200, deadline=None)
    def test_hamming(self, pair):
        a, b = pair
        assert hamming(BitGenome.from_bits(a), BitGenome.from_bits(b)) == hamming_oracle(a, b)


def sampled_flip_mask(seed, n, k):
    """Oracle: the flip mask of ``sample(range(n), k)``, locus i at bit
    n - 1 - i, and the generator state after the draw."""
    rng = random.Random(seed)
    mask = 0
    for locus in rng.sample(range(n), k):
        mask |= 1 << (n - 1 - locus)
    return mask, rng.getstate()


def sampled_cut_mask(seed, n, k):
    """Oracle: the XOR of the suffix masks of ``sample(range(1, n + 1), k)``,
    as cuts of an (n + 1)-bit genome, and the generator state after the draw."""
    rng = random.Random(seed)
    mask = 0
    for cut in rng.sample(range(1, n + 1), k):
        mask ^= (1 << (n + 1 - cut)) - 1
    return mask, rng.getstate()


def kernel_result(kernel, seed, n, k):
    rng = random.Random(seed)
    return kernel(rng.getrandbits, n, k), rng.getstate()


def redrawn_loci(seed, n, k):
    """Draws the set path of ``sample(range(n), k)`` rejects: (repeats, out of range)."""
    getrandbits, picked, repeats, outside = random.Random(seed).getrandbits, [], 0, 0
    while len(picked) < k:
        j = getrandbits(n.bit_length())
        if j >= n:
            outside += 1
        elif j in picked:
            repeats += 1
        else:
            picked.append(j)
    return repeats, outside


class TestLociKernels:
    """``_flip_mask`` and ``_cut_mask`` build the masks that ``sample``'s
    set path (a range of n > 21 items, k <= 5) picks, and leave the same
    generator state. Below that, ``sample`` takes its pool path, which the
    kernels do not draw as, and the operators call ``sample``."""

    @given(st.integers(22, 300), st.integers(1, 5), seeds)
    @example(22, 5, 3)  # no draw rejected
    @example(22, 5, 10)  # one repeated locus drawn again
    @example(22, 5, 11)  # two repeats and five draws past n
    @example(23, 5, 10)
    @example(23, 5, 11)
    @example(127, 5, 10)
    @example(128, 5, 11)
    @example(300, 1, 2**64 - 1)
    @settings(max_examples=300, deadline=None)
    def test_kernels_build_the_sampled_masks(self, n, k, seed):
        assert kernel_result(_flip_mask, seed, n, k) == sampled_flip_mask(seed, n, k)
        assert kernel_result(_cut_mask, seed, n, k) == sampled_cut_mask(seed, n, k)

    @pytest.mark.parametrize(
        "n, k, seed, redrawn",
        [(22, 5, 10, (1, 0)), (22, 5, 11, (2, 5)), (23, 5, 11, (2, 5)), (128, 5, 11, (1, 10))],
    )
    def test_examples_redraw(self, n, k, seed, redrawn):
        # the seeds above stay meaningful only while they redraw
        assert redrawn_loci(seed, n, k) == redrawn

    def test_kernels_match_sample_over_fixed_cases(self):
        # 1,500 seeded cases, n from 22 to 300 and k from 1 to 5
        for case in range(1500):
            n, k = 22 + case * 7 % 279, 1 + case % 5
            sampler = random.Random(case)
            loci = sampler.sample(range(n), k)
            # index j of sample(range(n), k) is cut j + 1 of sample(range(1, n + 1), k)
            flips = functools.reduce(operator.or_, (1 << (n - 1 - j) for j in loci))
            cuts = functools.reduce(operator.xor, ((1 << (n - j)) - 1 for j in loci))
            assert kernel_result(_flip_mask, case, n, k) == (flips, sampler.getstate())
            assert kernel_result(_cut_mask, case, n, k) == (cuts, sampler.getstate())

    @pytest.mark.parametrize("n", [21, 22, 23])
    @pytest.mark.parametrize("seed", [2, 3, 10, 11])
    def test_operators_build_the_sampled_masks_at_the_boundary(self, n, seed):
        # bitflip on n genes and crossover on n + 1 sample a range of n items
        zeros = BitGenome(0, n + 1)
        ones = BitGenome((1 << (n + 1)) - 1, n + 1)
        rng = RandomSource(seed)
        flipped = bitflip(BitGenome(0, n), 5, rng).value
        assert (flipped, rng._rng.getstate()) == sampled_flip_mask(seed, n, 5)
        rng = RandomSource(seed)
        child = n_point_crossover(zeros, ones, 5, rng).value
        assert (child, rng._rng.getstate()) == sampled_cut_mask(seed, n, 5)

    def test_kernels_do_not_draw_as_the_pool_path(self):
        # so the operators' length guards are needed: at n = 21 the kernels
        # and sample part ways on some seeds
        assert any(
            kernel_result(_flip_mask, seed, 21, 5) != sampled_flip_mask(seed, 21, 5)
            for seed in range(40)
        )
        assert any(
            kernel_result(_cut_mask, seed, 21, 5) != sampled_cut_mask(seed, 21, 5)
            for seed in range(40)
        )


class TestProblems:
    @given(genes)
    @example((0,))
    @example((1,))
    @settings(max_examples=200, deadline=None)
    def test_onemax(self, bits):
        assert onemax(BitGenome.from_bits(bits)) == onemax_oracle(bits)

    @given(st.integers(1, 64).flatmap(
        lambda size: st.tuples(
            st.just(size),
            # mostly-ones genomes, more so for longer blocks, so full blocks
            # are common; k == 1 makes block_size == length
            st.integers(1, 300 // size).flatmap(
                lambda k: bit_tuples(size * k, ones_bias=size.bit_length())
            ),
        )
    ))
    @example((1, (0,)))
    @example((1, (1,)))
    @example((64, (1,) * 64))
    @example((64, (0,) * 64))
    @example((7, (1,) * 294))
    @example((3, (0,) * 300))
    @single_zero_examples(5)
    @single_zero_examples(12)
    @settings(max_examples=300, deadline=None)
    def test_royal_road(self, blocks):
        block_size, bits = blocks
        assert royal_road(BitGenome.from_bits(bits), block_size) == royal_road_oracle(bits, block_size)


def population(genomes):
    return [Individual(BitGenome.from_bits(bits)) for bits in genomes]


class TestConsensus:
    @given(st.integers(1, 300).flatmap(lambda n: st.lists(bit_tuples(n), min_size=1, max_size=70)))
    @example([(0,)])
    @example([(1,)])
    @example([(1,), (0,)])
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, genomes):
        assert consensus_genome(population(genomes)).bits == consensus_oracle(genomes)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 63, 64, 65, 128])
    def test_sizes_around_powers_of_two(self, n):
        rng = RandomSource(n)
        genomes = [random_genome_oracle(37, rng) for _ in range(n)]
        assert consensus_genome(population(genomes)).bits == consensus_oracle(genomes)

    @pytest.mark.parametrize("n", [2, 4, 6, 64])
    def test_exact_ties_become_one(self, n):
        rng = RandomSource(n)
        half = [random_genome_oracle(53, rng) for _ in range(n // 2)]
        complements = [tuple(1 - bit for bit in bits) for bits in half]
        consensus = consensus_genome(population(half + complements))
        assert consensus.bits == consensus_oracle(half + complements) == (1,) * 53

    @pytest.mark.parametrize("n", [1, 3, 5, 65])
    def test_odd_sizes_have_no_ties(self, n):
        # (n + 1) // 2 copies of one genome against the rest as its complement
        rng = RandomSource(n)
        majority = random_genome_oracle(41, rng)
        minority = tuple(1 - bit for bit in majority)
        genomes = [majority] * ((n + 1) // 2) + [minority] * (n // 2)
        assert consensus_genome(population(genomes)).bits == majority


@dataclasses.dataclass(frozen=True, slots=True)
class BitGenomeOracle:
    """``BitGenome``'s fields and range check, as the dataclass it once was."""

    value: int
    length: int

    def __post_init__(self):
        value, length = self.value, self.length
        if not (type(value) is type(length) is int and length >= 1 and 0 <= value < 1 << length):
            raise ValueError("genome out of range")


@dataclasses.dataclass(slots=True)
class IndividualOracle:
    """``Individual`` as the dataclass it once was."""

    genome: BitGenome
    fitness: float | None = None


# small lengths and values so that equal pairs are frequent
genome_fields = st.one_of(
    st.integers(1, 2).flatmap(lambda n: st.tuples(st.integers(0, 2**n - 1), st.just(n))),
    st.integers(1, 130).flatmap(lambda n: st.tuples(st.integers(0, 2**n - 1), st.just(n))),
)
# NaN is left out: fitness is checked finite before it is ever set
fitnesses = st.one_of(
    st.none(), st.integers(-3, 3), st.integers(), st.sampled_from([0.0, -0.0, 1.0, 2]),
    st.floats(allow_nan=False),
)


def twins(fields):
    return BitGenome(*fields), BitGenomeOracle(*fields)


def individual_twins(fields, fitness):
    # both hold the same genome object, so their reprs can match exactly
    genome = BitGenome(*fields)
    return Individual(genome, fitness), IndividualOracle(genome, fitness)


def after_class_name(obj):
    name = type(obj).__qualname__
    text = repr(obj)
    assert text.startswith(name + "(")
    return text[len(name):]


def round_trips(obj):
    """``obj`` through copy, deepcopy and every pickle protocol that handles slots."""
    yield copy.copy(obj)
    yield copy.deepcopy(obj)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(obj, protocol))


class TestWrittenOutClasses:
    @given(genome_fields, genome_fields)
    @settings(max_examples=300, deadline=None)
    def test_genome_equality_hash_and_repr(self, a, b):
        (new_a, old_a), (new_b, old_b) = twins(a), twins(b)
        assert (new_a == new_b) is (old_a == old_b)
        assert (new_a != new_b) is (old_a != old_b)
        assert hash(new_a) == hash(old_a)
        assert after_class_name(new_a) == after_class_name(old_a)
        # a tuple of the same fields is not a genome to either
        assert (new_a == a) is (old_a == a) is False

    @given(genome_fields)
    @settings(max_examples=50, deadline=None)
    def test_genome_is_frozen(self, fields):
        new, old = twins(fields)
        for name in ("value", "length"):
            for mutate in (lambda g: setattr(g, name, 1), lambda g: delattr(g, name)):
                with pytest.raises(dataclasses.FrozenInstanceError) as new_error:
                    mutate(new)
                with pytest.raises(dataclasses.FrozenInstanceError) as old_error:
                    mutate(old)
                assert str(new_error.value) == str(old_error.value)
        assert (new.value, new.length) == (old.value, old.length) == fields

    @given(genome_fields)
    @settings(max_examples=50, deadline=None)
    def test_genome_copies_and_pickles(self, fields):
        new, old = twins(fields)
        for new_copy, old_copy in zip(round_trips(new), round_trips(old), strict=True):
            assert type(new_copy) is BitGenome and type(old_copy) is BitGenomeOracle
            assert new_copy == new and old_copy == old
            assert hash(new_copy) == hash(old_copy)

    @given(genome_fields, fitnesses, genome_fields, fitnesses)
    @settings(max_examples=300, deadline=None)
    def test_individual_equality_hash_and_repr(self, a, fit_a, b, fit_b):
        (new_a, old_a), (new_b, old_b) = individual_twins(a, fit_a), individual_twins(b, fit_b)
        assert (new_a == new_b) is (old_a == old_b)
        assert (new_a != new_b) is (old_a != old_b)
        assert after_class_name(new_a) == after_class_name(old_a)
        for ind in (new_a, old_a):
            with pytest.raises(TypeError):
                hash(ind)

    @given(genome_fields, fitnesses)
    @settings(max_examples=50, deadline=None)
    def test_individual_copies_and_pickles(self, fields, fitness):
        new, old = individual_twins(fields, fitness)
        for new_copy, old_copy in zip(round_trips(new), round_trips(old), strict=True):
            assert type(new_copy) is Individual and type(old_copy) is IndividualOracle
            assert new_copy == new and old_copy == old
            assert new_copy is not new and old_copy is not old

    def test_match_arguments_and_no_instance_dict(self):
        genome = BitGenome(5, 4)
        pairs = [
            (genome, BitGenomeOracle(5, 4)),
            (Individual(genome, 2.0), IndividualOracle(genome, 2.0)),
        ]
        for new, old in pairs:
            assert type(new).__match_args__ == type(old).__match_args__
            assert not hasattr(new, "__dict__") and not hasattr(old, "__dict__")
        match Individual(genome, 2.0):
            case Individual(BitGenome(value, length), fitness):
                assert (value, length, fitness) == (5, 4, 2.0)
            case _:
                pytest.fail("positional patterns did not match")


@dataclasses.dataclass(frozen=True)
class RectangleOracle:
    """``Rectangle`` as the frozen dataclass it once was."""

    id: str
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        # one chained test: false for NaN and infinite corners as well
        if not (-math.inf < self.x0 <= self.x1 < math.inf
                and -math.inf < self.y0 <= self.y1 < math.inf):
            raise ValueError(
                f"rectangle {self.id!r} needs finite, ordered corners, got "
                f"({self.x0}, {self.y0})-({self.x1}, {self.y1})"
            )

    def contains(self, x: float, y: float) -> bool:
        """True when (x, y) lies inside or on the boundary."""
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


# few ids and corners so that equal rectangles are frequent; numbers that
# compare and hash equal (1 and 1.0, 0.0 and -0.0, 0.5 and Fraction(1, 2))
# must stay told apart by repr, as the dataclass stored them as given
rectangle_ids = st.one_of(st.sampled_from(["a", "b", ""]), st.text(max_size=4))
corners = st.one_of(
    st.sampled_from([0, 1, 0.0, -0.0, 0.5, 1.0, 2**60, float(2**60), Fraction(1, 2)]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=8),
    st.decimals(allow_nan=False, allow_infinity=False, places=2),
)


def ordered(a, b):
    # min and max keep the first of two equal values, as given
    return (a, b) if not b < a else (b, a)


rectangle_fields = st.builds(
    lambda id, xs, ys: (id, xs[0], ys[0], xs[1], ys[1]),
    rectangle_ids,
    st.tuples(corners, corners).map(lambda pair: ordered(*pair)),
    st.tuples(corners, corners).map(lambda pair: ordered(*pair)),
)
# anything goes, NaN and infinities included: often rejected
any_corner = st.one_of(corners, st.sampled_from([math.nan, math.inf, -math.inf]), st.floats())


def rectangle_twins(fields):
    return Rectangle(*fields), RectangleOracle(*fields)


def same_fields(new, old):
    for name in ("id", "x0", "y0", "x1", "y1"):
        a, b = getattr(new, name), getattr(old, name)
        assert type(a) is type(b) and (a == b or a != a)


class TestWrittenOutRectangle:
    @given(rectangle_fields, rectangle_fields)
    @settings(max_examples=300, deadline=None)
    def test_equality_hash_and_repr(self, a, b):
        (new_a, old_a), (new_b, old_b) = rectangle_twins(a), rectangle_twins(b)
        same_fields(new_a, old_a)
        assert (new_a == new_b) is (old_a == old_b)
        assert (new_a != new_b) is (old_a != old_b)
        assert hash(new_a) == hash(old_a)
        assert after_class_name(new_a) == after_class_name(old_a)
        # a tuple of the same fields is not a rectangle to either
        assert (new_a == a) is (old_a == a) is False

    @given(rectangle_ids, any_corner, any_corner, any_corner, any_corner)
    @settings(max_examples=300, deadline=None)
    @example("a", math.nan, 0, 5, 5)
    @example("a", 0, 0, math.inf, 5)
    @example("a", -math.inf, 0, 5, 5)
    @example("a", 5, 0, 4, 10)
    @example("b", 0, 5.5, 1, 5)
    @example("", 0, 0, 0, 0)
    def test_accepts_and_rejects_alike(self, id, x0, y0, x1, y1):
        # a Decimal beside a NaN raises InvalidOperation in both
        try:
            old = RectangleOracle(id, x0, y0, x1, y1)
        except Exception as old_error:
            with pytest.raises(type(old_error)) as new_error:
                Rectangle(id, x0, y0, x1, y1)
            assert type(new_error.value) is type(old_error)
            assert str(new_error.value) == str(old_error)
        else:
            new = Rectangle(id, x0, y0, x1, y1)
            same_fields(new, old)
            assert new.contains(x0, y0) is old.contains(x0, y0) is True
            assert new.contains(x1, y1) is old.contains(x1, y1) is True

    @given(rectangle_fields, st.sampled_from(["id", "x0", "y0", "x1", "y1", "other"]))
    @settings(max_examples=50, deadline=None)
    def test_is_frozen(self, fields, name):
        new, old = rectangle_twins(fields)
        for mutate in (lambda r: setattr(r, name, 1), lambda r: delattr(r, name)):
            with pytest.raises(dataclasses.FrozenInstanceError) as new_error:
                mutate(new)
            with pytest.raises(dataclasses.FrozenInstanceError) as old_error:
                mutate(old)
            assert str(new_error.value) == str(old_error.value)
        same_fields(new, old)
        assert (new.id, new.x0, new.y0, new.x1, new.y1) == fields

    @given(rectangle_fields)
    @settings(max_examples=50, deadline=None)
    def test_copies_and_pickles(self, fields):
        new, old = rectangle_twins(fields)
        # the dataclass pickled under every protocol, the older two included
        old_protocols = [pickle.loads(pickle.dumps(old, p)) for p in (0, 1)]
        new_protocols = [pickle.loads(pickle.dumps(new, p)) for p in (0, 1)]
        copies = zip(
            [*round_trips(new), *new_protocols], [*round_trips(old), *old_protocols], strict=True
        )
        for new_copy, old_copy in copies:
            assert type(new_copy) is Rectangle and type(old_copy) is RectangleOracle
            assert new_copy == new and old_copy == old
            assert hash(new_copy) == hash(old_copy)
            same_fields(new_copy, old_copy)
            assert after_class_name(new_copy) == after_class_name(old_copy)

    def test_match_arguments_and_no_instance_dict(self):
        assert Rectangle.__match_args__ == RectangleOracle.__match_args__
        assert not hasattr(Rectangle("a", 0, 0, 1, 1), "__dict__")
        match Rectangle("a", 0, 1.5, 2, 3.5):
            case Rectangle(id, x0, y0, x1, y1):
                assert (id, x0, y0, x1, y1) == ("a", 0, 1.5, 2, 3.5)
            case _:
                pytest.fail("positional patterns did not match")

    def test_pickle_rebuilds_through_the_checked_constructor(self):
        # a stream whose far corner 1.0 is edited to -1.0 (big-endian
        # doubles) cannot smuggle in unordered corners
        one, minus_one = (struct.pack(">d", v) for v in (1.0, -1.0))
        data = pickle.dumps(Rectangle("a", 0.0, 0.0, 1.0, 1.0), 2)
        assert data.count(one) == 2
        data = data.replace(one, minus_one)
        with pytest.raises(ValueError, match="finite, ordered corners"):
            pickle.loads(data)
