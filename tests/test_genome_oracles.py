"""Int-genome operators against tuple-of-bits oracles, and the genome and
individual classes against the dataclasses they were written out from.

Each operator oracle below is the gene-by-gene tuple implementation that the
mask arithmetic in ``evobits`` replaced, kept here only as a reference. Every
equivalence test checks the same genome (or value) and, where a random stream
is used, the same next draw (for ``random_genome``, the same generator state)
afterwards, so both consumed the same draws.
"""

import copy
import dataclasses
import functools
import operator
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evobits.core import (
    BitGenome,
    RandomSource,
    bitflip,
    decode,
    hamming,
    n_point_crossover,
    random_genome,
)
from evobits.engine import Individual
from evobits.islands import consensus_genome
from evobits.problems import onemax, royal_road


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


class TestProblems:
    @given(genes)
    @example((0,))
    @example((1,))
    @settings(max_examples=200, deadline=None)
    def test_onemax(self, bits):
        assert onemax(BitGenome.from_bits(bits)) == onemax_oracle(bits)

    @given(st.integers(1, 16).flatmap(
        lambda size: st.tuples(
            st.just(size),
            # mostly-ones genomes, so full blocks are common
            st.integers(1, 300 // size).flatmap(lambda k: bit_tuples(size * k, ones_bias=2)),
        )
    ))
    @example((1, (0,)))
    @example((1, (1,)))
    @settings(max_examples=200, deadline=None)
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
