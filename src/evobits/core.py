"""Bitstring genomes, variation operators, seeded randomness, and the
whole-genome bit counts: Hamming distance, OneMax and Royal Road.

Everything here is a pure function of its arguments plus an explicit
:class:`RandomSource`, so identical seeds reproduce identical results.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from typing import Sequence, Union

__all__ = [
    "BitFlip",
    "BitGenome",
    "NPointCrossover",
    "OperatorSpec",
    "RandomSource",
    "bitflip",
    "choose_operator",
    "decode",
    "derived_seed",
    "hamming",
    "n_point_crossover",
    "onemax",
    "random_genome",
    "royal_road",
]

_SEED_LIMIT = 2**64
_MAX_FLOAT = sys.float_info.max


class RandomSource:
    """Deterministic stream of pseudo-random draws owned by a single run.

    Two sources built from the same seed produce identical streams. A source
    must not be shared between concurrently running owners.
    """

    def __init__(self, seed: int) -> None:
        if not (type(seed) is int and 0 <= seed < _SEED_LIMIT):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self.seed = seed
        self._rng = random.Random(seed)
        # bound once; the public draw methods stay on the class, so that a
        # subclass overriding one of them (a counting probe) still sees every call
        self._getrandbits = self._rng.getrandbits
        self._random = self._rng.random

    def random(self) -> float:
        """Uniform real in [0, 1)."""
        return self._random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform real in [low, high)."""
        return low + (high - low) * self._random()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), as ``random.Random.randrange``."""
        return self._rng.randrange(n)

    def sample(self, population: Sequence[int], k: int) -> list[int]:
        """k distinct elements of ``population``, as ``random.Random.sample``."""
        return self._rng.sample(population, k)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


def derived_seed(seed: int, offset: int) -> int:
    """Seed of the stream ``offset`` places after ``seed``, kept in the 64-bit range."""
    return (seed + offset) % _SEED_LIMIT


class BitGenome:
    """Fixed-length vector of 0/1 genes, held as one int.

    Gene 0 is the most significant of ``length`` bits, so
    ``str(genome) == format(value, f"0{length}b")``.

    Frozen and slotted, with the equality, hash, repr and match arguments of
    a frozen dataclass, written out so that importing this module generates
    no code.
    """

    __slots__ = ("value", "length")
    __match_args__ = ("value", "length")
    value: int
    length: int

    def __init__(self, value: int, length: int) -> None:
        if not (type(value) is type(length) is int and length >= 1 and 0 <= value < 1 << length):
            raise ValueError(
                f"genome needs int length >= 1 and int value in [0, 2**length), "
                f"got value {value!r}, length {length!r}"
            )
        _set_value(self, value)
        _set_length(self, length)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.value, self.length) == (other.value, other.length)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(value={self.value!r}, length={self.length!r})"

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle rebuild through the checked constructor;
        # the default path would set the slots through the frozen __setattr__
        return type(self), (self.value, self.length)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitGenome":
        """Build a genome from its genes, gene 0 first."""
        value = 0
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError("genome bits must all be 0 or 1")
            value = value << 1 | bit
        return cls(value, len(bits))

    @classmethod
    def from_string(cls, text: str) -> "BitGenome":
        """Build a genome from a string like ``\"1010\"``."""
        return cls.from_bits([int(ch) for ch in text])

    @property
    def bits(self) -> tuple[int, ...]:
        """The genes as a tuple of 0/1 ints, gene 0 first."""
        return tuple(map(int, str(self)))

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")


_new_object = object.__new__
_set_value = BitGenome.value.__set__
_set_length = BitGenome.length.__set__


# a Mersenne Twister output's top byte -> its gene as an ASCII digit; outputs
# with the top bit set give no gene and are deleted
_GENE_DIGITS = bytes.maketrans(bytes(range(0x80)), b"0" * 0x40 + b"1" * 0x40)
_NO_GENE = bytes(range(0x80, 0x100))


def random_genome(length: int, rng: RandomSource) -> BitGenome:
    """Genome of ``length`` bits, each independently 0 or 1 with p = 0.5, gene 0 first.

    Draws exactly as one ``rng.randrange(2)`` per gene. A subclass that
    overrides ``randrange`` sees each of those calls; a plain source reads the
    same Mersenne Twister outputs in bulk.
    """
    if type(rng).randrange is not RandomSource.randrange or not (
        type(length) is int and length >= 1
    ):
        randrange = rng.randrange
        value = 0
        for _ in range(length):
            value = value << 1 | randrange(2)
        return BitGenome(value, length)
    # randrange(2) takes one 32-bit output w and redraws while w >> 30 >= 2, so
    # w gives the gene w >> 30 & 1 when its top bit is 0. getrandbits(32 * m)
    # holds the next m outputs, the first in the lowest 32 bits (CPython, on
    # either byte order). Each output gives at most one gene, so drawing
    # m = genes still needed never overdraws.
    getrandbits, chunks, need = rng._getrandbits, [], length
    while need:
        words = getrandbits(32 * need).to_bytes(4 * need, "little")
        chunk = words[3::4].translate(_GENE_DIGITS, _NO_GENE)
        chunks.append(chunk)
        need -= len(chunk)
    # in range by construction, so the slots are set without the constructor's check
    genome = _new_object(BitGenome)
    _set_value(genome, int(b"".join(chunks), 2))
    _set_length(genome, length)
    return genome


def decode(genome: BitGenome, gene_bits: int, low: float, high: float) -> list[float]:
    """Map consecutive ``gene_bits``-wide chunks onto reals in [low, high].

    Each chunk is read as an unsigned big-endian integer u and scaled as
    low + u / (2**gene_bits - 1) * (high - low), so the all-zeros chunk
    decodes to exactly ``low`` and the all-ones chunk to exactly ``high``.
    """
    if not (type(gene_bits) is int and gene_bits >= 1):
        raise ValueError(f"gene_bits must be positive and an int, got {gene_bits!r}")
    if genome.length % gene_bits != 0:
        raise ValueError(
            f"gene_bits {gene_bits} does not divide genome length {genome.length}"
        )
    if not low < high:
        raise ValueError(f"need low < high, got [{low}, {high}]")
    denom = (1 << gene_bits) - 1
    values = []
    for shift in range(genome.length - gene_bits, -1, -gene_bits):
        u = genome.value >> shift & denom
        if u == 0:
            values.append(low)
        elif u == denom:
            values.append(high)
        else:
            # clamp guards against the last representable step rounding past high
            values.append(min(high, low + (u / denom) * (high - low)))
    return values


def bitflip(genome: BitGenome, flip_count: int, rng: RandomSource) -> BitGenome:
    """New genome with exactly ``flip_count`` distinct, uniformly chosen bits inverted."""
    length = genome.length
    if not (type(flip_count) is int and 1 <= flip_count <= length):
        raise ValueError(f"flip_count must be an int in [1, {length}], got {flip_count!r}")
    # as rng.sample(range(length), flip_count); a plain source skips the call
    if type(rng) is RandomSource and length > 21 and flip_count <= 5:
        mask = _flip_mask(rng._getrandbits, length, flip_count)
    else:
        mask = 0
        for i in rng.sample(range(length), flip_count):
            mask |= 1 << (length - 1 - i)
    child = _new_object(BitGenome)
    _set_value(child, genome.value ^ mask)
    _set_length(child, length)
    return child


def _flip_mask(getrandbits, n: int, k: int) -> int:
    """Mask of k distinct loci in [0, n), locus i at bit n - 1 - i, drawn as the
    stdlib ``sample``'s set path draws its indices; the mask itself tells a repeat."""
    bits, top, mask = n.bit_length(), n - 1, 0
    while k:
        j = getrandbits(bits)
        if j < n and not mask >> top - j & 1:
            mask |= 1 << top - j
            k -= 1
    return mask


def n_point_crossover(
    a: BitGenome, b: BitGenome, points: int, rng: RandomSource
) -> BitGenome:
    """One offspring built by alternating segments of ``a`` and ``b``.

    ``points`` distinct cut positions are drawn uniformly from {1..length-1};
    segments between cuts alternate parents, starting with ``a``.
    """
    length = a.length
    if length != b.length:
        raise ValueError(f"parent lengths differ: {length} vs {b.length}")
    if not (type(points) is int and 1 <= points < length):
        raise ValueError(
            f"points must be an int in [1, {length - 1}] for {length}-bit parents, got {points!r}"
        )
    # each cut switches parents for every gene from it to the end, so b's genes
    # are the XOR of one suffix mask per cut
    if type(rng) is RandomSource and length > 22 and points <= 5:
        from_b = _cut_mask(rng._getrandbits, length - 1, points)
    else:
        from_b = 0
        for cut in rng.sample(range(1, length), points):
            from_b ^= (1 << (length - cut)) - 1
    child = _new_object(BitGenome)
    _set_value(child, a.value ^ (a.value ^ b.value) & from_b)
    _set_length(child, length)
    return child


def _cut_mask(getrandbits, n: int, k: int) -> int:
    """XOR of the suffix masks of k distinct cuts in [1, n], drawn as
    :func:`_flip_mask` draws its loci (index j is cut j + 1), as
    ``sample(range(1, n + 1), k)`` would pick them."""
    bits, picked, mask = n.bit_length(), [], 0
    while k:
        j = getrandbits(bits)
        if j < n and j not in picked:
            picked.append(j)
            mask ^= (1 << n - j) - 1
            k -= 1
    return mask


def hamming(a: BitGenome, b: BitGenome) -> int:
    """Number of positions where the two genomes differ."""
    if a.length != b.length:
        raise ValueError(f"genome lengths differ: {a.length} vs {b.length}")
    return (a.value ^ b.value).bit_count()


def onemax(genome: BitGenome) -> int:
    """Number of 1-bits."""
    return genome.value.bit_count()


def royal_road(genome: BitGenome, block_size: int = 4) -> int:
    """Number of disjoint consecutive all-ones blocks of ``block_size`` bits.

    Shift-ANDs that double the checked span leave bit ``i`` set exactly when
    bits ``i .. i + block_size - 1`` are all ones; one ``bit_count()`` of the
    bits at block starts then counts the full blocks. That is about
    ``log2(block_size)`` passes over the genome, plus a block-start mask
    built by doubling in time linear in the length.
    """
    if not (type(block_size) is int and block_size >= 1):
        raise ValueError(f"block_size must be positive and an int, got {block_size!r}")
    length = genome.length
    if length % block_size != 0:
        raise ValueError(f"block_size {block_size} does not divide genome length {length}")
    value, span = genome.value, 1
    while span + span <= block_size:
        value &= value >> span
        span += span
    if span < block_size:
        value &= value >> block_size - span
    # one bit per block start; bits past ``length`` meet only zeros of
    # ``value``. Dividing the all-ones int by a block of ones gives the same
    # bits, but takes time quadratic in the length for long blocks.
    starts, span = 1, block_size
    while span < length:
        starts |= starts << span
        span += span
    return (value & starts).bit_count()


class BitFlip:
    """Mutation operator: invert ``flip_count`` distinct bits of one parent.

    Slotted: the generation steps call :func:`bitflip` directly for this exact
    class, so an instance's ``apply`` or ``arity`` cannot be replaced (the
    assignment raises AttributeError); a subclass's ``apply`` is called.
    """

    __slots__ = ("flip_count", "rate")
    arity = 1

    def __init__(self, flip_count: int = 1, rate: float = 1.0) -> None:
        _check_count("flip_count", flip_count)
        _check_rate(rate)
        self.flip_count = flip_count
        self.rate = rate

    def apply(self, parents: Sequence[BitGenome], rng: RandomSource) -> BitGenome:
        return bitflip(parents[0], self.flip_count, rng)


class NPointCrossover:
    """Recombination operator: n-point crossover of two parents.

    Slotted, as :class:`BitFlip` is: the steps call :func:`n_point_crossover`
    directly for this exact class.
    """

    __slots__ = ("points", "rate")
    arity = 2

    def __init__(self, points: int = 2, rate: float = 1.0) -> None:
        _check_count("points", points)
        _check_rate(rate)
        self.points = points
        self.rate = rate

    def apply(self, parents: Sequence[BitGenome], rng: RandomSource) -> BitGenome:
        return n_point_crossover(parents[0], parents[1], self.points, rng)


OperatorSpec = Union[BitFlip, NPointCrossover]


def _check_count(name: str, value: int, minimum: int = 1) -> None:
    """Reject a size that is not an int of at least ``minimum``.

    A float such as 2.5, 8.0 or NaN can pass a plain comparison, then fail far
    from here in list or bit arithmetic (or, as a generation limit, never be
    reached); a bool is refused too.
    """
    if not (type(value) is int and value >= minimum):
        bound = "positive" if minimum == 1 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound} and an int, got {value!r}")


def _is_real(value: object) -> bool:
    """Whether ``value`` is a ``numbers.Real``, a bool included."""
    # an int or float first: numbers loads only for another type, and an
    # isinstance check against its ABC is far slower
    if isinstance(value, (int, float)):
        return True
    from numbers import Real

    return isinstance(value, Real)


def _is_real_not_bool(value: object) -> bool:
    """Whether ``value`` is a real number and not a bool; ``"x"``, None, ``1j``
    and a Decimal are not."""
    # a float or int without a call: the operator wheel checks each rate every step
    kind = type(value)
    return kind is float or kind is int or (kind is not bool and _is_real(value))


def _positive_finite(value: object, scale: int = 1) -> bool:
    """Whether ``value`` is a real number, not a bool, with ``scale * value``
    positive and within the float range.

    The comparisons are exact for ints, so an int past the float range fails
    them (``math.inf`` would not), and NaN fails them too.
    """
    return _is_real_not_bool(value) and 0 < scale * value <= _MAX_FLOAT


def _check_rate(rate: float) -> None:
    """Reject a rate that is a bool, not a real number, not positive or not
    within the float range.

    An int such as ``10**400`` passes ``rate < math.inf`` but overflows the
    float sum of the rates, so the bound is the largest float.
    """
    if not _positive_finite(rate):
        raise ValueError(f"operator rate must be positive and finite as a float, got {rate!r}")


def _rate_wheel(ops: Sequence[OperatorSpec]) -> list[float]:
    """Running sums of the rates of one or more operators, each positive,
    to a finite total (the last sum)."""
    if not ops:
        raise ValueError("at least one variation operator is required")
    wheel = []
    total = 0.0
    for op in ops:
        _check_rate(op.rate)  # again here: a rate may be changed between steps
        total += op.rate
        wheel.append(total)
    # a total that overflows to inf would send every draw to the last operator
    if not math.isfinite(total):
        raise ValueError(f"operator rates must sum to a finite total, got {total}")
    return wheel


def choose_operator(ops: Sequence[OperatorSpec], rng: RandomSource) -> int:
    """Index of one operator, drawn with probability rate_i / sum(rates).

    Rates are normalized at call time, so they may be changed between calls.
    The generation steps build the same running sums once per step instead,
    and bisect them the same way with the same single draw.
    """
    wheel = _rate_wheel(ops)  # rates checked before the draw
    return min(bisect_right(wheel, wheel[-1] * rng.random()), len(ops) - 1)
