"""Bitstring genomes, variation operators, and seeded randomness.

Everything here is a pure function of its arguments plus an explicit
:class:`RandomSource`, so identical seeds reproduce identical results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

__all__ = [
    "BitFlip",
    "BitGenome",
    "NPointCrossover",
    "OperatorSpec",
    "RandomSource",
    "bitflip",
    "choose_operator",
    "decode",
    "hamming",
    "n_point_crossover",
    "random_genome",
]

_SEED_LIMIT = 2**64


class RandomSource:
    """Deterministic stream of pseudo-random draws owned by a single run.

    Two sources built from the same seed produce identical streams. A source
    must not be shared between concurrently running owners.
    """

    def __init__(self, seed: int) -> None:
        if not 0 <= seed < _SEED_LIMIT:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self._rng = random.Random(seed)

    def random(self) -> float:
        """Uniform real in [0, 1)."""
        return self._rng.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform real in [low, high)."""
        return low + (high - low) * self._rng.random()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self._rng.randrange(n)

    def sample(self, population: Sequence[int], k: int) -> list[int]:
        """k distinct elements drawn uniformly from ``population``."""
        return self._rng.sample(population, k)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


@dataclass(frozen=True)
class BitGenome:
    """Fixed-length vector of 0/1 genes."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("genome must hold at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("genome bits must all be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "BitGenome":
        """Build a genome from a string like ``\"1010\"``."""
        return cls(tuple(int(ch) for ch in text))

    @property
    def length(self) -> int:
        return len(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def random_genome(length: int, rng: RandomSource) -> BitGenome:
    """Genome of ``length`` bits, each independently 0 or 1 with p = 0.5."""
    if length < 1:
        raise ValueError(f"genome length must be positive, got {length}")
    return BitGenome(tuple(rng.randrange(2) for _ in range(length)))


def decode(genome: BitGenome, gene_bits: int, low: float, high: float) -> list[float]:
    """Map consecutive ``gene_bits``-wide chunks onto reals in [low, high].

    Each chunk is read as an unsigned big-endian integer u and scaled as
    low + u / (2**gene_bits - 1) * (high - low), so the all-zeros chunk
    decodes to exactly ``low`` and the all-ones chunk to exactly ``high``.
    """
    if gene_bits < 1:
        raise ValueError(f"gene_bits must be positive, got {gene_bits}")
    if genome.length % gene_bits != 0:
        raise ValueError(
            f"gene_bits {gene_bits} does not divide genome length {genome.length}"
        )
    if not low < high:
        raise ValueError(f"need low < high, got [{low}, {high}]")
    denom = (1 << gene_bits) - 1
    values = []
    for start in range(0, genome.length, gene_bits):
        u = 0
        for bit in genome.bits[start : start + gene_bits]:
            u = (u << 1) | bit
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
    if not 1 <= flip_count <= genome.length:
        raise ValueError(
            f"flip_count must be in [1, {genome.length}], got {flip_count}"
        )
    positions = set(rng.sample(range(genome.length), flip_count))
    return BitGenome(
        tuple(bit ^ 1 if i in positions else bit for i, bit in enumerate(genome.bits))
    )


def n_point_crossover(
    a: BitGenome, b: BitGenome, points: int, rng: RandomSource
) -> BitGenome:
    """One offspring built by alternating segments of ``a`` and ``b``.

    ``points`` distinct cut positions are drawn uniformly from {1..length-1};
    segments between cuts alternate parents, starting with ``a``.
    """
    if a.length != b.length:
        raise ValueError(f"parent lengths differ: {a.length} vs {b.length}")
    if not 1 <= points < a.length:
        raise ValueError(
            f"points must be in [1, {a.length - 1}] for {a.length}-bit parents, got {points}"
        )
    cuts = sorted(rng.sample(range(1, a.length), points))
    bits: list[int] = []
    take_a = True
    prev = 0
    for cut in cuts + [a.length]:
        source = a if take_a else b
        bits.extend(source.bits[prev:cut])
        take_a = not take_a
        prev = cut
    return BitGenome(tuple(bits))


def hamming(a: BitGenome, b: BitGenome) -> int:
    """Number of positions where the two genomes differ."""
    if a.length != b.length:
        raise ValueError(f"genome lengths differ: {a.length} vs {b.length}")
    return sum(x != y for x, y in zip(a.bits, b.bits))


@dataclass
class BitFlip:
    """Mutation operator: invert ``flip_count`` distinct bits of one parent."""

    flip_count: int = 1
    rate: float = 1.0

    arity: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.flip_count < 1:
            raise ValueError(f"flip_count must be positive, got {self.flip_count}")
        if not 0 < self.rate < math.inf:
            raise ValueError(f"operator rate must be positive and finite, got {self.rate}")

    def apply(self, parents: Sequence[BitGenome], rng: RandomSource) -> BitGenome:
        return bitflip(parents[0], self.flip_count, rng)


@dataclass
class NPointCrossover:
    """Recombination operator: n-point crossover of two parents."""

    points: int = 2
    rate: float = 1.0

    arity: ClassVar[int] = 2

    def __post_init__(self) -> None:
        if self.points < 1:
            raise ValueError(f"points must be positive, got {self.points}")
        if not 0 < self.rate < math.inf:
            raise ValueError(f"operator rate must be positive and finite, got {self.rate}")

    def apply(self, parents: Sequence[BitGenome], rng: RandomSource) -> BitGenome:
        return n_point_crossover(parents[0], parents[1], self.points, rng)


OperatorSpec = Union[BitFlip, NPointCrossover]


def choose_operator(ops: Sequence[OperatorSpec], rng: RandomSource) -> int:
    """Index of one operator, drawn with probability rate_i / sum(rates).

    Rates are normalized at call time, so they may be changed between calls.
    """
    if not ops:
        raise ValueError("operator list must not be empty")
    rates = []
    for op in ops:
        if op.rate <= 0:
            raise ValueError(f"operator rate must be positive, got {op.rate}")
        rates.append(op.rate)
    total = sum(rates)
    # an infinite or NaN total would send every draw to the last operator
    if not math.isfinite(total):
        raise ValueError(f"operator rates must sum to a finite total, got {total}")
    u = rng.random() * total
    acc = 0.0
    for i, rate in enumerate(rates):
        acc += rate
        if u < acc:
            return i
    return len(rates) - 1
