"""Bundled fitness problems: dot-in-rectangles, OneMax, and Royal Road.

The rectangle arena answers point-stabbing queries two ways: an indexed path
used by the fitness function and a brute-force path kept as an independent
oracle. Both must return the same id sets for every point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .core import BitGenome, RandomSource, decode
from .engine import FitnessFunction

__all__ = [
    "DotProblemConfig",
    "Rectangle",
    "RectangleArena",
    "dot_fitness",
    "generate_random_arena",
    "grid_oracle",
    "load_arena",
    "onemax",
    "royal_road",
    "save_arena",
]


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle with closed boundaries."""

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


class RectangleArena:
    """Immutable collection of rectangles supporting point-stabbing queries."""

    def __init__(self, rectangles: Sequence[Rectangle], arena_side: float) -> None:
        if not 0 < arena_side < math.inf:
            raise ValueError(f"arena_side must be positive and finite, got {arena_side}")
        ids = [r.id for r in rectangles]
        if len(set(ids)) != len(ids):
            raise ValueError("rectangle ids must be unique")
        self.rectangles: tuple[Rectangle, ...] = tuple(rectangles)
        self.arena_side = float(arena_side)
        # index: insertion positions ordered by x0, so a query can skip every
        # rectangle whose x-interval starts to the right of the point
        self._order = sorted(range(len(self.rectangles)), key=lambda i: self.rectangles[i].x0)
        self._x0s = [self.rectangles[i].x0 for i in self._order]

    def __len__(self) -> int:
        return len(self.rectangles)

    def rectangles_containing_dot(self, x: float, y: float) -> list[str]:
        """Ids of all rectangles containing (x, y), in insertion order."""
        upto = bisect_right(self._x0s, x)
        hits = [i for i in self._order[:upto] if self.rectangles[i].contains(x, y)]
        hits.sort()
        return [self.rectangles[i].id for i in hits]

    def rectangles_containing_dot_brute(self, x: float, y: float) -> list[str]:
        """Brute-force oracle scanning every rectangle; same contract as above."""
        return [r.id for r in self.rectangles if r.contains(x, y)]

    def to_lines(self) -> list[str]:
        """One ``id x0 y0 x1 y1`` line per rectangle."""
        return [f"{r.id} {r.x0!r} {r.y0!r} {r.x1!r} {r.y1!r}" for r in self.rectangles]

    @classmethod
    def from_lines(cls, lines: Iterable[str], arena_side: float) -> "RectangleArena":
        rectangles = []
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise ValueError(
                    f"line {lineno}: expected 'id x0 y0 x1 y1', got {line!r}"
                )
            try:
                rectangles.append(Rectangle(parts[0], *map(float, parts[1:])))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return cls(rectangles, arena_side)


def save_arena(arena: RectangleArena, path: str | Path) -> None:
    Path(path).write_text("".join(line + "\n" for line in arena.to_lines()))


def load_arena(path: str | Path, arena_side: float) -> RectangleArena:
    try:
        return RectangleArena.from_lines(Path(path).read_text().splitlines(), arena_side)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class DotProblemConfig:
    """Parameters of the dot-in-rectangles problem.

    A genome of ``bits`` bits decodes to an (x, y) point, each coordinate
    spanning ``bits / 2`` bits over [0, arena_side].
    """

    num_rects: int = 25
    arena_side: float = 10.0
    bits: int = 32

    def __post_init__(self) -> None:
        if self.num_rects < 1:
            raise ValueError(f"num_rects must be positive, got {self.num_rects}")
        # generated rectangles reach up to twice the side, which must stay finite
        if not 0 < 2 * self.arena_side < math.inf:
            raise ValueError(
                f"arena_side must be positive and finite when doubled, got {self.arena_side}"
            )
        if self.bits < 2 or self.bits % 2 != 0:
            raise ValueError(f"bits must be even and at least 2, got {self.bits}")


def _positive_side(rng: RandomSource, limit: float) -> float:
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u * limit


def generate_random_arena(cfg: DotProblemConfig, rng: RandomSource) -> RectangleArena:
    """Arena of ``num_rects + 1`` random rectangles named rectangle_0..N.

    Lower-left corners are uniform in [0, arena_side)^2; widths and heights
    are uniform in (0, arena_side), so rectangles overlap and vary in size.
    """
    rectangles = []
    for i in range(cfg.num_rects + 1):
        x0 = rng.uniform(0.0, cfg.arena_side)
        y0 = rng.uniform(0.0, cfg.arena_side)
        width = _positive_side(rng, cfg.arena_side)
        height = _positive_side(rng, cfg.arena_side)
        rectangles.append(Rectangle(f"rectangle_{i}", x0, y0, x0 + width, y0 + height))
    return RectangleArena(rectangles, cfg.arena_side)


def dot_fitness(cfg: DotProblemConfig, arena: RectangleArena) -> FitnessFunction:
    """Fitness function counting the rectangles containing the decoded dot."""
    gene_bits = cfg.bits // 2

    def fitness(genome: BitGenome) -> float:
        if genome.length != cfg.bits:
            raise ValueError(
                f"expected a {cfg.bits}-bit genome, got {genome.length} bits"
            )
        x, y = decode(genome, gene_bits, 0.0, arena.arena_side)
        return float(len(arena.rectangles_containing_dot(x, y)))

    return fitness


def onemax(genome: BitGenome) -> int:
    """Number of 1-bits."""
    return sum(genome.bits)


def royal_road(genome: BitGenome, block_size: int = 4) -> int:
    """Number of disjoint consecutive all-ones blocks of ``block_size`` bits."""
    if block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    if genome.length % block_size != 0:
        raise ValueError(
            f"block_size {block_size} does not divide genome length {genome.length}"
        )
    return sum(
        all(genome.bits[start : start + block_size])
        for start in range(0, genome.length, block_size)
    )


def grid_oracle(
    arena: RectangleArena, resolution: int
) -> tuple[int, tuple[float, float]]:
    """Best containment count over a uniform grid, found by brute force.

    Scans all ``resolution**2`` points of the inclusive grid over
    [0, arena_side]^2 with the brute-force query and returns the maximum
    count with one argmax point (lowest grid index wins ties).
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    step = arena.arena_side / (resolution - 1)
    best = -1
    best_point = (0.0, 0.0)
    for ix in range(resolution):
        x = ix * step
        for iy in range(resolution):
            y = iy * step
            count = len(arena.rectangles_containing_dot_brute(x, y))
            if count > best:
                best = count
                best_point = (x, y)
    return best, best_point
