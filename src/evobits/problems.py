"""Bundled fitness problems: dot-in-rectangles, OneMax, and Royal Road.

OneMax and Royal Road are whole-genome bit counts defined in
:mod:`evobits.core`, so that a run of either never loads this module; they
are re-exported here.

The rectangle arena answers point-stabbing queries two ways: a bitset index
built once per arena, used by the fitness function, and a brute-force path
through ``Rectangle.contains`` kept as an independent oracle. Both must return
the same ids in the same order for every point.

The index gives rectangle i of n the bit ``n - 1 - i``. On each axis it sorts
both edges of every rectangle into one list, a lower edge ahead of an equal
upper one, and stores the XOR of the first k edges' bits at every 16th k. A
rectangle's bit flips on at its lower edge and off at its upper one, so the
XOR up to v is the set of rectangles whose closed extent holds v: one stored
mask plus at most 15 bits. A dot (x, y) lies in the rectangles held on both
axes. Spelling the mask in binary lists the hits in insertion order.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Sequence

from .core import BitGenome, RandomSource, decode, onemax, royal_road
from .engine import FitnessFunction

__all__ = [
    "MAX_RECTANGLES",
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


# the index stores about n*n/32 bytes of masks: 8 MB at this many rectangles
MAX_RECTANGLES = 2**14

# edges between two stored prefix masks; a query XORs in at most this many minus one
_CHECKPOINT = 16

# binary digits to the 0/1 bytes ``itertools.compress`` selects with
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


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


class _AxisIndex:
    """Both edges of each rectangle on one axis; ``holding(v)`` masks the rectangles holding v."""

    __slots__ = ("keys", "_bits", "_checkpoints")

    def __init__(self, lows: Sequence[float], highs: Sequence[float], bits: Sequence[int]) -> None:
        edges, n = [*lows, *highs], len(lows)
        # stable: a lower edge stays ahead of an equal upper one
        order = sorted(range(2 * n), key=edges.__getitem__)
        self.keys = [(edges[i], i >= n) for i in order]
        # edge i bounds rectangle i mod n
        self._bits = [bits[i % n] for i in order]
        self._checkpoints = [0]
        mask = 0
        for k, bit in enumerate(self._bits, 1):
            mask ^= 1 << bit
            if k % _CHECKPOINT == 0:
                self._checkpoints.append(mask)

    def holding(self, v: float) -> int:
        # (v, True) sorts above lower edges <= v and upper edges < v, and (nan, True) above none
        k = bisect_left(self.keys, (v, True))
        mask = self._checkpoints[k // _CHECKPOINT]
        for bit in self._bits[k - k % _CHECKPOINT : k]:
            mask ^= 1 << bit
        return mask


class RectangleArena:
    """Immutable collection of rectangles supporting point-stabbing queries."""

    def __init__(self, rectangles: Sequence[Rectangle], arena_side: float) -> None:
        if not 0 < arena_side < math.inf:
            raise ValueError(f"arena_side must be positive and finite, got {arena_side}")
        if len(rectangles) > MAX_RECTANGLES:
            raise ValueError(
                f"an arena holds at most {MAX_RECTANGLES} rectangles, got {len(rectangles)}"
            )
        ids = [r.id for r in rectangles]
        if len(set(ids)) != len(ids):
            raise ValueError("rectangle ids must be unique")
        self.rectangles: tuple[Rectangle, ...] = tuple(rectangles)
        self.arena_side = float(arena_side)
        self._ids = ids
        self._binary = f"0{len(ids)}b"
        # one int object per rectangle, shared by both indexes
        bits = list(range(len(ids) - 1, -1, -1))
        self._x = _AxisIndex([r.x0 for r in rectangles], [r.x1 for r in rectangles], bits)
        self._y = _AxisIndex([r.y0 for r in rectangles], [r.y1 for r in rectangles], bits)

    def __len__(self) -> int:
        return len(self.rectangles)

    def rectangles_containing_dot(self, x: float, y: float) -> list[str]:
        """Ids of all rectangles containing (x, y), in insertion order."""
        hits = format(self._x.holding(x) & self._y.holding(y), self._binary)
        return list(compress(self._ids, hits.encode().translate(_DIGITS)))

    def rectangles_containing_dot_brute(self, x: float, y: float) -> list[str]:
        """Brute-force oracle scanning every rectangle; same contract as above."""
        return [r.id for r in self.rectangles if r.contains(x, y)]

    def to_lines(self) -> list[str]:
        """One ``id x0 y0 x1 y1`` line per rectangle."""
        return [f"{r.id} {r.x0!r} {r.y0!r} {r.x1!r} {r.y1!r}" for r in self.rectangles]

    @classmethod
    def from_lines(cls, lines: Iterable[str], arena_side: float) -> "RectangleArena":
        """Arena of one ``id x0 y0 x1 y1`` line per rectangle, blank lines skipped;
        reading stops at the first line past ``MAX_RECTANGLES``."""
        rectangles = []
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line:
                continue
            if len(rectangles) == MAX_RECTANGLES:
                raise ValueError(
                    f"line {lineno}: an arena holds at most {MAX_RECTANGLES} rectangles"
                )
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
    """Write ``arena`` to ``path`` whole or not at all: through a sibling
    temporary file that replaces ``path`` once it is complete.

    A failure raises an OSError that names ``path``, not the temporary file.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x") as out:
            out.writelines(line + "\n" for line in arena.to_lines())
        os.replace(tmp, target)
    except OSError as exc:
        if exc.filename is None:
            raise
        # the same error subclass, from the errno
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)


def load_arena(path: str | Path, arena_side: float) -> RectangleArena:
    try:
        with open(path) as lines:
            return RectangleArena.from_lines(lines, arena_side)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class DotProblemConfig:
    """Parameters of the dot-in-rectangles problem.

    A genome of ``bits`` bits decodes to an (x, y) point, each coordinate
    spanning ``bits / 2`` bits over [0, arena_side].
    """

    def __init__(self, num_rects: int = 25, arena_side: float = 10.0, bits: int = 32) -> None:
        # a generated arena holds num_rects + 1 rectangles
        if not (type(num_rects) is int and 1 <= num_rects < MAX_RECTANGLES):
            raise ValueError(
                f"num_rects must be an int in [1, {MAX_RECTANGLES - 1}], got {num_rects!r}"
            )
        # generated rectangles reach up to twice the side, which must stay finite
        if not 0 < 2 * arena_side < math.inf:
            raise ValueError(
                f"arena_side must be positive and finite when doubled, got {arena_side}"
            )
        if not (type(bits) is int and bits >= 2 and bits % 2 == 0):
            raise ValueError(f"bits must be an even int of at least 2, got {bits!r}")
        self.num_rects = num_rects
        self.arena_side = arena_side
        self.bits = bits


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
