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
from itertools import compress
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .core import BitGenome, RandomSource, _positive_finite, decode, onemax, royal_road
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


class Rectangle:
    """Axis-aligned rectangle with closed boundaries.

    Frozen and slotted, with the equality, hash, repr and match arguments of
    a frozen dataclass, written out as ``BitGenome`` is. Corners are stored
    as given.
    """

    __slots__ = ("id", "x0", "y0", "x1", "y1")
    __match_args__ = ("id", "x0", "y0", "x1", "y1")
    id: str
    x0: float
    y0: float
    x1: float
    y1: float

    def __init__(self, id: str, x0: float, y0: float, x1: float, y1: float) -> None:
        # one chained test: false for NaN and infinite corners as well
        if not (-math.inf < x0 <= x1 < math.inf and -math.inf < y0 <= y1 < math.inf):
            raise ValueError(
                f"rectangle {id!r} needs finite, ordered corners, got "
                f"({x0}, {y0})-({x1}, {y1})"
            )
        _set_id(self, id)
        _set_x0(self, x0)
        _set_y0(self, y0)
        _set_x1(self, x1)
        _set_y1(self, y1)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.id, self.x0, self.y0, self.x1, self.y1) == (
                other.id, other.x0, other.y0, other.x1, other.y1
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id, self.x0, self.y0, self.x1, self.y1))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(id={self.id!r}, x0={self.x0!r}, "
            f"y0={self.y0!r}, x1={self.x1!r}, y1={self.y1!r})"
        )

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle rebuild through the checked constructor
        return type(self), (self.id, self.x0, self.y0, self.x1, self.y1)

    def contains(self, x: float, y: float) -> bool:
        """True when (x, y) lies inside or on the boundary."""
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


_set_id = Rectangle.id.__set__
_set_x0 = Rectangle.x0.__set__
_set_y0 = Rectangle.y0.__set__
_set_x1 = Rectangle.x1.__set__
_set_y1 = Rectangle.y1.__set__
_ID, _X0, _Y0, _X1, _Y1 = map(attrgetter, Rectangle.__slots__)


class _AxisIndex:
    """Both edges of each rectangle on one axis; ``holding(v)`` masks the rectangles holding v."""

    __slots__ = ("keys", "_bits", "_checkpoints")

    def __init__(self, edges: list[float], bits: list[int]) -> None:
        # edges holds every lower edge, then every upper one: edge i bounds
        # rectangle i mod n, whose bit is bits[i mod n]
        n = len(bits)
        # stable: a lower edge stays ahead of an equal upper one
        order = sorted(range(2 * n), key=edges.__getitem__)
        self.keys = [(edges[i], i >= n) for i in order]
        self._bits = ordered = list(map((bits * 2).__getitem__, order))
        # the XOR of the first k edges' bits at every 16th k, one slice at a time
        self._checkpoints = checkpoints = [0]
        mask = 0
        for end in range(_CHECKPOINT, 2 * n + 1, _CHECKPOINT):
            for bit in ordered[end - _CHECKPOINT : end]:
                mask ^= 1 << bit
            checkpoints.append(mask)

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
        if not _positive_finite(arena_side):
            raise ValueError(f"arena_side must be positive and finite, got {arena_side!r}")
        if len(rectangles) > MAX_RECTANGLES:
            raise ValueError(
                f"an arena holds at most {MAX_RECTANGLES} rectangles, got {len(rectangles)}"
            )
        ids = list(map(_ID, rectangles))
        if len(set(ids)) != len(ids):
            raise ValueError("rectangle ids must be unique")
        self.rectangles: tuple[Rectangle, ...] = tuple(rectangles)
        self.arena_side = float(arena_side)
        self._ids = ids
        self._binary = f"0{len(ids)}b"
        # one int object per rectangle, shared by both indexes
        bits = list(range(len(ids) - 1, -1, -1))
        self._x = _AxisIndex([*map(_X0, rectangles), *map(_X1, rectangles)], bits)
        self._y = _AxisIndex([*map(_Y0, rectangles), *map(_Y1, rectangles)], bits)

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
        if not _positive_finite(arena_side, 2):
            raise ValueError(
                f"arena_side must be positive and finite when doubled, got {arena_side!r}"
            )
        if not (type(bits) is int and bits >= 2 and bits % 2 == 0):
            raise ValueError(f"bits must be an even int of at least 2, got {bits!r}")
        self.num_rects = num_rects
        self.arena_side = arena_side
        self.bits = bits


def _nonzero(random) -> float:
    """The next of ``random()``'s draws that is not 0.0."""
    u = random()
    while u == 0.0:
        u = random()
    return u


def generate_random_arena(cfg: DotProblemConfig, rng: RandomSource) -> RectangleArena:
    """Arena of ``num_rects + 1`` random rectangles named rectangle_0..N.

    Lower-left corners are uniform in [0, arena_side)^2; widths and heights
    are uniform in (0, arena_side), so rectangles overlap and vary in size.
    """
    # as in engine._make_offspring: a plain RandomSource's random() is the
    # generator's own; any other source is called as it is, once per draw
    random = rng._random if type(rng) is RandomSource else rng.random
    side = cfg.arena_side
    # RandomSource.uniform(0.0, side) is 0.0 + span * random()
    span = side - 0.0
    rectangles = []
    for i in range(cfg.num_rects + 1):
        x0 = 0.0 + span * random()
        y0 = 0.0 + span * random()
        # a draw of 0.0 would give an empty side: it is drawn again
        width = (random() or _nonzero(random)) * side
        height = (random() or _nonzero(random)) * side
        rectangles.append(Rectangle(f"rectangle_{i}", x0, y0, x0 + width, y0 + height))
    return RectangleArena(rectangles, side)


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
