"""Tests for the rectangle arena, bundled fitness functions, and the grid oracle."""

import hashlib
import math
import os
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evobits.core import BitGenome, RandomSource, random_genome
from evobits.problems import (
    MAX_RECTANGLES,
    DotProblemConfig,
    Rectangle,
    RectangleArena,
    dot_fitness,
    generate_random_arena,
    grid_oracle,
    load_arena,
    onemax,
    royal_road,
    save_arena,
)

genomes = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
).map(lambda bits: BitGenome.from_bits(tuple(bits)))


def random_arena(num_rects, seed, side=10.0):
    rng = RandomSource(seed)
    rects = []
    for i in range(num_rects):
        x0 = rng.uniform(0, side)
        y0 = rng.uniform(0, side)
        rects.append(
            Rectangle(f"r{i}", x0, y0, x0 + rng.uniform(0, side), y0 + rng.uniform(0, side))
        )
    return RectangleArena(rects, side)


class TestRectangle:
    def test_interior_point_contained(self):
        assert Rectangle("a", 0, 0, 10, 10).contains(5, 5)

    def test_boundary_is_closed(self):
        r = Rectangle("a", 0, 0, 10, 10)
        assert r.contains(10, 10)
        assert r.contains(0, 0)
        assert r.contains(0, 5)

    def test_outside_point(self):
        assert not Rectangle("a", 0, 0, 10, 10).contains(10.0001, 5)

    def test_inverted_corners_rejected(self):
        with pytest.raises(ValueError):
            Rectangle("a", 5, 0, 4, 10)

    @pytest.mark.parametrize(
        "corners",
        [
            (math.nan, 0, 5, 5),
            (0, math.nan, 5, 5),
            (0, 0, math.nan, 5),
            (0, 0, 5, math.nan),
            (1, 1, math.inf, 2),
            (-math.inf, 0, 5, 5),
            (0, -math.inf, 5, math.inf),
        ],
    )
    def test_non_finite_corner_rejected(self, corners):
        with pytest.raises(ValueError, match="finite"):
            Rectangle("a", *corners)


class TestRectangleArena:
    def test_duplicate_ids_rejected(self):
        rects = [Rectangle("a", 0, 0, 1, 1), Rectangle("a", 2, 2, 3, 3)]
        with pytest.raises(ValueError):
            RectangleArena(rects, 10.0)

    def test_query_returns_insertion_order(self):
        rects = [
            Rectangle("second", 0, 0, 10, 10),
            Rectangle("first", 1, 1, 9, 9),
            Rectangle("miss", 20, 20, 30, 30),
        ]
        arena = RectangleArena(rects, 10.0)
        assert arena.rectangles_containing_dot(5, 5) == ["second", "first"]

    def test_indexed_matches_brute_force(self):
        arena = random_arena(500, seed=77)
        rng = RandomSource(78)
        points = [(rng.uniform(-1, 21), rng.uniform(-1, 21)) for _ in range(1000)]
        # exact corners sit on closed boundaries, where < and <= disagree
        for r in arena.rectangles:
            points += [(r.x0, r.y0), (r.x1, r.y0), (r.x0, r.y1), (r.x1, r.y1)]
        side = arena.arena_side
        points += [(0.0, 0.0), (side, 0.0), (0.0, side), (side, side)]
        for x, y in points:
            assert arena.rectangles_containing_dot(x, y) == (
                arena.rectangles_containing_dot_brute(x, y)
            )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_index_matches_brute_force_everywhere(self, data):
        # few distinct coordinates: edges are shared, rectangles repeat, and
        # some have zero width or height; ints past 2**53 compare exactly with
        # the float next to them, which a nudged float edge would not
        big = 2**60
        coordinates = st.sampled_from(
            [0.0, 0.5, 1.0, 2.5, 3.0, 7.25, 10.0, big, big + 1, float(big)]
        )
        corners = st.tuples(coordinates, coordinates, coordinates, coordinates)
        # past 16 rectangles queries combine a stored mask with leftover bits
        boxes = data.draw(st.lists(corners, max_size=40))
        rects = [
            Rectangle(f"r{i}", min(a, b), min(c, d), max(a, b), max(c, d))
            for i, (a, b, c, d) in enumerate(boxes)
        ]
        arena = RectangleArena(rects, 10.0)
        edges = {v for r in rects for v in (r.x0, r.y0, r.x1, r.y1)}
        probes = st.one_of(
            coordinates,
            st.sampled_from(sorted(edges) or [0.0]),
            st.sampled_from([-1.0, 10.5, math.inf, -math.inf, math.nan]),
            st.floats(allow_nan=True, allow_infinity=True),
        )
        for x, y in data.draw(st.lists(st.tuples(probes, probes), min_size=1, max_size=20)):
            hits = arena.rectangles_containing_dot(x, y)
            assert hits == arena.rectangles_containing_dot_brute(x, y)
            assert len(hits) == sum(r.contains(x, y) for r in rects)

    @pytest.mark.parametrize(
        "x, y", [(math.nan, 5.0), (5.0, math.nan), (math.nan, math.nan), (math.nan, math.inf)]
    )
    def test_nan_dot_is_in_no_rectangle(self, x, y):
        arena = RectangleArena([Rectangle("a", 0, 0, 10, 10)], 10.0)
        assert arena.rectangles_containing_dot(x, y) == []

    @pytest.mark.parametrize(
        "x, y", [(math.inf, 5.0), (-math.inf, 5.0), (5.0, math.inf), (5.0, -math.inf)]
    )
    def test_infinite_dot_is_in_no_rectangle(self, x, y):
        arena = RectangleArena([Rectangle("a", 0, 0, 10, 10)], 10.0)
        assert arena.rectangles_containing_dot(x, y) == []

    def test_size_bound(self):
        rects = [Rectangle(f"r{i}", 0, 0, 1, 1) for i in range(MAX_RECTANGLES + 1)]
        assert len(RectangleArena(rects[:-1], 10.0)) == MAX_RECTANGLES
        with pytest.raises(ValueError, match=f"at most {MAX_RECTANGLES}"):
            RectangleArena(rects, 10.0)

    def test_non_positive_side_rejected(self):
        with pytest.raises(ValueError):
            RectangleArena([], 0.0)

    @pytest.mark.parametrize("side", [math.inf, math.nan])
    def test_non_finite_side_rejected(self, side):
        with pytest.raises(ValueError):
            RectangleArena([], side)


# each side check compares exactly, so an int past the float range fails it
# rather than raising OverflowError later, and it refuses a bool or a value
# that is not a real number with the documented ValueError, not a TypeError
UNUSABLE_SIDES = pytest.mark.parametrize(
    "side",
    [True, False, 10**400, -(10**400), "x", None, Decimal("1"), 1 + 0j, [1.0]],
    ids=["true", "false", "int_10**400", "int_-10**400", "str", "none", "decimal",
         "complex", "list"],
)
USABLE_SIDES = pytest.mark.parametrize(
    "side", [1, 10**300, 1e-300, 8.5e307, Fraction(1, 3)],
    ids=["int_1", "int_10**300", "tiny", "half_the_float_range", "fraction"],
)


class TestArenaSide:
    """``RectangleArena`` and ``DotProblemConfig`` take only a real side
    within the float range (doubled, for the config)."""

    @UNUSABLE_SIDES
    @pytest.mark.parametrize(
        "build, message",
        [(lambda side: RectangleArena([], side), "arena_side must be positive and finite, got"),
         (lambda side: DotProblemConfig(arena_side=side), "positive and finite when doubled")],
        ids=["arena", "config"],
    )
    def test_unusable_side_rejected(self, build, message, side):
        with pytest.raises(ValueError, match=message):
            build(side)

    @USABLE_SIDES
    def test_usable_side_accepted(self, side):
        assert RectangleArena([], side).arena_side == float(side)
        cfg = DotProblemConfig(num_rects=3, arena_side=side)
        assert cfg.arena_side is side
        arena = generate_random_arena(cfg, RandomSource(5))
        assert arena.arena_side == float(side) and len(arena) == 4

    def test_side_past_half_the_float_range_only_fits_the_arena(self):
        # a generated rectangle reaches up to twice the side
        side = 10**308
        assert RectangleArena([], side).arena_side == float(side)
        with pytest.raises(ValueError, match="when doubled"):
            DotProblemConfig(arena_side=side)


class OldAxisIndex:
    """The axis index as first built, edge by edge: the build oracle."""

    def __init__(self, lows, highs, bits):
        edges, n = [*lows, *highs], len(lows)
        order = sorted(range(2 * n), key=edges.__getitem__)
        self.keys = [(edges[i], i >= n) for i in order]
        self._bits = [bits[i % n] for i in order]
        self._checkpoints = [0]
        mask = 0
        for k, bit in enumerate(self._bits, 1):
            mask ^= 1 << bit
            if k % 16 == 0:
                self._checkpoints.append(mask)


def holding_brute(lows, highs, v):
    """Mask of the rectangles whose closed extent holds v; rectangle i of n is bit n - 1 - i."""
    n = len(lows)
    return sum(1 << (n - 1 - i) for i in range(n) if lows[i] <= v <= highs[i])


def axis_probes(edges):
    """Every edge and its nearest floats on either side."""
    probes = set()
    for v in edges:
        probes.update((v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
    return sorted(probes)


class TestAxisIndexBuild:
    # a mask is stored every 16 edges: 14, 16 and 18 edges (and 30, 32 and
    # 34) end the edge list just before, on and just after a stored mask
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 40])
    @pytest.mark.parametrize("grid", [3, 12, None])
    def test_matches_old_build_and_brute_force(self, n, grid):
        # a small grid ties many edges and makes zero-width and zero-height
        # rectangles; None draws free floats
        rng = RandomSource(1000 * n + (grid or 0))

        def coordinate():
            return rng.randrange(grid) * 0.5 if grid else rng.uniform(-1.0, 1.0)

        rects = []
        for i in range(n):
            a, b, c, d = (coordinate() for _ in range(4))
            rects.append(Rectangle(f"r{i}", min(a, b), min(c, d), max(a, b), max(c, d)))
        self.check(rects)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_old_build_and_brute_force_everywhere(self, data):
        coordinates = st.one_of(
            st.sampled_from([0.0, 1.0, 2.5, 2**60, 2**60 + 1, float(2**60)]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        boxes = data.draw(st.lists(st.tuples(*[coordinates] * 4), max_size=40))
        rects = [
            Rectangle(f"r{i}", min(a, b), min(c, d), max(a, b), max(c, d))
            for i, (a, b, c, d) in enumerate(boxes)
        ]
        self.check(rects)

    @staticmethod
    def check(rects):
        arena = RectangleArena(rects, 10.0)
        n = len(rects)
        bits = list(range(n - 1, -1, -1))
        x_lows, x_highs = [r.x0 for r in rects], [r.x1 for r in rects]
        y_lows, y_highs = [r.y0 for r in rects], [r.y1 for r in rects]
        for index, lows, highs in ((arena._x, x_lows, x_highs), (arena._y, y_lows, y_highs)):
            old = OldAxisIndex(lows, highs, bits)
            assert index.keys == old.keys
            assert index._bits == old._bits
            assert index._checkpoints == old._checkpoints
            assert len(index._checkpoints) == 1 + 2 * n // 16
            for v in axis_probes([*lows, *highs]):
                assert index.holding(v) == holding_brute(lows, highs, v)
        # dots pairing the x probes with the y probes, the latter reversed
        xs, ys = axis_probes([*x_lows, *x_highs]), axis_probes([*y_lows, *y_highs])
        for x, y in zip(xs, reversed(ys)):
            hits = arena.rectangles_containing_dot(x, y)
            assert hits == arena.rectangles_containing_dot_brute(x, y)


class DelegatingRandomSource(RandomSource):
    """Draws as a plain source, but through overridden methods."""

    def random(self):
        return super().random()

    def uniform(self, low, high):
        return super().uniform(low, high)


def old_generate_random_arena(cfg, rng):
    """The arena generator as first written, through ``uniform``: the draw oracle."""

    def positive_side(limit):
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return u * limit

    rectangles = []
    for i in range(cfg.num_rects + 1):
        x0 = rng.uniform(0.0, cfg.arena_side)
        y0 = rng.uniform(0.0, cfg.arena_side)
        width = positive_side(cfg.arena_side)
        height = positive_side(cfg.arena_side)
        rectangles.append(Rectangle(f"rectangle_{i}", x0, y0, x0 + width, y0 + height))
    return RectangleArena(rectangles, cfg.arena_side)


class ZeroAt(RandomSource):
    """Returns 0.0 at the given draws (counted from 1), each draw one ``random()`` call."""

    def __init__(self, seed, zeros):
        super().__init__(seed)
        self.zeros, self.calls = set(zeros), 0

    def random(self):
        self.calls += 1
        value = super().random()
        return 0.0 if self.calls in self.zeros else value

    def uniform(self, low, high):
        return low + (high - low) * self.random()


class TestGenerateRandomArena:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(1, 60),
        st.one_of(
            st.floats(min_value=5e-324, max_value=8.9e307),
            st.sampled_from([5e-324, 1e-300, 1.0, 10.0, 8.9e307]),
            st.integers(1, 10**6),
        ),
    )
    @example(1 + 2**32, 1999, 10.0)
    @example(0, 1, 5e-324)
    @example(2**64 - 1, 3, 8.9e307)
    def test_draw_for_draw(self, seed, num_rects, side):
        cfg = DotProblemConfig(num_rects, side)
        plain, delegating, oracle = (
            RandomSource(seed), DelegatingRandomSource(seed), RandomSource(seed)
        )
        lines = generate_random_arena(cfg, plain).to_lines()
        assert generate_random_arena(cfg, delegating).to_lines() == lines
        assert old_generate_random_arena(cfg, oracle).to_lines() == lines
        assert plain._rng.getstate() == delegating._rng.getstate() == oracle._rng.getstate()

    # three rectangles of four draws each: x0, y0, width, height; a width or
    # height of 0.0 is drawn again, a corner of 0.0 is kept
    @pytest.mark.parametrize(
        "zeros, draws", [([3], 13), ([4], 13), ([3, 4, 6, 7, 8], 17), ([1, 2], 12), ([], 12)]
    )
    def test_zero_side_draws_are_drawn_again(self, zeros, draws):
        cfg = DotProblemConfig(2, 10.0)
        new, old = ZeroAt(5, zeros), ZeroAt(5, zeros)
        arena = generate_random_arena(cfg, new)
        assert arena.to_lines() == old_generate_random_arena(cfg, old).to_lines()
        assert new.calls == old.calls == draws
        assert new._rng.getstate() == old._rng.getstate()
        assert all(r.x0 < r.x1 and r.y0 < r.y1 for r in arena.rectangles)
        if 1 in zeros:
            assert arena.rectangles[0].x0 == 0.0

    def test_dot_dense_arena_is_pinned(self):
        # the benchmark's dot-dense arena: 1,999 rectangles at seed 1 + 2**32
        arena = generate_random_arena(DotProblemConfig(1999, 10.0, 32), RandomSource(1 + 2**32))
        digest = hashlib.sha256("\n".join(arena.to_lines()).encode()).hexdigest()
        assert digest == "bcd19caf69331ef26a742b84af870f267e2594d7335e66ce83b13363db23b373"

    def test_creates_one_extra_rectangle(self):
        arena = generate_random_arena(DotProblemConfig(num_rects=25), RandomSource(1))
        assert len(arena) == 26
        assert arena.rectangles[0].id == "rectangle_0"
        assert arena.rectangles[25].id == "rectangle_25"

    def test_deterministic_per_seed(self):
        cfg = DotProblemConfig(num_rects=1)
        a = generate_random_arena(cfg, RandomSource(4))
        b = generate_random_arena(cfg, RandomSource(4))
        assert a.to_lines() == b.to_lines()

    def test_corners_ordered_and_sides_positive(self):
        arena = generate_random_arena(DotProblemConfig(num_rects=50), RandomSource(5))
        for r in arena.rectangles:
            assert r.x0 < r.x1
            assert r.y0 < r.y1
            assert 0 <= r.x0 < arena.arena_side


class TestDotFitness:
    def test_empty_arena_scores_zero(self):
        arena = RectangleArena([], 10.0)
        f = dot_fitness(DotProblemConfig(bits=8), arena)
        assert f(random_genome(8, RandomSource(6))) == 0.0

    def test_full_cover_scores_one(self):
        arena = RectangleArena([Rectangle("all", 0, 0, 10, 10)], 10.0)
        f = dot_fitness(DotProblemConfig(bits=8), arena)
        rng = RandomSource(7)
        assert all(f(random_genome(8, rng)) == 1.0 for _ in range(20))

    def test_all_ones_genome_hits_far_corner(self):
        cfg = DotProblemConfig()
        arena = generate_random_arena(cfg, RandomSource(8))
        f = dot_fitness(cfg, arena)
        genome = BitGenome.from_bits((1,) * 32)
        side = arena.arena_side
        assert f(genome) == len(arena.rectangles_containing_dot_brute(side, side))

    def test_wrong_genome_length_rejected(self):
        arena = RectangleArena([], 10.0)
        f = dot_fitness(DotProblemConfig(bits=32), arena)
        with pytest.raises(ValueError):
            f(BitGenome.from_string("1010"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DotProblemConfig(bits=7)
        with pytest.raises(ValueError):
            DotProblemConfig(num_rects=0)
        # a generated arena holds num_rects + 1 rectangles
        assert DotProblemConfig(num_rects=MAX_RECTANGLES - 1).num_rects == MAX_RECTANGLES - 1
        with pytest.raises(ValueError, match="num_rects"):
            DotProblemConfig(num_rects=MAX_RECTANGLES)

    @pytest.mark.parametrize(
        "field, value",
        [("num_rects", 2.5), ("num_rects", 3.0), ("num_rects", math.nan), ("num_rects", True),
         ("bits", 4.0), ("bits", 3.5), ("bits", math.nan)],
    )
    def test_sizes_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an"):
            DotProblemConfig(**{field: value})

    # 1e308: a generated rectangle's far corner, up to twice the side, overflows
    @pytest.mark.parametrize("side", [0.0, math.inf, math.nan, 1e308])
    def test_arena_side_must_be_positive_and_finite(self, side):
        with pytest.raises(ValueError):
            DotProblemConfig(arena_side=side)


class TestOnemax:
    @pytest.mark.parametrize(
        "text, expected", [("0000", 0), ("1111", 4), ("10110010", 4)]
    )
    def test_known_values(self, text, expected):
        assert onemax(BitGenome.from_string(text)) == expected

    @given(genomes)
    @settings(max_examples=100, deadline=None)
    def test_complement_sums_to_length(self, genome):
        complement = BitGenome.from_bits(tuple(1 - b for b in genome.bits))
        assert onemax(genome) + onemax(complement) == genome.length


class TestRoyalRoad:
    @pytest.mark.parametrize(
        "text, block, expected",
        [("11110000", 4, 1), ("11111111", 4, 2), ("11101111", 4, 1)],
    )
    def test_known_values(self, text, block, expected):
        assert royal_road(BitGenome.from_string(text), block) == expected

    def test_block_size_must_be_positive(self):
        with pytest.raises(ValueError, match="block_size must be positive"):
            royal_road(BitGenome.from_string("1111"), 0)

    def test_block_must_divide_length(self):
        with pytest.raises(ValueError):
            royal_road(BitGenome.from_string("111"), 2)

    @given(genomes, st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_onemax(self, genome, block):
        if genome.length % block != 0:
            block = 1
        assert royal_road(genome, block) <= onemax(genome) / block

    def test_large_genome(self):
        # no time bound, but a count that shifts the whole 2**20-bit genome
        # once per block takes seconds for each of these calls
        n = 2**20
        ones = (1 << n) - 1
        assert royal_road(BitGenome(ones, n), 4) == 2**18
        assert royal_road(BitGenome(ones ^ 1 << 314_159, n), 4) == 2**18 - 1
        assert royal_road(BitGenome(ones // 0b1111 * 0b0111, n), 4) == 0
        assert royal_road(BitGenome(ones, n), n) == 1


class TestGridOracle:
    def test_empty_arena(self):
        assert grid_oracle(RectangleArena([], 10.0), 10) == (0, (0.0, 0.0))

    def test_full_cover(self):
        arena = RectangleArena([Rectangle("all", 0, 0, 10, 10)], 10.0)
        assert grid_oracle(arena, 10) == (1, (0.0, 0.0))

    def test_grid_includes_far_corner(self):
        arena = RectangleArena([Rectangle("corner", 9.5, 9.5, 10, 10)], 10.0)
        best, (x, y) = grid_oracle(arena, 11)
        assert best == 1
        assert (x, y) == (10.0, 10.0)

    def test_seeded_arena_regression_value(self):
        # frozen after first computation; guards the whole query stack
        arena = generate_random_arena(DotProblemConfig(), RandomSource(2009))
        best, _ = grid_oracle(arena, 200)
        assert best == 13

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            grid_oracle(RectangleArena([], 10.0), 1)


class TestArenaSerialization:
    def test_round_trip(self, tmp_path):
        arena = generate_random_arena(DotProblemConfig(num_rects=5), RandomSource(9))
        path = tmp_path / "arena.txt"
        save_arena(arena, path)
        loaded = load_arena(path, arena.arena_side)
        assert loaded.to_lines() == arena.to_lines()
        assert loaded.arena_side == arena.arena_side

    def test_format_is_five_fields_per_line(self, tmp_path):
        arena = RectangleArena([Rectangle("rect_a", 0.5, 1.5, 2.0, 3.0)], 10.0)
        path = tmp_path / "arena.txt"
        save_arena(arena, path)
        assert path.read_text() == "rect_a 0.5 1.5 2.0 3.0\n"

    def test_failed_save_leaves_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "arena.txt"
        path.write_bytes(b"rect_a 0.5 1.5 2.0 3.0\n")
        arena = generate_random_arena(DotProblemConfig(num_rects=5), RandomSource(9))

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_arena(arena, path)
        assert path.read_bytes() == b"rect_a 0.5 1.5 2.0 3.0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["arena.txt"]

    def test_failed_replace_names_the_given_path(self, tmp_path):
        # the temporary file is written, then cannot replace a directory
        path = tmp_path / "arena"
        path.mkdir()
        arena = RectangleArena([Rectangle("rect_a", 0.5, 1.5, 2.0, 3.0)], 10.0)
        with pytest.raises(IsADirectoryError) as error:
            save_arena(arena, str(path))
        assert str(error.value) == f"[Errno 21] Is a directory: '{path}'"
        assert [p.name for p in tmp_path.iterdir()] == ["arena"]

    def test_save_replaces_old_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "arena.txt"
        path.write_text("stale\n")
        arena = RectangleArena([Rectangle("rect_a", 0.5, 1.5, 2.0, 3.0)], 10.0)
        save_arena(arena, path)
        assert path.read_text() == "rect_a 0.5 1.5 2.0 3.0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["arena.txt"]

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            RectangleArena.from_lines(["rect_a 1 2 3"], 10.0)

    def test_bad_coordinate_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            RectangleArena.from_lines(["a 1 2 3 4", "b 1 2 three 4"], 10.0)

    def test_non_finite_coordinate_rejected_with_line(self):
        lines = ["rectangle_0 0 0 5 5", "rectangle_1 1 1 inf 2"]
        with pytest.raises(ValueError, match="line 2: .*finite"):
            RectangleArena.from_lines(lines, 10.0)

    def test_file_past_size_bound_rejected_before_rest_is_parsed(self, tmp_path):
        path = tmp_path / "arena.txt"
        lines = [f"rectangle_{i} 0 0 5 5\n" for i in range(MAX_RECTANGLES + 1)]
        path.write_text("".join(lines) + "\n" + "not a rectangle\n")
        with pytest.raises(ValueError, match=f"line {MAX_RECTANGLES + 1}: .*at most"):
            load_arena(path, 10.0)

    def test_load_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "arena.txt"
        path.write_text("rectangle_0 nan 0 5 5\n")
        with pytest.raises(ValueError, match=r"arena\.txt: line 1: "):
            load_arena(path, 10.0)
