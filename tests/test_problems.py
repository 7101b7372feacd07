"""Tests for the rectangle arena, bundled fitness functions, and the grid oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evobits.core import BitGenome, RandomSource, random_genome
from evobits.problems import (
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
).map(lambda bits: BitGenome(tuple(bits)))


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
        for _ in range(1000):
            x = rng.uniform(-1, 21)
            y = rng.uniform(-1, 21)
            assert arena.rectangles_containing_dot(x, y) == (
                arena.rectangles_containing_dot_brute(x, y)
            )

    def test_non_positive_side_rejected(self):
        with pytest.raises(ValueError):
            RectangleArena([], 0.0)

    @pytest.mark.parametrize("side", [math.inf, math.nan])
    def test_non_finite_side_rejected(self, side):
        with pytest.raises(ValueError):
            RectangleArena([], side)


class TestGenerateRandomArena:
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
        genome = BitGenome((1,) * 32)
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
        complement = BitGenome(tuple(1 - b for b in genome.bits))
        assert onemax(genome) + onemax(complement) == genome.length


class TestRoyalRoad:
    @pytest.mark.parametrize(
        "text, block, expected",
        [("11110000", 4, 1), ("11111111", 4, 2), ("11101111", 4, 1)],
    )
    def test_known_values(self, text, block, expected):
        assert royal_road(BitGenome.from_string(text), block) == expected

    def test_block_must_divide_length(self):
        with pytest.raises(ValueError):
            royal_road(BitGenome.from_string("111"), 2)

    @given(genomes, st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_onemax(self, genome, block):
        if genome.length % block != 0:
            block = 1
        assert royal_road(genome, block) <= onemax(genome) / block


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

    def test_load_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "arena.txt"
        path.write_text("rectangle_0 nan 0 5 5\n")
        with pytest.raises(ValueError, match=r"arena\.txt: line 1: "):
            load_arena(path, 10.0)
