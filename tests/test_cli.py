"""Tests for config parsing, the run/islands/bench subcommands, and exit codes."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evobits
from evobits.cli import (
    _KEYS,
    ConfigError,
    ExperimentConfig,
    build_parser,
    console_main,
    main,
    parse_config,
)
from evobits.core import RandomSource
from evobits.problems import MAX_RECTANGLES, load_arena


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(stdout):
    """CSV lines with the wall-clock column and summary timing removed."""
    lines = []
    for line in stdout.strip().splitlines():
        if line.startswith("#"):
            lines.append(re.sub(r" time_ms=\S+", "", line))
        else:
            lines.append(line.rsplit(",", 1)[0])
    return lines


def data_rows(stdout):
    return [
        line
        for line in stdout.strip().splitlines()
        if line and not line.startswith("#") and not line.startswith("generation")
        and not line.startswith("island") and not line.startswith("repetition")
    ]


class TestParseConfig:
    def test_empty_config_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but comments\n\n")
        cfg = parse_config(str(path))
        assert cfg == ExperimentConfig()
        assert (cfg.num_rects, cfg.arena_side, cfg.bits) == (25, 10.0, 32)
        assert (cfg.pop_size, cfg.max_generations, cfg.selection_rate) == (64, 50, 0.2)
        assert (cfg.mutation_rate, cfg.crossover_rate, cfg.crossover_points) == (1.0, 9.0, 2)

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = onemax\nbits = 16\npop_size = 32\n")
        cfg = parse_config(str(path))
        assert (cfg.problem, cfg.bits, cfg.pop_size) == ("onemax", 16, 32)

    def test_out_of_range_value_names_key_and_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("pop_size = 64\nselection_rate = 1.5\n")
        with pytest.raises(ConfigError, match=r"exp\.cfg:2: selection_rate"):
            parse_config(str(path))

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("\n\npopulation = 64\n")
        with pytest.raises(ConfigError, match=r"exp\.cfg:3: unknown key 'population'"):
            parse_config(str(path))

    def test_line_without_equals_names_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = onemax\nbits 16\n")
        with pytest.raises(ConfigError, match=r"exp\.cfg:2: expected 'key = value'"):
            parse_config(str(path))

    def test_unparseable_value_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("pop_size = many\n")
        with pytest.raises(ConfigError, match="invalid value for pop_size"):
            parse_config(str(path))

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("pop_size = 64\n")
        cfg = parse_config(str(path), {"pop_size": "128"})
        assert cfg.pop_size == 128

    def test_file_beats_defaults_layer(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bits = 64\n")
        cfg = parse_config(str(path), None, defaults={"bits": "128", "pop_size": "256"})
        assert cfg.bits == 64
        assert cfg.pop_size == 256

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config("/nonexistent/path.cfg")

    def test_undecodable_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"bits = 8\n\xff\xfe = 3\n")
        code, out, err = run_cli(["run", "--config", str(path)], capsys)
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: cannot read config file {path}: ")

    def test_island_count_bound_is_inclusive(self):
        assert parse_config(overrides={"islands": "256"}).islands == 256

    def test_gene_budget_bound_is_inclusive(self):
        # each genome costs its bits plus 128: 16 * 2**20 is exactly the budget
        sizes = {"problem": "onemax", "bits": str(2**20 - 128), "pop_size": "16"}
        assert parse_config(overrides=sizes, command="run").pop_size == 16
        with pytest.raises(ConfigError, match="^bits, pop_size: .* 17825792 genes"):
            parse_config(overrides={**sizes, "pop_size": "17"}, command="run")

    def test_gene_budget_counts_every_island(self):
        sizes = {"problem": "onemax", "bits": str(2**16 - 128), "pop_size": "128",
                 "islands": "3"}
        assert parse_config(overrides=sizes, command="run").bits == 2**16 - 128
        with pytest.raises(ConfigError, match="^bits, pop_size, islands: .* 25165824 genes"):
            parse_config(overrides=sizes, command="islands")

    @pytest.mark.parametrize(
        "sizes",
        [
            {"bits": str(2**20), "pop_size": "16"},
            {"bits": "64", "pop_size": "87382"},
            {"bits": "1", "pop_size": str(2**20)},
        ],
        ids=["long_genomes", "short_genomes", "one_bit_genomes"],
    )
    def test_gene_budget_counts_each_genome(self, sizes):
        # each was within a budget of bits * pop_size genes
        with pytest.raises(ConfigError, match="^bits, pop_size: "):
            parse_config(overrides={"problem": "onemax", **sizes}, command="run")

    @pytest.mark.parametrize(
        "command, sizes",
        [
            ("run", {}),
            ("islands", {}),
            ("bench", {}),
            # the benchmark's workloads
            ("run", {"problem": "onemax", "bits": "128", "pop_size": "256"}),
            ("run", {"problem": "dot", "bits": "32", "pop_size": "128", "num_rects": "1999"}),
            ("islands", {"problem": "royalroad", "bits": "256", "block_size": "8",
                         "pop_size": "64", "islands": "3"}),
        ],
    )
    def test_gene_budget_accepts_defaults_and_benchmark_sizes(self, command, sizes):
        parse_config(overrides=sizes, command=command)  # a ConfigError fails the test

    def test_every_config_field_has_a_key(self):
        # a field without a key could be set from neither a file nor a flag
        assert set(_KEYS) == {field.name for field in dataclasses.fields(ExperimentConfig)}

    def test_cross_field_checks(self):
        with pytest.raises(ConfigError, match="even"):
            parse_config(None, {"problem": "dot", "bits": "7"})
        with pytest.raises(ConfigError, match="does not divide"):
            parse_config(None, {"problem": "royalroad", "bits": "10", "block_size": "4"})
        with pytest.raises(ConfigError, match="crossover_points"):
            parse_config(None, {"bits": "4", "crossover_points": "8"})


class TestRunCommand:
    def test_onemax_small_instance_reaches_target(self, capsys):
        code, out, _ = run_cli(
            ["run", "--problem", "onemax", "--bits", "8", "--pop-size", "32",
             "--target-fitness", "8", "--seed", "5"],
            capsys,
        )
        assert code == 0
        summary = out.strip().splitlines()[-1]
        assert summary.startswith("# best=8 ")

    def test_royalroad_default_target_is_the_block_count(self, capsys):
        # 8 bits in blocks of 4: the run stops once both blocks are complete
        code, out, _ = run_cli(
            ["run", "--problem", "royalroad", "--bits", "8", "--block-size", "4",
             "--pop-size", "16", "--max-generations", "200", "--seed", "3"],
            capsys,
        )
        assert code == 0
        summary = out.strip().splitlines()[-1]
        assert summary.startswith("# best=2 ")
        assert len(data_rows(out)) < 200

    def test_header_and_summary_schema(self, capsys):
        code, out, _ = run_cli(
            ["run", "--problem", "onemax", "--bits", "16", "--max-generations", "5",
             "--seed", "1"],
            capsys,
        )
        lines = out.strip().splitlines()
        assert lines[0] == "generation,best_fitness,evaluations,elapsed_ms"
        assert re.match(
            r"^# best=\S+ generations=\d+ evaluations=\d+ time_ms=\S+$", lines[-1]
        )
        column_counts = {len(line.split(",")) for line in lines if not line.startswith("#")}
        assert column_counts == {4}

    def test_dot_defaults_emit_at_most_fifty_rows(self, capsys):
        code, out, _ = run_cli(["run", "--seed", "9"], capsys)
        assert code in (0, 2)
        assert len(data_rows(out)) <= 50

    def test_generation_limit_exit_code(self, capsys):
        # an unreachable target forces the generation-limit stop
        code, out, _ = run_cli(
            ["run", "--problem", "onemax", "--bits", "32", "--max-generations", "3",
             "--target-fitness", "33", "--seed", "2"],
            capsys,
        )
        assert code == 2
        assert len(data_rows(out)) == 3

    def test_identical_seeds_identical_output_modulo_timing(self, capsys):
        argv = ["run", "--problem", "onemax", "--bits", "24", "--max-generations", "10",
                "--seed", "33"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert strip_timing(first) == strip_timing(second)

    def test_legacy_positional_arguments(self, capsys):
        # num_rects arena_side dot_x dot_y bits pop_size num_gens selection_rate
        code, out, err = run_cli(
            ["run", "10", "10", "5", "5", "16", "32", "4", "0.25", "--seed", "3"],
            capsys,
        )
        assert code in (0, 2)
        assert len(data_rows(out)) <= 4
        assert "dot_x/dot_y" in err

    def test_flags_beat_positionals(self, capsys):
        code, out, _ = run_cli(
            ["run", "10", "10", "5", "5", "16", "32", "8", "0.25",
             "--max-generations", "2", "--dot-x", "5"],
            capsys,
        )
        assert code in (0, 2)
        assert len(data_rows(out)) <= 2

    def test_too_many_positionals_rejected(self, capsys):
        code, _, err = run_cli(["run", "1", "2", "3", "4", "5", "6", "7", "8", "9"], capsys)
        assert code == 1
        assert "positional" in err

    def test_config_file_plus_flag_precedence(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = onemax\nbits = 8\npop_size = 64\nmax_generations = 2\n")
        code, out, _ = run_cli(
            ["run", "--config", str(path), "--pop-size", "16", "--seed", "4"],
            capsys,
        )
        assert code in (0, 2)
        first_row = data_rows(out)[0]
        evaluations = int(first_row.split(",")[2])
        # pop 16 plus max(1, round(0.2 * 16)) = 3 offspring after one step
        assert evaluations == 19

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["run", "--selection-rate", "2"], "selection_rate"),
            (["run", "--target-fitness", "nan"], "target_fitness"),
            (["run", "--target-fitness=-inf"], "target_fitness"),
            (["run", "--arena-side", "inf"], "arena_side"),
            (["run", "--arena-side", "nan"], "arena_side"),
            (["run", "--mutation-rate", "inf"], "mutation_rate"),
            (["run", "--crossover-rate", "nan"], "crossover_rate"),
            # each rate is finite, but their sum overflows
            (["run", "--mutation-rate", "1e308", "--crossover-rate", "1e308"], "rates"),
            # max(1, round(0.75 * 2)) would turn over the whole population
            (["run", "--pop-size", "2", "--selection-rate", "0.75"], "selection_rate"),
            (["islands", "--islands", "1"], "islands"),
            # fully connected, 257 islands would send 65,792 migrants a round
            (["islands", "--islands", "257"], "islands"),
            (["run", "--problem", "nope"], "problem"),
            (["islands", "--policy", "nope"], "migration_policy"),
            (["run", "--seed", "-1"], "seed"),
            # a 401-digit size, past the upper bound on bits
            (["run", "--problem", "onemax", "--bits", "9" * 401, "--pop-size", "2"], "bits"),
            # with an explicit target this used to hang drawing the first genome
            (["run", "--problem", "onemax", "--bits", "100000000000",
              "--target-fitness", "1", "--pop-size", "2"], "bits"),
            (["run", "--problem", "onemax", "--pop-size", str(2**20 + 1)], "pop_size"),
            # far past the cap on arena size (its default target would overflow a float)
            (["run", "--num-rects", "9" * 401], "num_rects"),
            # a generated arena holds num_rects + 1 rectangles, one past the cap
            (["run", "--num-rects", str(MAX_RECTANGLES)], "num_rects"),
        ],
        ids=[
            "selection_rate",
            "target_fitness_nan",
            "target_fitness_-inf",
            "arena_side_inf",
            "arena_side_nan",
            "mutation_rate_inf",
            "crossover_rate_nan",
            "rate_sum_overflow",
            "turnover_whole_population",
            "islands_1",
            "islands_above_bound",
            "problem_nope",
            "policy_nope",
            "seed_negative",
            "default_target_overflow",
            "bits_above_bound",
            "pop_size_above_bound",
            "num_rects_target_overflow",
            "num_rects_above_bound",
        ],
    )
    def test_bad_flag_value_is_config_error(self, argv, key, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and key in line

    @pytest.mark.parametrize(
        "flags",
        [
            ["--pop-size", "2", "--selection-rate", "0.75"],
            ["--mutation-rate", "1e308", "--crossover-rate", "1e308"],
        ],
        ids=["turnover_whole_population", "rate_sum_overflow"],
    )
    def test_config_rejected_before_arena_file_is_written(self, flags, tmp_path, capsys):
        arena_path = tmp_path / "arena.txt"
        code, out, err = run_cli(["run", "--arena-file", str(arena_path), *flags], capsys)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert not arena_path.exists()

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(["run", "--warp-speed", "9"], capsys)
        assert code == 1
        assert "error" in err

    def test_arena_file_round_trip(self, tmp_path, capsys):
        arena_path = tmp_path / "arena.txt"
        argv = ["run", "--arena-file", str(arena_path), "--max-generations", "2",
                "--seed", "7"]
        code, first, _ = run_cli(argv, capsys)
        assert code in (0, 2)
        saved = arena_path.read_text()
        assert len(saved.strip().splitlines()) == 26
        arena = load_arena(arena_path, 10.0)
        assert arena.rectangles[0].id == "rectangle_0"
        # the rerun loads the fixture instead of regenerating it, and the
        # trajectory matches the generate-and-save run
        _, second, _ = run_cli(argv, capsys)
        assert arena_path.read_text() == saved
        assert strip_timing(first) == strip_timing(second)

    def test_non_finite_arena_coordinates_rejected(self, tmp_path, capsys):
        arena_path = tmp_path / "arena.txt"
        arena_path.write_text("rectangle_0 nan 0 5 5\nrectangle_1 1 1 inf 2\n")
        code, out, err = run_cli(
            ["run", "--arena-file", str(arena_path), "--num-rects", "1"], capsys
        )
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "line 1" in line and "finite" in line

    @pytest.mark.parametrize("rectangles", [1, 25, 27])
    def test_arena_rectangle_count_must_match_num_rects(self, rectangles, tmp_path, capsys):
        # a generated arena holds num_rects + 1 = 26 rectangles
        arena_path = tmp_path / "arena.txt"
        arena_path.write_text(
            "".join(f"rectangle_{i} 0 0 5 5\n" for i in range(rectangles))
        )
        code, out, err = run_cli(["run", "--arena-file", str(arena_path)], capsys)
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and f"{rectangles} rectangles" in line
        assert "num_rects 25 needs 26" in line

    def test_arena_file_above_size_bound_rejected(self, tmp_path, capsys):
        arena_path = tmp_path / "arena.txt"
        arena_path.write_text(
            "".join(f"rectangle_{i} 0 0 5 5\n" for i in range(MAX_RECTANGLES + 1))
        )
        code, out, err = run_cli(
            ["run", "--arena-file", str(arena_path), "--num-rects", str(MAX_RECTANGLES - 1)],
            capsys,
        )
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: {arena_path}: ") and f"at most {MAX_RECTANGLES}" in line

    def test_unwritable_arena_file_error_names_the_given_path(self, tmp_path, capsys):
        arena_path = tmp_path / "missing-dir" / "arena.txt"
        code, out, err = run_cli(
            ["run", "--problem", "dot", "--arena-file", str(arena_path)], capsys
        )
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and str(arena_path) in line
        assert ".tmp" not in line
        assert list(tmp_path.rglob("*")) == []

    def test_arena_file_matches_generated_arena(self, tmp_path, capsys):
        # pinning the arena to a file must not change the run itself
        arena_path = tmp_path / "arena.txt"
        plain = ["run", "--max-generations", "3", "--seed", "8"]
        _, without_file, _ = run_cli(plain, capsys)
        _, with_file, _ = run_cli(plain + ["--arena-file", str(arena_path)], capsys)
        assert strip_timing(without_file) == strip_timing(with_file)

    def test_many_short_genomes_over_the_budget_exit_one_before_drawing(
        self, capsys, monkeypatch
    ):
        def no_draw(*args):
            raise AssertionError("drew a genome")

        monkeypatch.setattr(evobits.cli, "random_genome", no_draw)
        code, out, err = run_cli(["run", "--bits", "64", "--pop-size", "262144"], capsys)
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: bits, pop_size: ")


class TestIslandsCommand:
    def test_two_islands_schema_and_summaries(self, capsys):
        code, out, _ = run_cli(
            ["islands", "--problem", "onemax", "--bits", "16",
             "--max-generations", "5", "--seed", "11"],
            capsys,
        )
        assert code in (0, 2)
        lines = out.strip().splitlines()
        assert lines[0] == "island,generation,best_fitness,evaluations,elapsed_ms"
        rows = data_rows(out)
        assert {row.split(",")[0] for row in rows} == {"node_1", "node_2"}
        summaries = [line for line in lines if line.startswith("# island=")]
        assert len(summaries) == 2
        # one row per generation each island ran; an island stops at the target
        generations = [int(re.search(r"generations=(\d+)", line)[1]) for line in summaries]
        assert len(rows) == sum(generations)

    def test_islands_stop_at_target(self, capsys):
        code, out, _ = run_cli(
            ["islands", "--problem", "onemax", "--bits", "8",
             "--max-generations", "50", "--seed", "2"],
            capsys,
        )
        assert code == 0
        summary = out.strip().splitlines()[-1]
        assert summary.startswith("# best=8 ")
        assert int(re.search(r"generations=(\d+)", summary)[1]) < 50

    def test_island_count_and_policy_flags(self, capsys):
        code, out, _ = run_cli(
            ["islands", "--problem", "onemax", "--bits", "16", "--islands", "3",
             "--policy", "mostdifferent", "--max-generations", "4", "--seed", "12"],
            capsys,
        )
        assert code in (0, 2)
        rows = data_rows(out)
        assert {row.split(",")[0] for row in rows} == {"node_1", "node_2", "node_3"}

    def test_deterministic_modulo_timing(self, capsys):
        argv = ["islands", "--problem", "onemax", "--bits", "16",
                "--max-generations", "6", "--seed", "13"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert strip_timing(first) == strip_timing(second)

    def test_bad_island_count_rejected(self, capsys):
        code, _, err = run_cli(["islands", "--islands", "1"], capsys)
        assert code == 1
        assert "islands" in err


class TestBenchCommand:
    def test_row_count_and_schema(self, capsys):
        code, out, _ = run_cli(
            ["bench", "--repetitions", "5", "--max-generations", "5",
             "--pop-size", "32", "--bits", "32", "--seed", "14"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("repetition,")
        assert len(lines) == 1 + 5 + 1  # header, five timing rows, summary
        assert lines[-1].startswith("summary,")
        assert {len(line.split(",")) for line in lines} == {7}

    def test_throughput_positive(self, capsys):
        _, out, _ = run_cli(
            ["bench", "--repetitions", "2", "--max-generations", "5",
             "--pop-size", "32", "--bits", "32", "--seed", "15"],
            capsys,
        )
        summary = out.strip().splitlines()[-1].split(",")
        assert float(summary[-1]) > 0

    def test_doubling_population_doubles_offspring_per_generation(self, capsys):
        def offspring_per_generation(pop_size):
            _, out, _ = run_cli(
                ["bench", "--repetitions", "1", "--max-generations", "10",
                 "--pop-size", str(pop_size), "--seed", "16"],
                capsys,
            )
            row = out.strip().splitlines()[1].split(",")
            generations, evaluations = int(row[1]), int(row[2])
            return (evaluations - pop_size) / generations

        assert offspring_per_generation(512) == 2 * offspring_per_generation(256)

    def test_target_fitness_ignored_with_warning(self, capsys):
        code, out, err = run_cli(
            ["bench", "--target-fitness", "3", "--repetitions", "1",
             "--max-generations", "5", "--pop-size", "16", "--seed", "18"],
            capsys,
        )
        assert code == 0
        assert int(out.strip().splitlines()[1].split(",")[1]) == 5
        assert err.splitlines() == [
            "warning: bench runs max_generations every repetition and ignores target_fitness"
        ]

    def test_bench_defaults(self, capsys):
        _, out, _ = run_cli(["bench", "--repetitions", "1", "--seed", "17"], capsys)
        row = out.strip().splitlines()[1].split(",")
        generations, evaluations = int(row[1]), int(row[2])
        assert generations == 100
        # onemax, pop 256: 256 initial + 100 generations x 51 offspring
        assert evaluations == 256 + 100 * 51


class TestPlainSourceDrawTraffic:
    """A plain RandomSource breeds without its public ``randrange`` or
    ``sample``: the operators' kernels, the bulk genome draw and the bound
    ``random`` do its drawing. Those two methods are the stdlib's own calls,
    kept for subclasses that count draws and for direct callers, so a step
    that went back through them would draw no differently, only slower.

    Each case runs a few generations of one benchmark workload's settings."""

    SHARED = ["--max-generations", "5", "--selection-rate", "0.2", "--mutation-rate", "1.0",
              "--crossover-rate", "9.0", "--crossover-points", "2", "--seed", "1"]
    WORKLOADS = {
        "onemax-steady": ["run", "--problem", "onemax", "--bits", "128", "--pop-size", "256",
                          "--target-fitness", "129.0"],
        "dot-dense": ["run", "--problem", "dot", "--bits", "32", "--pop-size", "128",
                      "--num-rects", "1999", "--arena-side", "10.0", "--target-fitness", "1999.0"],
        "islands-mostdifferent": ["islands", "--problem", "royalroad", "--bits", "256",
                                  "--pop-size", "64", "--block-size", "8", "--islands", "3",
                                  "--policy", "mostdifferent", "--target-fitness", "32.0"],
    }

    @pytest.mark.parametrize("workload", list(WORKLOADS))
    def test_no_public_randrange_or_sample_call(self, workload, monkeypatch, capsys):
        calls = []
        for name in ("randrange", "sample"):
            # as class attributes, so that every plain-source path stays selected
            def counted(self, *args, _name=name, _method=getattr(RandomSource, name)):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(RandomSource, name, counted)
        code, out, err = run_cli(self.WORKLOADS[workload] + self.SHARED, capsys)
        assert (code, err) == (2, "")
        assert "generations=5 " in out
        assert calls == []


class TestEntryPoint:
    """``python -m evobits`` in a child process, through ``console_main``."""

    @staticmethod
    def run_module(*argv, timeout=60):
        env = dict(os.environ, PYTHONPATH=str(Path(evobits.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "evobits", *argv],
            capture_output=True, text=True, env=env, timeout=timeout,
        )

    def test_generation_limit_exits_two(self):
        proc = self.run_module("run", "--max-generations", "1", "--seed", "1")
        assert proc.returncode == 2
        assert proc.stdout.splitlines()[0] == "generation,best_fitness,evaluations,elapsed_ms"

    def test_bad_flag_value_exits_one(self):
        proc = self.run_module("run", "--bits", "0")
        assert proc.returncode == 1
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and "bits" in line

    def test_population_over_the_gene_budget_exits_one_before_drawing(self):
        # 2**40 genes: hours of drawing and about 128 GB, were it accepted; a
        # child process, so that a run that starts drawing is killed
        started = time.perf_counter()
        proc = self.run_module(
            "run", "--problem", "onemax", "--bits", "1048576", "--pop-size", "1048576",
            "--max-generations", "1", timeout=5,
        )
        assert time.perf_counter() - started < 1.0
        assert proc.returncode == 1
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: bits, pop_size: ")

    @pytest.mark.parametrize(
        "argv, code",
        [
            # 8 bits never reach a target of 9, so the generation limit ends the run
            (["run", "--problem", "onemax", "--bits", "8", "--pop-size", "4",
              "--max-generations", "2", "--target-fitness", "9"], 2),
            (["run", "--bits", "0"], 1),
        ],
        ids=["unreachable_target", "bad_flag_value"],
    )
    def test_console_main_exits_with_mains_code(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["evobits", *argv])
        with pytest.raises(SystemExit) as exc:
            console_main()
        assert exc.value.code == code


# what ``from evobits import *`` binds: the four submodules and every name
# their ``__all__`` lists
_STAR_NAMES = [
    "Archipelago", "BitFlip", "BitGenome", "DotProblemConfig", "EasyStepConfig",
    "EvaluationError", "Evolution", "FitnessFunction", "Individual", "IslandConfig",
    "MAX_RECTANGLES", "MaxGenerations", "MigrantMessage", "MigrationPolicy", "NPointCrossover",
    "OperatorSpec", "RandomSource", "Rectangle", "RectangleArena", "RunStats", "StepFunction",
    "TargetFitness", "Terminator", "bitflip", "canonical_step", "checked_fitness",
    "choose_operator", "consensus_genome", "core", "decode", "derived_seed", "dot_fitness",
    "easy_step", "engine", "evaluate_population", "generate_random_arena", "grid_oracle",
    "hamming", "integrate_migrant", "islands", "load_arena", "n_point_crossover", "onemax",
    "problems", "random_genome", "royal_road", "run", "run_archipelago", "save_arena",
    "select_migrant", "sort_by_fitness", "turnover_count",
]
_DOT_NAMES = [
    "MAX_RECTANGLES", "DotProblemConfig", "Rectangle", "RectangleArena", "dot_fitness",
    "generate_random_arena", "grid_oracle", "load_arena", "save_arena",
]

# run in a fresh interpreter, so that no other test has loaded a module yet
_LAZY_IMPORT_PROBE = """
import json, sys
import evobits
loaded = [
    name for name in ("evobits.problems", "dataclasses", "logging", "numbers")
    if name in sys.modules
]
listed = sorted(set(dir(evobits)) & set(DOT_NAMES))
values = [getattr(evobits, name) for name in DOT_NAMES]
problems = sys.modules["evobits.problems"]
try:
    evobits.no_such_name
    missing = "no error"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "loaded_by_import": loaded,
    "listed_before_use": listed,
    "same_objects": [value is getattr(problems, name) for name, value in zip(DOT_NAMES, values)],
    "missing": missing,
    "onemax": evobits.onemax is evobits.problems.onemax is evobits.core.onemax,
}))
"""

_EXPORTS_PROBE = """
import importlib, json, sys
import evobits
loaded = [
    name for name in ("evobits.problems", "dataclasses", "logging", "numbers")
    if name in sys.modules
]
modules = {
    name: importlib.import_module(f"evobits.{name}")
    for name in ("core", "engine", "islands", "problems")
}
listed = set(modules).union(*(module.__all__ for module in modules.values()))
print(json.dumps({
    "loaded_by_import": loaded,
    "missing": sorted(listed - set(evobits.__all__)),
    "extra": sorted(set(evobits.__all__) - listed),
    "different": sorted(
        f"{module_name}.{name}"
        for module_name, module in modules.items()
        for name in module.__all__
        if getattr(evobits, name, None) is not getattr(module, name)
    ),
    "submodules": [getattr(evobits, name) is module for name, module in modules.items()],
}))
"""

_STAR_IMPORT_PROBE = """
import json
star = {}
exec("from evobits import *", star)
print(json.dumps(sorted(name for name in star if name != "__builtins__")))
"""


def run_fresh_python(code):
    env = dict(os.environ, PYTHONPATH=str(Path(evobits.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLazyImport:
    """``import evobits`` leaves the dot problem's module for its first use."""

    def test_dot_names_load_on_first_use(self):
        result = run_fresh_python(f"DOT_NAMES = {_DOT_NAMES!r}\n{_LAZY_IMPORT_PROBE}")
        assert result["loaded_by_import"] == []
        assert result["listed_before_use"] == sorted(_DOT_NAMES)
        assert result["same_objects"] == [True] * len(_DOT_NAMES)
        assert result["missing"] == "module 'evobits' has no attribute 'no_such_name'"
        assert result["onemax"] is True

    def test_star_import_binds_the_dot_names_too(self):
        assert run_fresh_python(_STAR_IMPORT_PROBE) == sorted(_STAR_NAMES)

    def test_package_exports_exactly_what_its_modules_export(self):
        assert run_fresh_python(_EXPORTS_PROBE) == {
            "loaded_by_import": [],
            "missing": [],
            "extra": [],
            "different": [],
            "submodules": [True] * 4,
        }


# the value flags every subcommand takes (and --config and --arena-file,
# left out here so that no generated case writes a file), then the ones only
# one subcommand takes
_COMMON_VALUE_FLAGS = [
    "--problem", "--seed", "--num-rects", "--arena-side", "--bits", "--block-size",
    "--pop-size", "--max-generations", "--selection-rate", "--mutation-rate",
    "--crossover-rate", "--crossover-points", "--target-fitness", "--dot-x", "--dot-y",
]
_OWN_VALUE_FLAGS = {"run": [], "islands": ["--islands", "--policy"], "bench": ["--repetitions"]}
_OWN_KEYS = {"run": [], "islands": ["islands", "migration_policy"], "bench": ["repetitions"]}
# every value flag of run/islands/bench; a flag a subcommand lacks is a usage error
_VALUE_FLAGS = _COMMON_VALUE_FLAGS + [
    flag for flags in _OWN_VALUE_FLAGS.values() for flag in flags
]
# small integers keep every accepted run tiny; the rest probe parsing and ranges
_VALUES = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(
        ["0", "0.5", "0.75", "1e308", "5e-324", "inf", "-inf", "nan", "", "x", "1_0",
         "dot", "onemax", "royalroad", "best", "mostdifferent"]
    ),
    st.floats().map(repr),
    st.text(max_size=4),
)


class TestCliBoundary:
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["run", "islands", "bench"]),
        pairs=st.lists(st.tuples(st.sampled_from(_VALUE_FLAGS), _VALUES), max_size=5),
    )
    def test_any_flags_exit_cleanly(self, command, pairs):
        tiny = ["--bits", "8", "--pop-size", "4", "--max-generations", "2", "--num-rects", "2"]
        if command == "bench":
            tiny += ["--repetitions", "1"]
        argv = [command, *tiny, *(item for pair in pairs for item in pair)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert out.getvalue() == ""
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert len(errors) == 1


def subcommand_flags(command):
    """Option strings one subcommand's parser takes, ``-h``/``--help`` left out."""
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        flag
        for action in subparsers.choices[command]._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }


class TestFlagTable:
    @pytest.mark.parametrize("command", ["run", "islands", "bench"])
    def test_each_command_takes_exactly_its_value_flags(self, command):
        expected = {"--config", "--arena-file", *_COMMON_VALUE_FLAGS, *_OWN_VALUE_FLAGS[command]}
        assert subcommand_flags(command) == expected

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for owner, flags in _OWN_VALUE_FLAGS.items()
            for flag in flags
            for command in _OWN_VALUE_FLAGS
            if command != owner
        ],
    )
    def test_other_commands_flag_is_a_usage_error(self, command, flag, capsys):
        code, out, err = run_cli([command, flag, "2"], capsys)
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        # run reads the value as a legacy positional, so only the flag is left over
        assert line.startswith(f"error: unrecognized arguments: {flag}")

    @pytest.mark.parametrize(
        "command, key",
        [
            (command, key)
            for owner, keys in _OWN_KEYS.items()
            for key in keys
            for command in _OWN_KEYS
            if command != owner
        ],
    )
    def test_other_commands_file_key_is_rejected(self, command, key, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        value = {"islands": "5", "migration_policy": "best", "repetitions": "3"}[key]
        path.write_text(f"bits = 8\n{key} = {value}\n")
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line == f"error: {path}:2: the {command} command does not take {key}"

    @pytest.mark.parametrize(
        "command, text, key, value",
        [
            ("islands", "islands = 3\nmigration_policy = mostdifferent\n", "islands", 3),
            ("bench", "repetitions = 3\n", "repetitions", 3),
            # with no command, a file may hold every key
            (None, "islands = 3\nrepetitions = 4\n", "repetitions", 4),
        ],
    )
    def test_taken_file_keys_apply(self, command, text, key, value, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert getattr(parse_config(str(path), command=command), key) == value
