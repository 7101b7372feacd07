"""Command-line front end: seeded experiments, island runs, and benchmarks.

Results go to stdout as CSV (one row per generation plus a trailing summary
comment), diagnostics to stderr. Exit codes: 0 when the target fitness was
reached, 2 when the generation limit stopped the run, 1 on any error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .core import BitFlip, NPointCrossover, RandomSource, derived_seed, random_genome
from .engine import (
    EasyStepConfig,
    EvaluationError,
    FitnessFunction,
    Individual,
    MaxGenerations,
    RunStats,
    TargetFitness,
    canonical_step,
    easy_step,
    run,
    turnover_count,
)
from .islands import IslandConfig, MigrationPolicy, run_archipelago
from .problems import (
    DotProblemConfig,
    RectangleArena,
    dot_fitness,
    generate_random_arena,
    load_arena,
    onemax,
    royal_road,
    save_arena,
)

__all__ = ["ConfigError", "ExperimentConfig", "main", "parse_config"]


class ConfigError(Exception):
    """Configuration input that cannot be used."""


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; defaults mirror the bundled dot setup."""

    problem: str = "dot"
    num_rects: int = 25
    arena_side: float = 10.0
    bits: int = 32
    block_size: int = 4
    pop_size: int = 64
    max_generations: int = 50
    selection_rate: float = 0.2
    mutation_rate: float = 1.0
    crossover_rate: float = 9.0
    crossover_points: int = 2
    seed: int = 42
    target_fitness: float | None = None
    islands: int | None = None
    migration_policy: str = "best"
    repetitions: int = 5
    arena_file: str | None = None
    dot_x: float | None = None
    dot_y: float | None = None


_PROBLEMS = ("dot", "onemax", "royalroad")


def _rule(accept: Callable[[Any], bool], requirement: str) -> Callable[[Any], None]:
    def check(value: Any) -> None:
        if not accept(value):
            raise ValueError(f"{requirement}, got {value!r}")
    return check


# key -> (cast from string, owner raising ValueError on a value it cannot use)
_KEYS: dict[str, tuple[Callable[[str], Any], Callable[[Any], object] | None]] = {
    "problem": (str, _rule(_PROBLEMS.__contains__, f"must be one of {', '.join(_PROBLEMS)}")),
    "num_rects": (int, lambda v: DotProblemConfig(num_rects=v)),
    "arena_side": (float, lambda v: DotProblemConfig(arena_side=v)),
    "bits": (int, _rule(lambda v: v >= 1, "must be at least 1")),
    "block_size": (int, _rule(lambda v: v >= 1, "must be at least 1")),
    "pop_size": (int, _rule(lambda v: v >= 2, "must be at least 2")),
    "max_generations": (int, MaxGenerations),
    "selection_rate": (float, lambda v: EasyStepConfig(v, [BitFlip()])),
    "mutation_rate": (float, lambda v: BitFlip(rate=v)),
    "crossover_rate": (float, lambda v: NPointCrossover(rate=v)),
    "crossover_points": (int, lambda v: NPointCrossover(points=v)),
    "seed": (int, RandomSource),
    "target_fitness": (float, TargetFitness),
    "islands": (int, _rule(lambda v: v >= 2, "must be at least 2")),
    "migration_policy": (str, MigrationPolicy),
    "repetitions": (int, _rule(lambda v: v >= 1, "must be at least 1")),
    "arena_file": (str, None),
    "dot_x": (float, None),
    "dot_y": (float, None),
}

# legacy trailing arguments, in their historical order
_POSITIONAL_KEYS = (
    "num_rects",
    "arena_side",
    "dot_x",
    "dot_y",
    "bits",
    "pop_size",
    "max_generations",
    "selection_rate",
)


def _owned(keys: str, owner: Callable[..., object], *args: Any) -> None:
    """Call ``owner(*args)``; a value it rejects is a ConfigError naming ``keys``."""
    try:
        owner(*args)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _apply(cfg: ExperimentConfig, key: str, value: str, where: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    cast, owner = _KEYS[key]
    try:
        parsed = cast(value)
    except ValueError:
        raise ConfigError(f"{where}: invalid value for {key}: {value!r}") from None
    if owner is not None:
        _owned(f"{where}: {key}", owner, parsed)
    setattr(cfg, key, parsed)


def _check_cross_field(cfg: ExperimentConfig) -> None:
    if cfg.problem == "dot":
        _owned("bits", DotProblemConfig, cfg.num_rects, cfg.arena_side, cfg.bits)
    if cfg.problem == "royalroad" and cfg.bits % cfg.block_size != 0:
        raise ConfigError(
            f"block_size {cfg.block_size} does not divide bits {cfg.bits}"
        )
    if cfg.crossover_points >= cfg.bits:
        raise ConfigError(
            f"crossover_points must be below bits ({cfg.bits}), "
            f"got {cfg.crossover_points}"
        )
    _owned("mutation_rate, crossover_rate", _step_config, cfg)
    _owned("selection_rate, pop_size", turnover_count, cfg.selection_rate, cfg.pop_size)


def parse_config(
    path: str | None = None,
    overrides: Mapping[str, str] | None = None,
    defaults: Mapping[str, str] | None = None,
) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a ``key = value`` file and flags.

    Precedence, lowest first: built-in defaults, ``defaults``, the config
    file, then ``overrides`` (command-line values). Every value and every rule
    across keys is checked here; a rejection names the offending key and line.
    """
    cfg = ExperimentConfig()
    for key, value in (defaults or {}).items():
        _apply(cfg, key, value, "defaults")
    if path is not None:
        try:
            lines = Path(path).read_text().splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            _apply(cfg, key.strip(), value.strip(), f"{path}:{lineno}")
    for key, value in (overrides or {}).items():
        _apply(cfg, key, value, "command line")
    _check_cross_field(cfg)
    return cfg


# arena generation draws from its own stream so a run's trajectory is the
# same whether the arena was generated or loaded from a fixture; the offset
# keeps it clear of per-island and per-repetition seeds
_ARENA_STREAM = 2**32


def _default_target(cfg: ExperimentConfig) -> float:
    """Problem-specific target when none was configured."""
    if cfg.target_fitness is not None:
        return cfg.target_fitness
    if cfg.problem == "dot":
        return float(cfg.num_rects)
    if cfg.problem == "onemax":
        return float(cfg.bits)
    return float(cfg.bits // cfg.block_size)


def _build_problem(
    cfg: ExperimentConfig,
) -> tuple[FitnessFunction, int, RectangleArena | None]:
    """Fitness function, genome length, and (for dot) the arena in use."""
    if cfg.problem == "dot":
        dot_cfg = DotProblemConfig(cfg.num_rects, cfg.arena_side, cfg.bits)
        if cfg.arena_file is not None and Path(cfg.arena_file).exists():
            arena = load_arena(cfg.arena_file, cfg.arena_side)
            # the count a generated arena has; num_rects also sets the target
            if len(arena) != cfg.num_rects + 1:
                raise ConfigError(
                    f"{cfg.arena_file} holds {len(arena)} rectangles, "
                    f"num_rects {cfg.num_rects} needs {cfg.num_rects + 1}"
                )
        else:
            arena_rng = RandomSource(derived_seed(cfg.seed, _ARENA_STREAM))
            arena = generate_random_arena(dot_cfg, arena_rng)
            if cfg.arena_file is not None:
                save_arena(arena, cfg.arena_file)
        return dot_fitness(dot_cfg, arena), cfg.bits, arena
    if cfg.problem == "onemax":
        return onemax, cfg.bits, None
    block = cfg.block_size
    return (lambda genome: royal_road(genome, block)), cfg.bits, None


def _step_config(cfg: ExperimentConfig) -> EasyStepConfig:
    mutation = BitFlip(flip_count=1, rate=cfg.mutation_rate)
    crossover = NPointCrossover(points=cfg.crossover_points, rate=cfg.crossover_rate)
    return EasyStepConfig(cfg.selection_rate, [mutation, crossover])


def _initial_population(length: int, size: int, rng: RandomSource) -> list[Individual]:
    return [Individual(random_genome(length, rng)) for _ in range(size)]


def _fmt(value: float) -> str:
    return format(value, "g")


def _writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _emit_result_rows(writer, stats: RunStats, prefix: Sequence = ()) -> None:
    rows = zip(stats.best_per_generation, stats.cumulative_evaluations, stats.elapsed_seconds)
    for (generation, best), evaluations, seconds in rows:
        writer.writerow(
            [*prefix, generation, _fmt(best), evaluations, f"{seconds * 1000:.3f}"]
        )


def _cmd_run(cfg: ExperimentConfig) -> int:
    rng = RandomSource(cfg.seed)
    fitness, length, _arena = _build_problem(cfg)
    target = _default_target(cfg)
    step_cfg = _step_config(cfg)
    pop = _initial_population(length, cfg.pop_size, rng)
    terminators = [MaxGenerations(cfg.max_generations), TargetFitness(target)]
    final, stats = run(pop, easy_step, step_cfg, fitness, terminators, rng)
    writer = _writer()
    writer.writerow(["generation", "best_fitness", "evaluations", "elapsed_ms"])
    _emit_result_rows(writer, stats)
    best = final[0].fitness
    print(
        f"# best={_fmt(best)} generations={stats.generations_executed} "
        f"evaluations={stats.evaluations} time_ms={stats.wall_time * 1000:.3f}"
    )
    return 0 if best >= target else 2


def _cmd_islands(cfg: ExperimentConfig) -> int:
    count = cfg.islands if cfg.islands is not None else 2
    policy = MigrationPolicy(cfg.migration_policy)
    fitness, length, _arena = _build_problem(cfg)
    target = _default_target(cfg)
    step_cfg = _step_config(cfg)
    aliases = [f"node_{i}" for i in range(1, count + 1)]
    configs = [
        IslandConfig(
            alias=alias,
            peers=[peer for peer in aliases if peer != alias],
            fitness=fitness,
            pop_size=cfg.pop_size,
            genome_length=length,
            step_config=step_cfg,
            terminator=MaxGenerations(cfg.max_generations),
            step=canonical_step,
            migration_policy=policy,
            seed=derived_seed(cfg.seed, i),
        )
        for i, alias in enumerate(aliases, 1)
    ]
    results = run_archipelago(configs)
    writer = _writer()
    writer.writerow(["island", "generation", "best_fitness", "evaluations", "elapsed_ms"])
    for alias in aliases:
        _, stats = results[alias]
        _emit_result_rows(writer, stats, prefix=[alias])
    for alias in aliases:
        pop, stats = results[alias]
        print(
            f"# island={alias} best={_fmt(pop[0].fitness)} "
            f"generations={stats.generations_executed} evaluations={stats.evaluations}"
        )
    best = max(results[alias][0][0].fitness for alias in aliases)
    generations = max(results[alias][1].generations_executed for alias in aliases)
    evaluations = sum(results[alias][1].evaluations for alias in aliases)
    time_ms = max(results[alias][1].wall_time for alias in aliases) * 1000
    print(
        f"# best={_fmt(best)} generations={generations} "
        f"evaluations={evaluations} time_ms={time_ms:.3f}"
    )
    return 0 if best >= target else 2


def _cmd_bench(cfg: ExperimentConfig) -> int:
    fitness, length, _arena = _build_problem(cfg)
    step_cfg = _step_config(cfg)
    writer = _writer()
    writer.writerow(
        [
            "repetition",
            "generations",
            "evaluations",
            "total_ms",
            "mean_gen_ms",
            "min_gen_ms",
            "evals_per_sec",
        ]
    )
    total_generations = 0
    total_evaluations = 0
    total_seconds = 0.0
    mean_gen_ms = []
    min_gen_ms = []
    for rep in range(1, cfg.repetitions + 1):
        rng = RandomSource(derived_seed(cfg.seed, rep))
        pop = _initial_population(length, cfg.pop_size, rng)
        _, stats = run(
            pop, easy_step, step_cfg, fitness, [MaxGenerations(cfg.max_generations)], rng
        )
        # per-generation durations; the first one includes the initial evaluation
        durations = [
            after - before
            for before, after in zip([0.0] + stats.elapsed_seconds, stats.elapsed_seconds)
        ]
        mean_ms = sum(durations) / len(durations) * 1000
        min_ms = min(durations) * 1000
        rate = stats.evaluations / stats.wall_time if stats.wall_time > 0 else 0.0
        writer.writerow(
            [
                rep,
                stats.generations_executed,
                stats.evaluations,
                f"{stats.wall_time * 1000:.3f}",
                f"{mean_ms:.3f}",
                f"{min_ms:.3f}",
                f"{rate:.1f}",
            ]
        )
        total_generations += stats.generations_executed
        total_evaluations += stats.evaluations
        total_seconds += stats.wall_time
        mean_gen_ms.append(mean_ms)
        min_gen_ms.append(min_ms)
    overall_rate = total_evaluations / total_seconds if total_seconds > 0 else 0.0
    writer.writerow(
        [
            "summary",
            total_generations,
            total_evaluations,
            f"{total_seconds * 1000:.3f}",
            f"{sum(mean_gen_ms) / len(mean_gen_ms):.3f}",
            f"{min(min_gen_ms):.3f}",
            f"{overall_rate:.1f}",
        ]
    )
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    # route usage errors through ConfigError so exit codes stay meaningful
    def error(self, message):
        raise ConfigError(message)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    parser.add_argument("--problem", metavar="NAME", help="dot, onemax, or royalroad")
    parser.add_argument("--seed", metavar="N", help="random seed")
    parser.add_argument("--num-rects", metavar="N", help="dot: rectangle count parameter")
    parser.add_argument("--arena-side", metavar="X", help="dot: arena side length")
    parser.add_argument("--bits", metavar="N", help="genome length in bits")
    parser.add_argument("--block-size", metavar="N", help="royalroad: block size")
    parser.add_argument("--pop-size", metavar="N", help="population size")
    parser.add_argument("--max-generations", metavar="N", help="generation limit")
    parser.add_argument("--selection-rate", metavar="Q", help="population turnover fraction")
    parser.add_argument("--mutation-rate", metavar="R", help="bit-flip operator rate")
    parser.add_argument("--crossover-rate", metavar="R", help="crossover operator rate")
    parser.add_argument("--crossover-points", metavar="N", help="crossover cut points")
    parser.add_argument("--target-fitness", metavar="T", help="stop once best reaches T")
    parser.add_argument(
        "--arena-file",
        metavar="FILE",
        help="dot: arena fixture; loaded if present, otherwise generated and saved",
    )
    parser.add_argument("--dot-x", metavar="X", help="accepted for compatibility; unused")
    parser.add_argument("--dot-y", metavar="Y", help="accepted for compatibility; unused")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="evobits",
        description="Evolutionary algorithms over bitstring genomes, reporting CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment")
    _add_common_flags(run_parser)
    run_parser.add_argument(
        "legacy",
        nargs="*",
        metavar="LEGACY",
        help="optional positional defaults: "
        "num_rects arena_side dot_x dot_y bits pop_size num_gens selection_rate",
    )

    islands_parser = sub.add_parser("islands", help="run an island-model experiment")
    _add_common_flags(islands_parser)
    islands_parser.add_argument("--islands", metavar="N", help="number of islands")
    islands_parser.add_argument(
        "--policy",
        dest="migration_policy",
        metavar="NAME",
        help="migration policy: best or mostdifferent",
    )

    bench_parser = sub.add_parser("bench", help="time generations and report throughput")
    _add_common_flags(bench_parser)
    bench_parser.add_argument("--repetitions", metavar="N", help="timing repetitions")

    return parser


# bench measures throughput on a heavier default workload
_BENCH_DEFAULTS = {
    "problem": "onemax",
    "bits": "128",
    "pop_size": "256",
    "max_generations": "100",
}


def _overrides_from_args(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    legacy = getattr(args, "legacy", None) or []
    if len(legacy) > len(_POSITIONAL_KEYS):
        raise ConfigError(
            f"at most {len(_POSITIONAL_KEYS)} positional arguments are understood, "
            f"got {len(legacy)}"
        )
    for key, value in zip(_POSITIONAL_KEYS, legacy):
        overrides[key] = value
    for key in _KEYS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return overrides


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        defaults = _BENCH_DEFAULTS if args.command == "bench" else None
        cfg = parse_config(args.config, _overrides_from_args(args), defaults)
        if cfg.dot_x is not None or cfg.dot_y is not None:
            print(
                "warning: dot_x/dot_y are accepted for compatibility and ignored",
                file=sys.stderr,
            )
        if args.command == "run":
            return _cmd_run(cfg)
        if args.command == "islands":
            return _cmd_islands(cfg)
        return _cmd_bench(cfg)
    except (ConfigError, EvaluationError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
