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
    Terminator,
    canonical_step,
    easy_step,
    run,
    turnover_count,
)
from .islands import IslandConfig, MigrationPolicy, run_archipelago
from .problems import (
    DotProblemConfig,
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
    islands: int = 2
    migration_policy: str = "best"
    repetitions: int = 5
    arena_file: str | None = None
    dot_x: float | None = None
    dot_y: float | None = None


_PROBLEMS = ("dot", "onemax", "royalroad")
# largest genome length and population size
_MAX_SIZE = 2**20
# most genes the first population (every island's, for islands) may cost,
# counting each genome as its bits plus _GENOME_COST: on a 2-core x86-64 host
# (CPython 3.11) drawing, evaluating and sorting it took about 41 ns a gene
# (0.69 s for 16 genomes of 2**20 bits) plus 3.0-4.7 us a genome, the cost of
# 73-115 genes (1.9 s for 262,144 genomes of 64 bits), so a larger run would
# work for seconds before printing anything
_MAX_GENES = 2**24
_GENOME_COST = 128
# largest island count: fully connected islands send n * (n - 1) migrants a round
_MAX_ISLANDS = 256


def _rule(accept: Callable[[Any], bool], requirement: str) -> Callable[[Any], None]:
    def check(value: Any) -> None:
        if not accept(value):
            raise ValueError(f"{requirement}, got {value!r}")
    return check


# key -> (cast from string, owner raising ValueError on a value it cannot use,
# flag metavar, flag help), in --help order: the keys only one command takes come last
_KEYS: dict[str, tuple[Callable[[str], Any], Callable[[Any], object] | None, str, str]] = {
    "problem": (str, _rule(_PROBLEMS.__contains__, f"must be one of {', '.join(_PROBLEMS)}"),
                "NAME", "dot, onemax, or royalroad"),
    "seed": (int, RandomSource, "N", "random seed"),
    "num_rects": (int, lambda v: DotProblemConfig(num_rects=v),
                  "N", "dot: rectangle count parameter"),
    "arena_side": (float, lambda v: DotProblemConfig(arena_side=v), "X", "dot: arena side length"),
    "bits": (int, _rule(lambda v: 1 <= v <= _MAX_SIZE, f"must be in [1, {_MAX_SIZE}]"),
             "N", "genome length in bits"),
    "block_size": (int, _rule(lambda v: v >= 1, "must be at least 1"),
                   "N", "royalroad: block size"),
    "pop_size": (int, _rule(lambda v: 2 <= v <= _MAX_SIZE, f"must be in [2, {_MAX_SIZE}]"),
                 "N", "population size"),
    "max_generations": (int, MaxGenerations, "N", "generation limit"),
    "selection_rate": (float, lambda v: EasyStepConfig(v, [BitFlip()]),
                       "Q", "population turnover fraction"),
    "mutation_rate": (float, lambda v: BitFlip(rate=v), "R", "bit-flip operator rate"),
    "crossover_rate": (float, lambda v: NPointCrossover(rate=v), "R", "crossover operator rate"),
    "crossover_points": (int, lambda v: NPointCrossover(points=v), "N", "crossover cut points"),
    "target_fitness": (float, TargetFitness, "T", "stop once best reaches T"),
    "arena_file": (str, None, "FILE",
                   "dot: arena fixture; loaded if present, otherwise generated and saved"),
    "dot_x": (float, None, "X", "accepted for compatibility; unused"),
    "dot_y": (float, None, "Y", "accepted for compatibility; unused"),
    "islands": (int, _rule(lambda v: 2 <= v <= _MAX_ISLANDS, f"must be in [2, {_MAX_ISLANDS}]"),
                "N", "number of islands"),
    "migration_policy": (str, MigrationPolicy, "NAME", "migration policy: best or mostdifferent"),
    "repetitions": (int, _rule(lambda v: v >= 1, "must be at least 1"), "N", "timing repetitions"),
}

# command -> (its help, the keys only it takes); every command takes the rest
_COMMANDS = {
    "run": ("run one experiment", ()),
    "islands": ("run an island-model experiment", ("islands", "migration_policy")),
    "bench": ("time generations and report throughput", ("repetitions",)),
}
_COMMAND_KEYS = {key for _, keys in _COMMANDS.values() for key in keys}


def _takes(command: str | None, key: str) -> bool:
    """Whether ``command`` takes ``key``; no command takes every key."""
    return command is None or key not in _COMMAND_KEYS or key in _COMMANDS[command][1]


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
    cast, owner, _, _ = _KEYS[key]
    try:
        parsed = cast(value)
    except ValueError:
        raise ConfigError(f"{where}: invalid value for {key}: {value!r}") from None
    if owner is not None:
        _owned(f"{where}: {key}", owner, parsed)
    setattr(cfg, key, parsed)


def _check_cross_field(cfg: ExperimentConfig, command: str | None) -> None:
    keys, genes = "bits, pop_size", cfg.pop_size * (cfg.bits + _GENOME_COST)
    if command == "islands":
        keys, genes = "bits, pop_size, islands", genes * cfg.islands
    if genes > _MAX_GENES:
        raise ConfigError(
            f"{keys}: the first population would cost {genes} genes "
            f"({_GENOME_COST} a genome on top of its bits), more than {_MAX_GENES}"
        )
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
    command: str | None = None,
) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a ``key = value`` file and flags.

    Precedence, lowest first: built-in defaults, ``defaults``, the config
    file, then ``overrides`` (command-line values). Every value and every rule
    across keys is checked here; a rejection names the offending key and line.
    For a ``command`` (``run``, ``islands`` or ``bench``), a file key that only
    another command takes is rejected, and the gene budget counts every island.
    """
    cfg = ExperimentConfig()
    for key, value in (defaults or {}).items():
        _apply(cfg, key, value, "defaults")
    if path is not None:
        try:
            lines = Path(path).read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key in _KEYS and not _takes(command, key):
                raise ConfigError(f"{path}:{lineno}: the {command} command does not take {key}")
            _apply(cfg, key, value.strip(), f"{path}:{lineno}")
    for key, value in (overrides or {}).items():
        _apply(cfg, key, value, "command line")
    _check_cross_field(cfg, command)
    return cfg


# arena generation draws from its own stream so a run's trajectory is the
# same whether the arena was generated or loaded from a fixture; the offset
# keeps it clear of per-island and per-repetition seeds
_ARENA_STREAM = 2**32


def _build_problem(cfg: ExperimentConfig) -> tuple[FitnessFunction, float]:
    """Fitness function of the configured problem, over ``cfg.bits``-bit genomes,
    and the target: the configured one, or else the problem's optimum."""
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
        fitness, optimum = dot_fitness(dot_cfg, arena), float(cfg.num_rects)
    elif cfg.problem == "onemax":
        fitness, optimum = onemax, float(cfg.bits)
    else:
        block = cfg.block_size
        fitness, optimum = (lambda genome: royal_road(genome, block)), float(cfg.bits // block)
    return fitness, optimum if cfg.target_fitness is None else cfg.target_fitness


def _step_config(cfg: ExperimentConfig) -> EasyStepConfig:
    mutation = BitFlip(flip_count=1, rate=cfg.mutation_rate)
    crossover = NPointCrossover(points=cfg.crossover_points, rate=cfg.crossover_rate)
    return EasyStepConfig(cfg.selection_rate, [mutation, crossover])


def _evolve(
    cfg: ExperimentConfig, seed: int, fitness: FitnessFunction, terminators: list[Terminator]
) -> tuple[list[Individual], RunStats]:
    """One steady-state run from a population drawn with ``seed``."""
    rng = RandomSource(seed)
    pop = [Individual(random_genome(cfg.bits, rng)) for _ in range(cfg.pop_size)]
    return run(pop, easy_step, _step_config(cfg), fitness, terminators, rng)


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


def _summarise(
    best: float, generations: int, evaluations: int, seconds: float, target: float
) -> int:
    """Print the closing summary line; the exit code says whether ``target`` was reached."""
    print(
        f"# best={_fmt(best)} generations={generations} "
        f"evaluations={evaluations} time_ms={seconds * 1000:.3f}"
    )
    return 0 if best >= target else 2


def _terminators(cfg: ExperimentConfig, target: float) -> list[Terminator]:
    """Stop at the generation limit or once the best reaches ``target``."""
    return [MaxGenerations(cfg.max_generations), TargetFitness(target)]


def _cmd_run(cfg: ExperimentConfig) -> int:
    fitness, target = _build_problem(cfg)
    final, stats = _evolve(cfg, cfg.seed, fitness, _terminators(cfg, target))
    writer = _writer()
    writer.writerow(["generation", "best_fitness", "evaluations", "elapsed_ms"])
    _emit_result_rows(writer, stats)
    return _summarise(
        final[0].fitness, stats.generations_executed, stats.evaluations, stats.wall_time, target
    )


def _cmd_islands(cfg: ExperimentConfig) -> int:
    policy = MigrationPolicy(cfg.migration_policy)
    fitness, target = _build_problem(cfg)
    step_cfg = _step_config(cfg)
    aliases = [f"node_{i}" for i in range(1, cfg.islands + 1)]
    configs = [
        IslandConfig(
            alias=alias,
            peers=[peer for peer in aliases if peer != alias],
            fitness=fitness,
            pop_size=cfg.pop_size,
            genome_length=cfg.bits,
            step_config=step_cfg,
            terminator=_terminators(cfg, target),
            step=canonical_step,
            migration_policy=policy,
            seed=derived_seed(cfg.seed, i),
        )
        for i, alias in enumerate(aliases, 1)
    ]
    results = run_archipelago(configs)
    writer = _writer()
    writer.writerow(["island", "generation", "best_fitness", "evaluations", "elapsed_ms"])
    for alias, (_, stats) in results.items():
        _emit_result_rows(writer, stats, prefix=[alias])
    # fitness is never negative, so 0 starts the best-of
    best = generations = evaluations = seconds = 0
    for alias, (pop, stats) in results.items():
        print(
            f"# island={alias} best={_fmt(pop[0].fitness)} "
            f"generations={stats.generations_executed} evaluations={stats.evaluations}"
        )
        best = max(best, pop[0].fitness)
        generations = max(generations, stats.generations_executed)
        evaluations += stats.evaluations
        seconds = max(seconds, stats.wall_time)
    return _summarise(best, generations, evaluations, seconds, target)


def _bench_row(label, generations, evaluations, seconds, mean_ms, min_ms) -> list:
    rate = evaluations / seconds if seconds > 0 else 0.0
    times = (f"{ms:.3f}" for ms in (seconds * 1000, mean_ms, min_ms))
    return [label, generations, evaluations, *times, f"{rate:.1f}"]


def _cmd_bench(cfg: ExperimentConfig) -> int:
    fitness, _ = _build_problem(cfg)
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
    reps = []
    for rep in range(1, cfg.repetitions + 1):
        terminators = [MaxGenerations(cfg.max_generations)]
        _, stats = _evolve(cfg, derived_seed(cfg.seed, rep), fitness, terminators)
        # per-generation durations; the first one includes the initial evaluation
        durations = [
            after - before
            for before, after in zip([0.0] + stats.elapsed_seconds, stats.elapsed_seconds)
        ]
        mean_ms, min_ms = sum(durations) / len(durations) * 1000, min(durations) * 1000
        row = stats.generations_executed, stats.evaluations, stats.wall_time, mean_ms, min_ms
        reps.append(row)
        writer.writerow(_bench_row(rep, *row))
    generations, evaluations, seconds, mean_ms, min_ms = zip(*reps)
    totals = sum(generations), sum(evaluations), sum(seconds)
    writer.writerow(_bench_row("summary", *totals, sum(mean_ms) / len(mean_ms), min(min_ms)))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    # route usage errors through ConfigError so exit codes stay meaningful
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="evobits",
        description="Evolutionary algorithms over bitstring genomes, reporting CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, _) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=command_help)
        command_parser.add_argument("--config", metavar="FILE", help="key = value config file")
        for key, (_, _, metavar, key_help) in _KEYS.items():
            if _takes(command, key):
                flag = "--policy" if key == "migration_policy" else "--" + key.replace("_", "-")
                command_parser.add_argument(flag, dest=key, metavar=metavar, help=key_help)
    sub.choices["run"].add_argument(
        "legacy",
        nargs="*",
        metavar="LEGACY",
        help="optional positional defaults: "
        "num_rects arena_side dot_x dot_y bits pop_size num_gens selection_rate",
    )
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
        cfg = parse_config(args.config, _overrides_from_args(args), defaults, args.command)
        if cfg.dot_x is not None or cfg.dot_y is not None:
            print(
                "warning: dot_x/dot_y are accepted for compatibility and ignored",
                file=sys.stderr,
            )
        if args.command == "bench" and cfg.target_fitness is not None:
            print(
                "warning: bench runs max_generations every repetition and ignores target_fitness",
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
