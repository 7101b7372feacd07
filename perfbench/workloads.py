"""The benchmark's workloads and one seeded episode of each.

An episode builds its inputs from the workload seed, runs them through
evobits' public API (``run`` or ``Archipelago``) with a probe from
:mod:`spans` around each layer, and returns the final populations and
statistics. Every episode imports evobits afresh, so set-up time includes
executing the library's modules.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import asdict, dataclass, field

SEED_LIMIT = 2**64
# same offset the CLI uses for its arena stream, kept clear of island seeds
ARENA_STREAM = 2**32

# Selection and operators shared by every workload: the ROADMAP's north-star
# settings. The CLI always flips one bit per mutation, so that stays fixed.
SELECTION_RATE = 0.2
MUTATION_FLIPS = 1
MUTATION_RATE = 1.0
CROSSOVER_POINTS = 2
CROSSOVER_RATE = 9.0


@dataclass(frozen=True)
class Workload:
    """One fixed set of inputs; every field but ``name`` and ``dominant`` is a
    parameter, besides the shared selection and operator settings above.

    ``dominant`` is the layer expected to hold the largest self-time share.
    ``target`` mirrors the CLI's target fitness: steady-state runs stop on it,
    islands report it only in the exit code.
    """

    name: str
    dominant: str
    problem: str
    bits: int
    pop_size: int
    generations: int
    target: float
    islands: int = 1
    policy: str | None = None
    num_rects: int | None = None
    arena_side: float | None = None
    block_size: int | None = None

    @property
    def step(self) -> str:
        # the CLI pairs `run` with the steady-state step, `islands` with the generational one
        return "easy_step" if self.islands == 1 else "canonical_step"

    def params(self) -> dict:
        values = asdict(self)
        for key in ("name", "dominant"):
            del values[key]
        values.update(
            step=self.step,
            selection_rate=SELECTION_RATE,
            mutation_flips=MUTATION_FLIPS,
            mutation_rate=MUTATION_RATE,
            crossover_points=CROSSOVER_POINTS,
            crossover_rate=CROSSOVER_RATE,
        )
        return {key: value for key, value in values.items() if value is not None}

    def offspring_per_generation(self) -> int:
        # round-half-up, never below 1: the engine's count of individuals
        # replaced (steady-state) or kept as elites (generational)
        turnover = max(1, math.floor(SELECTION_RATE * self.pop_size + 0.5))
        return turnover if self.islands == 1 else self.pop_size - turnover

    def expected_evaluations(self) -> int:
        """Closed form: each island evaluates N, then its offspring each generation.

        Migrants carry their fitness, so integrating them costs no evaluation.
        """
        per_island = self.pop_size + self.generations * self.offspring_per_generation()
        return self.islands * per_island

    def cli_argv(self, seed: int, arena_file: str | None) -> list[str]:
        """Flags that make ``evobits run`` / ``evobits islands`` run this episode."""
        argv = [
            "run" if self.islands == 1 else "islands",
            "--problem", self.problem,
            "--bits", str(self.bits),
            "--pop-size", str(self.pop_size),
            "--max-generations", str(self.generations),
            "--selection-rate", repr(SELECTION_RATE),
            "--mutation-rate", repr(MUTATION_RATE),
            "--crossover-rate", repr(CROSSOVER_RATE),
            "--crossover-points", str(CROSSOVER_POINTS),
            "--target-fitness", repr(self.target),
            "--seed", str(seed),
        ]
        if self.problem == "dot":
            argv += [
                "--num-rects", str(self.num_rects),
                "--arena-side", repr(self.arena_side),
                "--arena-file", arena_file,
            ]
        if self.problem == "royalroad":
            argv += ["--block-size", str(self.block_size)]
        if self.islands > 1:
            argv += ["--islands", str(self.islands), "--policy", self.policy]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="onemax-steady",
            dominant="engine",
            problem="onemax",
            bits=128,
            pop_size=256,
            generations=1000,
            # one above the optimum: only the generation budget ends the run
            target=129.0,
        ),
        Workload(
            name="dot-dense",
            dominant="problems",
            problem="dot",
            bits=32,
            pop_size=128,
            generations=250,
            # the CLI's default target (num_rects) is far above any reachable count
            target=1999.0,
            num_rects=1999,
            arena_side=10.0,
        ),
        Workload(
            name="islands-mostdifferent",
            dominant="islands",
            problem="royalroad",
            bits=256,
            pop_size=64,
            generations=100,
            target=32.0,
            islands=3,
            policy="mostdifferent",
            block_size=8,
        ),
    )
}


def import_evobits():
    """Import evobits from scratch, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "evobits" or n.startswith("evobits.")]:
        del sys.modules[name]
    return importlib.import_module("evobits")


@dataclass
class Episode:
    """One seeded run; times are readings of the probe's clock, in ns."""

    evo: object
    t_start: int
    t_end: int
    step_entries: list[int]
    # (alias, final population sorted best-first, RunStats), in island order
    results: list[tuple]
    arena: object | None = None
    archipelago: object | None = None
    probe: object | None = field(default=None, repr=False)
    digest: str = ""
    evaluations: int = field(init=False)
    final_best: float = field(init=False)

    def __post_init__(self) -> None:
        self.evaluations = sum(stats.evaluations for _, _, stats in self.results)
        self.final_best = max(pop[0].fitness for _, pop, _ in self.results)

    @property
    def wall_ns(self) -> int:
        return self.t_end - self.t_start

    def release(self) -> None:
        """Drop the run's objects once checked, so later episodes do not
        inherit their memory; times and counts stay."""
        self.evo = self.results = self.arena = self.archipelago = None


def run_episode(w: Workload, seed: int, probe) -> Episode:
    probe.t_start = probe.now()
    with probe.span("setup.import"):
        evo = import_evobits()
    rng_class = probe.random_source(evo.RandomSource)
    arena = None
    if w.problem == "onemax":
        fitness = evo.onemax
    elif w.problem == "royalroad":
        block = w.block_size
        fitness = lambda genome: evo.royal_road(genome, block)  # noqa: E731 (as the CLI)
    else:
        dot_cfg = evo.DotProblemConfig(w.num_rects, w.arena_side, w.bits)
        with probe.span("problems.arena_build"):
            arena = evo.generate_random_arena(
                dot_cfg, rng_class((seed + ARENA_STREAM) % SEED_LIMIT)
            )
        fitness = evo.dot_fitness(dot_cfg, probe.arena(arena))
    fitness = probe.fitness(fitness)
    operators = [
        evo.BitFlip(flip_count=MUTATION_FLIPS, rate=MUTATION_RATE),
        evo.NPointCrossover(points=CROSSOVER_POINTS, rate=CROSSOVER_RATE),
    ]
    cfg = evo.EasyStepConfig(SELECTION_RATE, [probe.operator(op) for op in operators])
    step = probe.step(getattr(evo, w.step))
    archipelago = None
    if w.islands == 1:
        rng = rng_class(seed)
        make_genome = probe.random_genome(evo.random_genome)
        pop = [evo.Individual(make_genome(w.bits, rng)) for _ in range(w.pop_size)]
        terminators = [evo.MaxGenerations(w.generations), evo.TargetFitness(w.target)]
        with probe.span("engine.run"):
            final, stats = evo.run(pop, step, cfg, fitness, terminators, rng)
        results = [("main", final, stats)]
    else:
        archipelago, results = _run_islands(w, seed, probe, evo, rng_class, fitness, cfg, step)
    t_end = probe.now()
    return Episode(
        evo, probe.t_start, t_end, probe.step_entries, results, arena, archipelago, probe
    )


def _run_islands(w, seed, probe, evo, rng_class, fitness, cfg, step):
    # Each island builds its own RandomSource and genomes, and the scheduler
    # selects and integrates migrants, through names the islands module looks
    # up in its own namespace; shadowing them there is the only way to count
    # its draws and time these calls from outside.
    islands_module = sys.modules["evobits.islands"]
    shadows = {
        "RandomSource": rng_class,
        "random_genome": probe.random_genome(evo.random_genome),
        "select_migrant": probe.wrap("islands.select_migrant", evo.select_migrant),
        "integrate_migrant": probe.wrap("islands.integrate_migrant", evo.integrate_migrant),
    }
    saved = {name: getattr(islands_module, name) for name in shadows}
    for name, value in shadows.items():
        setattr(islands_module, name, value)
    try:
        aliases = [f"node_{i}" for i in range(1, w.islands + 1)]
        configs = [
            evo.IslandConfig(
                alias=alias,
                peers=[peer for peer in aliases if peer != alias],
                fitness=fitness,
                pop_size=w.pop_size,
                genome_length=w.bits,
                step_config=cfg,
                terminator=evo.MaxGenerations(w.generations),
                step=step,
                migration_policy=evo.MigrationPolicy(w.policy),
                seed=(seed + i) % SEED_LIMIT,
            )
            for i, alias in enumerate(aliases, 1)
        ]
        with probe.span("islands.init"):
            archipelago = evo.Archipelago(configs)
        with probe.span("islands.run"):
            out = archipelago.run()
    finally:
        for name, value in saved.items():
            setattr(islands_module, name, value)
    return archipelago, [(alias, *out[alias]) for alias in aliases]
