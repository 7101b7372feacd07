"""Golden trajectories: seeded runs must keep reproducing the recorded search.

``golden_trajectories.json`` was recorded from the linear-scan roulette
selection and per-peer migrant selection. Any later speed-up of selection,
variation or migration must leave every pinned value unchanged: the best
fitness of each generation, the final best genome, and the evaluation count.
"""

import json
from pathlib import Path

import pytest

from evobits.core import BitFlip, NPointCrossover, RandomSource, random_genome
from evobits.engine import (
    EasyStepConfig,
    Individual,
    MaxGenerations,
    canonical_step,
    easy_step,
    run,
)
from evobits.islands import Archipelago, IslandConfig, MigrationPolicy
from evobits.problems import onemax, royal_road

GOLDEN = json.loads(Path(__file__).with_name("golden_trajectories.json").read_text())

BITS = 64
POP_SIZE = 32
GENERATIONS = 30
STEPS = {"easy_step": easy_step, "canonical_step": canonical_step}
PROBLEMS = {"onemax": onemax, "royalroad": lambda genome: royal_road(genome, 4)}


def step_config():
    return EasyStepConfig(
        selection_rate=0.2,
        operators=[BitFlip(flip_count=1, rate=1.0), NPointCrossover(points=2, rate=9.0)],
    )


def summary(final, stats):
    return {
        "best_per_generation": [best for _, best in stats.best_per_generation],
        "final_best_genome": str(final[0].genome),
        "evaluations": stats.evaluations,
    }


def single_run(step, problem, seed):
    rng = RandomSource(seed)
    pop = [Individual(random_genome(BITS, rng)) for _ in range(POP_SIZE)]
    final, stats = run(
        pop, STEPS[step], step_config(), PROBLEMS[problem], [MaxGenerations(GENERATIONS)], rng
    )
    assert [g for g, _ in stats.best_per_generation] == list(range(1, GENERATIONS + 1))
    return summary(final, stats)


def archipelago_run():
    aliases = ["node_1", "node_2", "node_3"]
    configs = [
        IslandConfig(
            alias=alias,
            peers=[peer for peer in aliases if peer != alias],
            fitness=PROBLEMS["royalroad"],
            pop_size=POP_SIZE,
            genome_length=BITS,
            step_config=step_config(),
            terminator=MaxGenerations(GENERATIONS),
            step=canonical_step,
            migration_policy=MigrationPolicy.MOST_DIFFERENT,
            seed=seed,
        )
        for seed, alias in enumerate(aliases, 1)
    ]
    results = Archipelago(configs).run()
    return {alias: summary(*results[alias]) for alias in aliases}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("step", sorted(STEPS))
def test_single_population_trajectory(step, problem, seed):
    assert single_run(step, problem, seed) == GOLDEN[f"{step}/{problem}/seed{seed}"]


def test_mostdifferent_archipelago_trajectory():
    assert archipelago_run() == GOLDEN["islands/mostdifferent"]
