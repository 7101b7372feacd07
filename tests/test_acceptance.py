"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import statistics
import time

from evobits.core import (
    BitFlip,
    BitGenome,
    NPointCrossover,
    RandomSource,
    choose_operator,
    decode,
    random_genome,
)
from evobits.engine import (
    EasyStepConfig,
    Individual,
    MaxGenerations,
    TargetFitness,
    canonical_step,
    easy_step,
    run,
)
from evobits.islands import Archipelago, IslandConfig, run_archipelago
from evobits.problems import (
    DotProblemConfig,
    Rectangle,
    RectangleArena,
    dot_fitness,
    generate_random_arena,
    grid_oracle,
    onemax,
)


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def reference_operators():
    return [BitFlip(flip_count=1, rate=1.0), NPointCrossover(points=2, rate=9.0)]


def reference_step_config():
    return EasyStepConfig(selection_rate=0.2, operators=reference_operators())


def test_criterion_1_operator_mix_fidelity():
    ops = reference_operators()
    rng = RandomSource(101)
    draws = 100_000
    start = time.perf_counter()
    crossover_picks = sum(choose_operator(ops, rng) == 1 for _ in range(draws))
    elapsed = time.perf_counter() - start
    frequency = crossover_picks / draws
    ok = abs(frequency - 0.90) <= 0.01 and elapsed < 1.0
    report(
        1,
        f"rates (1, 9) give crossover frequency {frequency:.4f} = 0.90 +- 0.01 "
        f"over {draws} draws in {elapsed:.3f}s (< 1s)",
        ok,
    )


def test_criterion_2_dot_in_rectangles_reproduction():
    dot_cfg = DotProblemConfig()  # 26 rectangles, arena 10, 32 bits
    arena = generate_random_arena(dot_cfg, RandomSource(2009))
    optimum, _ = grid_oracle(arena, 200)
    level = 0.9 * optimum
    reached = 0
    generations_to_level = []
    slow_runs = 0
    for seed in range(1, 21):
        rng = RandomSource(seed)
        fitness = dot_fitness(dot_cfg, arena)
        pop = [Individual(random_genome(32, rng)) for _ in range(64)]
        start = time.perf_counter()
        final, stats = run(
            pop,
            easy_step,
            reference_step_config(),
            fitness,
            [MaxGenerations(50), TargetFitness(float(dot_cfg.num_rects))],
            rng,
        )
        if time.perf_counter() - start >= 1.0:
            slow_runs += 1
        first = next(
            (g for g, best in stats.best_per_generation if best >= level), None
        )
        if first is None and final[0].fitness >= level:
            first = 0  # initial population already at level
        if first is not None:
            reached += 1
            generations_to_level.append(first)
    censored = generations_to_level + [float("inf")] * (20 - reached)
    median_generations = statistics.median(sorted(censored))
    ok = reached >= 18 and median_generations <= 40
    report(
        2,
        f"default-config dot runs: {reached}/20 reached 0.9 x oracle optimum "
        f"{optimum} within 50 generations (need >= 18); median "
        f"generations-to-level {median_generations} (need <= 40)",
        ok,
    )
    if slow_runs:
        print(
            f"  advisory: {slow_runs} run(s) took >= 1s on this machine "
            "(warn only, not a failure)"
        )


def test_criterion_3_onemax_convergence():
    reached = 0
    for seed in range(1, 21):
        rng = RandomSource(seed)
        pop = [Individual(random_genome(32, rng)) for _ in range(64)]
        final, _ = run(
            pop,
            easy_step,
            reference_step_config(),
            onemax,
            [MaxGenerations(100), TargetFitness(32.0)],
            rng,
        )
        if final[0].fitness >= 32:
            reached += 1
    ok = reached >= 18
    report(
        3,
        f"onemax bits=32 pop=64: {reached}/20 seeded runs hit fitness 32 "
        f"within 100 generations (need >= 18)",
        ok,
    )


def test_criterion_4_stabbing_index_oracle_equivalence():
    rng = RandomSource(404)
    side = 10.0
    rectangles = []
    for i in range(500):
        x0 = rng.uniform(0, side)
        y0 = rng.uniform(0, side)
        rectangles.append(
            Rectangle(f"rect_{i}", x0, y0, x0 + rng.uniform(0, side), y0 + rng.uniform(0, side))
        )
    arena = RectangleArena(rectangles, side)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        x = rng.uniform(-1.0, 2 * side + 1.0)
        y = rng.uniform(-1.0, 2 * side + 1.0)
        if arena.rectangles_containing_dot(x, y) != arena.rectangles_containing_dot_brute(x, y):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    report(
        4,
        f"500 rectangles x 1000 dots: indexed query matched brute force on "
        f"{1000 - mismatches}/1000 queries in {elapsed:.2f}s (< 5s)",
        ok,
    )


def test_criterion_5_evaluation_accounting():
    calls = 0

    def counting_onemax(genome):
        nonlocal calls
        calls += 1
        return onemax(genome)

    pop_size = 64
    rng = RandomSource(505)
    pop = [Individual(random_genome(32, rng)) for _ in range(pop_size)]
    _, stats = run(
        pop, easy_step, reference_step_config(), counting_onemax, [MaxGenerations(10)], rng
    )
    offspring_per_generation = 13  # max(1, round(0.2 * 64))
    expected = pop_size + 10 * offspring_per_generation
    ok = stats.evaluations == expected == calls
    report(
        5,
        f"10-generation run made exactly {stats.evaluations} evaluations "
        f"(expected {expected}; fitness function saw {calls})",
        ok,
    )


def test_criterion_6_island_model_message_accounting():
    configs = [
        IslandConfig(
            alias=alias,
            peers=[peer],
            fitness=onemax,
            pop_size=64,
            genome_length=32,
            step_config=reference_step_config(),
            terminator=MaxGenerations(10),
            seed=seed,
        )
        for alias, peer, seed in (("node_1", "node_2", 601), ("node_2", "node_1", 602))
    ]
    arch = Archipelago(configs)
    results = arch.run()
    generations = [stats.generations_executed for _, stats in results.values()]
    sizes = {
        line.split("size=")[1].split()[0]
        for line in arch.log
        if " step " in f" {line} " and "size=" in line
    }
    ok = (
        arch.messages_sent == 20
        and arch.messages_delivered == 20
        and generations == [10, 10]
        and sizes == {"64"}
        and all(len(pop) == 64 for pop, _ in results.values())
    )
    report(
        6,
        f"2 islands, 10 generations, 1 peer each: {arch.messages_sent} sent / "
        f"{arch.messages_delivered} delivered (expected 20/20), generations "
        f"{generations}, step sizes {sorted(sizes)}",
        ok,
    )


def test_criterion_7_determinism():
    def single_run():
        rng = RandomSource(700)
        pop = [Individual(random_genome(32, rng)) for _ in range(64)]
        final, stats = run(
            pop, easy_step, reference_step_config(), onemax, [MaxGenerations(20)], rng
        )
        return stats.best_per_generation, str(final[0].genome)

    def archipelago_run():
        configs = [
            IslandConfig(
                alias=alias,
                peers=[peer],
                fitness=onemax,
                pop_size=32,
                genome_length=24,
                step_config=reference_step_config(),
                terminator=MaxGenerations(12),
                seed=seed,
            )
            for alias, peer, seed in (("a", "b", 701), ("b", "a", 702))
        ]
        results = run_archipelago(configs)
        return {
            alias: (stats.best_per_generation, str(pop[0].genome))
            for alias, (pop, stats) in results.items()
        }

    single_ok = single_run() == single_run()
    archipelago_ok = archipelago_run() == archipelago_run()
    ok = single_ok and archipelago_ok
    report(
        7,
        f"fixed seeds twice: single run identical={single_ok}, "
        f"archipelago identical={archipelago_ok}",
        ok,
    )


def test_criterion_8_monotone_best_fitness():
    violations = 0
    for index in range(50):
        step = easy_step if index % 2 == 0 else canonical_step
        rng = RandomSource(800 + index)
        pop_size = 8 + (index % 5) * 8
        bits = 16 + (index % 3) * 8
        pop = [Individual(random_genome(bits, rng)) for _ in range(pop_size)]
        _, stats = run(
            pop, step, reference_step_config(), onemax, [MaxGenerations(15)], rng
        )
        values = [best for _, best in stats.best_per_generation]
        if values != sorted(values):
            violations += 1
    ok = violations == 0
    report(
        8,
        f"50 random runs (easy and canonical steps): {violations} runs with a "
        f"decreasing best-fitness sequence (expected 0)",
        ok,
    )


def test_criterion_9_decode_endpoint_exactness():
    exact = True
    for gene_bits in (1, 4, 8, 16):
        for low, high in ((0.0, 10.0), (0.1, 0.3), (-5.0, 5.0)):
            zeros = BitGenome.from_bits((0,) * gene_bits)
            ones = BitGenome.from_bits((1,) * gene_bits)
            exact &= decode(zeros, gene_bits, low, high) == [low]
            exact &= decode(ones, gene_bits, low, high) == [high]
    monotone = True
    for gene_bits in range(1, 9):
        previous = None
        for u in range(2**gene_bits):
            bits = tuple((u >> (gene_bits - 1 - i)) & 1 for i in range(gene_bits))
            (value,) = decode(BitGenome.from_bits(bits), gene_bits, 0.1, 0.3)
            if previous is not None and value < previous:
                monotone = False
            previous = value
    ok = exact and monotone
    report(
        9,
        f"decode endpoints bit-exact for gene_bits in {{1, 4, 8, 16}}: {exact}; "
        f"monotone exhaustively for gene_bits <= 8: {monotone}",
        ok,
    )
