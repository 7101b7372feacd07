"""Output checks run on every episode, and the CLI cross-check.

Each check returns a list of failure messages; an empty list means the
episode's outputs are correct. The oracles here do not share code with the
fitness functions they check.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from workloads import Episode, Workload


def oracle(w: Workload, ep: Episode):
    """Independent recomputation of a genome's fitness."""
    if w.problem == "onemax":
        return lambda genome: sum(genome.bits)
    if w.problem == "royalroad":
        block = w.block_size
        full = "1" * block

        def royal_road(genome):
            text = "".join(map(str, genome.bits))
            return sum(text[i : i + block] == full for i in range(0, len(text), block))

        return royal_road
    half = w.bits // 2

    def dot(genome):
        x, y = ep.evo.decode(genome, half, 0.0, w.arena_side)
        return len(ep.arena.rectangles_containing_dot_brute(x, y))

    return dot


def digest(ep: Episode) -> str:
    """Fingerprint of the search: best fitness per generation and final best genome."""
    payload = [
        [alias, [list(pair) for pair in stats.best_per_generation], str(pop[0].genome)]
        for alias, pop, stats in ep.results
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def check_episode(w: Workload, ep: Episode) -> list[str]:
    failures = []
    if ep.evaluations != w.expected_evaluations():
        failures.append(
            f"evaluations {ep.evaluations} != closed form {w.expected_evaluations()}"
        )
    if len(ep.step_entries) != w.generations * w.islands:
        failures.append(
            f"{len(ep.step_entries)} step calls, expected {w.generations * w.islands}"
        )
    fitness_of = oracle(w, ep)
    for alias, pop, stats in ep.results:
        where = f"island {alias}" if w.islands > 1 else "run"
        if stats.generations_executed != w.generations:
            failures.append(f"{where}: {stats.generations_executed} generations executed")
        if len(pop) != w.pop_size:
            failures.append(f"{where}: population size {len(pop)} != {w.pop_size}")
        fits = [ind.fitness for ind in pop]
        if any(f is None for f in fits):
            failures.append(f"{where}: unevaluated individual in the final population")
            continue
        if any(a < b for a, b in zip(fits, fits[1:])):
            failures.append(f"{where}: final population is not sorted best-first")
        bests = [best for _, best in stats.best_per_generation]
        if any(a > b for a, b in zip(bests, bests[1:])):
            failures.append(f"{where}: best_per_generation decreases")
        if bests and bests[-1] != fits[0]:
            failures.append(f"{where}: last best {bests[-1]} != final best {fits[0]}")
        wrong = [
            (str(ind.genome), ind.fitness, fitness_of(ind.genome))
            for ind in pop
            if fitness_of(ind.genome) != ind.fitness
        ]
        if wrong:
            failures.append(f"{where}: {len(wrong)} fitness values disagree with the oracle, first {wrong[0]}")
    if ep.archipelago is not None:
        arch = ep.archipelago
        expected = w.islands * (w.islands - 1) * w.generations
        if not arch.messages_sent == arch.messages_delivered == expected:
            failures.append(
                f"messages sent {arch.messages_sent}, delivered "
                f"{arch.messages_delivered}, expected {expected}"
            )
    return failures


def check_cli(w: Workload, seed: int, ep: Episode, arena_file: str | None) -> list[str]:
    """Run the same episode through ``evobits.cli.main`` and compare its rows."""
    cli = importlib.import_module("evobits.cli")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(w.cli_argv(seed, arena_file))
    lines = out.getvalue().splitlines()
    if err.getvalue():
        return [f"CLI wrote to stderr: {err.getvalue().strip()!r}"]
    rows = [line.split(",")[:-1] for line in lines[1:] if not line.startswith("#")]
    expected = []
    for alias, _, stats in ep.results:
        prefix = [alias] if w.islands > 1 else []
        for (generation, best), evaluations in zip(
            stats.best_per_generation, stats.cumulative_evaluations
        ):
            expected.append(prefix + [str(generation), format(best, "g"), str(evaluations)])
    failures = []
    if rows != expected:
        first = next(
            (i for i, (a, b) in enumerate(zip(rows, expected)) if a != b),
            min(len(rows), len(expected)),
        )
        failures.append(
            f"CLI rows differ from the benchmark trajectory at row {first} "
            f"({len(rows)} vs {len(expected)} rows)"
        )
    summary = dict(item.split("=", 1) for item in lines[-1].lstrip("# ").split())
    if summary.get("best") != format(ep.final_best, "g"):
        failures.append(f"CLI best={summary.get('best')}, benchmark {ep.final_best:g}")
    if summary.get("evaluations") != str(ep.evaluations):
        failures.append(
            f"CLI evaluations={summary.get('evaluations')}, benchmark {ep.evaluations}"
        )
    expected_code = 0 if ep.final_best >= w.target else 2
    if code != expected_code:
        failures.append(f"CLI exit code {code}, expected {expected_code}")
    return failures
