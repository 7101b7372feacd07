"""Event-driven island model: per-island runs exchanging one migrant per step.

Each island is an :class:`~evobits.engine.Evolution` advanced one generation
per round. Islands never share mutable state; they interact only through
ordered mailboxes drained by a deterministic round-robin scheduler. After
every generation step an island posts one migrant to each of its peers;
incoming migrants replace the local worst individual.
"""

from __future__ import annotations

import time
from collections import deque
from enum import Enum
from typing import Sequence

from .core import BitGenome, RandomSource, _check_count, hamming, random_genome
from .engine import (
    EasyStepConfig,
    Evolution,
    FitnessFunction,
    Individual,
    RunStats,
    StepFunction,
    Terminator,
    checked_fitness,
    easy_step,
    evaluate_population,
    sort_by_fitness,
)

__all__ = [
    "Archipelago",
    "IslandConfig",
    "MigrantMessage",
    "MigrationPolicy",
    "consensus_genome",
    "integrate_migrant",
    "run_archipelago",
    "select_migrant",
]

class MigrationPolicy(Enum):
    """What an island sends to its peers."""

    BEST = "best"
    MOST_DIFFERENT = "mostdifferent"

    @classmethod
    def _missing_(cls, value: object) -> None:
        names = ", ".join(policy.value for policy in cls)
        raise ValueError(f"migration policy must be one of {names}, got {value!r}")


class MigrantMessage:
    """Envelope carrying one individual between island sessions."""

    def __init__(self, source: str, generation: int, individual: Individual) -> None:
        _check_count("generation", generation)
        self.source = source
        self.generation = generation
        self.individual = individual


class IslandConfig:
    """One island: its own population, random stream, step strategy, and peers."""

    def __init__(
        self,
        alias: str,
        peers: Sequence[str],
        fitness: FitnessFunction,
        pop_size: int,
        genome_length: int,
        step_config: EasyStepConfig,
        terminator: Terminator | Sequence[Terminator],
        step: StepFunction = easy_step,
        migration_policy: MigrationPolicy = MigrationPolicy.BEST,
        seed: int = 0,
    ) -> None:
        if not alias:
            raise ValueError("island alias must not be empty")
        if alias in peers:
            raise ValueError(f"island {alias!r} lists itself as a peer")
        if len(set(peers)) != len(peers):
            raise ValueError(f"island {alias!r} has duplicate peers")
        _check_count("pop_size", pop_size, 2)
        _check_count("genome_length", genome_length)
        self.alias, self.peers, self.fitness = alias, peers, fitness
        self.pop_size, self.genome_length = pop_size, genome_length
        self.step_config, self.step = step_config, step
        # the island stops once any of its terminators fires
        self.terminators = [terminator] if isinstance(terminator, Terminator) else list(terminator)
        self.migration_policy, self.seed = migration_policy, seed


def consensus_genome(pop: Sequence[Individual]) -> BitGenome:
    """Per-locus majority-vote genome of the population; ties become 1.

    The genomes are summed into bit-sliced counters, ``counts[j]`` holding
    bit j of every locus's count of ones, with a ripple carry per genome.
    The loci whose count reaches ``ceil(N / 2)`` are then found by comparing
    those counters with that threshold, most significant bit first.
    """
    if not pop:
        raise ValueError("population must not be empty")
    length = pop[0].genome.length
    counts: list[int] = []
    for ind in pop:
        carry = ind.genome.value
        for j, count in enumerate(counts):
            counts[j], carry = count ^ carry, count & carry
            if not carry:
                break
        else:
            counts.append(carry)
    threshold = (len(pop) + 1) // 2
    # loci whose count's high bits match the threshold's so far (loci already
    # above may stay in it: the result is the union)
    above, equal = 0, (1 << length) - 1
    for j in range(max(len(counts), threshold.bit_length()) - 1, -1, -1):
        count = counts[j] if j < len(counts) else 0
        if threshold >> j & 1:
            equal &= count
        else:
            above |= equal & count
    return BitGenome(above | equal, length)


def select_migrant(policy: MigrationPolicy, pop: Sequence[Individual]) -> Individual:
    """Independent copy of the individual the policy picks to emigrate.

    BEST picks the highest fitness; MOST_DIFFERENT picks the largest Hamming
    distance from the population's consensus genome. Ties go to the earliest
    individual, so selection is deterministic and draws no random numbers.
    """
    if not pop:
        raise ValueError("population must not be empty")
    if any(ind.fitness is None for ind in pop):
        raise ValueError("all individuals must be evaluated before migrant selection")
    if policy is MigrationPolicy.BEST:
        chosen = max(pop, key=lambda ind: ind.fitness)
    else:
        consensus = consensus_genome(pop)
        chosen = max(pop, key=lambda ind: hamming(ind.genome, consensus))
    return chosen.copy()


def _log_rejection(reason: str, *args: object) -> None:
    # logging would be a third of ``import evobits``; only a rejected migrant needs it
    import logging

    logging.getLogger(__name__).error("rejected migrant: " + reason, *args)


def integrate_migrant(
    pop: list[Individual],
    migrant: Individual,
    f: FitnessFunction,
    stats: RunStats,
) -> list[Individual]:
    """Replace the current worst individual with the migrant, unconditionally.

    The migrant is evaluated first if its fitness is unset; a fitness it
    carries is kept, not recomputed. A genome-length mismatch, or a carried
    fitness that is not a finite non-negative real number, rejects the migrant
    with a logged error and returns ``pop`` itself, unchanged; the island
    keeps running either way.
    """
    if not pop:
        raise ValueError("population must not be empty")
    if migrant.genome.length != pop[0].genome.length:
        _log_rejection(
            "genome length %d does not match local length %d",
            migrant.genome.length,
            pop[0].genome.length,
        )
        return pop
    if migrant.fitness is not None:
        try:
            checked_fitness(migrant.fitness)
        except ValueError as exc:
            _log_rejection("%s", exc)
            return pop
    evaluate_population([migrant], f, stats)
    pop = list(pop)
    # worst = lowest fitness, latest among ties (the slot a best-first sort
    # would place last)
    worst = min(range(len(pop)), key=lambda i: (pop[i].fitness, -i))
    pop[worst] = migrant
    return sort_by_fitness(pop)


class Archipelago:
    """Round-robin scheduler stepping islands one generation per round.

    Pending messages are always delivered before an island's step. Once any
    of an island's terminators fires it stops stepping and sending but keeps
    draining (and discarding) its mailbox, so no message is ever lost; a migrant
    :func:`integrate_migrant` rejects is counted in ``messages_rejected``.
    The ``log`` holds one ``<round> <alias> <event> <detail>`` line per event;
    events are kept raw and formatted into lines only when ``log`` is read.
    """

    def __init__(self, configs: Sequence[IslandConfig]) -> None:
        if not configs:
            raise ValueError("at least one island is required")
        aliases = [cfg.alias for cfg in configs]
        known = set(aliases)
        if len(known) != len(aliases):
            raise ValueError("island aliases must be unique")
        for cfg in configs:
            for peer in cfg.peers:
                if peer not in known:
                    raise ValueError(
                        f"island {cfg.alias!r} references unknown peer {peer!r}"
                    )
        self._configs = {cfg.alias: cfg for cfg in configs}
        self.sessions: dict[str, Evolution] = {}
        for cfg in configs:
            rng = RandomSource(cfg.seed)
            pop = [
                Individual(random_genome(cfg.genome_length, rng))
                for _ in range(cfg.pop_size)
            ]
            self.sessions[cfg.alias] = Evolution(
                pop, cfg.step, cfg.step_config, cfg.fitness, cfg.terminators, rng
            )
        self.mailboxes: dict[str, deque[MigrantMessage]] = {
            alias: deque() for alias in aliases
        }
        # (round, alias, event, detail template, values): formatted only when read
        self._events: list[tuple[int, str, str, str, tuple]] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_rejected = 0
        self.round = 0

    @property
    def log(self) -> list[str]:
        """One ``<round> <alias> <event> <detail>`` line per event so far."""
        return [
            f"{round_no} {alias} {event} {detail.format(*values)}"
            for round_no, alias, event, detail, values in self._events
        ]

    def _record(self, alias: str, event: str, detail: str, *values: object) -> None:
        self._events.append((self.round, alias, event, detail, values))

    def _drain_mailbox(self, alias: str) -> None:
        evolution = self.sessions[alias]
        box = self.mailboxes[alias]
        while box:
            msg = box.popleft()
            self.messages_delivered += 1
            if evolution.finished:
                self._record(
                    alias, "recv", "from={} gen={} discarded", msg.source, msg.generation
                )
                continue
            self._record(alias, "recv", "from={} gen={}", msg.source, msg.generation)
            pop = evolution.pop
            evolution.pop = integrate_migrant(pop, msg.individual, evolution.f, evolution.stats)
            if evolution.pop is pop:
                self.messages_rejected += 1

    def step_island(self, alias: str) -> None:
        """One turn for one island: drain mailbox, step, send to peers."""
        evolution = self.sessions[alias]
        self._drain_mailbox(alias)
        if evolution.finished:
            return
        evolution.advance()
        generation = evolution.stats.generations_executed
        best, size = evolution.pop[0].fitness, len(evolution.pop)
        self._record(alias, "step", "gen={} size={} best={:g}", generation, size, best)
        cfg = self._configs[alias]
        if cfg.peers:
            migrant = select_migrant(cfg.migration_policy, evolution.pop)
        for i, peer in enumerate(cfg.peers):
            # one copy per message: islands never share an Individual.
            # select_migrant already copied, so the first peer takes that copy
            self.mailboxes[peer].append(
                MigrantMessage(alias, generation, migrant.copy() if i else migrant)
            )
            self.messages_sent += 1
            self._record(alias, "send", "to={} gen={}", peer, generation)

    def run(self) -> dict[str, tuple[list[Individual], RunStats]]:
        """Step all islands until each has stopped."""
        while any(not e.finished for e in self.sessions.values()):
            self.round += 1
            for alias in self._configs:
                self.step_island(alias)
        # last senders may leave mail behind: deliver (and discard) it all
        self.round += 1
        for alias in self._configs:
            self._drain_mailbox(alias)
        results = {}
        for alias, evolution in self.sessions.items():
            evolution.stats.wall_time = time.perf_counter() - evolution.start
            results[alias] = (evolution.pop, evolution.stats)
        return results


def run_archipelago(
    configs: Sequence[IslandConfig],
) -> dict[str, tuple[list[Individual], RunStats]]:
    """Run a whole archipelago to completion; see :class:`Archipelago`."""
    return Archipelago(configs).run()
