"""Tests for migration policies, migrant integration, and the archipelago scheduler."""

import logging
import math
import re

import pytest

from evobits.core import BitFlip, BitGenome, NPointCrossover, RandomSource, random_genome
from evobits.engine import (
    EasyStepConfig,
    Individual,
    MaxGenerations,
    RunStats,
    TargetFitness,
    canonical_step,
    easy_step,
    evaluate_population,
    run,
)
from evobits.islands import (
    Archipelago,
    IslandConfig,
    MigrantMessage,
    MigrationPolicy,
    consensus_genome,
    integrate_migrant,
    run_archipelago,
    select_migrant,
)
from evobits.problems import onemax


def evaluated(genomes):
    pop = [Individual(BitGenome.from_string(g)) for g in genomes]
    evaluate_population(pop, onemax, RunStats())
    return pop


def step_config():
    return EasyStepConfig(
        selection_rate=0.2,
        operators=[BitFlip(rate=1.0), NPointCrossover(points=2, rate=9.0)],
    )


def island(alias, peers, *, seed, generations=10, pop_size=16, length=24, terminator=None,
           **kwargs):
    return IslandConfig(
        alias=alias,
        peers=peers,
        fitness=onemax,
        pop_size=pop_size,
        genome_length=length,
        step_config=step_config(),
        terminator=terminator or MaxGenerations(generations),
        seed=seed,
        **kwargs,
    )


class TestConsensusGenome:
    def test_per_locus_majority(self):
        pop = evaluated(["1111", "1110", "1100"])
        assert str(consensus_genome(pop)) == "1110"

    def test_ties_become_one(self):
        pop = evaluated(["10", "01"])
        assert str(consensus_genome(pop)) == "11"

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            consensus_genome([])


class TestSelectMigrant:
    def test_singleton_population(self):
        pop = evaluated(["1011"])
        for policy in MigrationPolicy:
            assert select_migrant(policy, pop).genome == pop[0].genome

    def test_best_picks_highest_fitness(self):
        pop = evaluated(["1111", "0000"])
        assert str(select_migrant(MigrationPolicy.BEST, pop).genome) == "1111"

    def test_most_different_maximizes_consensus_distance(self):
        # consensus of {1111, 0000, 1110} is 1110; 0000 sits at distance 3
        pop = evaluated(["1111", "0000", "1110"])
        migrant = select_migrant(MigrationPolicy.MOST_DIFFERENT, pop)
        assert str(migrant.genome) == "0000"

    def test_most_different_distance_tie_goes_to_earliest(self):
        # consensus of {1111, 1110, 1100} is 1110; 1111 and 1100 tie at
        # distance 1 and the earliest wins
        pop = evaluated(["1111", "1110", "1100"])
        migrant = select_migrant(MigrationPolicy.MOST_DIFFERENT, pop)
        assert str(migrant.genome) == "1111"

    def test_returns_independent_copy(self):
        pop = evaluated(["1111", "0000"])
        migrant = select_migrant(MigrationPolicy.BEST, pop)
        migrant.fitness = 99.0
        assert pop[0].fitness == 4.0

    def test_unevaluated_population_rejected(self):
        pop = [Individual(BitGenome.from_string("1010"))]
        with pytest.raises(ValueError):
            select_migrant(MigrationPolicy.BEST, pop)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            select_migrant(MigrationPolicy.BEST, [])

    def test_unknown_policy_name_lists_the_valid_ones(self):
        with pytest.raises(ValueError, match="best, mostdifferent.*'nope'"):
            MigrationPolicy("nope")


class TestIntegrateMigrant:
    def test_worse_migrant_still_replaces_worst(self):
        pop = evaluated(["1111", "1110", "1100"])
        migrant = Individual(BitGenome.from_string("0000"))
        stats = RunStats()
        new_pop = integrate_migrant(pop, migrant, onemax, stats)
        assert len(new_pop) == 3
        assert str(new_pop[-1].genome) == "0000"
        assert "1100" not in {str(ind.genome) for ind in new_pop}
        assert stats.evaluations == 1  # arrived unevaluated

    def test_better_migrant_becomes_best(self):
        pop = evaluated(["1100", "1000", "0000"])
        migrant = Individual(BitGenome.from_string("1111"), fitness=4.0)
        stats = RunStats()
        new_pop = integrate_migrant(pop, migrant, onemax, stats)
        assert new_pop[0] is migrant
        assert stats.evaluations == 0  # cached fitness respected

    def test_empty_population_rejected(self):
        migrant = Individual(BitGenome.from_string("1010"))
        with pytest.raises(ValueError, match="population must not be empty"):
            integrate_migrant([], migrant, onemax, RunStats())

    def test_length_mismatch_rejected_and_logged(self, caplog):
        pop = evaluated(["1111", "0000"])
        migrant = Individual(BitGenome.from_string("101010"))
        with caplog.at_level(logging.ERROR, logger="evobits.islands"):
            new_pop = integrate_migrant(pop, migrant, onemax, RunStats())
        assert "rejected migrant" in caplog.text
        assert [str(i.genome) for i in new_pop] == ["1111", "0000"]

    @pytest.mark.parametrize("fitness", [math.nan, math.inf, -1.0, 10**400, "4"])
    def test_unusable_carried_fitness_rejected_and_logged(self, fitness, caplog):
        pop = evaluated(["1111", "0000"])
        migrant = Individual(BitGenome.from_string("1010"), fitness=fitness)
        stats = RunStats()
        with caplog.at_level(logging.ERROR, logger="evobits.islands"):
            new_pop = integrate_migrant(pop, migrant, onemax, stats)
        assert "rejected migrant" in caplog.text
        assert new_pop is pop
        assert [str(i.genome) for i in new_pop] == ["1111", "0000"]
        assert stats.evaluations == 0


class TestMigrantMessage:
    def test_generation_must_be_positive(self):
        with pytest.raises(ValueError):
            MigrantMessage("a", 0, Individual(BitGenome.from_string("1")))


class TestIslandConfig:
    def test_self_peer_rejected(self):
        with pytest.raises(ValueError):
            island("a", ["a"], seed=1)

    def test_duplicate_peers_rejected(self):
        with pytest.raises(ValueError):
            island("a", ["b", "b"], seed=1)

    @pytest.mark.parametrize(
        "alias, kwargs, message",
        [
            ("", {}, "alias must not be empty"),
            ("a", {"pop_size": 1}, "pop_size must be at least 2"),
            ("a", {"length": 0}, "genome_length must be positive"),
            ("a", {"pop_size": 2.5}, "pop_size must be at least 2 and an int"),
            ("a", {"length": 8.0}, "genome_length must be positive and an int"),
            ("a", {"length": math.nan}, "genome_length must be positive and an int"),
        ],
        ids=["empty_alias", "pop_size_1", "genome_length_0", "pop_size_2.5",
             "genome_length_8.0", "genome_length_nan"],
    )
    def test_unusable_value_rejected(self, alias, kwargs, message):
        with pytest.raises(ValueError, match=message):
            island(alias, ["b"], seed=1, **kwargs)


class TestArchipelago:
    def test_two_islands_message_conservation(self):
        configs = [
            island("node_1", ["node_2"], seed=1),
            island("node_2", ["node_1"], seed=2),
        ]
        arch = Archipelago(configs)
        results = arch.run()
        assert arch.messages_sent == 20  # 2 islands x 10 generations x 1 peer
        assert arch.messages_delivered == 20
        for alias in ("node_1", "node_2"):
            _, stats = results[alias]
            assert stats.generations_executed == 10

    def test_best_fitness_monotone_per_island(self):
        # integration replaces the worst individual, never the best
        configs = [
            island("node_1", ["node_2"], seed=81),
            island("node_2", ["node_1"], seed=82),
        ]
        for _, stats in run_archipelago(configs).values():
            values = [best for _, best in stats.best_per_generation]
            assert values == sorted(values)

    def test_population_size_invariant_throughout(self):
        configs = [
            island("node_1", ["node_2"], seed=3),
            island("node_2", ["node_1"], seed=4),
        ]
        arch = Archipelago(configs)
        arch.run()
        sizes = {
            m.group(1)
            for m in (re.search(r"size=(\d+)", line) for line in arch.log)
            if m
        }
        assert sizes == {"16"}

    def test_three_islands_fully_connected(self):
        aliases = ["a", "b", "c"]
        configs = [
            island(a, [p for p in aliases if p != a], seed=10 + i)
            for i, a in enumerate(aliases)
        ]
        arch = Archipelago(configs)
        arch.run()
        assert arch.messages_sent == 60  # 3 x 10 x 2 peers
        assert arch.messages_delivered == 60

    def test_peers_receive_separate_copies_of_one_migrant(self):
        aliases = ["a", "b", "c"]
        configs = [
            island(
                a,
                [p for p in aliases if p != a],
                seed=20 + i,
                migration_policy=MigrationPolicy.MOST_DIFFERENT,
            )
            for i, a in enumerate(aliases)
        ]
        arch = Archipelago(configs)
        arch.step_island("a")
        (to_b,), (to_c,) = arch.mailboxes["b"], arch.mailboxes["c"]
        expected = select_migrant(MigrationPolicy.MOST_DIFFERENT, arch.sessions["a"].pop)
        assert to_b.individual == to_c.individual == expected
        assert to_b.individual is not to_c.individual
        local = {id(ind) for ind in arch.sessions["a"].pop}
        assert id(to_b.individual) not in local and id(to_c.individual) not in local

    def test_log_line_format(self):
        configs = [
            island("node_1", ["node_2"], seed=5, generations=2),
            island("node_2", ["node_1"], seed=6, generations=2),
        ]
        arch = Archipelago(configs)
        arch.run()
        pattern = re.compile(r"^\d+ \S+ (step|send|recv) \S")
        assert arch.log and all(pattern.match(line) for line in arch.log)

    @pytest.mark.parametrize("seed", [99, 7, 2024])
    @pytest.mark.parametrize("step", [easy_step, canonical_step], ids=lambda s: s.__name__)
    def test_lone_island_matches_plain_engine_run(self, step, seed):
        results = run_archipelago(
            [island("solo", [], seed=seed, generations=12, step=step)]
        )
        island_pop, island_stats = results["solo"]

        rng = RandomSource(seed)
        pop = [Individual(random_genome(24, rng)) for _ in range(16)]
        final, stats = run(pop, step, step_config(), onemax, [MaxGenerations(12)], rng)
        assert island_stats.best_per_generation == stats.best_per_generation
        assert [str(i.genome) for i in island_pop] == [str(i.genome) for i in final]
        assert island_stats.evaluations == stats.evaluations
        assert island_stats.cumulative_evaluations == stats.cumulative_evaluations

    def test_migrant_meeting_target_stops_island_only_after_its_next_step(self):
        cfg = IslandConfig(
            alias="solo",
            peers=[],
            fitness=onemax,
            pop_size=16,
            genome_length=24,
            step_config=step_config(),
            terminator=TargetFitness(24.0),
            seed=72,
        )
        arch = Archipelago([cfg])
        session = arch.sessions["solo"]
        assert not session.finished and session.pop[0].fitness < 24
        migrant = Individual(BitGenome.from_string("1" * 24))
        arch.mailboxes["solo"].append(MigrantMessage("elsewhere", 1, migrant))
        arch.step_island("solo")
        assert session.stats.generations_executed == 1
        assert session.finished
        assert session.stats.best_per_generation == [(1, 24.0)]

    def test_island_stops_at_whichever_terminator_fires_first(self):
        limit, target = MaxGenerations(50), TargetFitness(8.0)
        cfg = island("solo", [], seed=2, length=8, terminator=[limit, target])
        assert cfg.terminators == [limit, target]
        ((pop, stats),) = run_archipelago([cfg]).values()
        assert pop[0].fitness == 8.0
        assert stats.generations_executed < 50

    def test_lone_island_sends_nothing(self):
        arch = Archipelago([island("solo", [], seed=7, generations=5)])
        arch.run()
        assert arch.messages_sent == 0

    def test_deterministic_across_executions(self):
        def histories():
            configs = [
                island("node_1", ["node_2"], seed=21),
                island("node_2", ["node_1"], seed=22),
            ]
            results = run_archipelago(configs)
            return {
                alias: (stats.best_per_generation, [str(i.genome) for i in pop])
                for alias, (pop, stats) in results.items()
            }

        assert histories() == histories()

    def test_most_different_policy_runs(self):
        configs = [
            island(
                "node_1",
                ["node_2"],
                seed=31,
                generations=5,
                migration_policy=MigrationPolicy.MOST_DIFFERENT,
            ),
            island(
                "node_2",
                ["node_1"],
                seed=32,
                generations=5,
                migration_policy=MigrationPolicy.MOST_DIFFERENT,
            ),
        ]
        arch = Archipelago(configs)
        arch.run()
        assert arch.messages_sent == 10

    def test_mixed_lifetimes_drain_cleanly(self):
        # node_1 stops after 3 generations but keeps draining mail from
        # node_2, which runs for 10
        configs = [
            island("node_1", ["node_2"], seed=41, generations=3),
            island("node_2", ["node_1"], seed=42, generations=10),
        ]
        arch = Archipelago(configs)
        results = arch.run()
        assert results["node_1"][1].generations_executed == 3
        assert results["node_2"][1].generations_executed == 10
        assert arch.messages_sent == 13
        assert arch.messages_delivered == 13
        assert any("discarded" in line for line in arch.log)

    def test_genome_length_mismatch_rejected_but_run_completes(self, caplog):
        configs = [
            island("short", ["long"], seed=51, generations=4, length=8),
            island("long", ["short"], seed=52, generations=4, length=16),
        ]
        with caplog.at_level(logging.ERROR, logger="evobits.islands"):
            results = run_archipelago(configs)
        assert "rejected migrant" in caplog.text
        assert all(stats.generations_executed == 4 for _, stats in results.values())
        assert all(len(pop) == 16 for pop, _ in results.values())

    @pytest.mark.parametrize(
        "genome, fitness, rejected",
        [
            ("1" * 24, math.nan, True),
            ("1" * 24, math.inf, True),
            ("1" * 24, -1.0, True),
            ("1" * 6, 6.0, True),
            # unset: evaluated on arrival with the island's own fitness function
            ("1" * 24, None, False),
        ],
        ids=["nan", "inf", "negative", "length_6", "none"],
    )
    def test_migrant_checked_on_delivery(self, genome, fitness, rejected, caplog):
        arch = Archipelago([island("solo", [], seed=81, generations=3)])
        migrant = Individual(BitGenome.from_string(genome), fitness=fitness)
        arch.mailboxes["solo"].append(MigrantMessage("elsewhere", 1, migrant))
        with caplog.at_level(logging.ERROR, logger="evobits.islands"):
            pop, stats = arch.run()["solo"]
        assert arch.messages_delivered == 1
        assert arch.messages_rejected == int(rejected)
        assert ("rejected migrant" in caplog.text) == rejected
        # the island kept running, and no unusable fitness reached its population
        assert stats.generations_executed == 3
        assert all(0.0 <= ind.fitness < math.inf for ind in pop)
        # pop 16 plus 3 offspring per step, plus the unset migrant's evaluation
        assert stats.evaluations == 16 + 3 * 3 + (not rejected)
        assert (stats.best_per_generation[0][1] == 24.0) == (not rejected)

    def test_dangling_peer_rejected_before_stepping(self):
        with pytest.raises(ValueError, match="unknown peer"):
            Archipelago([island("a", ["ghost"], seed=61)])

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Archipelago([island("a", [], seed=1), island("a", [], seed=2)])

    def test_empty_archipelago_rejected(self):
        with pytest.raises(ValueError):
            Archipelago([])

    def test_target_terminator_island(self):
        cfg = IslandConfig(
            alias="goal",
            peers=[],
            fitness=onemax,
            pop_size=8,
            genome_length=8,
            step_config=step_config(),
            terminator=TargetFitness(0.0),
            seed=71,
        )
        results = run_archipelago([cfg])
        assert results["goal"][1].generations_executed == 0
