"""The names perfbench drives evobits through, exercised on shortened episodes.

perfbench shadows module globals of ``evobits.islands`` and the arena's
``rectangles_containing_dot``, recomputes fitness from ``genome.bits`` and
replays each episode through ``evobits.cli.main``. Renaming any of these
breaks the benchmark, so each workload runs here for three generations
through perfbench's own episode, probes and checks. The timing, the golden
fixture and the trace-coverage bound are left to perfbench: they hold for
full-length episodes only.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    from checks import check_cli, check_episode
    from spans import Calibrated, Tracer
    from workloads import WORKLOADS, run_episode
finally:
    sys.path.remove(PERFBENCH)

SEED = 1


@pytest.fixture
def restore_evobits():
    """Put back the evobits modules other tests imported: episodes re-import them."""
    saved = {n: m for n, m in sys.modules.items() if n == "evobits" or n.startswith("evobits.")}
    yield
    for name in [n for n in sys.modules if n == "evobits" or n.startswith("evobits.")]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_episode_passes_its_checks(name, tmp_path, restore_evobits):
    w = dataclasses.replace(WORKLOADS[name], generations=3)

    timed = run_episode(w, SEED, Calibrated())
    assert check_episode(w, timed) == []

    traced = run_episode(w, SEED, Tracer())
    assert check_episode(w, traced) == []
    totals = traced.probe.totals()
    assert totals["problems.fitness"].calls == traced.evaluations
    if traced.arena is not None:
        # every evaluation must pass through the probed query, or the
        # benchmark's trace coverage loses the stabbing time
        assert totals["problems.stab"].calls == totals["problems.fitness"].calls

    arena_file = None
    if traced.arena is not None:
        arena_file = str(tmp_path / "arena.txt")
        traced.evo.save_arena(traced.arena, arena_file)
    assert check_cli(w, SEED, traced, arena_file) == []
