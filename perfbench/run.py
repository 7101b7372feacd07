"""Outside-in benchmark of evobits: one workload per run, checked on every episode.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload onemax-steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run is a closed loop with one client in one process: it repeats the same
seeded episode (import evobits, build the inputs, run a fixed number of
generations) until ``--seconds`` is spent. Every episode must pass the
checks in :mod:`checks` and reproduce the first one. After timing, a traced
reference episode is compared with ``golden.json`` (at the default seed)
and with the same run through ``evobits.cli.main``. ``--trace 0`` reports
the end-to-end metrics, with every time scaled to the speed at which the
host runs a fixed reference loop (see ``REFERENCE_NS``); ``--trace 1``
alternates untraced and traced episodes and reports the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from checks import check_cli, check_episode, digest
from spans import (
    Calibrated,
    Clock,
    SetupDone,
    SetupOnly,
    SpanTotals,
    Tracer,
    time_reference,
    write_spans,
)
from workloads import WORKLOADS, run_episode

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
MIN_EPISODES = 2
MIN_COVERAGE = 0.9
# Spans that enclose a whole phase instead of one entry point. Their self time
# is whatever the entry-point spans inside them leave unattributed, so
# trace.coverage leaves them out.
ENCLOSING_SPANS = ("setup.import", "engine.run", "islands.init", "islands.run")
# extra set-ups per timed episode, so setup_s is a median of many
SETUPS_PER_EPISODE = 3
# reference loops timed just before and just after each extra set-up
SETUP_REFERENCE_LOOPS = 10
# The reference loop's time (spans.reference_loop) at full speed on the host
# this was written on. Timings are scaled by REFERENCE_NS / the loop's time
# measured alongside them, which takes out the host's changes of speed.
REFERENCE_NS = 100_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


class Metrics:
    """Ordered metric values with units and the base each one is taken over."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, float, str, str]] = []

    def add(self, name: str, value: float, unit: str, note: str) -> None:
        self.rows.append((name, value, unit, note))

    def as_json(self) -> dict:
        return {name: {"value": value, "unit": unit} for name, value, unit, _ in self.rows}

    def report(self) -> None:
        for name, value, unit, note in self.rows:
            print(f"{name:32} {value:>16.6g} {unit:10} {note}")


class Runner:
    """Episodes of one workload and seed, with their checks."""

    def __init__(self, workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.ref_digest = None  # of the first episode; every other must match it
        self.ref_draws = None  # of the first traced episode
        self.reference = None  # the verified episode, once verify() has run

    def record(self, label: str, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAIL {label}: {failure}", file=sys.stderr)
        return not failures

    def episode(self, probe, label: str):
        gc.collect()
        try:
            ep = run_episode(self.w, self.seed, probe)
        except Exception:
            traceback.print_exc()
            self.record(label, ["episode raised"])
            return None
        failures = check_episode(self.w, ep)
        ep.digest = digest(ep)
        if self.ref_digest is None:
            self.ref_digest = ep.digest
        elif ep.digest != self.ref_digest:
            failures.append(f"digest {ep.digest} != first episode {self.ref_digest}")
        if probe.traced:
            if self.ref_draws is None:
                self.ref_draws = probe.draws
            elif probe.draws != self.ref_draws:
                failures.append(f"{probe.draws} random draws != first traced episode {self.ref_draws}")
            failures += check_trace(ep)
        return ep if self.record(label, failures) else None

    def setup_only(self) -> tuple[int, float] | None:
        """Set up one episode and stop at its first step: the set-up time in
        ns, and the reference loop's mean time around it."""
        probe = SetupOnly()
        gc.collect()
        before = time_reference(SETUP_REFERENCE_LOOPS)
        try:
            run_episode(self.w, self.seed, probe)
        except SetupDone:
            after = time_reference(SETUP_REFERENCE_LOOPS)
            return probe.step_entries[0] - probe.t_start, (before + after) / 2
        except Exception:
            traceback.print_exc()
        self.record("set-up", ["set-up did not reach the first step"])
        return None

    def verify(self) -> None:
        """Traced reference episode, golden fixture, and CLI cross-check."""
        ep = self.episode(Tracer(), "reference episode")
        if ep is None:
            return
        self.reference = ep
        golden = json.loads(GOLDEN.read_text())
        expected = golden["workloads"].get(self.w.name) if self.seed == golden["seed"] else None
        if expected is not None:
            got = {
                "digest": ep.digest,
                "rng_draws": ep.probe.draws,
                "evaluations": ep.evaluations,
                "final_best": ep.final_best,
            }
            self.record(
                "golden fixture",
                [f"{key} {got[key]} != golden {value}" for key, value in expected.items() if got[key] != value],
            )
        arena_file = None
        if ep.arena is not None:
            OUT.mkdir(exist_ok=True)
            arena_file = OUT / f"{self.w.name}-seed{self.seed}-{os.getpid()}.arena"
            ep.evo.save_arena(ep.arena, arena_file)
        try:
            failures = check_cli(self.w, self.seed, ep, arena_file and str(arena_file))
        except Exception:
            traceback.print_exc()
            failures = ["CLI cross-check raised"]
        finally:
            if arena_file is not None:
                arena_file.unlink(missing_ok=True)
        self.record("CLI cross-check", failures)


def check_trace(ep) -> list[str]:
    try:
        totals = ep.probe.totals()
    except RuntimeError as exc:
        return [str(exc)]
    failures = []
    calls = totals["problems.fitness"].calls
    if calls != ep.evaluations:
        failures.append(f"{calls} fitness calls != {ep.evaluations} evaluations counted")
    covered = coverage(totals, ep.wall_ns)
    if covered < MIN_COVERAGE:
        failures.append(f"trace coverage {covered:.3f} < {MIN_COVERAGE}")
    return failures


def coverage(totals: dict[str, SpanTotals], wall_ns: int) -> float:
    """Share of wall time attributed to entry-point spans, self times summed."""
    return sum(t.self_ns for name, t in totals.items() if name not in ENCLOSING_SPANS) / wall_ns


def generation_ns(w, ep) -> list[int]:
    """Time per generation; for islands, per round in which every island steps once."""
    bounds = ep.step_entries[:: w.islands] + [ep.t_end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def scaled_generation_ns(w, ep) -> list[float]:
    """Time per generation at reference speed: each one scaled by
    REFERENCE_NS / the mean time of the reference loops run at its steps."""
    loops = ep.probe.loop_times
    k = w.islands
    return [
        ns * REFERENCE_NS * k / sum(loops[g * k : (g + 1) * k])
        for g, ns in enumerate(generation_ns(w, ep))
    ]


def end_to_end(w, episodes, setups: list[tuple[int, float]], peak_rss_mb: float) -> Metrics:
    m = Metrics()
    n = len(episodes)
    work = w.expected_evaluations() - w.islands * w.pop_size
    per_episode = [scaled_generation_ns(w, ep) for ep in episodes]
    busy = statistics.median(sum(gens) for gens in per_episode)
    m.add(
        "evals_per_s",
        work / (busy / 1e9),
        "1/s",
        f"{work} evaluations after set-up / {busy / 1e9:.4f} s of generations, "
        f"median of {n} episodes",
    )
    gens = [ns / 1e6 for episode in per_episode for ns in episode]
    p90 = statistics.quantiles(gens, n=10)[-1]
    m.add("gen_ms_p50", statistics.median(gens), "ms", f"median of {len(gens)} generations")
    m.add(
        "gen_ms_p90",
        p90,
        "ms",
        f"90th percentile of {len(gens)} generations, {sum(g > p90 for g in gens)} above it",
    )
    m.add(
        "setup_s",
        statistics.median(ns / 1e9 * REFERENCE_NS / loop_ns for ns, loop_ns in setups),
        "s",
        f"median of {len(setups)} set-ups: import, inputs, initial population up to the first step",
    )
    m.add("peak_rss_mb", peak_rss_mb, "MB", "peak resident memory of this process after one episode")
    return m


def message_wait_rounds(log: list[str]) -> tuple[float, int]:
    """Mean rounds between a migrant's send and its delivery, from the public log."""
    sent = {}
    waits = []
    for line in log:
        round_no, alias, event, *rest = line.split()
        fields = dict(item.split("=", 1) for item in rest if "=" in item)
        if event == "send":
            sent[(alias, fields["to"], fields["gen"])] = int(round_no)
        elif event == "recv":
            waits.append(int(round_no) - sent.pop((fields["from"], alias, fields["gen"])))
    return (sum(waits) / len(waits) if waits else 0.0), len(waits)


def per_layer(w, traced, untraced) -> tuple[Metrics, dict[str, float]]:
    m = Metrics()
    n = len(traced)
    pooled: dict[str, SpanTotals] = defaultdict(SpanTotals)
    per_episode = [ep.probe.totals() for ep in traced]
    for totals in per_episode:
        for name, t in totals.items():
            pooled[name].calls += t.calls
            pooled[name].total_ns += t.total_ns
            pooled[name].self_ns += t.self_ns
    wall = sum(ep.wall_ns for ep in traced)
    base = f"of {wall / 1e9:.3f} s traced wall over {n} episodes"

    def calls(name):
        return pooled[name].calls / n

    def per_call(name, key="total_ns"):
        c = pooled[name].calls
        return getattr(pooled[name], key) / c if c else 0.0

    def share(name, key="total_ns"):
        return getattr(pooled[name], key) / wall

    def median_s(name):
        return statistics.median(t[name].total_ns / 1e9 if name in t else 0.0 for t in per_episode)

    last = traced[-1]
    m.add("core.variation.calls", calls("core.variation"), "count", "operator applications per episode")
    m.add("core.variation.ns_per_call", per_call("core.variation"), "ns", "per operator application")
    m.add("core.variation.share", share("core.variation"), "ratio", base)
    m.add("core.rng.draws", last.probe.draws, "count", "RandomSource calls per episode, exact")
    m.add("core.random_genome_s", median_s("core.random_genome"), "s", f"initial genomes, median of {n}")
    m.add("engine.step.calls", calls("engine.step"), "count", "step calls per episode (all islands)")
    m.add("engine.step.self_ns_per_call", per_call("engine.step", "self_ns"), "ns", "step minus variation and fitness")
    m.add("engine.step.self_share", share("engine.step", "self_ns"), "ratio", base)
    m.add("engine.evaluations", last.evaluations, "count", "RunStats evaluations per episode, exact")
    m.add("problems.fitness.calls", calls("problems.fitness"), "count", "fitness calls per episode")
    m.add("problems.fitness.ns_per_call", per_call("problems.fitness"), "ns", "per call, stabbing query included")
    m.add("problems.fitness.self_share", share("problems.fitness", "self_ns"), "ratio", base + ", stabbing query excluded")
    m.add(
        "problems.fitness.distinct_ratio",
        len(last.probe.genomes) / last.evaluations,
        "ratio",
        f"{len(last.probe.genomes)} distinct genomes / {last.evaluations} evaluations",
    )
    stab_queries = pooled["problems.stab"].calls // n
    m.add("problems.stab.calls", stab_queries, "count", "stabbing queries per episode" + ("" if stab_queries else ", n/a"))
    m.add("problems.stab.ns_per_call", per_call("problems.stab"), "ns", "per query")
    m.add(
        "problems.stab.hits_per_call",
        last.probe.stab_hits / stab_queries if stab_queries else 0.0,
        "hits/call",
        f"{last.probe.stab_hits} rectangles returned / {stab_queries} queries in one episode",
    )
    m.add("problems.stab.share", share("problems.stab"), "ratio", base)
    m.add("problems.arena_build_s", median_s("problems.arena_build"), "s", f"arena generation, median of {n}")
    islands_self = sum(t.self_ns for name, t in pooled.items() if name.startswith("islands."))
    steps = pooled["engine.step"].calls
    m.add("islands.self_share", islands_self / wall, "ratio", base + ": scheduler, migrant selection and integration")
    m.add(
        "islands.self_ns_per_step",
        islands_self / steps if w.islands > 1 else 0.0,
        "ns",
        "islands self time per island step",
    )
    arch = last.archipelago
    wait, delivered = message_wait_rounds(arch.log) if arch else (0.0, 0)
    m.add("islands.messages_sent", arch.messages_sent if arch else 0, "count", "per episode")
    m.add("islands.messages_delivered", arch.messages_delivered if arch else 0, "count", "per episode")
    m.add("islands.message_wait_rounds", wait, "rounds", f"mean over {delivered} delivered messages")
    if untraced:
        overhead = statistics.median(ep.wall_ns for ep in traced) / statistics.median(
            ep.wall_ns for ep in untraced
        ) - 1
        note = f"median traced wall ({n}) / median untraced wall ({len(untraced)}) - 1"
    else:
        overhead, note = 0.0, "no untraced episode ran"
    m.add("trace.overhead", overhead, "ratio", note)
    m.add(
        "trace.coverage",
        coverage(pooled, wall),
        "ratio",
        "sum of self times / traced wall, without " + ", ".join(ENCLOSING_SPANS),
    )
    layers: dict[str, float] = defaultdict(float)
    for name, t in pooled.items():
        layers[name.split(".")[0]] += t.self_ns / wall
    return m, dict(layers)


def print_header(w, args, spec) -> None:
    print(f"# perfbench workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"# python={platform.python_version()} ({platform.python_implementation()}) "
        f"nproc={os.cpu_count()} machine={platform.machine()}"
    )
    print("# params " + " ".join(f"{k}={v}" for k, v in w.params().items()))
    why = next(item["why"] for item in spec["workloads"] if item["name"] == w.name)
    print(f"# why: {why}")
    print("# closed loop, 1 client, 1 process; one episode = set-up + fixed generation budget")


def run_workload(args) -> int:
    w = WORKLOADS[args.workload]
    spec = json.loads(SPEC.read_text())
    print_header(w, args, spec)
    runner = Runner(w, args.seed)
    timed = []
    setups = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        if args.trace == 0:
            setups += [runner.setup_only() for _ in range(SETUPS_PER_EPISODE)]
        traced = args.trace == 1 and len(timed) % 2 == 1
        probe = Tracer() if traced else Clock() if args.trace else Calibrated()
        ep = runner.episode(probe, f"episode {len(timed) + 1}")
        if ep is None:
            break
        if not timed:
            # later episodes repeat the same work; what the process gains after
            # this is the benchmark's own re-imports, not the program's memory
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not ep.probe.traced:
            ep.release()
        timed.append(ep)
        elapsed = time.perf_counter() - start
        if len(timed) >= MIN_EPISODES and elapsed * (1 + 1 / len(timed)) > args.seconds:
            break
    if runner.failed == 0:
        runner.verify()
    ref = runner.reference
    correct = runner.failed == 0 and len(timed) >= MIN_EPISODES
    print(
        f"# checks: {runner.attempted} attempted, {runner.failed} failed, "
        f"error_rate={runner.failed / max(runner.attempted, 1):g}"
    )
    if ref is not None:
        print(
            f"# final_best={ref.final_best:g} digest={ref.digest} "
            f"core.rng.draws={ref.probe.draws} engine.evaluations={ref.evaluations}"
        )
    metrics = Metrics()
    if correct and args.trace == 0:
        metrics = end_to_end(w, timed, setups, peak_rss_mb)
    elif correct:
        traced = [ep for ep in timed if ep.probe.traced]
        untraced = [ep for ep in timed if not ep.probe.traced]
        metrics, layers = per_layer(w, traced, untraced)
        dominant = max(layers, key=layers.get)
        print(
            "# layer self shares: "
            + " ".join(f"{k}={v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        )
        print(
            f"# dominant layer: {dominant}, expected {w.dominant}"
            + ("" if dominant == w.dominant else " (DIFFERS)")
        )
        spans_file = OUT / f"{w.name}-seed{args.seed}.spans.tsv"
        write_spans(spans_file, [ep.probe for ep in traced])
        print(f"# spans written to {spans_file.relative_to(ROOT)}")
    metrics.report()
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {name: unit for name, _, unit, _ in metrics.rows}
    if correct and reported != declared:
        print(f"FAIL metrics {reported} differ from {SPEC.name} {declared}", file=sys.stderr)
        correct = False
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics.as_json(),
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evobits" / "__init__.py").is_file():
        print(f"error: evobits sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
