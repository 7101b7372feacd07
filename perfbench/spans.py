"""Outside-in probes around evobits' public entry points.

A workload asks its probe to wrap each callable it hands to the library.
:class:`Clock` (untraced) leaves everything unwrapped except the step
function, whose entry times mark generation boundaries. :class:`Calibrated`
also times a fixed reference loop before each step. :class:`Tracer`
also records one in-memory span per call of the fitness function, the
variation operators, the step function, the arena's stabbing query,
genome creation and migrant selection and integration, and counts random draws with a ``RandomSource`` subclass.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

clock_ns = time.perf_counter_ns
REFERENCE_SIZE = 1000


def reference_loop() -> int:
    """Fixed pure-Python work that touches no evobits code: build a list of
    ints, sort it, slice it, map over it. Its time tracks how fast the host
    runs this kind of interpreter work at the moment."""
    values = [(i * 7919) % 1009 for i in range(REFERENCE_SIZE)]
    values.sort()
    return sum([v ^ 5 for v in values[::2]])


def time_reference(times: int) -> float:
    """Mean ns of the reference loop over ``times`` back-to-back runs."""
    start = clock_ns()
    for _ in range(times):
        reference_loop()
    return (clock_ns() - start) / times


class Clock:
    """Untraced probe: only timestamps each call of the step function."""

    traced = False

    def __init__(self) -> None:
        self.t_start = 0
        self.step_entries: list[int] = []

    def now(self) -> int:
        return clock_ns()

    def step(self, fn):
        entries = self.step_entries

        def timed_step(*args):
            entries.append(clock_ns())
            return fn(*args)

        return timed_step

    def wrap(self, name: str, fn):
        return fn

    def fitness(self, fn):
        return fn

    def operator(self, op):
        return op

    def arena(self, arena):
        return arena

    def random_source(self, cls):
        return cls

    def random_genome(self, fn):
        return fn

    @contextmanager
    def span(self, name: str):
        yield


class Calibrated(Clock):
    """Untraced probe that runs the reference loop before every step call.

    Its clock leaves out the time spent in the loop, so the episode's times
    are the program's own; ``loop_times`` holds the loop's time at each step
    call, in the order of ``step_entries``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.loop_ns = 0
        self.loop_times: list[int] = []

    def now(self) -> int:
        return clock_ns() - self.loop_ns

    def step(self, fn):
        entries = self.step_entries
        loop_times = self.loop_times

        def timed_step(*args):
            before = clock_ns()
            reference_loop()
            after = clock_ns()
            self.loop_ns += after - before
            loop_times.append(after - before)
            entries.append(after - self.loop_ns)
            return fn(*args)

        return timed_step


class SetupDone(Exception):
    """Raised by :class:`SetupOnly` at the first generation step."""


class SetupOnly(Clock):
    """Untraced probe that ends the episode when the first step is called."""

    def step(self, fn):
        entries = self.step_entries

        def first_step(*args):
            entries.append(clock_ns())
            raise SetupDone

        return first_step


class _TracedOperator:
    """Stands in for an operator: same ``rate`` and ``arity``, traced ``apply``."""

    def __init__(self, op, apply) -> None:
        self.rate = op.rate
        self.arity = op.arity
        self.apply = apply


@dataclass
class SpanTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer(Clock):
    """Span recorder: name, parent, start and end of every wrapped call.

    Spans nest by a stack, since evobits runs on one thread. Counters that
    are not timed (random draws, stabbing hits, distinct genomes) are kept
    beside them.
    """

    traced = True

    def __init__(self) -> None:
        super().__init__()
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: list[int] = []
        self.draws = 0
        self.stab_hits = 0
        self.genomes: set = set()

    def _label(self, name: str) -> int:
        if name not in self._label_ids:
            self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return self._label_ids[name]

    def begin(self, label: int) -> None:
        self._stack.append(len(self.names))
        self.names.append(label)
        self.parents.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.ends.append(0)
        self.starts.append(clock_ns())

    def finish(self) -> None:
        now = clock_ns()
        self.ends[self._stack.pop()] = now

    def wrap(self, name: str, fn):
        label = self._label(name)
        begin, finish = self.begin, self.finish

        def traced(*args):
            begin(label)
            try:
                return fn(*args)
            finally:
                finish()

        return traced

    @contextmanager
    def span(self, name: str):
        self.begin(self._label(name))
        try:
            yield
        finally:
            self.finish()

    def step(self, fn):
        return super().step(self.wrap("engine.step", fn))

    def fitness(self, fn):
        seen = self.genomes
        traced = self.wrap("problems.fitness", fn)

        def fitness(genome):
            seen.add(genome)
            return traced(genome)

        return fitness

    def operator(self, op):
        return _TracedOperator(op, self.wrap("core.variation", op.apply))

    def arena(self, arena):
        query = arena.rectangles_containing_dot

        def counted_query(x, y):
            hits = query(x, y)
            self.stab_hits += len(hits)
            return hits

        # an instance attribute shadows the method for this arena only
        arena.rectangles_containing_dot = self.wrap("problems.stab", counted_query)
        return arena

    def random_source(self, cls):
        tracer = self

        class CountingRandomSource(cls):
            def random(self):
                tracer.draws += 1
                return cls.random(self)

            def uniform(self, low, high):
                tracer.draws += 1
                return cls.uniform(self, low, high)

            def randrange(self, n):
                tracer.draws += 1
                return cls.randrange(self, n)

            def sample(self, population, k):
                tracer.draws += 1
                return cls.sample(self, population, k)

        return CountingRandomSource

    def random_genome(self, fn):
        return self.wrap("core.random_genome", fn)

    def totals(self) -> dict[str, SpanTotals]:
        """Calls, inclusive time and self time (minus child spans) per span name."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans were never closed")
        count = len(self.names)
        child_ns = [0] * count
        for sid in range(count):
            parent = self.parents[sid]
            if parent >= 0:
                child_ns[parent] += self.ends[sid] - self.starts[sid]
        totals = {label: SpanTotals() for label in self.labels}
        for sid in range(count):
            entry = totals[self.labels[self.names[sid]]]
            duration = self.ends[sid] - self.starts[sid]
            entry.calls += 1
            entry.total_ns += duration
            entry.self_ns += duration - child_ns[sid]
        return totals

    def write(self, out, episode: int) -> None:
        """Append one ``episode span parent name start_ns end_ns`` line per span."""
        for sid in range(len(self.names)):
            out.write(
                f"{episode}\t{sid}\t{self.parents[sid]}\t{self.labels[self.names[sid]]}"
                f"\t{self.starts[sid]}\t{self.ends[sid]}\n"
            )


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write("episode\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for episode, tracer in enumerate(tracers):
            tracer.write(out, episode)
