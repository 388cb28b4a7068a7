"""Outside-in tracing: spans recorded around calls into the program.

The program itself carries no tracing for this benchmark.  A traced
run instead replaces public functions and methods of the program —
in its own process only, for the duration of the run — with wrappers
that open a span, call the original and close the span.  Results are
unchanged because a wrapper only reads the clock: it never schedules,
reorders or skips anything.

Two kinds of span share one stack per thread:

* *kept* spans (cells, build, kernel runs, CLI phases, cache probes)
  are stored with name, start, end and parent, and written out when
  the run ends;
* *fine* spans (every dispatched event callback, ``send``,
  ``handle_message``, cache-array calls, ...) are too many to store —
  a 16-core PATCH-All cell dispatches 300k events — so only their call
  count and self time are added up, per span name.

Self time is a span's duration minus the time its direct children
cover; :func:`self_times` computes it from stored spans and
:class:`Tracer` computes the same quantity online.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Tuple)


class Span(NamedTuple):
    """One stored span; ``parent`` indexes the span list, -1 for none."""

    name: str
    start: float
    end: float
    parent: int


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus the time its
    direct children cover, summed over the spans of that name.

    Children of one parent never overlap (they come from one thread's
    call stack), so "the time they cover" is the sum of their
    durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += (span.end - span.start) - child_time[index]
    return dict(totals)


def owner_module(callback: Any) -> str:
    """The module that owns ``callback``: the class of a bound method's
    object, the defining module of a function or lambda."""
    bound_to = getattr(callback, "__self__", None)
    if bound_to is not None and not isinstance(bound_to, types.ModuleType):
        return type(bound_to).__module__
    inner = getattr(callback, "func", None)  # functools.partial
    if inner is not None:
        return owner_module(inner)
    module = getattr(callback, "__module__", None)
    return module if module else type(callback).__module__


def layer_of(module: str) -> str:
    """The layer a module belongs to: the package under ``repro``
    (``repro.interconnect.network`` is ``interconnect``)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    return parts[1]


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s")

    def __init__(self) -> None:
        # Frames: [name, start, child_time, kept_index or -1].
        self.stack: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)


class Tracer:
    """Span stack, kept spans and per-name totals for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.marks: List[Tuple[str, float, Dict[str, Any]]] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()

    # -- the stack -----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def enter(self, name: str, keep: bool = False) -> None:
        stack = self._state().stack
        index = -1
        if keep:
            parent = next((frame[3] for frame in reversed(stack)
                           if frame[3] >= 0), -1)
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent))
        stack.append([name, self.clock(), 0.0, index])

    def exit(self) -> None:
        end = self.clock()
        state = self._state()
        name, start, child, index = state.stack.pop()
        duration = end - start
        state.calls[name] += 1
        state.self_s[name] += duration - child
        if state.stack:
            state.stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = self.spans[index]._replace(start=start,
                                                           end=end)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A kept span around a block."""
        self.enter(name, keep=True)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, function: Callable, name: str,
             keep: bool = False) -> Callable:
        """``function`` inside a span named ``name``."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name, keep)
            try:
                return function(*args, **kwargs)
            finally:
                exit_()

        traced.__wrapped__ = function
        return traced

    def dispatch(self, callback: Callable) -> Callable:
        """``callback`` inside a span named after the layer that owns it
        — how a kernel event is charged to its layer."""
        return self.wrap(callback, layer_of(owner_module(callback)))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def mark(self, name: str, at: Optional[float] = None,
             **attrs: Any) -> None:
        """A timestamped instant (a service event, say); ``at`` defaults
        to now."""
        self.marks.append((name, self.clock() if at is None else at,
                           attrs))

    # -- results -------------------------------------------------------
    def totals(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Call counts and self times per span name, over all threads."""
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, value in list(state.calls.items()):
                calls[name] += value
            for name, value in list(state.self_s.items()):
                self_s[name] += value
        return dict(calls), dict(self_s)

    def dump(self, path) -> None:
        """Write every kept span, mark, counter and total to ``path``."""
        calls, self_s = self.totals()
        payload = {
            "spans": [list(span) for span in self.spans],
            "marks": [[name, at, attrs] for name, at, attrs in self.marks],
            "counters": dict(self.counters),
            "calls": calls,
            "self_s": self_s,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# Patching helpers
# ----------------------------------------------------------------------

class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind every module-level name bound to ``original`` — the
        defining module and each ``from x import name`` copy."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self.set(module, name, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


# ----------------------------------------------------------------------
# Simulation layers
# ----------------------------------------------------------------------

#: Public ``CacheArray`` methods the protocols call.
CACHE_ARRAY_METHODS = ("lookup", "touch", "victim_for", "allocate", "evict")
PREDICTOR_METHODS = ("predict", "record_owner", "record_foreign_request")
INTEGRITY_METHODS = ("commit_write", "observe_read")


def instrument_system(system, tracer: Tracer) -> None:
    """Wrap one built system's layer boundaries, on its instances.

    Instance attributes shadow the class methods, so every call made
    through the object — the only way the components reach each other
    — passes through a wrapper, and ``super()`` chains inside a class
    are counted once.
    """
    sim = system.sim
    post, schedule = sim.post, sim.schedule
    post_reserved = sim.post_reserved
    dispatch = tracer.dispatch

    def traced_post(delay, callback, priority=0):
        post(delay, dispatch(callback), priority)

    def traced_schedule(delay, callback, priority=0):
        return schedule(delay, dispatch(callback), priority)

    def traced_post_reserved(time_, seq, callback, priority=0):
        post_reserved(time_, seq, dispatch(callback), priority)

    sim.post = traced_post
    sim.schedule = traced_schedule
    sim.post_reserved = traced_post_reserved
    sim.run = tracer.wrap(sim.run, "sim", keep=True)
    network = system.network
    network.send = tracer.wrap(network.send, "interconnect")
    for controller in list(system.caches) + list(system.homes):
        for method in ("handle_message", "access"):
            if hasattr(controller, method):
                setattr(controller, method, tracer.wrap(
                    getattr(controller, method), "protocols"))
        array = getattr(controller, "cache", None)
        if array is not None:
            for method in CACHE_ARRAY_METHODS:
                setattr(array, method,
                        tracer.wrap(getattr(array, method), "cache"))
        predictor = getattr(controller, "predictor", None)
        if predictor is not None:
            for method in PREDICTOR_METHODS:
                setattr(predictor, method,
                        tracer.wrap(getattr(predictor, method),
                                    "prediction"))
    workload = system.workload
    workload.next_access = tracer.wrap(workload.next_access, "workloads")
    if system.integrity is not None:
        for method in INTEGRITY_METHODS:
            setattr(system.integrity, method,
                    tracer.wrap(getattr(system.integrity, method),
                                "verify"))
    # What System.run does besides the kernel runs and audits it calls:
    # collecting the result, above all.
    system.run = tracer.wrap(system.run, "core.run", keep=True)


@contextmanager
def traced_cells(tracer: Tracer) -> Iterator[None]:
    """Trace every cell ``repro.exec.cells.execute_cell`` runs inside
    the block: its build, the built system's layers, and the end-of-run
    audits."""
    import repro.core.system as system_module
    import repro.engines as engines
    import repro.workloads.presets as presets

    patches = Patches()
    build_system = engines.build_system

    def traced_build(*args, **kwargs):
        system = build_system(*args, **kwargs)
        instrument_system(system, tracer)
        return system

    patches.set(engines, "build_system",
                tracer.wrap(traced_build, "core.build", keep=True))
    patches.set(presets, "make_workload",
                tracer.wrap(presets.make_workload, "core.build",
                            keep=True))
    for audit in ("audit_single_writer", "audit_token_conservation",
                  "check_all_done"):
        patches.set(system_module, audit,
                    tracer.wrap(getattr(system_module, audit), "verify",
                                keep=True))
    try:
        yield
    finally:
        patches.undo()


# ----------------------------------------------------------------------
# CLI / service layers
# ----------------------------------------------------------------------

def instrument_program(tracer: Tracer) -> Patches:
    """Wrap the CLI, spec, cache, manifest, executor and service entry
    points of an imported ``repro`` (call after ``import repro.cli``)."""
    from repro.analysis import format_table
    from repro.api.spec import StudySpec
    from repro.exec.cache import ResultCache, code_version
    from repro.exec.executors import Executor
    from repro.exec.manifest import ManifestStore
    from repro.exec.parallel import ParallelRunner
    from repro.exec.serialization import run_result_from_dict
    from repro.service.scheduler import StudyRecord, StudyScheduler

    patches = Patches()
    patches.everywhere(format_table, tracer.wrap(
        format_table, "cli.render", keep=True))
    for method in ("load", "validate", "cell_groups"):
        original = StudySpec.__dict__[method]
        if isinstance(original, classmethod):
            patches.set(StudySpec, method, classmethod(tracer.wrap(
                original.__func__, "api.lower", keep=True)))
        else:
            patches.set(StudySpec, method,
                        tracer.wrap(original, "api.lower", keep=True))
    patches.everywhere(code_version, tracer.wrap(
        code_version, "exec.code_version", keep=True))
    patches.everywhere(run_result_from_dict, tracer.wrap(
        run_result_from_dict, "exec.decode", keep=True))

    load = ResultCache.load

    def traced_load(self, cell):
        result = load(self, cell)
        tracer.count("exec.cache_hits" if result is not None
                     else "exec.cache_misses")
        return result

    patches.set(ResultCache, "load",
                tracer.wrap(traced_load, "exec.cache_probe", keep=True))
    patches.set(ResultCache, "store",
                tracer.wrap(ResultCache.store, "exec.cache_store",
                            keep=True))
    patches.set(ManifestStore, "save",
                tracer.wrap(ManifestStore.save, "exec.manifest_save",
                            keep=True))
    resolve = ParallelRunner.resolve_executor

    class TracedExecutor(Executor):
        """An executor whose ``execute`` generator is timed per result."""

        def __init__(self, inner: Executor) -> None:
            self.inner = inner
            self.name = inner.name

        def execute(self, items, jobs):
            started = tracer.clock()
            results = self.inner.execute(items, jobs)
            first = True
            try:
                while True:
                    with tracer.span("exec.pool_wait"):
                        try:
                            item = next(results)
                        except StopIteration:
                            return
                    if first:
                        tracer.count("exec.pool_first_result_s",
                                     tracer.clock() - started)
                        tracer.count("exec.pool_batches")
                        first = False
                    yield item
            finally:
                results.close()

    def traced_resolve(self, preferred=None):
        backend = resolve(self, preferred)
        if isinstance(backend, TracedExecutor):
            return backend
        return TracedExecutor(backend)

    patches.set(ParallelRunner, "resolve_executor", traced_resolve)

    submit = StudyScheduler.submit

    def traced_submit(self, spec):
        at = tracer.clock()
        record, summary = submit(self, spec)
        tracer.mark("submit", at=at, study=record.study_id,
                    created=summary["created"])
        return record, summary

    patches.set(StudyScheduler, "submit", traced_submit)
    event = StudyRecord.event

    def traced_event(self, name, index=None, **extra):
        if name in ("started", "study-done"):
            tracer.mark(name, study=self.study_id)
        return event(self, name, index, **extra)

    patches.set(StudyRecord, "event", traced_event)
    return patches
