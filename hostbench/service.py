"""``service-open``: an open-loop schedule of overlapping studies
against a ``repro serve --port 0`` daemon in its own process.

Load comes from this process with two threads, each holding at most
one connection: a *sender* that POSTs every study at its due time
regardless of how earlier ones fared (an open loop — independent users
do not wait for each other), and a *watcher* that follows each study's
NDJSON event stream to its ``study-done`` event, so completion is seen
when it happens rather than at the next tick of a polling loop.

The schedule arrives at a fixed rate, well below saturation, and mixes
three kinds of study (the shape of ``repro.service.load.overlapping_specs``):

* ``slide`` — a window of ``WINDOW`` consecutive seeds that slides by
  one per study, so each shares ``WINDOW - 1`` cells with its
  predecessor: those are in flight (dedup) or already cached, and one
  cell is fresh;
* ``hit`` — a shorter window over seeds finished a while ago, answered
  from the result cache at submit;
* ``straggler`` — one cell eight times the usual size, which holds up
  the scheduler's batch (``jobs * 4`` cells) it lands in.

The schedule's gaps are seconds of the reference machine's time
(:data:`hostbench.common.CALIBRATION_REF_S`): each is stretched by the
slowdown the pacer read over the last seconds, so a slowed machine is
offered the same load, in its own terms, as a quick one.  Queueing
makes latency grow faster than the machine slows, so a wall-clock
schedule, paced only afterwards, would read a slow stretch as a
slower service.

Every latency is timed from the submission's *due* time, so a stalled
sender shows as latency of the studies behind it; the sender's own
lateness is reported beside it.  Each fetched ``StudyResult`` is then
compared field by field with a local serial run of the same spec.
"""

from __future__ import annotations

import os
import queue
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from hostbench import layers
from hostbench.common import (CHILD_TIMEOUT_S, ROOT, TRACE_DIR, Outcome,
                              Pacer, Scratch, child_env, nearest_rank,
                              slowdown_during, track, wait_rusage)

#: Studies per second of reference time.  On the 2-CPU reference
#: machine the daemon's median latency stays flat up to about 12/s and
#: grows from 18/s on (DESIGN.md has the sweep), so at this rate
#: latency reflects the service path, not a growing backlog.
RATE_PER_S = 9.0
WINDOW = 4
CORES = 8
REFS = 30
STRAGGLER_REFS = 240
#: After the opening slides the schedule repeats a block of
#: STRAGGLER_EVERY studies: one straggler and STRAGGLER_EVERY // HIT_EVERY
#: hits at places the seed picks once, slides elsewhere.  Every block
#: then loads the scheduler alike, so a run's latencies do not hinge on
#: how a seed happened to bunch its stragglers.
HIT_EVERY = 8
STRAGGLER_EVERY = 16
#: Hit studies look back this many slides, far enough that those cells
#: have finished.
HIT_LOOKBACK = (8, 14)
LISTEN_RE = re.compile(r"listening on (http://[0-9.]+:[0-9]+)")
DRAIN_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
#: A study is paced by the slowdown readings taken from this many
#: seconds before it was due to as many after it finished, and a gap
#: of the schedule is stretched by those of the last this many seconds.
#: One reading (two 20 ms loops every 0.5 s) swings by up to 1.8x from
#: the next, and a 60 ms study rarely spans one, so each study is paced
#: by the median of the eight or so around it.
PACING_WINDOW_S = 2.0


class Arrival(NamedTuple):
    due_s: float
    kind: str
    spec: Dict


def schedule(seed: int, seconds: float) -> List[Arrival]:
    """The seeded arrival schedule: about ``RATE_PER_S * seconds``
    studies, rounded to whole blocks."""
    from repro.service.load import overlapping_specs

    rng = random.Random(seed)
    # Hits look back on finished slides, so the schedule opens with
    # plain slides.
    head = HIT_LOOKBACK[1] + 2
    blocks = max(1, round((RATE_PER_S * seconds - head) / STRAGGLER_EVERY))
    block = ["slide"] * STRAGGLER_EVERY
    # The straggler comes second of its pair (``head`` is even), so its
    # cell is queued while the first study's fresh cell runs and always
    # makes a batch of its own.  The daemon runs a one-cell batch in its
    # own process, and a two-cell one in the pool: first of a pair, the
    # straggler would race the second study's POST for a batch, and the
    # winner would decide how long the studies behind it wait.
    block[2 * rng.randrange(STRAGGLER_EVERY // 2) + 1] = "straggler"
    offset = rng.randrange(HIT_EVERY)
    for start in range(0, STRAGGLER_EVERY, HIT_EVERY):
        free = [start + (offset + i) % HIT_EVERY for i in range(HIT_EVERY)]
        block[next(i for i in free if block[i] == "slide")] = "hit"
    kinds = ["slide"] * head + block * blocks
    base = rng.randrange(1, 1_000_000)
    arrivals = []
    slides = 0
    stragglers = 0
    for index, kind in enumerate(kinds):
        spec = overlapping_specs(1, WINDOW, REFS, CORES)[0]
        if kind == "slide":
            first = base + slides
            spec["seeds"] = list(range(first, first + WINDOW))
            slides += 1
        elif kind == "hit":
            first = base + slides - rng.randint(*HIT_LOOKBACK)
            spec["seeds"] = list(range(first, first + WINDOW - 1))
        else:
            spec["references_per_core"] = STRAGGLER_REFS
            spec["seeds"] = [base + stragglers]
            stragglers += 1
        spec["name"] = f"hostbench-{kind}-{index:04d}"
        # Studies arrive in pairs due at the same instant, so the second
        # of a pair finds the first one's fresh cell still in flight.
        arrivals.append(Arrival((index // 2) * 2 / RATE_PER_S, kind,
                                spec))
    return arrivals


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------

class Daemon:
    """A ``repro serve --port 0`` process and its URL."""

    def __init__(self, argv: List[str], scratch: Scratch) -> None:
        self.stderr_path = scratch.root / f"daemon-{time.monotonic_ns()}.err"
        env = child_env(scratch.new_dir("cache-"), scratch.new_dir("tmp-"))
        self._stderr = open(self.stderr_path, "wb")
        self.launched = time.perf_counter()
        self.proc = track(subprocess.Popen(argv, env=env, cwd=ROOT,
                                           stdin=subprocess.DEVNULL,
                                           stdout=subprocess.DEVNULL,
                                           stderr=self._stderr))
        self.url: Optional[str] = None
        self.maxrss_mb = 0.0
        self.cpu_s = 0.0
        self.lifetime_s = 0.0
        self.returncode: Optional[int] = None

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace")

    def wait_ready(self) -> float:
        """Block until ``/healthz`` answers 200; launch-to-ready seconds."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            if self.url is None:
                match = LISTEN_RE.search(self.stderr())
                if match:
                    self.url = match.group(1)
            if self.url is not None:
                try:
                    with urllib.request.urlopen(self.url + "/healthz",
                                                timeout=5) as reply:
                        if reply.status == 200:
                            return time.perf_counter() - self.launched
                except (urllib.error.URLError, OSError):
                    pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"daemon did not become ready:\n{self.stderr()}")

    def stop(self) -> int:
        """SIGTERM (graceful shutdown), reap, record peak RSS."""
        if self.returncode is None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            if self.proc.returncode is None:
                self.returncode, self.maxrss_mb, self.cpu_s = wait_rusage(
                    self.proc, CHILD_TIMEOUT_S)
            else:
                self.returncode = self.proc.returncode
            self.lifetime_s = time.perf_counter() - self.launched
            self._stderr.close()
        return self.returncode


def serve_argv() -> List[str]:
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]


def traced_serve_argv(spans: Path) -> List[str]:
    return [sys.executable, "-X", "importtime", "-m",
            "hostbench.traced_cli", str(spans), "serve", "--port", "0"]


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------

class StudyOutcome:
    __slots__ = ("arrival", "study", "due", "lag_s", "submit_ms",
                 "done_at", "state", "observed_late", "paced_ms")

    def __init__(self, arrival: Arrival) -> None:
        self.arrival = arrival
        self.study: Optional[str] = None
        self.due = 0.0
        self.lag_s = 0.0
        self.submit_ms: Optional[float] = None
        self.done_at: Optional[float] = None
        self.state: Optional[str] = None
        self.observed_late = False
        #: :attr:`complete_ms` paced by the machine's slowdown.
        self.paced_ms: Optional[float] = None

    @property
    def complete_ms(self) -> Optional[float]:
        if self.done_at is None or self.state != "done":
            return None
        return (self.done_at - self.due) * 1000.0


def open_loop(url: str, arrivals: List[Arrival],
              slowdown_now: Callable[[], float]) -> List[StudyOutcome]:
    """Send every arrival at its due time, each gap of the schedule
    stretched by ``slowdown_now()``; watch each to completion.
    Instants are ``time.monotonic()``, the pacer's clock."""
    from repro.service.client import ServiceClient, ServiceError

    outcomes = [StudyOutcome(arrival) for arrival in arrivals]
    pending: "queue.Queue[Optional[StudyOutcome]]" = queue.Queue()

    def watch() -> None:
        client = ServiceClient(url, timeout=DRAIN_TIMEOUT_S)
        while True:
            outcome = pending.get()
            if outcome is None:
                return
            opened = time.monotonic()
            try:
                for event in client.stream_events(outcome.study):
                    if event.get("event") == "study-done":
                        outcome.done_at = time.monotonic()
                        outcome.state = event.get("state", "done")
            except (ServiceError, OSError):
                continue
            # A stream whose terminal event was already waiting when it
            # opened saw the study finish late, not when it finished.
            outcome.observed_late = (outcome.done_at is not None
                                     and outcome.done_at - opened < 0.002)

    watcher = threading.Thread(target=watch, name="hostbench-watcher")
    watcher.start()
    client = ServiceClient(url, timeout=DRAIN_TIMEOUT_S)
    due = time.monotonic() + 0.05
    previous = 0.0
    try:
        for outcome in outcomes:
            due += (outcome.arrival.due_s - previous) * slowdown_now()
            previous = outcome.arrival.due_s
            outcome.due = due
            delay = outcome.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            begin = time.monotonic()
            outcome.lag_s = begin - outcome.due
            try:
                reply = client.submit(outcome.arrival.spec)
            except (ServiceError, OSError):
                continue
            posted = time.monotonic()
            outcome.submit_ms = (posted - begin) * 1000.0
            outcome.study = reply["study"]
            if reply.get("state") in ("done", "failed"):
                outcome.done_at = posted
                outcome.state = reply["state"]
            else:
                pending.put(outcome)
    finally:
        pending.put(None)
        watcher.join(DRAIN_TIMEOUT_S)
    return outcomes


def fetch_results(url: str, outcomes: List[StudyOutcome]
                  ) -> Tuple[Dict[str, object], List[float]]:
    """Every finished study's ``StudyResult``, and each fetch in ms."""
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(url, timeout=DRAIN_TIMEOUT_S)
    results: Dict[str, object] = {}
    fetch_ms: List[float] = []
    for outcome in outcomes:
        if outcome.state != "done" or outcome.study in results:
            continue
        begin = time.perf_counter()
        try:
            results[outcome.study] = client.result(outcome.study)
        except (ServiceError, OSError):
            continue
        fetch_ms.append((time.perf_counter() - begin) * 1000.0)
    return results, fetch_ms


def check_results(outcomes: List[StudyOutcome], results: Dict[str, object],
                  outcome: Outcome) -> None:
    """Compare each fetched result with a local serial run, field by
    field (``comparable_result_dict``: everything but timings)."""
    from repro.api.spec import StudySpec
    from repro.exec.cells import execute_cell
    from repro.exec.serialization import comparable_result_dict

    local: Dict[object, dict] = {}
    for study in outcomes:
        result = results.get(study.study)
        if result is None:
            continue
        spec = StudySpec.from_json_dict(study.arrival.spec)
        groups = spec.cell_groups()
        if not outcome.check(list(result.keys) == [k for k, _ in groups],
                             f"{study.arrival.spec['name']}: grid keys "
                             f"differ"):
            continue
        for key, cells in groups:
            fetched = result.runs_by_key[key]
            for cell, run in zip(cells, fetched):
                if cell not in local:
                    local[cell] = comparable_result_dict(execute_cell(cell))
                outcome.check(comparable_result_dict(run) == local[cell],
                              f"{study.arrival.spec['name']} {key}: "
                              f"result differs from a local serial run")
            outcome.check(len(fetched) == len(cells),
                          f"{study.arrival.spec['name']} {key}: "
                          f"{len(fetched)} runs for {len(cells)} cells")


def service_stats(url: str) -> Dict:
    from repro.service.client import ServiceClient
    return ServiceClient(url, timeout=DRAIN_TIMEOUT_S).stats()


# ----------------------------------------------------------------------
# Workload entry points
# ----------------------------------------------------------------------

def setup_probe(scratch: Scratch) -> float:
    daemon = Daemon(serve_argv(), scratch)
    try:
        return daemon.wait_ready()
    finally:
        daemon.stop()


class LoadRun:
    """One daemon under one schedule: counts, checks and raw figures."""

    def __init__(self, argv: List[str], seed: int, seconds: float,
                 scratch: Scratch, outcome: Outcome) -> None:
        self.outcome = outcome
        self.daemon = Daemon(argv, scratch)
        self.daemon.wait_ready()
        try:
            pacer = Pacer(scratch)
            try:
                self.outcomes = open_loop(
                    self.daemon.url, schedule(seed, seconds),
                    lambda: pacer.recent(PACING_WINDOW_S))
            finally:
                readings = pacer.stop()
            for study in self.outcomes:
                if study.complete_ms is not None:
                    study.paced_ms = study.complete_ms / slowdown_during(
                        readings, study.due - PACING_WINDOW_S,
                        study.done_at + PACING_WINDOW_S)
            self.stats = service_stats(self.daemon.url)
            self.results, self.fetch_ms = fetch_results(self.daemon.url,
                                                        self.outcomes)
        finally:
            code = self.daemon.stop()
        outcome.check(code == 0, f"daemon exited {code}: "
                                 f"{self.daemon.stderr()[-400:]}")
        for study in self.outcomes:
            outcome.attempted += 1
            if study.complete_ms is None or study.study not in self.results:
                outcome.failed += 1
        check_results(self.outcomes, self.results, outcome)

    @property
    def complete_ms(self) -> List[float]:
        return [s.complete_ms for s in self.outcomes
                if s.complete_ms is not None]

    @property
    def paced_ms(self) -> List[float]:
        """:attr:`complete_ms`, each paced by the machine's slowdown."""
        return [s.paced_ms for s in self.outcomes
                if s.paced_ms is not None]

    def notes(self) -> None:
        """Figures printed beside the result line."""
        outcome = self.outcome
        submit = [s.submit_ms for s in self.outcomes
                  if s.submit_ms is not None]
        if submit:
            outcome.note("submit_p90_ms", nearest_rank(submit, 90), "ms")
        outcome.note("generator_lag_max_ms",
                     max(s.lag_s for s in self.outcomes) * 1000.0, "ms")
        outcome.note("studies", len(self.outcomes), "count")
        outcome.note("observed_late", sum(s.observed_late
                                          for s in self.outcomes), "count")
        requested = (self.stats["cells_cached"] + self.stats["cells_shared"]
                     + self.stats["cells_queued"])
        outcome.note("cells_requested", requested, "count")
        outcome.note("cells_executed", self.stats["cells_executed"],
                     "count")
        # Busy share of the machine over the daemon's life (its pool
        # workers included): how far below saturation the rate is.
        outcome.note("daemon_cpu_share", self.daemon.cpu_s / (
            self.daemon.lifetime_s * (os.cpu_count() or 1)), "ratio")


def measure(seed: int, seconds: float, scratch: Scratch,
            outcome: Outcome) -> LoadRun:
    return LoadRun(serve_argv(), seed, seconds, scratch, outcome)


def trace(seed: int, seconds: float, scratch: Scratch, outcome: Outcome,
          tag: str) -> Dict[str, float]:
    """Half the time against a plain daemon, half against a traced one."""
    plain = LoadRun(serve_argv(), seed, seconds / 2, scratch, outcome)
    TRACE_DIR.mkdir(exist_ok=True)
    spans = TRACE_DIR / f"{tag}.json"
    traced = LoadRun(traced_serve_argv(spans), seed, seconds / 2, scratch,
                     outcome)
    dump = layers.load_dump(spans)
    out = layers.program_layers(dump, [traced.daemon.stderr()])
    marks = layers.service_marks(dump)
    stats = traced.stats
    requested = (stats["cells_cached"] + stats["cells_shared"]
                 + stats["cells_queued"])
    out.update({
        "service.queue_wait_ms": layers.median_or_zero(
            marks["queue_wait_ms"]),
        "service.exec_ms": layers.median_or_zero(marks["exec_ms"]),
        "service.dedup_ratio": (stats["cells_shared"] / requested
                                if requested else 0.0),
        "service.cache_hit_ratio": (stats["cells_cached"] / requested
                                    if requested else 0.0),
        "service.cells_executed": stats["cells_executed"],
        "service.fetch_ms": layers.median_or_zero(traced.fetch_ms),
    })
    if plain.complete_ms and traced.complete_ms:
        out["trace.overhead_ratio"] = (
            statistics.median(traced.complete_ms)
            / statistics.median(plain.complete_ms))
    return out
