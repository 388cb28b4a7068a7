"""Helpers every workload shares: isolation, child processes,
percentiles and the result line.

Nothing here imports the program: the harness measures ``repro`` from
the outside, in child processes it starts with a clean environment.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Per-run scratch space (caches, specs, temp files); removed after
#: each run.  Inside the checkout, because the benchmark may write
#: nowhere else.
SCRATCH_ROOT = ROOT / ".hostbench_tmp"
#: Traced runs write their spans here, one JSON file per run.
TRACE_DIR = ROOT / ".hostbench_traces"
#: Wall-clock limit for any one child process.
CHILD_TIMEOUT_S = 150.0
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Seconds between a :class:`Pacer`'s slowdown readings (each takes
#: about 40 ms of CPU time).
PACER_PERIOD_S = 0.5
#: Iterations of the calibration loop (about 20 ms on the reference
#: machine).
CALIBRATION_LOOPS = 25_000
#: The calibration loop's time on the reference machine (see
#: DESIGN.md) in a quiet stretch.  Every timing is divided by the
#: *slowdown* measured beside it, the loop's time then over this one,
#: so it reads as host time on the reference machine at that speed.
CALIBRATION_REF_S = 0.0200


def nearest_rank(samples: Sequence[float], percent: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percent`` per cent of the samples at or below it.

    Integer arithmetic on the rank, so ``percent=90`` of 30 samples is
    exactly the 27th, not the 28th a float product would round up to.
    """
    if not samples:
        raise ValueError("nearest_rank of no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    ordered = sorted(samples)
    rank = -(-percent * len(ordered) // 100)  # ceil without floats
    return ordered[max(1, rank) - 1]


@functools.lru_cache(maxsize=None)
def _calibration_objects() -> List[Tuple[int, str]]:
    """What the calibration loop reads: about 4 MB of small objects,
    more than a core's private caches hold."""
    return [(index, str(index)) for index in range(1 << 15)]


def _run_queue_wait_s() -> float:
    """Seconds the calling thread has spent runnable but waiting for a
    CPU (the second field of Linux's per-thread ``schedstat``)."""
    with open("/proc/thread-self/schedstat", encoding="ascii") as handle:
        return int(handle.read().split()[1]) / 1e9


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes on the calling CPU now.

    The machine's CPUs are shared with other jobs, which slow it by up
    to 1.8x for seconds to minutes at a time; this loop slows with it,
    so dividing by it takes the machine's pace out of a timing.  Each
    step stores into a small dict and reads one of
    :func:`_calibration_objects` in a scattered order, so the loop
    feels both a slower core and a contended shared cache, as the
    simulator does.  Time the thread spent waiting in this machine's
    run queue is left out: waiting while the work being paced holds
    the same CPU is not a slower machine.  Time the hypervisor took
    the CPU away counts, as it does for the program.
    """
    objects = _calibration_objects()
    table = {}
    value = 0
    waited = _run_queue_wait_s()
    start = time.perf_counter()
    for index in range(CALIBRATION_LOOPS):
        table[index & 1023] = value
        number, text = objects[index * 7919 & 0x7FFF]
        value = (value * 31 + number + len(text)) & 0xFFFF
    wall = time.perf_counter() - start
    return wall - (_run_queue_wait_s() - waited)


def slowdown() -> float:
    """How much slower than the reference the CPUs this process may
    use are right now: the calibration loop once on each of them, its
    mean time over :data:`CALIBRATION_REF_S`.

    Read by :class:`Pacer` beside work that spreads over fresh
    processes and pool workers, which may run on any CPU.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibration_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times) / CALIBRATION_REF_S


def fingerprint() -> str:
    """The machine facts a reader needs to compare two result lines."""
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"machine={platform.machine()} system={platform.system()}")


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


class Scratch:
    """One run's private directory tree under :data:`SCRATCH_ROOT`."""

    def __init__(self) -> None:
        SCRATCH_ROOT.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))

    def new_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.root))

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def child_env(cache_dir: Path, tmp_dir: Path) -> Dict[str, str]:
    """The environment of a program process.

    Every ``REPRO_*`` setting of the caller is dropped (engine,
    executor, job count, observability, code-version override, ...)
    so stray configuration cannot change what is measured; the result
    cache and temp files go to fresh directories inside the checkout,
    never to ``~/.cache/repro``.
    """
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")
           and name not in ("PYTHONPATH", "TMPDIR")}
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(tmp_dir)
    return env


class Child(NamedTuple):
    """A finished child process, as the harness saw it."""

    returncode: int
    launched: float  # time.monotonic() just before the launch
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


#: Child processes not yet reaped; :func:`reap_all` ends them, so a run
#: that stops early leaves nothing running.
_LIVE: List[subprocess.Popen] = []


def track(proc: subprocess.Popen) -> subprocess.Popen:
    _LIVE.append(proc)
    return proc


def reap_all() -> None:
    """Kill and reap every child still running."""
    while _LIVE:
        proc = _LIVE.pop()
        if proc.returncode is None and proc.poll() is None:
            proc.kill()
            proc.wait()


def wait_rusage(proc: subprocess.Popen, timeout: float
                ) -> Tuple[int, float, float]:
    """Reap ``proc`` (killing it after ``timeout`` seconds) and return
    its exit code, peak resident set in MB and CPU seconds.

    ``os.wait4`` reports the largest resident set of the child and of
    the descendants it reaped, and adds their CPU time to the child's,
    so a pool's workers count too.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc in _LIVE:
        _LIVE.remove(proc)
    return (proc.returncode, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


def run_child(argv: List[str], env: Dict[str, str], scratch: Scratch
              ) -> Child:
    """Run ``argv`` to completion from the checkout root; its wall time
    runs from just before the launch to the reap."""
    with tempfile.TemporaryFile(dir=scratch.root) as out, \
            tempfile.TemporaryFile(dir=scratch.root) as err:
        launched = time.monotonic()
        start = time.perf_counter()
        proc = track(subprocess.Popen(argv, cwd=ROOT, env=env,
                                      stdin=subprocess.DEVNULL,
                                      stdout=out, stderr=err))
        returncode, maxrss_mb, _ = wait_rusage(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return Child(returncode, launched, wall, maxrss_mb,
                     out.read().decode(errors="replace"),
                     err.read().decode(errors="replace"))


class Pacer:
    """``python -m hostbench.pacer`` in the background: slowdown
    readings every :data:`PACER_PERIOD_S` while fresh-process work runs
    beside it, so each timing can be paced by the readings taken while
    it ran."""

    def __init__(self, scratch: "Scratch") -> None:
        self.out_path = Path(tempfile.mkstemp(prefix="pacer-",
                                              dir=scratch.root)[1])
        self._out = open(self.out_path, "wb")
        env = child_env(scratch.new_dir("cache-"), scratch.new_dir("tmp-"))
        self.proc = track(subprocess.Popen(
            [sys.executable, "-m", "hostbench.pacer", str(PACER_PERIOD_S)],
            env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=self._out))

    def readings(self) -> List[Tuple[float, float]]:
        """The readings so far as ``(time.monotonic(), slowdown)``; a
        line still being written is left for the next call."""
        readings = []
        for line in self.out_path.read_text().split("\n")[:-1]:
            at, value = line.split()
            readings.append((float(at), float(value)))
        return readings

    def recent(self, seconds: float) -> float:
        """The machine's slowdown now: the median of the last ``seconds``
        of readings, or the latest reading when none is that recent.
        Waits for the first reading."""
        while not (readings := self.readings()):
            if self.proc.poll() is not None:
                raise RuntimeError("the pacer exited without a reading")
            time.sleep(0.01)
        now = time.monotonic()
        return slowdown_during(readings, now - seconds, now)

    def stop(self) -> List[Tuple[float, float]]:
        """End the pacer; all its readings."""
        self.proc.terminate()
        wait_rusage(self.proc, CHILD_TIMEOUT_S)
        self._out.close()
        return self.readings()


def slowdown_during(readings: List[Tuple[float, float]], start: float,
                    end: float) -> float:
    """The median of the readings taken between ``start`` and ``end``,
    or the one nearest to that interval's middle when none was.

    The median, because a reading now and then comes out two or three
    times the ones beside it (a 20 ms loop that lost its CPU for a
    while), and a mean of a few readings would follow it.
    """
    inside = [value for at, value in readings if start <= at <= end]
    if inside:
        return statistics.median(inside)
    middle = (start + end) / 2.0
    return min(readings, key=lambda reading: abs(reading[0] - middle))[1]


def last_json_line(text: str) -> dict:
    """The last non-empty line of ``text``, parsed as JSON."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def metric_specs(trace: bool) -> List[dict]:
    """The metrics a run must report, as ``BENCHMARK.json`` lists them."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


class Outcome:
    """What one run observed: operation counts, output checks, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        """Record one output check; a failed check is a wrong output."""
        if not ok:
            self.problems.append(problem)
        return ok

    def note(self, name: str, value: float, unit: str) -> None:
        """A figure printed for readers but not part of the result line."""
        self.notes.append(f"{name} = {value:.6g} {unit}")

    @property
    def correct(self) -> bool:
        return not self.problems


def result_line(outcome: Outcome, trace: bool,
                workload: Optional[str] = None) -> str:
    """The JSON result line: exactly the metrics ``BENCHMARK.json``
    names for this kind of run, each with its unit.

    A metric the workload did not produce is a harness bug, and so is
    an extra one: both raise instead of printing a partial result.
    """
    specs = metric_specs(trace)
    names = [spec["name"] for spec in specs]
    missing = sorted(set(names) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(names))
    if missing or extra:
        raise RuntimeError(f"workload {workload} metrics do not match "
                           f"BENCHMARK.json: missing {missing}, "
                           f"extra {extra}")
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {spec["name"]: {"value": outcome.metrics[spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in specs},
    })
