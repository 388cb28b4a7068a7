"""Host-time benchmark of the repro simulator: one workload per run.

    python3 hostbench/run.py --workload sim-hot --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  The program is driven only through
its public entry points (``make_cell``/``execute_cell``,
``python -m repro study run``, ``python -m repro serve``,
``ServiceClient``), each time in fresh processes with a private result
cache.  Every output is checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics (from a separate traced run) with ``--trace 1``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from hostbench import layers, service, simhot, study  # noqa: E402
from hostbench.common import (CALIBRATION_REF_S, SETUP_REPEATS,  # noqa: E402
                              TRACE_DIR, Outcome, Pacer, Scratch, child_env,
                              fingerprint, last_json_line, metric_specs,
                              nearest_rank, program_present, reap_all,
                              result_line, run_child, slowdown_during)

WORKLOADS = ("sim-hot", "study-cli", "service-open")
#: A run must end within this many seconds, children included.
RUN_DEADLINE_S = 175
EXPECTED_SIM_HOT = Path(__file__).resolve().parent / "expected" / \
    "sim_hot.json"


def setup_seconds(probe, scratch: Scratch, outcome: Outcome):
    """Median of several fresh set-ups, each paced by the slowdown read
    while it ran, so neither one slow start nor a slow stretch of the
    machine moves the figure.  None when one failed: it is counted as a
    failed operation, and the run stops there.
    """
    spans = []
    pacer = Pacer(scratch)
    try:
        for _ in range(SETUP_REPEATS):
            outcome.attempted += 1
            start = time.monotonic()
            try:
                seconds = probe(scratch)
            except (RuntimeError, OSError, ValueError) as exc:
                outcome.failed += 1
                outcome.check(False, f"set-up failed: {exc}")
                return None
            spans.append((start, time.monotonic(), seconds))
    finally:
        readings = pacer.stop()
    outcome.note("setup_wall_s",
                 statistics.median(seconds for _, _, seconds in spans), "s")
    return statistics.median(
        seconds / slowdown_during(readings, start, end)
        for start, end, seconds in spans)


def latency_metrics(outcome: Outcome, paced_ms, wall_ms, setup_s: float,
                    peak_rss_mb: float) -> None:
    """The end-to-end metrics from one run's operations: ``paced_ms``
    gated, ``wall_ms`` (the same operations as measured) printed."""
    outcome.metrics.update({
        "setup_s": setup_s,
        "p50_ms": nearest_rank(paced_ms, 50),
        "mean_ms": statistics.mean(paced_ms),
        "peak_rss_mb": peak_rss_mb,
    })
    outcome.note("samples", len(paced_ms), "count")
    outcome.note("wall_p50_ms", nearest_rank(wall_ms, 50), "ms")
    outcome.note("wall_mean_ms", statistics.mean(wall_ms), "ms")
    outcome.note("slowdown_median", statistics.median(
        wall / paced for wall, paced in zip(wall_ms, paced_ms)), "x")
    # A tail percentile is shown only with ten samples beyond it.
    if len(paced_ms) >= 100:
        outcome.note("p90_ms", nearest_rank(paced_ms, 90), "ms")


# ----------------------------------------------------------------------
# sim-hot
# ----------------------------------------------------------------------

def simhot_argv(mode: str, seed: int, *extra: str):
    return [sys.executable, "-m", "hostbench.simhot", mode,
            "--seed", str(seed), *extra]


def simhot_check(records, expected, outcome: Outcome) -> None:
    for record in records:
        outcome.attempted += 1
        outcome.check(record["summary"] == expected[record["label"]],
                      f"sim-hot {record['label']}: {record['summary']} != "
                      f"expected {expected[record['label']]}")


def simhot_expected(seed: int):
    """The committed values of ``seed``'s variant and of the golden
    cells."""
    with open(EXPECTED_SIM_HOT, encoding="utf-8") as handle:
        expected = json.load(handle)
    return expected[str(simhot.variant_of(seed))], expected["golden"]


def simhot_child(argv, scratch: Scratch, outcome: Outcome):
    env = child_env(scratch.new_dir("cache-"), scratch.new_dir("tmp-"))
    child = run_child(argv, env, scratch)
    if child.returncode != 0:
        outcome.attempted += 1
        outcome.failed += 1
        outcome.check(False, f"sim-hot worker exited {child.returncode}: "
                             f"{child.stderr[-400:]}")
        return None, child
    return last_json_line(child.stdout), child


def run_sim_hot(seed: int, seconds: float, trace: bool, scratch: Scratch,
                outcome: Outcome, tag: str) -> None:
    expected, golden = simhot_expected(seed)
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        report, _ = simhot_child(
            simhot_argv("trace", seed, "--out", str(TRACE_DIR / f"{tag}.json")),
            scratch, outcome)
        if report is None:
            return
        simhot_check(report["plain"], expected, outcome)
        simhot_check(report["traced"], expected, outcome)
        for plain, traced in zip(report["plain"], report["traced"]):
            outcome.check(plain["summary"] == traced["summary"],
                          f"sim-hot {plain['label']}: traced run differs "
                          f"from the plain run")
        outcome.metrics.update(layers.sim_layers(
            report["calls"], report["self_s"],
            [record["summary"] for record in report["traced"]]))
        outcome.metrics["trace.overhead_ratio"] = (
            sum(r["wall_s"] for r in report["traced"])
            / sum(r["wall_s"] for r in report["plain"]))
        return

    def probe(scratch: Scratch) -> float:
        env = child_env(scratch.new_dir("cache-"), scratch.new_dir("tmp-"))
        child = run_child(simhot_argv("setup", seed), env, scratch)
        if child.returncode != 0:
            raise RuntimeError(f"sim-hot set-up exited {child.returncode}:"
                               f" {child.stderr[-400:]}")
        return last_json_line(child.stdout)["ready_monotonic"] \
            - child.launched

    setup_s = setup_seconds(probe, scratch, outcome)
    if setup_s is None:
        return
    report, child = simhot_child(
        simhot_argv("measure", seed, "--seconds", str(seconds)), scratch,
        outcome)
    if report is None:
        return
    records = report["records"]
    simhot_check(records, expected, outcome)
    simhot_check(report["golden"], golden, outcome)
    # One operation is one pass over the whole cell set, so every cell
    # weighs in each sample.  Each cell's wall time is paced by the
    # calibration loop run beside it in the same process.
    per_pass = len(simhot.CELLS)
    walls = [record["wall_s"] for record in records]
    paced = [record["wall_s"] * CALIBRATION_REF_S / record["cal_s"]
             for record in records]
    wall_ms, paced_ms = (
        [sum(values[i:i + per_pass]) * 1000.0
         for i in range(0, len(values), per_pass)]
        for values in (walls, paced))
    latency_metrics(outcome, paced_ms, wall_ms, setup_s, child.maxrss_mb)
    refs = sum(record["summary"]["total_references"] for record in records)
    cycles = sum(record["summary"]["runtime_cycles"] for record in records)
    outcome.note("sim_refs_per_s", refs / sum(paced), "refs/s")
    outcome.note("sim_cycles_per_s", cycles / sum(paced), "cycles/s")


# ----------------------------------------------------------------------
# study-cli
# ----------------------------------------------------------------------

def run_study(seed: int, seconds: float, trace: bool, scratch: Scratch,
              outcome: Outcome, tag: str) -> None:
    if trace:
        outcome.metrics.update(study.trace(seed, scratch, outcome, tag))
        return
    setup_s = setup_seconds(study.setup_probe, scratch, outcome)
    if setup_s is None:
        return
    operations = study.measure(seed, seconds, scratch, outcome)
    if not operations:
        return
    # Each operation is a cold and a warm process, paced one by one.
    paced = [[child.wall_s / slow for child, slow in operation]
             for operation in operations]
    latency_metrics(outcome,
                    [sum(pair) * 1000.0 for pair in paced],
                    [sum(child.wall_s for child, _ in operation) * 1000.0
                     for operation in operations], setup_s,
                    max(child.maxrss_mb for operation in operations
                        for child, _ in operation))
    for index, name in enumerate(("cold_study_s", "warm_study_s")):
        outcome.note(name, statistics.median(pair[index] for pair in paced),
                     "s")


# ----------------------------------------------------------------------
# service-open
# ----------------------------------------------------------------------

def run_service(seed: int, seconds: float, trace: bool, scratch: Scratch,
                outcome: Outcome, tag: str) -> None:
    if trace:
        outcome.metrics.update(service.trace(seed, seconds, scratch,
                                             outcome, tag))
        return
    setup_s = setup_seconds(service.setup_probe, scratch, outcome)
    if setup_s is None:
        return
    try:
        load = service.measure(seed, seconds, scratch, outcome)
    except RuntimeError as exc:  # the daemon did not become ready
        outcome.attempted += 1
        outcome.failed += 1
        outcome.check(False, str(exc)[-400:])
        return
    load.notes()
    if not load.complete_ms:
        return
    latency_metrics(outcome, load.paced_ms, load.complete_ms, setup_s,
                    load.daemon.maxrss_mb)


# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool
                 ) -> Outcome:
    outcome = Outcome()
    if trace:
        outcome.metrics.update(dict.fromkeys(
            (spec["name"] for spec in metric_specs(trace=True)), 0))
    tag = f"{name}-seed{seed}"
    with Scratch() as scratch:
        if name == "sim-hot":
            run_sim_hot(seed, seconds, trace, scratch, outcome, tag)
        elif name == "study-cli":
            run_study(seed, seconds, trace, scratch, outcome, tag)
        else:
            run_service(seed, seconds, trace, scratch, outcome, tag)
    return outcome


def report(name: str, seed: int, trace: bool, outcome: Outcome) -> bool:
    """Print the readable lines and the result line; True when the run
    produced every metric and passed every check."""
    print(f"# hostbench {name} seed={seed} trace={int(trace)} "
          f"{fingerprint()}")
    for line in outcome.notes:
        print(f"# {line}")
    for problem in outcome.problems:
        print(f"# FAILED CHECK: {problem}")
    try:
        line = result_line(outcome, trace, name)
    except RuntimeError as exc:
        print(f"# {exc}", file=sys.stderr)
        return False
    print(line, flush=True)
    return outcome.correct and outcome.failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The harness itself imports the program (schedules, local serial
    # checks): stray settings must not reach it either.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if not program_present():
        print("error: no program to measure: run from the root of a "
              "repro checkout (src/repro is missing)", file=sys.stderr)
        return 2

    def out_of_time(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S}s")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        signal.signal(signal.SIGALRM, out_of_time)
        signal.alarm(RUN_DEADLINE_S)
        try:
            outcome = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
        except Exception as exc:  # noqa: BLE001 - report, print no result
            traceback.print_exc()
            print(f"# FAILED: {name}: {type(exc).__name__}: {exc}")
            return 1
        finally:
            signal.alarm(0)
            reap_all()
        ok = report(name, args.seed, bool(args.trace), outcome) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
