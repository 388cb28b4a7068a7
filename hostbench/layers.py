"""Per-layer metrics of a traced run, computed from the tracer's dumps.

Every traced run reports the same per-layer names (``BENCHMARK.json``
``per_layer``).  A layer the workload bypasses in the traced process
reports 0: ``study-cli`` simulates in pool workers, so its kernel
layers read 0, and ``sim-hot`` never touches the result cache.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional


#: The simulation layers whose ``.calls`` / ``.self_s`` come straight
#: from the tracer's per-name totals.
SIM_LAYER_CALLS = ("interconnect", "protocols", "cache", "prediction",
                   "workloads")
SIM_LAYER_SELF = ("sim", "interconnect", "protocols", "cache",
                  "prediction", "cpu", "workloads", "verify")


def sim_layers(calls: Dict[str, int], self_s: Dict[str, float],
               summaries: List[dict]) -> Dict[str, float]:
    """Kernel and model layers of a traced ``execute_cell`` pass."""
    out: Dict[str, float] = {}
    for layer in SIM_LAYER_CALLS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for layer in SIM_LAYER_SELF:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["sim.events"] = sum(s["events_processed"] for s in summaries)
    out["interconnect.dropped_direct"] = sum(
        s["dropped_direct_requests"] for s in summaries)
    out["protocols.misses"] = sum(s["misses"] for s in summaries)
    out["core.build_s"] = self_s.get("core.build", 0.0)
    out["core.collect_s"] = self_s.get("core.run", 0.0)
    return out


def importtime_cumulative_s(stderr: str, module: str) -> Optional[float]:
    """Cumulative import time of ``module`` from ``-X importtime``."""
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return None


def load_dump(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def merge_dumps(dumps: List[dict]) -> dict:
    """The per-name call counts, self times and counters of several
    traced processes, summed (their kept spans and marks are left
    out)."""
    merged: dict = {"calls": {}, "self_s": {}, "counters": {}}
    for dump in dumps:
        for key, totals in merged.items():
            for name, value in dump[key].items():
                totals[name] = totals.get(name, 0) + value
    return merged


def program_layers(dump: dict, stderrs: List[str]) -> Dict[str, float]:
    """CLI, spec-lowering and execution layers of traced CLI processes
    (``hostbench.traced_cli``): ``dump`` is theirs, merged when there
    are several, and ``stderrs`` their ``-X importtime`` output."""
    calls, self_s = dump["calls"], dump["self_s"]
    counters = dump["counters"]
    probes = calls.get("exec.cache_probe", 0)
    batches = counters.get("exec.pool_batches", 0)
    stats_import = sum(importtime_cumulative_s(stderr, "repro.stats") or 0.0
                       for stderr in stderrs)
    return {
        "cli.import_s": self_s.get("cli.import", 0.0),
        "stats.import_s": stats_import,
        "cli.render_s": self_s.get("cli.render", 0.0),
        "api.lower_s": self_s.get("api.lower", 0.0),
        "exec.code_version_s": self_s.get("exec.code_version", 0.0),
        "exec.cache_probes": probes,
        "exec.cache_probe_s": self_s.get("exec.cache_probe", 0.0),
        "exec.cache_hit_ratio": (counters.get("exec.cache_hits", 0)
                                 / probes if probes else 0.0),
        "exec.cache_stores": calls.get("exec.cache_store", 0),
        "exec.cache_store_s": self_s.get("exec.cache_store", 0.0),
        "exec.manifest_saves": calls.get("exec.manifest_save", 0),
        "exec.manifest_save_s": self_s.get("exec.manifest_save", 0.0),
        "exec.decode_s": self_s.get("exec.decode", 0.0),
        "exec.pool_first_result_s": (
            counters.get("exec.pool_first_result_s", 0.0) / batches
            if batches else 0.0),
        "exec.pool_busy_s": self_s.get("exec.pool_wait", 0.0),
    }


def service_marks(dump: dict) -> Dict[str, List[float]]:
    """Per-study queue wait and execution time, in ms, from the daemon's
    marks: submit -> first ``started`` -> ``study-done``.

    Studies the cache answered at submit never start a cell and are
    left out of both lists.
    """
    submitted: Dict[str, float] = {}
    started: Dict[str, float] = {}
    done: Dict[str, float] = {}
    for name, at, attrs in dump["marks"]:
        study = attrs.get("study")
        if name == "submit" and attrs.get("created"):
            submitted.setdefault(study, at)
        elif name == "started":
            started.setdefault(study, at)
        elif name == "study-done":
            done.setdefault(study, at)
    queue_wait = [(started[s] - submitted[s]) * 1000.0
                  for s in started if s in submitted]
    execute = [(done[s] - started[s]) * 1000.0
               for s in started if s in done]
    return {"queue_wait_ms": queue_wait, "exec_ms": execute}


def median_or_zero(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0
