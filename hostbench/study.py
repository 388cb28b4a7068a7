"""``study-cli``: the command-line overhead path.

Each operation is two fresh ``python -m repro study run SPEC``
processes with the default executor and worker count, each timed from
launch to exit: a *cold* one on an empty result cache, which writes
it, then a *warm* one on the cache the cold one filled, which only
reads it.  The spec is a grid of 96 tiny cells (fig4_smoke-sized: 4
cores, 25 references per core), so simulation is a small share and the
time goes to interpreter start, the scipy import, hashing the source
tree for ``code_version()``, spec lowering, cache probes and stores,
the pool fork, manifest saves and rendering the table.  The cold and
warm times are printed apart, so a change that helps one and costs the
other shows beside the operation's total.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from hostbench import layers
from hostbench.common import (TRACE_DIR, Outcome, Pacer, Scratch,
                              child_env, run_child, slowdown_during)

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

#: Committed expected tables exist for this many spec variants;
#: ``--seed`` picks one (``seed % VARIANTS``), and the variant fixes the
#: cell seeds and the order of the grid's axes and points.
VARIANTS = 4
SEEDS_PER_POINT = 8
CORES = 4
REFS = 25
WORKLOADS = ("jbb", "oltp")
#: The Figure-4 protocol variants.
CONFIGS = (
    ("Directory", {"protocol": "directory"}),
    ("PATCH-None", {"protocol": "patch", "predictor": "none"}),
    ("PATCH-Owner", {"protocol": "patch", "predictor": "owner"}),
    ("Broadcast-If-Shared", {"protocol": "patch",
                             "predictor": "broadcast-if-shared"}),
    ("PATCH-All", {"protocol": "patch", "predictor": "all"}),
    ("Token Coherence", {"protocol": "tokenb"}),
)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def spec_for(seed: int) -> Dict:
    """The study spec (plain JSON) of ``seed``'s variant."""
    variant = variant_of(seed)
    rng = random.Random(variant)
    workloads = list(WORKLOADS)
    configs = list(CONFIGS)
    rng.shuffle(workloads)
    rng.shuffle(configs)
    axes = [
        {"name": "workload",
         "points": [{"label": name, "workload": name}
                    for name in workloads]},
        {"name": "variant",
         "points": [{"label": label, "config": dict(config)}
                    for label, config in configs]},
    ]
    if rng.random() < 0.5:
        axes.reverse()
    first_seed = variant * SEEDS_PER_POINT + 1
    return {
        "spec_schema": 2,
        "name": f"hostbench-study-v{variant}",
        "description": "96 fig4_smoke-sized cells for the host-time "
                       "benchmark",
        "base_config": {"num_cores": CORES},
        "references_per_core": REFS,
        "seeds": list(range(first_seed, first_seed + SEEDS_PER_POINT)),
        "axes": axes,
        "grid": "cross",
    }


def expected_table_path(seed: int) -> Path:
    return EXPECTED_DIR / f"study-v{variant_of(seed)}.txt"


def write_spec(seed: int, scratch: Scratch) -> Path:
    path = scratch.root / "spec.json"
    path.write_text(json.dumps(spec_for(seed), indent=2) + "\n")
    return path


def study_argv(spec_path: Path) -> List[str]:
    return [sys.executable, "-m", "repro", "study", "run", str(spec_path)]


def traced_argv(spans: Path, spec_path: Path) -> List[str]:
    return [sys.executable, "-X", "importtime", "-m",
            "hostbench.traced_cli", str(spans), "study", "run",
            str(spec_path)]


def setup_probe(scratch: Scratch) -> float:
    """A fresh interpreter's ``import repro.cli``, launch to ready."""
    env = child_env(scratch.new_dir("cache-"), scratch.new_dir("tmp-"))
    child = run_child([sys.executable, "-c",
                       "import time, repro.cli; print(time.monotonic())"],
                      env, scratch)
    if child.returncode != 0:
        raise RuntimeError(f"import repro.cli failed:\n{child.stderr}")
    return float(child.stdout.strip()) - child.launched


class StudyRunner:
    """Runs study processes for one benchmark run and checks each table."""

    def __init__(self, seed: int, scratch: Scratch,
                 outcome: Outcome) -> None:
        self.scratch = scratch
        self.outcome = outcome
        self.spec_path = write_spec(seed, scratch)
        self.expected = expected_table_path(seed).read_text()

    def run(self, cache_dir: Path, argv: List[str] = None):
        """One study process on ``cache_dir``; None when it failed."""
        env = child_env(cache_dir, self.scratch.new_dir("tmp-"))
        child = run_child(argv or study_argv(self.spec_path), env,
                          self.scratch)
        self.outcome.attempted += 1
        if child.returncode != 0:
            self.outcome.failed += 1
            self.outcome.check(False, f"study run exited "
                                      f"{child.returncode}: "
                                      f"{child.stderr[-400:]}")
            return None
        self.outcome.check(child.stdout == self.expected,
                           "study table differs from the committed "
                           "expected table")
        return child


def cold_then_warm(runner: StudyRunner, argv=None, traced=None):
    """One operation: a cold study process on a fresh cache, then a warm
    one on the cache it filled.  Each as ``(child, launched, ended)``
    (``time.monotonic()``); None when either failed.  ``traced(i)``
    gives the argv of the ``i``-th process when it is to be traced."""
    cache_dir = runner.scratch.new_dir("cache-")
    spans = []
    for index in range(2):
        begin = time.monotonic()
        child = runner.run(cache_dir, traced(index) if traced else None)
        if child is None:
            return None
        spans.append((child, begin, time.monotonic()))
    return spans


def measure(seed: int, seconds: float, scratch: Scratch,
            outcome: Outcome) -> List[List[Tuple[object, float]]]:
    """Cold-then-warm operations until ``seconds`` have elapsed: each
    process with the slowdown read while it ran."""
    runner = StudyRunner(seed, scratch, outcome)
    operations = []
    pacer = Pacer(scratch)
    try:
        start = time.monotonic()
        while not operations or time.monotonic() - start < seconds:
            spans = cold_then_warm(runner)
            if spans is not None:
                operations.append(spans)
            elif time.monotonic() - start >= seconds:
                break
    finally:
        readings = pacer.stop()
    return [[(child, slowdown_during(readings, begin, end))
             for child, begin, end in spans] for spans in operations]


def trace(seed: int, scratch: Scratch, outcome: Outcome,
          tag: str) -> Dict[str, float]:
    """One plain and one traced operation; the CLI-side layers of the
    traced one, summed over its cold and warm process."""
    runner = StudyRunner(seed, scratch, outcome)
    plain = cold_then_warm(runner)
    TRACE_DIR.mkdir(exist_ok=True)
    dumps = [TRACE_DIR / f"{tag}-{kind}.json" for kind in ("cold", "warm")]
    traced = cold_then_warm(
        runner, traced=lambda index: traced_argv(dumps[index],
                                                 runner.spec_path))
    if plain is None or traced is None:
        return {}
    out = layers.program_layers(
        layers.merge_dumps([layers.load_dump(path) for path in dumps]),
        [child.stderr for child, _, _ in traced])
    out["trace.overhead_ratio"] = (sum(c.wall_s for c, _, _ in traced)
                                   / sum(c.wall_s for c, _, _ in plain))
    return out
