"""The ``sim-hot`` worker: seeded cells through ``execute_cell``.

    python -m hostbench.simhot setup   --seed N
    python -m hostbench.simhot measure --seed N --seconds S
    python -m hostbench.simhot trace   --seed N --out SPANS.json

One process, serial, no result cache: the cells go straight through
``repro.exec.cells.make_cell`` / ``execute_cell``, so simulation is
almost all of the time.  Modelled caches start empty in every cell, as
in every figure cell of the paper's evaluation.  Each mode prints one
JSON line; :mod:`hostbench.run` starts this module in a fresh
interpreter and checks what it reports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List, Tuple

#: The committed expected values cover this many seed variants; the
#: run's ``--seed`` picks one (``seed % VARIANTS``) and its cell seed is
#: ``variant + 1``.
VARIANTS = 4

#: ``(label, config overrides, cores, workload, references per core)``.
#: The four protocols on the 16-core microbench, one commercial preset
#: and one 64-core broadcast cell.  Directory stresses the protocol
#: controllers; PATCH-All, TokenB and the 64-core cell put broadcast
#: traffic on the interconnect.  Sized so that one pass over them takes
#: about a second, and a run times many passes.
CELLS: Tuple[Tuple[str, Dict[str, str], int, str, int], ...] = (
    ("Directory", {"protocol": "directory", "predictor": "none"}, 16,
     "microbench", 50),
    ("PATCH-Owner", {"protocol": "patch", "predictor": "owner"}, 16,
     "microbench", 50),
    ("PATCH-All", {"protocol": "patch", "predictor": "all"}, 16,
     "microbench", 50),
    ("TokenB", {"protocol": "tokenb", "predictor": "none"}, 16,
     "microbench", 50),
    ("PATCH-All-oltp", {"protocol": "patch", "predictor": "all"}, 16,
     "oltp", 50),
    ("PATCH-All-64p", {"protocol": "patch", "predictor": "all"}, 64,
     "microbench", 8),
)

#: The two full-scale cells the committed perf goldens pin (cell seed
#: 1).  Run once per measuring run, after the timed passes and untimed,
#: and checked like the others.
GOLDEN_CELLS: Tuple[Tuple[str, Dict[str, str], int, str, int], ...] = (
    ("golden-Directory", {"protocol": "directory", "predictor": "none"},
     16, "microbench", 400),
    ("golden-PATCH-All", {"protocol": "patch", "predictor": "all"}, 16,
     "microbench", 400),
)
GOLDEN_SEED = 1

#: Run once before anything is timed, so lazy imports and first-use
#: set-up inside the program are paid outside the measurement.
WARMUP = ("warmup", {"protocol": "patch", "predictor": "all"}, 4,
          "microbench", 50)

def variant_of(seed: int) -> int:
    return seed % VARIANTS


def cell_plan(seed: int) -> List[tuple]:
    """The run's cells, in the order ``seed`` shuffles them into."""
    plan = list(CELLS)
    random.Random(seed).shuffle(plan)
    return plan


def build_cell(entry: tuple, cell_seed: int):
    from repro.config import SystemConfig
    from repro.exec.cells import make_cell

    _label, overrides, cores, workload, refs = entry
    return make_cell(SystemConfig(num_cores=cores, **overrides), workload,
                     refs, cell_seed)


def build_cells(entries, cell_seed: int) -> List[Tuple[str, object]]:
    return [(entry[0], build_cell(entry, cell_seed)) for entry in entries]


def plan_cells(seed: int) -> List[Tuple[str, object]]:
    """The run's timed cells, built, in ``seed``'s order."""
    return build_cells(cell_plan(seed), variant_of(seed) + 1)


def summarize(result) -> Dict[str, int]:
    """The fields of one cell's result that are compared against the
    committed expected values."""
    return {
        "runtime_cycles": result.runtime_cycles,
        "events_processed": result.events_processed,
        "traffic_total_bytes": sum(result.traffic_bytes_raw.values()),
        "dropped_direct_requests": result.dropped_direct_requests,
        "total_references": result.total_references,
        "misses": result.misses,
    }


def run_pass(cells: List[Tuple[str, object]]) -> List[dict]:
    """Execute every cell once, timing each ``execute_cell`` call.

    The calibration loop runs before each cell and after the last;
    each cell records the mean of the two beside it (``cal_s``), so the
    harness can take the machine's pace out of its wall time.
    """
    from hostbench.common import calibration_loop
    from repro.exec.cells import execute_cell

    records = []
    before = calibration_loop()
    for label, cell in cells:
        start = time.perf_counter()
        result = execute_cell(cell)
        wall = time.perf_counter() - start
        after = calibration_loop()
        records.append({"label": label, "wall_s": wall,
                        "cal_s": (before + after) / 2.0,
                        "summary": summarize(result)})
        before = after
    return records


def mode_setup(seed: int) -> dict:
    """Fresh interpreter to ready: import, then the warm-up cell."""
    from repro.exec.cells import execute_cell

    execute_cell(build_cell(WARMUP, variant_of(seed) + 1))
    return {"ready_monotonic": time.monotonic()}


def mode_measure(seed: int, seconds: float) -> dict:
    """Whole passes over the plan until ``seconds`` have elapsed, then
    the golden cells once, untimed.

    Only whole passes, so every run weighs each cell the same no matter
    where its deadline falls.
    """
    from repro.exec.cells import execute_cell

    execute_cell(build_cell(WARMUP, variant_of(seed) + 1))
    cells = plan_cells(seed)
    records: List[dict] = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.extend(run_pass(cells))
    golden = [{"label": label, "summary": summarize(execute_cell(cell))}
              for label, cell in build_cells(GOLDEN_CELLS, GOLDEN_SEED)]
    return {"records": records, "golden": golden}


def mode_trace(seed: int, out: str) -> dict:
    """One plain pass, then the same pass traced; spans go to ``out``."""
    from hostbench.tracing import Tracer, traced_cells
    from repro.exec.cells import execute_cell

    execute_cell(build_cell(WARMUP, variant_of(seed) + 1))
    cells = plan_cells(seed)
    plain = run_pass(cells)
    tracer = Tracer()
    with traced_cells(tracer):
        with tracer.span("pass"):
            traced = run_pass(cells)
    tracer.dump(out)
    calls, self_s = tracer.totals()
    return {"plain": plain, "traced": traced, "calls": calls,
            "self_s": self_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        report = mode_setup(args.seed)
    elif args.mode == "measure":
        report = mode_measure(args.seed, args.seconds)
    else:
        report = mode_trace(args.seed, args.out)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
