"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python -m pytest hostbench -q
"""

from __future__ import annotations

import functools
import json
import time
import types
from pathlib import Path

import pytest

from hostbench import service, simhot
from hostbench.common import (Outcome, nearest_rank, result_line,
                              slowdown, slowdown_during)
from hostbench.tracing import (Span, Tracer, layer_of, owner_module,
                               self_times, traced_cells)

ROOT = Path(__file__).resolve().parent.parent


# -- nearest-rank percentiles ---------------------------------------------

def test_nearest_rank_picks_an_observed_sample():
    samples = list(range(10, 0, -1))  # unsorted input
    assert nearest_rank(samples, 50) == 5
    assert nearest_rank(samples, 90) == 9
    assert nearest_rank(samples, 100) == 10
    assert nearest_rank(samples, 1) == 1
    assert nearest_rank([7.5], 90) == 7.5


def test_nearest_rank_uses_exact_integer_ranks():
    # 0.9 * 30 is 27.000000000000004 in floating point; the rank is 27.
    assert nearest_rank(list(range(1, 31)), 90) == 27
    assert nearest_rank(list(range(1, 8)), 50) == 4


@pytest.mark.parametrize("samples, percent", [([], 50), ([1.0], 0),
                                              ([1.0], 101)])
def test_nearest_rank_rejects_bad_input(samples, percent):
    with pytest.raises(ValueError):
        nearest_rank(samples, percent)


# -- pacing -----------------------------------------------------------------

def test_slowdown_visits_every_cpu_and_restores_the_affinity():
    import os

    cpus = os.sched_getaffinity(0)
    factor = slowdown()
    assert os.sched_getaffinity(0) == cpus
    # The loop takes about CALIBRATION_REF_S on the reference machine.
    assert 0.05 < factor < 50


def test_a_timing_is_paced_by_the_readings_taken_while_it_ran():
    readings = [(0.0, 1.0), (0.5, 2.0), (1.0, 4.0), (1.5, 8.0)]
    assert slowdown_during(readings, 0.4, 1.1) == 3.0
    # None inside: the reading nearest the middle of the interval.
    assert slowdown_during(readings, 0.55, 0.65) == 2.0
    assert slowdown_during(readings, 0.9, 0.95) == 4.0


def test_pacer_readings_skip_a_line_still_being_written(tmp_path):
    from hostbench.common import Pacer

    pacer = object.__new__(Pacer)  # the file alone, no pacer process
    pacer.out_path = tmp_path / "readings"
    pacer.out_path.write_text("1.0 1.25\n2.0 1.5\n3.0 1.")
    assert pacer.readings() == [(1.0, 1.25), (2.0, 1.5)]


# -- module-to-layer attribution --------------------------------------------

def _owned_by(module: str):
    cls = type("Owner", (), {"__module__": module,
                             "method": lambda self: None})
    return cls().method


def test_bound_method_is_charged_to_its_class_module():
    callback = _owned_by("repro.interconnect.network")
    assert owner_module(callback) == "repro.interconnect.network"
    assert layer_of(owner_module(callback)) == "interconnect"


def test_function_lambda_and_partial_use_the_defining_module():
    function = types.FunctionType((lambda: None).__code__, {})
    function.__module__ = "repro.protocols.patch.cache_ctrl"
    assert layer_of(owner_module(function)) == "protocols"
    partial = functools.partial(_owned_by("repro.cpu.core"))
    assert layer_of(owner_module(partial)) == "cpu"


def test_real_kernel_and_foreign_modules():
    from repro.sim.kernel import Simulator

    assert layer_of(owner_module(Simulator().run)) == "sim"
    assert layer_of("json.decoder") == "other"
    assert layer_of("repro") == "other"


# -- self time -------------------------------------------------------------

class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_self_time_subtracts_direct_children_only():
    spans = [Span("cell", 0.0, 10.0, -1),
             Span("build", 1.0, 3.0, 0),
             Span("sim", 3.0, 9.0, 0),
             Span("interconnect", 4.0, 6.0, 2),
             Span("interconnect", 6.5, 7.0, 2)]
    times = self_times(spans)
    assert times["cell"] == pytest.approx(10.0 - 2.0 - 6.0)
    assert times["sim"] == pytest.approx(6.0 - 2.0 - 0.5)
    assert times["interconnect"] == pytest.approx(2.5)
    assert times["build"] == pytest.approx(2.0)
    assert sum(times.values()) == pytest.approx(10.0)


def test_online_totals_match_the_stored_spans():
    # enter cell@0, enter sim@3, enter interconnect@4, exit@6,
    # exit sim@9, exit cell@10
    tracer = Tracer(clock=FakeClock([0.0, 3.0, 4.0, 6.0, 9.0, 10.0]))
    tracer.enter("cell", keep=True)
    tracer.enter("sim", keep=True)
    tracer.enter("interconnect")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    calls, online = tracer.totals()
    assert calls == {"cell": 1, "sim": 1, "interconnect": 1}
    assert online == pytest.approx({"cell": 4.0, "sim": 4.0,
                                    "interconnect": 2.0})
    # Only kept spans are stored; the fine span's time still counts
    # against its kept parent.
    assert [span.name for span in tracer.spans] == ["cell", "sim"]
    assert tracer.spans[1].parent == 0
    stored = self_times(tracer.spans)
    assert stored["cell"] == pytest.approx(online["cell"])


def test_traced_cell_is_bit_identical_and_charges_every_layer():
    from repro.config import SystemConfig
    from repro.exec.cells import execute_cell, make_cell
    from repro.exec.serialization import comparable_result_dict

    cell = make_cell(SystemConfig(num_cores=4, protocol="patch",
                                  predictor="all"), "microbench", 20, 3)
    plain = comparable_result_dict(execute_cell(cell))
    tracer = Tracer()
    with traced_cells(tracer):
        traced = comparable_result_dict(execute_cell(cell))
    assert traced == plain
    calls, self_s = tracer.totals()
    for layer in ("sim", "interconnect", "protocols", "cache",
                  "prediction", "cpu", "workloads", "verify",
                  "core.build", "core.run"):
        assert calls.get(layer, 0) > 0, layer
    # The patches are gone once the block ends.
    import repro.engines
    assert not hasattr(repro.engines.build_system, "__wrapped__")


# -- open-loop latency -----------------------------------------------------

class StallingClient:
    """A ServiceClient stand-in whose every POST takes ``STALL_S``."""

    STALL_S = 0.05

    def __init__(self, url, timeout=None):
        pass

    def submit(self, spec):
        time.sleep(self.STALL_S)
        return {"study": spec["name"], "state": "done"}


def test_latency_runs_from_the_due_time(monkeypatch):
    import repro.service.client as client

    monkeypatch.setattr(client, "ServiceClient", StallingClient)
    arrivals = [service.Arrival(0.0, "slide", {"name": "a"}),
                service.Arrival(0.0, "slide", {"name": "b"})]
    first, second = service.open_loop("http://unused", arrivals,
                                      lambda: 1.0)
    stall_ms = StallingClient.STALL_S * 1000.0
    # Both were due at once: the second waited behind the first POST,
    # and that wait is part of its latency.
    assert first.complete_ms >= stall_ms
    assert second.complete_ms >= 2 * stall_ms
    assert second.lag_s >= StallingClient.STALL_S
    assert second.submit_ms < second.complete_ms


def test_a_slowed_machine_stretches_the_schedule(monkeypatch):
    import repro.service.client as client

    monkeypatch.setattr(client, "ServiceClient", StallingClient)
    arrivals = [service.Arrival(0.0, "slide", {"name": "a"}),
                service.Arrival(0.2, "slide", {"name": "b"})]
    first, second = service.open_loop("http://unused", arrivals,
                                      lambda: 1.5)
    assert second.due - first.due == pytest.approx(0.3)


def test_schedule_is_seeded_and_repeats_one_block():
    one = service.schedule(5, 20)
    assert one == service.schedule(5, 20)
    assert one != service.schedule(6, 20)
    kinds = [arrival.kind for arrival in one]
    head = service.HIT_LOOKBACK[1] + 2
    block = service.STRAGGLER_EVERY
    assert abs(len(one) - service.RATE_PER_S * 20) <= block / 2
    assert kinds[:head] == ["slide"] * head
    blocks = [kinds[i:i + block] for i in range(head, len(kinds), block)]
    assert all(b == blocks[0] for b in blocks)
    assert blocks[0].count("straggler") == 1
    # Second of a pair: studies 2k and 2k + 1 are due together.
    assert kinds.index("straggler") % 2 == 1
    assert blocks[0].count("hit") == block // service.HIT_EVERY
    assert len(service.schedule(1, 1)) == head + block
    dues = [arrival.due_s for arrival in one]
    assert dues == sorted(dues) and dues[0] == dues[1] == 0.0
    # Every hit looks back on seeds a slide covered earlier.
    covered = set()
    for arrival in one:
        if arrival.kind == "hit":
            assert set(arrival.spec["seeds"]) <= covered
        elif arrival.kind == "slide":
            covered.update(arrival.spec["seeds"])


# -- committed expected values and the result line --------------------------

def test_sim_hot_expectations_agree_with_the_perf_goldens():
    expected = json.loads((ROOT / "hostbench" / "expected"
                           / "sim_hot.json").read_text())
    goldens = json.loads((ROOT / "benchmarks" / "goldens"
                          / "perf_cycles.json").read_text())["full"]
    for label in ("PATCH-All", "Directory"):
        for field, value in goldens[label]["object"].items():
            assert expected["golden"]["golden-" + label][field] == value, \
                (label, field)
    assert sorted(expected["golden"]) == sorted(
        entry[0] for entry in simhot.GOLDEN_CELLS)
    # The golden cells are the goldens' configuration: full scale,
    # cell seed 1.
    assert simhot.GOLDEN_SEED == 1
    assert all((entry[2], entry[4]) == (16, 400)
               for entry in simhot.GOLDEN_CELLS)
    variants = sorted(expected)
    variants.remove("golden")
    assert variants == [str(v) for v in range(simhot.VARIANTS)]
    for variant in variants:
        assert sorted(expected[variant]) == sorted(
            entry[0] for entry in simhot.CELLS)


def test_result_line_reports_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    outcome = Outcome()
    outcome.attempted = 3
    for metric in spec["end_to_end"]:
        outcome.metrics[metric["name"]] = 1.5
    line = json.loads(result_line(outcome, trace=False))
    assert line["correct"] is True and line["attempted"] == 3
    assert {name: value["unit"] for name, value in line["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    outcome.metrics.pop(spec["end_to_end"][0]["name"])
    with pytest.raises(RuntimeError):
        result_line(outcome, trace=False)
    outcome.check(False, "wrong table")
    assert not outcome.correct
