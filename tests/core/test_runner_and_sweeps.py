"""Experiment runner and sweep machinery."""

import pytest

from repro.config import SystemConfig
from repro.core.runner import (ADAPTIVITY_CONFIGS, PAPER_CONFIGS,
                               ExperimentResult, compare_configs,
                               normalized_runtimes, normalized_traffic,
                               run_experiment, run_one)
from repro.core.sweeps import (bandwidth_sweep, coarseness_points,
                               encoding_sweep, scalability_sweep)

SMALL = SystemConfig(num_cores=4)


def test_run_experiment_aggregates_seeds():
    experiment = run_experiment(SMALL, "microbench", references_per_core=25,
                                seeds=(1, 2, 3))
    assert len(experiment.runs) == 3
    ci = experiment.runtime_ci
    assert ci.n == 3
    assert ci.mean > 0


def test_compare_configs_runs_all_variants():
    variants = {"Directory": {"protocol": "directory"},
                "PATCH-All": {"protocol": "patch", "predictor": "all"}}
    results = compare_configs(SMALL, "microbench", references_per_core=25,
                              variants=variants, seeds=(1,))
    assert set(results) == {"Directory", "PATCH-All"}
    normalized = normalized_runtimes(results)
    assert normalized["Directory"] == pytest.approx(1.0)
    assert normalized["PATCH-All"] > 0


def test_normalized_traffic_baseline_sums_to_one():
    variants = {"Directory": {"protocol": "directory"},
                "PATCH-None": {"protocol": "patch", "predictor": "none"}}
    results = compare_configs(SMALL, "oltp", references_per_core=40,
                              variants=variants, seeds=(1,))
    traffic = normalized_traffic(results)
    assert sum(traffic["Directory"].values()) == pytest.approx(1.0)


def test_coarseness_points_cover_range():
    assert coarseness_points(64) == [1, 4, 16, 64]
    assert coarseness_points(256) == [1, 4, 16, 64, 256]
    assert coarseness_points(8) == [1, 4, 8]


def test_bandwidth_sweep_structure():
    sweep = bandwidth_sweep(SMALL, "microbench", references_per_core=15,
                            bandwidths=(2.0, 16.0), seeds=(1,),
                            variants={"Directory": {"protocol": "directory"},
                                      "PATCH-All": {"protocol": "patch",
                                                    "predictor": "all"}})
    assert set(sweep) == {2.0, 16.0}
    for row in sweep.values():
        assert set(row) == {"Directory", "PATCH-All"}
        for experiment in row.values():
            assert experiment.runtime_mean > 0


def test_scalability_sweep_scales_refs():
    sweep = scalability_sweep(
        SMALL, core_counts=(4, 8), references_for={4: 20, 8: 10},
        seeds=(1,),
        variants={"Directory": {"protocol": "directory"}})
    assert set(sweep) == {4, 8}
    assert sweep[4]["Directory"].runs[0].total_references == 4 * 20
    assert sweep[8]["Directory"].runs[0].total_references == 8 * 10


def test_encoding_sweep_compares_directory_and_patch():
    sweep = encoding_sweep(SMALL, num_cores=8, references_per_core=15,
                           coarseness_values=(1, 8), seeds=(1,))
    assert set(sweep) == {"Directory", "PATCH"}
    assert set(sweep["Directory"]) == {1, 8}
    for per_label in sweep.values():
        for experiment in per_label.values():
            assert experiment.runtime_mean > 0


def test_adaptivity_configs_named_like_paper():
    assert set(ADAPTIVITY_CONFIGS) == {"Directory", "PATCH-All-NA",
                                       "PATCH-All"}
    assert ADAPTIVITY_CONFIGS["PATCH-All-NA"]["best_effort_direct"] is False


def test_experiment_result_traffic_means():
    experiment = run_experiment(SMALL, "microbench", references_per_core=20,
                                seeds=(1, 2))
    per_miss = experiment.traffic_per_miss_mean()
    assert per_miss["Data"] > 0
    assert experiment.bytes_per_miss_mean > 0


# ---------------------------------------------------------------------------
# ExperimentResult aggregation edge cases
# ---------------------------------------------------------------------------

def _zero_miss_run():
    """A fabricated run in which every reference hit."""
    from repro.core.results import RunResult
    from repro.stats.counters import RunningStat
    return RunResult(config_summary="synthetic", runtime_cycles=1000,
                     total_references=64, hits=64, misses=0,
                     read_misses=0, write_misses=0, traffic_bytes={},
                     traffic_bytes_raw={}, dropped_direct_requests=0,
                     miss_latency=RunningStat(), link_utilization=0.0,
                     cache_stats={}, home_stats={}, events_processed=64)


def test_single_seed_run_degenerate_t_interval():
    """n=1: the t-interval collapses to a zero-width CI, not an error."""
    experiment = run_experiment(SMALL, "microbench",
                                references_per_core=15, seeds=(1,))
    ci = experiment.runtime_ci
    assert ci.n == 1
    assert ci.half_width == 0.0
    assert ci.low == ci.high == ci.mean == experiment.runtime_mean
    assert ci.mean == experiment.runs[0].runtime_cycles


def test_runtime_mean_equals_ci_mean_without_a_quantile(monkeypatch):
    """runtime_mean is sum/n, bit-identical to runtime_ci.mean, and
    builds no confidence interval to get there."""
    from types import SimpleNamespace
    values = (0.1, 0.2, 0.3, 1e16, 1.0, -1e16)  # float sums order-sensitive
    experiment = ExperimentResult(
        "floats", [SimpleNamespace(runtime_cycles=v) for v in values])
    assert experiment.runtime_mean == experiment.runtime_ci.mean
    monkeypatch.setattr("repro.api.result.t_interval",
                        lambda *a, **k: pytest.fail("built a CI"))
    assert experiment.runtime_mean == sum(values) / len(values)


def test_zero_miss_runs_aggregate_to_zero_not_nan():
    """misses=0: per-miss means must be 0.0, never a ZeroDivisionError."""
    experiment = ExperimentResult("all-hits",
                                  [_zero_miss_run(), _zero_miss_run()])
    assert experiment.bytes_per_miss_mean == 0.0
    per_miss = experiment.traffic_per_miss_mean()
    assert per_miss  # the Figure-5 groups are all present...
    assert set(per_miss.values()) == {0.0}  # ...and all zero


def test_mixed_zero_and_nonzero_miss_runs_average():
    """A zero-miss seed among normal seeds averages in as zero."""
    live = run_experiment(SMALL, "microbench", references_per_core=15,
                          seeds=(1,)).runs[0]
    assert live.misses > 0
    experiment = ExperimentResult("mixed", [live, _zero_miss_run()])
    assert experiment.bytes_per_miss_mean == pytest.approx(
        live.bytes_per_miss / 2)
    assert experiment.traffic_per_miss_mean()["Data"] == pytest.approx(
        live.traffic_per_miss()["Data"] / 2)
