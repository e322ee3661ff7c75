"""Throughput of the proxy-evaluation engine (serial vs parallel vs cached).

The early-validation proxy R' (Eq. 22) dominates wall-clock in comparator
pre-training and search; the paper amortizes it across eight GPUs.  This
benchmark times real one-epoch proxy evaluations (``measure_arch_hyper`` at
``ProxyConfig(epochs=1)``) on a toy task through the two fast paths of
``repro.runtime``:

* the **process-pool backend** — candidate evaluations fan out across
  worker processes; training is CPU-bound, so the speedup is bounded by the
  machine's core count,
* the **content-addressed score cache** — a warm rerun of the same workload
  answers every evaluation from disk, near-instantly.

Scores must be bitwise identical across all three paths.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.data import CTSData
from repro.experiments import ResultTable, print_and_save
from repro.runtime import EvalCache, ProxyEvaluator
from repro.space import HyperSpace, JointSearchSpace
from repro.tasks import ProxyConfig, Task

N_CANDIDATES = 16
WORKERS = 4
CONFIG = ProxyConfig(epochs=1)

TINY_HYPER = HyperSpace(
    num_blocks=(1, 2), num_nodes=(3, 4), hidden_dims=(8, 16), output_dims=(8, 16),
    output_modes=(0, 1), dropout=(0, 1),
)


def _toy_task() -> Task:
    rng = np.random.default_rng(0)
    values = rng.normal(10, 2, size=(4, 200, 1)).astype(np.float32)
    adjacency = np.ones((4, 4), dtype=np.float32)
    return Task(CTSData("bench-proxy", values, adjacency, "test"), p=6, q=3)


def run_throughput(cache_dir):
    task = _toy_task()
    space = JointSearchSpace(hyper_space=TINY_HYPER)
    candidates = space.sample_batch(N_CANDIDATES, np.random.default_rng(0))

    def timed(evaluator):
        start = time.perf_counter()
        scores = evaluator.evaluate_many(candidates, task, CONFIG)
        return scores, time.perf_counter() - start

    serial = ProxyEvaluator(workers=1, cache=None)
    serial_scores, serial_seconds = timed(serial)

    parallel = ProxyEvaluator(workers=WORKERS, cache=None)
    parallel_scores, parallel_seconds = timed(parallel)
    assert parallel_scores == serial_scores  # bitwise across backends
    speedup = serial_seconds / parallel_seconds

    cache = EvalCache(cache_dir)
    cold = ProxyEvaluator(workers=WORKERS, cache=cache)
    cold_scores, cold_seconds = timed(cold)
    warm = ProxyEvaluator(workers=WORKERS, cache=cache)
    warm_scores, warm_seconds = timed(warm)
    assert warm_scores == cold_scores == serial_scores  # bitwise through cache

    table = ResultTable(title="Proxy-evaluation engine throughput")
    row = f"{N_CANDIDATES} evals, {CONFIG.epochs} epoch"
    for label, seconds in (
        ("serial", serial_seconds), (f"parallel (x{WORKERS})", parallel_seconds)
    ):
        table.add(row, label, "value",
                  f"{seconds:.2f}s ({N_CANDIDATES / seconds:.1f} evals/s)")
    table.add(row, "speedup", "value", f"{speedup:.2f}x")
    table.add(row, "cold cache", "value",
              f"{cold_seconds:.2f}s ({cold.stats.hits} hits/{cold.stats.misses} misses)")
    table.add(row, "warm cache", "value",
              f"{warm_seconds:.3f}s ({warm.stats.hits} hits/{warm.stats.misses} misses)")
    return table, speedup, serial_seconds, warm_seconds, warm.stats


def test_proxy_throughput(benchmark, tmp_path):
    table, speedup, serial_seconds, warm_seconds, warm_stats = benchmark.pedantic(
        run_throughput, args=(tmp_path,), iterations=1, rounds=1
    )
    print_and_save(table, "proxy_throughput")
    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup >= 2.0  # 4 workers on 4 cores must at least halve it
    assert warm_stats.hits == N_CANDIDATES  # warm rerun is all cache hits
    assert warm_stats.misses == 0
    assert warm_seconds < serial_seconds / 10  # the warm path is near-instant


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table, speedup, serial_seconds, warm_seconds, warm_stats = run_throughput(tmp)
        print_and_save(table, "proxy_throughput")
        print(f"speedup {speedup:.2f}x; warm cache {warm_seconds:.3f}s "
              f"({warm_stats.hits} hits)")
