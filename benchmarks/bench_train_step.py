"""Training-step throughput of the optimized kernel substrate.

Measures real proxy-style training steps (forward + backward + Adam) of a
sampled forecaster on a synthetic CTS task under three kernel
configurations:

* ``reference`` — the pre-optimization paths: per-tap Python conv loops and
  unfused elementwise chains (``$REPRO_REFERENCE_KERNELS``), no pooling,
* ``optimized`` — im2col single-gemm convolutions + fused kernels, pooling
  off,
* ``pooled``    — optimized kernels with the generational buffer pool
  recycling forward/gradient buffers across steps.

All three run the same batches from the same seeds; ``pooled`` final
parameters are asserted bitwise-identical to ``optimized`` (the guarantee
that keeps the pool, always on in training, out of eval-cache
fingerprints).  A separate
profiled run collects per-kernel timings via the ``repro.obs.profile``
hooks.  Results are machine-readable JSON at
``benchmarks/results/train_step.json``:

* a ``default``-size section (the headline speedup numbers), and
* a ``tiny``-size section used as the CI regression baseline —
  ``--check`` reruns tiny and fails when the current step time exceeds
  ``CHECK_TOLERANCE`` x the committed baseline on the same mode.

Usage::

    PYTHONPATH=src python benchmarks/bench_train_step.py            # full run
    PYTHONPATH=src python benchmarks/bench_train_step.py --tiny     # tiny only
    PYTHONPATH=src python benchmarks/bench_train_step.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.autodiff import Tensor
from repro.autodiff.fused import REFERENCE_KERNELS_ENV
from repro.autodiff.pool import BufferPool
from repro.core.model import build_forecaster
from repro.data import CTSData
from repro.data.windows import iterate_batches
from repro.nn.loss import mae_loss
from repro.obs import MetricsRegistry, metrics_scope
from repro.obs.profile import profile
from repro.optim import Adam, clip_grad_norm
from repro.space import ArchHyper
from repro.space.arch import Architecture, Edge
from repro.space.hyperparams import HyperParameters
from repro.tasks import Task

RESULTS_PATH = Path(__file__).parent / "results" / "train_step.json"
# --check fails when tiny-size step time exceeds baseline x this factor.
CHECK_TOLERANCE = 1.5

SIZES = {
    # Proxy-training-like size: the headline before/after measurement.
    "default": dict(
        nodes=8, t=256, p=12, q=3, batch_size=32, hidden=16, warmup=3, steps=25
    ),
    # CI smoke size: seconds-fast, still exercises every kernel path.
    "tiny": dict(
        nodes=4, t=96, p=8, q=2, batch_size=16, hidden=8, warmup=2, steps=10
    ),
}


def _toy_task(nodes: int, t: int, p: int, q: int) -> Task:
    rng = np.random.default_rng(0)
    steps = np.arange(t)
    values = np.stack(
        [
            np.sin(2 * np.pi * steps / 24 + k) + 0.1 * rng.standard_normal(t)
            for k in range(nodes)
        ]
    )
    data = CTSData(
        "bench-train-step",
        values[..., None].astype(np.float32),
        np.ones((nodes, nodes), np.float32),
        "test",
    )
    return Task(data, p=p, q=q, max_train_windows=128)


def _bench_arch(hidden: int) -> ArchHyper:
    """A fixed conv-heavy arch-hyper: gdcc (gated dilated causal convs) and
    dgcn edges, the substrate the im2col/fused/pooled kernels optimize —
    and the dominant operators in the paper's discovered architectures.
    A fixed DAG (not a random sample) keeps the workload stable across
    benchmark revisions, so committed baselines stay comparable."""
    arch = Architecture(
        num_nodes=4,
        edges=(
            Edge(0, 1, "gdcc"),
            Edge(0, 2, "dgcn"),
            Edge(1, 2, "gdcc"),
            Edge(1, 3, "dgcn"),
            Edge(2, 3, "gdcc"),
        ),
    )
    hyper = HyperParameters(
        num_blocks=2,
        num_nodes=4,
        hidden_dim=hidden,
        output_dim=hidden,
        output_mode=0,
        dropout=0,
    )
    return ArchHyper(arch, hyper)


def _materialize_batches(task: Task, batch_size: int) -> list:
    windows = task.prepared.train
    rng = np.random.default_rng(1)
    return list(iterate_batches(windows, batch_size, rng=rng))


def run_mode(
    name: str,
    task: Task,
    arch_hyper,
    batches: list,
    *,
    reference: bool,
    pool: bool,
    warmup: int,
    steps: int,
) -> dict:
    """Time ``steps`` full training steps; returns timings + final params."""
    previous_env = os.environ.get(REFERENCE_KERNELS_ENV)
    os.environ[REFERENCE_KERNELS_ENV] = "1" if reference else "0"
    try:
        model = build_forecaster(arch_hyper, task.data, task.horizon, seed=0)
        model.train()
        optimizer = Adam(model.parameters(), lr=1e-3, weight_decay=1e-4)
        buffer_pool = BufferPool() if pool else None
        durations = []
        for step in range(warmup + steps):
            x, y = batches[step % len(batches)]
            start = time.perf_counter()
            with buffer_pool.step() if buffer_pool is not None else nullcontext():
                optimizer.zero_grad()
                loss = mae_loss(model(Tensor(x)), y)
                loss.item()
                loss.backward()
                clip_grad_norm(optimizer.parameters, 5.0)
                optimizer.step()
            if step >= warmup:
                durations.append(time.perf_counter() - start)
        # Median, not mean: one scheduler hiccup on a shared box would
        # otherwise dominate a 10-step sample.
        per_step = float(np.median(durations))
        return {
            "mode": name,
            "steps": steps,
            "seconds_per_step": per_step,
            "steps_per_sec": 1.0 / per_step,
            "mean_seconds_per_step": float(np.mean(durations)),
            "pool_stats": buffer_pool.stats() if buffer_pool is not None else None,
            "state": model.state_dict(),
        }
    finally:
        if previous_env is None:
            del os.environ[REFERENCE_KERNELS_ENV]
        else:
            os.environ[REFERENCE_KERNELS_ENV] = previous_env


def profile_section(task: Task, arch_hyper, batches: list, steps: int = 5) -> dict:
    """Per-kernel timings/counts from the observability profiling hooks."""
    registry = MetricsRegistry()
    with metrics_scope(registry), profile(True):
        run_mode(
            "profiled",
            task,
            arch_hyper,
            batches,
            reference=False,
            pool=True,
            warmup=1,
            steps=steps,
        )
    snapshot = registry.snapshot()
    ops = {
        name[len("profile.ops.") :]: snap["value"]
        for name, snap in snapshot.items()
        if name.startswith("profile.ops.")
    }
    forwards = [
        {
            "module": name[len("profile.forward.") : -len(".seconds")],
            "seconds": snap["value"],
        }
        for name, snap in snapshot.items()
        if name.startswith("profile.forward.") and name.endswith(".seconds")
    ]
    forwards.sort(key=lambda entry: entry["seconds"], reverse=True)
    return {"profiled_steps": steps, "ops": ops, "top_forward": forwards[:10]}


def run_size(size: str, with_profile: bool) -> dict:
    spec = SIZES[size]
    task = _toy_task(spec["nodes"], spec["t"], spec["p"], spec["q"])
    arch_hyper = _bench_arch(spec["hidden"])
    batches = _materialize_batches(task, spec["batch_size"])
    common = dict(warmup=spec["warmup"], steps=spec["steps"])

    print(f"[{size}] nodes={spec['nodes']} t={spec['t']} "
          f"batch={spec['batch_size']} hidden={spec['hidden']} "
          f"steps={spec['steps']}")
    modes = {}
    for name, reference, pool in (
        ("reference", True, False),
        ("optimized", False, False),
        ("pooled", False, True),
    ):
        result = run_mode(
            name, task, arch_hyper, batches,
            reference=reference, pool=pool, **common,
        )
        modes[name] = result
        print(
            f"  {name:>9}: {result['steps_per_sec']:8.2f} steps/s "
            f"({result['seconds_per_step'] * 1e3:7.2f} ms/step)"
        )

    bitwise = all(
        np.array_equal(modes["optimized"]["state"][key], modes["pooled"]["state"][key])
        for key in modes["optimized"]["state"]
    )
    if not bitwise:
        raise AssertionError(
            "pooled training diverged bitwise from pool-off training"
        )
    print("  pooled == optimized final parameters: bitwise identical")

    speedup = {
        "optimized_vs_reference": (
            modes["reference"]["seconds_per_step"]
            / modes["optimized"]["seconds_per_step"]
        ),
        "pooled_vs_reference": (
            modes["reference"]["seconds_per_step"]
            / modes["pooled"]["seconds_per_step"]
        ),
        "pooled_vs_optimized": (
            modes["optimized"]["seconds_per_step"]
            / modes["pooled"]["seconds_per_step"]
        ),
    }
    for key, value in speedup.items():
        print(f"  {key}: {value:.2f}x")

    for result in modes.values():
        result.pop("state")  # not JSON material
    section = {
        "config": spec,
        "modes": modes,
        "speedup": speedup,
        "bitwise_pooled_equals_unpooled": bitwise,
    }
    if with_profile:
        section["profile"] = profile_section(task, arch_hyper, batches)
    return section


def check_against_baseline() -> int:
    """CI gate: rerun tiny, fail on >CHECK_TOLERANCE x step-time regression."""
    if not RESULTS_PATH.exists():
        print(f"no committed baseline at {RESULTS_PATH}; run without --check first")
        return 1
    baseline = json.loads(RESULTS_PATH.read_text())
    tiny_baseline = baseline.get("tiny", {}).get("modes", {})
    current = run_size("tiny", with_profile=False)
    failures = []
    for mode in ("optimized", "pooled"):
        base = tiny_baseline.get(mode, {}).get("seconds_per_step")
        if base is None:
            print(f"baseline lacks tiny/{mode}; re-generate {RESULTS_PATH}")
            return 1
        now = current["modes"][mode]["seconds_per_step"]
        ratio = now / base
        verdict = "OK" if ratio <= CHECK_TOLERANCE else "REGRESSION"
        print(
            f"check {mode}: {now * 1e3:.2f} ms/step vs baseline "
            f"{base * 1e3:.2f} ms/step ({ratio:.2f}x, limit "
            f"{CHECK_TOLERANCE}x) {verdict}"
        )
        if ratio > CHECK_TOLERANCE:
            failures.append(mode)
    if failures:
        print(f"step-time regression in: {', '.join(failures)}")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--tiny", action="store_true", help="run only the tiny CI size"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="rerun tiny and fail on regression vs the committed baseline",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="do not write the results JSON"
    )
    parser.add_argument(
        "--steps", type=int, default=None, help="override timed steps per mode"
    )
    args = parser.parse_args()

    if args.check:
        return check_against_baseline()

    if args.steps is not None:
        for spec in SIZES.values():
            spec["steps"] = args.steps

    report = {"benchmark": "train_step"}
    if not args.tiny:
        report["default"] = run_size("default", with_profile=True)
    report["tiny"] = run_size("tiny", with_profile=False)

    if not args.no_save:
        RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
        RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
