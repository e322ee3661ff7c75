"""End-to-end benchmark of search and serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-search|rank-http \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Lines before it give the environment, the workload's own named figures and,
when tracing, the per-layer table.  The exit code is 0 only when every
output checked was correct.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-search", "rank-http")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate_environment(run_dir: Path) -> dict[str, str]:
    """Drop inherited REPRO_* settings and point every program store at
    this run's own directory, so no run reads another run's caches.

    OpenBLAS runs one thread: on the 2-core reference box its spinning
    worker threads competed with the service's and the load generator's
    threads, and rank-http's median latency spread 31% between runs instead
    of 13%.  Must be set before numpy is first imported."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    paths = {
        "REPRO_CACHE_DIR": run_dir / "artifacts",
        "REPRO_EVAL_CACHE_DIR": run_dir / "evalcache",
        "REPRO_CHECKPOINT_DIR": run_dir / "checkpoints",
        "REPRO_SERVICE_DB": run_dir / "registry.sqlite",
    }
    for name, path in paths.items():
        os.environ[name] = str(path)
    return {name: str(path) for name, path in paths.items()}


def blas_threads() -> str:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libraries = set()
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return str(function())
    return "unknown"


def environment(paths: dict[str, str]) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "paths": paths,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        paths = isolate_environment(run_dir)
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        print("environment: " + json.dumps(environment(paths)), flush=True)
        result = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), run_dir
        )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{result.attempted} attempted, {result.failed} failed")
    for name, (value, unit) in result.report.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    if result.table:
        print(result.table)
    for error in result.errors:
        print(f"MISMATCH: {error}")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
