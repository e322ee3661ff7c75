"""Steps that run in a fresh process of their own.

``python3 child.py build <dir>`` makes sure ``<dir>/artifacts`` holds the
comparator artifact pickle that rank-http serves, pre-training it when it is
missing (a separate process, so the benchmark's own peak memory does not
include pre-training).

``python3 child.py <workload> <run-dir>`` is the set-up probe timed from
outside, up to the line ``workloads.READY`` it prints: it imports the
program and brings it to the point where the workload's first operation
could start:

* cold-search: an evaluator and the target task, as a first `repro search`;
* rank-http: the artifact pickle loaded from the run's cache, an Engine, a
  registry and an HTTP API answering /health.
"""

from __future__ import annotations

import sys
import tempfile
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def main(workload: str, run_dir: Path) -> None:
    import workloads
    from repro.service import Engine, ServiceAPI, ServiceDB

    if workload == "build":
        workloads.build_artifacts(run_dir)
        print(workloads.READY, flush=True)
        return
    if workload == "cold-search":
        from repro.experiments import target_task
        from repro.runtime import configure_default_evaluator

        with tempfile.TemporaryDirectory(dir=run_dir) as scratch:
            configure_default_evaluator(cache_dir=Path(scratch) / "evalcache")
            dataset, setting = workloads.COLD_TARGET
            task = target_task(
                workloads.SCALE, dataset, workloads.SCALE.setting(setting), seed=0
            )
            task.prepared
            print(workloads.READY, flush=True)
        return
    engine = Engine(workloads.load_artifacts(run_dir), workloads.SCALE)
    if workload == "rank-http":
        with tempfile.TemporaryDirectory(dir=run_dir) as scratch:
            db = ServiceDB(Path(scratch) / "registry.sqlite")
            api = ServiceAPI(db, engine).start()
            try:
                with urllib.request.urlopen(api.address + "/health", timeout=30) as reply:
                    reply.read()
                print(workloads.READY, flush=True)
            finally:
                api.stop()
                db.close()


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
