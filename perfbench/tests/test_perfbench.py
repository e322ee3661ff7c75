"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import http.server
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spec_metrics(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def _printed_metrics(monkeypatch, capsys, workload) -> dict[str, str]:
    """Run run.main with ``workload`` standing in for cold-search; return the
    metric names and units of the printed JSON line."""
    monkeypatch.setitem(workloads.WORKLOADS, "cold-search", workload)
    saved = dict(os.environ)
    try:
        code = run.main(["--workload", "cold-search", "--seed", "0", "--seconds", "1"])
    finally:
        os.environ.clear()
        os.environ.update(saved)
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_printed_end_to_end_metrics_match_benchmark_json(monkeypatch, capsys):
    def fake(seed, seconds, trace, run_dir):
        result = workloads.Result(attempted=3)
        workloads._op_metrics(
            result, "cold-search", [1.0, 2.0, 3.0], [True] * 3, 0.4, 80.0
        )
        return result

    assert _printed_metrics(monkeypatch, capsys, fake) == _spec_metrics("end_to_end")


def test_printed_per_layer_metrics_match_benchmark_json(monkeypatch, capsys):
    def fake(seed, seconds, trace, run_dir):
        result = workloads.Result(attempted=1)
        result.metrics = workloads.layer_metrics(layers.LayerTracer(), 1.0)
        return result

    assert _printed_metrics(monkeypatch, capsys, fake) == _spec_metrics("per_layer")


def test_self_times_and_unattributed_sum_to_traced_wall():
    tracer = layers.LayerTracer()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        inner_wrapped()
        inner_wrapped()

    inner_wrapped = tracer.wrap("inner", inner)
    outer_wrapped = tracer.wrap("outer", outer)
    tracer.enabled = True
    for _ in range(3):
        with tracer.root():
            time.sleep(0.005)
            outer_wrapped()
    outer_wrapped()  # outside any root: not traced
    total = tracer.attributed_s() + tracer.unattributed_s
    assert total == pytest.approx(tracer.traced_s, rel=1e-9)
    assert tracer.calls == {"inner": 6, "outer": 3}
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.inclusive["outer"] - tracer.inclusive["inner"], rel=1e-9
    )
    assert tracer.unattributed_s >= 3 * 0.005


def test_program_layers_sum_to_traced_wall():
    from repro.experiments import target_task
    from repro.experiments.config import SMOKE
    from repro.space import JointSearchSpace
    from repro.tasks.proxy import ProxyConfig

    task = target_task(SMOKE, "SZ-TAXI", SMOKE.settings[0])
    arch_hyper = JointSearchSpace(hyper_space=SMOKE.hyper_space).sample(
        np.random.default_rng(0)
    )
    tracer = layers.LayerTracer()
    with tracer.installed():
        import repro.tasks.proxy as proxy

        tracer.enabled = True
        with tracer.root():
            proxy.measure_arch_hyper(arch_hyper, task, ProxyConfig(epochs=1))
    assert tracer.calls["tasks.proxy.eval"] == 1
    assert tracer.calls["core.trainer.train"] == 1
    assert tracer.calls["optim.step"] >= 1
    assert tracer.attributed_s() + tracer.unattributed_s == pytest.approx(
        tracer.traced_s, rel=1e-9
    )


def _program_attributes() -> dict[tuple[str, str], object]:
    layers.import_program_modules()
    snapshot = {}
    for module in layers.program_modules():
        for name, value in vars(module).items():
            snapshot[(module.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snapshot[(f"{module.__name__}.{name}", attr)] = member
    return snapshot


def test_every_wrapped_attribute_is_restored():
    before = _program_attributes()
    tracer = layers.LayerTracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            import repro.runtime.evaluator as evaluator
            import repro.search.zero_shot as zero_shot
            from repro.autodiff.tensor import Tensor

            assert hasattr(evaluator.measure_arch_hyper, "__perfbench_original__")
            assert hasattr(zero_shot.train_forecaster, "__perfbench_original__")
            assert hasattr(Tensor.__dict__["backward"], "__perfbench_original__")
            raise RuntimeError("boom")
    after = _program_attributes()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    assert not tracer._patches


class _StalledHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(0.05)  # capacity: 20 requests/s per connection
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_open_loop_latency_grows_against_a_stalled_server(tmp_path):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StalledHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        # 40 requests/s offered to one connection that serves 20/s, sent by
        # the client process the benchmark uses.
        requests = [loadgen.Request(i / 40.0, b"{}", "stub") for i in range(40)]
        loadgen.write_schedule(
            tmp_path, "127.0.0.1", server.server_address[1], "/", requests, senders=1
        )
        subprocess.run([sys.executable, loadgen.__file__, str(tmp_path)], check=True,
                       timeout=60)
        outcomes = loadgen.read_outcomes(tmp_path)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert all(outcome.status == 200 for outcome in outcomes)
    first = np.mean([o.latency for o in outcomes[:10]])
    last = np.mean([o.latency for o in outcomes[-10:]])
    assert last > first + 0.3  # the backlog grows by ~25 ms per request
    assert outcomes[-1].late > 0.3


def test_rank_schedule_is_seeded_and_mixed():
    first = workloads.make_schedule(7, 15)
    assert first == workloads.make_schedule(7, 15)
    assert first != workloads.make_schedule(8, 15)
    kinds = {request.kind for request in first}
    assert kinds == set(workloads.RANK_BLOCK)
    distinct_tasks = {
        json.dumps(json.loads(request.body)["task"], sort_keys=True) for request in first
    }
    assert len(distinct_tasks) > 8  # more than Engine.rank_cache_size
    inline = next(request for request in first if request.kind == "inline")
    assert 20_000 < len(inline.body) < 40_000


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-http", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_shared_artifact_dir_follows_program_sources(tmp_path, monkeypatch):
    source = tmp_path / "src" / "repro" / "comparator" / "tahc.py"
    source.parent.mkdir(parents=True)
    source.write_text("WIDTH = 8\n")
    monkeypatch.setattr(workloads, "ROOT", tmp_path)
    before = workloads.source_digest()
    assert workloads.source_digest() == before
    source.write_text("WIDTH = 16\n")
    assert workloads.source_digest() != before
