"""End-to-end tests of the search service.

Each test boots the real stack — ``ThreadingHTTPServer`` on an ephemeral
port, a worker daemon, a temporary sqlite registry, and an Engine wrapping
tiny synthetic artifacts — and talks to it over actual HTTP.  Covered:

* submit → poll → result for zero-shot ranking, via the queue and the
  synchronous ``POST /rank`` path,
* HTTP rankings bitwise-identical to the same search run through the
  :class:`~repro.service.Engine` directly (the CLI code path),
* cross-tenant dedup: the second submission is served from the registry
  with zero new evaluator calls / encoder forwards, asserted through the
  metrics registry,
* daemon killed mid-job and restarted: the job is recovered and resumes
  from its checkpoint bitwise-identically, without re-running finished
  evaluations,
* malformed payloads as 4xx, never 500s or hangs,
* concurrent clients and daemons with no double-claimed jobs,
* per-job runtime overrides (divergence policy) beating the daemon's
  environment,
* ``repro submit`` CLI against a live server.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.comparator.pretrain import PretrainHistory
from repro.comparator.tahc import TAHC
from repro.core.health import DivergenceError
from repro.embedding import MLPEmbedder
from repro.experiments.config import SCALES
from repro.experiments.harness import PretrainedArtifacts
from repro.obs import global_registry
from repro.runtime.fingerprint import proxy_fingerprint
from repro.service import (
    Daemon,
    Engine,
    RegistryError,
    ServiceAPI,
    ServiceDB,
    build_task,
    task_fingerprint,
)
from repro.space import HyperSpace, JointSearchSpace
from repro.tasks.proxy import SENTINEL_SCORE

TINY_HYPER = HyperSpace(
    num_blocks=(1,), num_nodes=(3,), hidden_dims=(8, 12), output_dims=(8,),
    output_modes=(0, 1), dropout=(0, 1),
)


def cheap_eval(arch_hyper, task, config):
    """Deterministic fingerprint-derived score: fast and content-addressed."""
    digest = proxy_fingerprint(arch_hyper, task, config)
    return int(digest[:8], 16) / 0xFFFFFFFF + 0.25


def diverging_eval(arch_hyper, task, config):
    raise DivergenceError("synthetic divergence")


class InterruptAfter:
    """Raise KeyboardInterrupt after N successful evaluations (dead daemon)."""

    def __init__(self, fn, after):
        self.fn = fn
        self.after = after
        self.calls = 0

    def __call__(self, *args, **kwargs):
        if self.calls >= self.after:
            raise KeyboardInterrupt("injected daemon kill")
        self.calls += 1
        return self.fn(*args, **kwargs)


class CountingEval:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, arch_hyper, task, config):
        self.calls += 1
        return self.fn(arch_hyper, task, config)


def _artifacts():
    return PretrainedArtifacts(
        variant="full",
        model=TAHC(
            embed_dim=8, gin_layers=1, hidden_dim=8, preliminary_dim=8,
            task_embed_dim=8, seed=0,
        ),
        embedder=MLPEmbedder(input_dim=1, output_dim=8),
        space=JointSearchSpace(hyper_space=TINY_HYPER),
        sample_sets=[],
        history=PretrainHistory(),
    )


def _task_spec(t=120, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    values = rng.normal(10, 2, size=(4, t, 1)).astype(np.float32)
    adjacency = np.ones((4, 4), dtype=np.float32)
    return {
        "name": name,
        "values": values.tolist(),
        "adjacency": adjacency.tolist(),
        "p": 6,
        "q": 3,
    }


class Service:
    """One booted stack; close() tears everything down."""

    def __init__(self, tmp_path, eval_fn=None, start_daemon=True):
        self.engine = Engine(
            _artifacts(),
            SCALES["smoke"],
            checkpoint_dir=tmp_path / "ckpt",
            artifact_dir=tmp_path / "artifacts",
            eval_fn=eval_fn,
            cache_enabled=False,
        )
        self.db = ServiceDB(tmp_path / "registry.sqlite")
        self.daemon = Daemon(self.db, self.engine, poll_interval=0.01)
        if start_daemon:
            self.daemon.start()
        self.api = ServiceAPI(self.db, self.engine).start()

    @property
    def address(self):
        return self.api.address

    def close(self):
        self.api.stop()
        self.daemon.stop()

    # ------------------------------------------------------------------
    # HTTP helpers
    # ------------------------------------------------------------------
    def request(self, path, payload=None, tenant=None):
        headers = {"Content-Type": "application/json"}
        if tenant:
            headers["X-Repro-Tenant"] = tenant
        data = json.dumps(payload).encode() if payload is not None else None
        req = urllib.request.Request(self.address + path, data=data, headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def wait_for(self, job_id, timeout=30.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = self.request(f"/jobs/{job_id}")
            assert status == 200
            if body["job"]["status"] in ("done", "failed"):
                return body
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not finish within {timeout}s")


@pytest.fixture
def service(tmp_path):
    stack = Service(tmp_path, eval_fn=cheap_eval)
    yield stack
    stack.close()


def _counter_value(snapshot, name):
    entry = snapshot.get(name)
    return entry["value"] if entry else 0


class TestRoutes:
    def test_health_and_metrics(self, service):
        status, body = service.request("/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["engine"] == service.engine.fingerprint
        assert set(body["jobs"]) == {"pending", "running", "done", "failed"}
        status, body = service.request("/metrics")
        assert status == 200
        assert isinstance(body["metrics"], dict)

    def test_unknown_routes_404(self, service):
        assert service.request("/nope")[0] == 404
        assert service.request("/jobs/zzz")[0] == 404
        assert service.request("/results/deadbeef")[0] == 404


class TestRankJob:
    def test_submit_poll_result(self, service):
        status, body = service.request(
            "/jobs", {"kind": "rank", "task": _task_spec(), "options": {"top_k": 2}}
        )
        assert status == 202
        assert body["job"]["status"] == "pending" or body["job"]["status"] == "running"
        final = service.wait_for(body["job"]["id"])
        assert final["job"]["status"] == "done"
        result = final["result"]
        assert result["task"].startswith("toy/")
        assert len(result["candidates"]) == 2
        assert result["comparisons"] > 0
        # The result is also addressable by fingerprint.
        status, by_fp = service.request(f"/results/{body['job']['fingerprint']}")
        assert status == 200
        assert by_fp["result"] == result

    def test_http_rank_bitwise_identical_to_engine_path(self, service, tmp_path):
        spec = _task_spec()
        status, body = service.request(
            "/rank", {"task": spec, "options": {"top_k": 2}}
        )
        assert status == 200 and not body["deduped"]
        # A *fresh* engine over identically-constructed artifacts — the CLI
        # code path — must produce the identical ranking.
        engine = Engine(_artifacts(), SCALES["smoke"], cache_enabled=False)
        assert engine.fingerprint == service.engine.fingerprint
        task = build_task(spec)
        outcome = engine.rank_task(task, task_fingerprint(task), seed=0, top_k=2)
        assert body["result"]["comparisons"] == outcome.comparisons
        # json round-trip normalizes tuples to lists before comparing.
        assert body["result"]["candidates"] == json.loads(
            json.dumps([ah.to_dict() for ah in outcome.candidates])
        )

    def test_sync_rank_dedup_zero_new_encoder_forwards(self, service):
        payload = {"task": _task_spec(), "options": {"top_k": 1}}
        status, first = service.request("/rank", payload, tenant="alice")
        assert status == 200 and not first["deduped"]
        before = global_registry().snapshot()
        status, second = service.request("/rank", payload, tenant="bob")
        after = global_registry().snapshot()
        assert status == 200 and second["deduped"]
        assert second["result"] == first["result"]
        assert second["fingerprint"] == first["fingerprint"]
        # Served from the registry: not a single new encoder forward or
        # comparator score anywhere in the process.
        for metric in ("rank.embed_misses", "rank.pair_scores", "eval.misses"):
            assert _counter_value(after, metric) == _counter_value(before, metric)

    def test_rank_cache_shared_across_distinct_requests(self, service):
        # Same task, different top_k: different fingerprints, but the
        # engine's per-task cache means the second request adds zero
        # encoder forwards for candidates already embedded.
        spec = _task_spec()
        service.request("/rank", {"task": spec, "options": {"top_k": 1}})
        before = _counter_value(global_registry().snapshot(), "rank.embed_hits")
        status, body = service.request("/rank", {"task": spec, "options": {"top_k": 2}})
        assert status == 200 and not body["deduped"]
        after = _counter_value(global_registry().snapshot(), "rank.embed_hits")
        assert after > before  # re-used cached candidate embeddings


class TestTrainJob:
    def test_rank_then_train_artifact(self, service, tmp_path):
        # The intended two-step flow: rank candidates, then queue a train
        # job for the winner and get a persisted forecaster artifact back.
        spec = _task_spec(t=100)
        status, ranked = service.request(
            "/rank", {"task": spec, "options": {"top_k": 1}}
        )
        assert status == 200
        winner = ranked["result"]["candidates"][0]
        status, submitted = service.request(
            "/jobs",
            {
                "kind": "train",
                "task": spec,
                "options": {"arch_hyper": winner, "epochs": 1},
            },
        )
        assert status == 202
        final = service.wait_for(submitted["job"]["id"], timeout=120)
        assert final["job"]["status"] == "done"
        result = final["result"]
        assert np.isfinite(result["test_mae"])
        assert result["arch_hyper"]["hyper"] == winner["hyper"]
        from pathlib import Path

        artifact = Path(result["artifact"])
        assert artifact.is_dir()
        assert (artifact / "model.json").exists()


class TestDedup:
    def test_queued_dedup_across_tenants_zero_new_evals(self, service):
        payload = {
            "kind": "collect",
            "task": _task_spec(),
            "options": {"n_samples": 4},
        }
        status, body = service.request("/jobs", payload, tenant="alice")
        assert status == 202
        final = service.wait_for(body["job"]["id"])
        assert final["job"]["status"] == "done"
        before = global_registry().snapshot()
        status, again = service.request("/jobs", payload, tenant="bob")
        after = global_registry().snapshot()
        assert status == 200 and again["deduped"]
        assert again["job"]["id"] == body["job"]["id"]
        assert again["job"]["tenants"] == ["alice", "bob"]
        assert again["job"]["submissions"] == 2
        # The cached result is inlined in the dedup response, and no new
        # evaluation ran anywhere in the process.
        assert again["result"] == final["result"]
        assert _counter_value(after, "eval.misses") == _counter_value(
            before, "eval.misses"
        )
        assert service.db.counts()["done"] == 1

    def test_different_options_do_not_dedupe(self, service):
        base = {"kind": "collect", "task": _task_spec()}
        _, first = service.request(
            "/jobs", {**base, "options": {"n_samples": 2}}
        )
        _, second = service.request(
            "/jobs", {**base, "options": {"n_samples": 3}}
        )
        assert first["job"]["fingerprint"] != second["job"]["fingerprint"]

    def test_score_inert_runtime_knobs_dedupe(self, service):
        base = {"kind": "collect", "task": _task_spec(), "options": {"n_samples": 2}}
        _, first = service.request(
            "/jobs", {**base, "runtime": {"workers": 1, "max_retries": 2}}
        )
        _, second = service.request(
            "/jobs", {**base, "runtime": {"workers": 4, "buffer_pool": False}}
        )
        assert second["deduped"]
        assert first["job"]["fingerprint"] == second["job"]["fingerprint"]


class TestKillRestart:
    def test_daemon_kill_and_restart_resumes_bitwise(self, tmp_path):
        # Reference: an uninterrupted run of the same job.
        ref = Service(tmp_path / "ref", eval_fn=cheap_eval)
        payload = {
            "kind": "collect",
            "task": _task_spec(),
            "options": {"n_samples": 6},
        }
        _, submitted = ref.request("/jobs", payload)
        reference = ref.wait_for(submitted["job"]["id"])["result"]
        ref.close()

        # Interrupted: the eval function kills the "process" (the worker
        # loop) after 3 evaluations; run the daemon synchronously so the
        # KeyboardInterrupt propagates to us like a real SIGINT would.
        interrupting = InterruptAfter(cheap_eval, after=3)
        crashed = Service(
            tmp_path / "crash", eval_fn=interrupting, start_daemon=False
        )
        _, submitted = crashed.request("/jobs", payload)
        job_id = submitted["job"]["id"]
        with pytest.raises(KeyboardInterrupt):
            crashed.daemon.run_once()
        # The daemon died mid-job: the job is still 'running', with 3
        # scores already flushed to its progress checkpoint.
        assert crashed.db.get_job(job_id)["status"] == "running"
        crashed.api.stop()

        # Restart: a fresh daemon (fresh engine, same artifacts, same
        # registry and checkpoint dir) recovers the orphan and finishes it.
        counting = CountingEval(cheap_eval)
        engine = Engine(
            _artifacts(),
            SCALES["smoke"],
            checkpoint_dir=tmp_path / "crash" / "ckpt",
            eval_fn=counting,
            cache_enabled=False,
        )
        assert engine.fingerprint == crashed.engine.fingerprint
        db = ServiceDB(tmp_path / "crash" / "registry.sqlite")
        daemon = Daemon(db, engine, poll_interval=0.01)
        recovered = db.recover_orphans()
        assert [job["id"] for job in recovered] == [job_id]
        assert daemon.run_once()
        final = db.get_job(job_id)
        assert final["status"] == "done"
        # Only the 3 unfinished evaluations ran; the first 3 were resumed
        # from the checkpoint...
        assert counting.calls == 3
        assert final["metrics"]["eval.resumed"]["value"] == 3
        # ...and the merged result is bitwise-identical to the
        # uninterrupted reference run.
        assert db.get_result(final["fingerprint"]) == reference


class TestFailures:
    @pytest.mark.parametrize(
        "payload",
        [
            {"task": _task_spec()},  # missing kind
            {"kind": "nope", "task": _task_spec()},
            {"kind": "rank"},  # missing task
            {"kind": "rank", "task": {"p": 6, "q": 3}},  # no dataset/values
            {"kind": "rank", "task": {"dataset": "NOT-A-DATASET", "p": 6, "q": 3}},
            {"kind": "rank", "task": {**_task_spec(), "p": "six"}},
            {"kind": "rank", "task": {**_task_spec(), "values": [[["x"]]]}},
            {"kind": "train", "task": _task_spec()},  # no arch_hyper
            {"kind": "rank", "task": _task_spec(), "runtime": {"divergence_policy": "maybe"}},
            [1, 2, 3],  # not an object
        ],
    )
    def test_malformed_payloads_are_4xx(self, service, payload):
        status, body = service.request("/jobs", payload)
        assert status == 400
        assert "error" in body

    def test_invalid_json_is_400(self, service):
        req = urllib.request.Request(
            service.address + "/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400

    def test_non_finite_series_rejected(self, service):
        # NaN without an imputation policy is a typed 422 naming the fix
        # (see tests/test_robustness.py for the repair path).
        spec = _task_spec()
        spec["values"][0][0][0] = float("nan")
        status, body = service.request("/jobs", {"kind": "rank", "task": spec})
        assert status == 422
        assert "imputation" in body["error"]

    def test_sync_rank_rejects_other_kinds(self, service):
        status, _ = service.request(
            "/rank", {"kind": "collect", "task": _task_spec()}
        )
        assert status == 400

    def test_failed_job_records_error_and_requeues(self, tmp_path):
        stack = Service(tmp_path, eval_fn=diverging_eval)
        try:
            payload = {
                "kind": "collect",
                "task": _task_spec(),
                "options": {"n_samples": 2},
                "runtime": {"divergence_policy": "raise"},
            }
            _, submitted = stack.request("/jobs", payload)
            final = stack.wait_for(submitted["job"]["id"])
            assert final["job"]["status"] == "failed"
            assert "DivergenceError" in final["job"]["error"]
            # A failed job can be requeued over HTTP (and fails again).
            status, body = stack.request(
                f"/jobs/{submitted['job']['id']}/requeue", {}
            )
            assert status == 200
            assert body["job"]["status"] == "pending"
            final = stack.wait_for(submitted["job"]["id"])
            assert final["job"]["status"] == "failed"
            assert final["job"]["attempts"] == 2
        finally:
            stack.close()


class TestDaemonRobustness:
    def test_worker_loop_survives_registry_exceptions(self, tmp_path):
        # A transient RegistryError in the claim cycle (sqlite contention,
        # a lost transition race) must not silently kill the worker while
        # the API keeps accepting jobs.
        stack = Service(tmp_path, eval_fn=cheap_eval)
        try:
            original = stack.db.claim_next
            failures = {"left": 3}

            def flaky_claim(owner):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise RegistryError("synthetic contention")
                return original(owner)

            stack.db.claim_next = flaky_claim
            _, submitted = stack.request(
                "/jobs",
                {"kind": "collect", "task": _task_spec(), "options": {"n_samples": 2}},
            )
            final = stack.wait_for(submitted["job"]["id"])
            assert final["job"]["status"] == "done"
            assert failures["left"] == 0  # the loop really did hit the faults
            assert stack.daemon.running
        finally:
            stack.close()

    def test_restarting_daemon_does_not_steal_live_jobs(self, tmp_path):
        # A second `repro serve` on the same registry must not requeue a
        # job a live worker elsewhere is still heartbeating (double
        # execution + a lost running->done race for the first worker).
        db = ServiceDB(tmp_path / "registry.sqlite")
        engine = Engine(_artifacts(), SCALES["smoke"], cache_enabled=False)
        job, _ = db.submit_job("fp-live", "collect", {"task": _task_spec()})
        db.claim_next("live-worker")  # fresh claim == fresh heartbeat
        restarted = Daemon(db, engine, recover_stale_after=30.0)
        assert restarted.recover_once() == []
        assert db.get_job(job["id"])["status"] == "running"
        # Once the heartbeat goes quiet past the threshold it is an orphan.
        db._connection().execute(
            "UPDATE jobs SET updated = updated - 60 WHERE id = ?", (job["id"],)
        )
        recovered = restarted.recover_once()
        assert [j["id"] for j in recovered] == [job["id"]]
        assert db.get_job(job["id"])["status"] == "pending"


class TestEngineRanking:
    def test_concurrent_ranks_match_sequential_reference(self):
        # Daemon rank jobs race synchronous /rank calls on one engine; the
        # engine-level lock must keep every result bitwise-identical to a
        # sequential run on a fresh engine.
        specs = [_task_spec(seed=index, name=f"toy-{index}") for index in range(3)]
        tasks = [build_task(spec) for spec in specs]
        reference_engine = Engine(_artifacts(), SCALES["smoke"], cache_enabled=False)
        reference = {}
        for task in tasks:
            outcome = reference_engine.rank_task(
                task, task_fingerprint(task), seed=0, top_k=2
            )
            reference[task.name] = [ah.to_dict() for ah in outcome.candidates]

        engine = Engine(_artifacts(), SCALES["smoke"], cache_enabled=False)
        results: dict[str, list] = {}
        errors: list[Exception] = []

        def worker(task):
            try:
                outcome = engine.rank_task(
                    task, task_fingerprint(task), seed=0, top_k=2
                )
                candidates = [ah.to_dict() for ah in outcome.candidates]
                previous = results.setdefault(task.name, candidates)
                assert previous == candidates  # repeat ranks agree too
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(task,)) for task in tasks * 2
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert results == reference

    def test_rank_cache_is_bounded_lru(self):
        engine = Engine(
            _artifacts(), SCALES["smoke"], cache_enabled=False, rank_cache_size=2
        )
        for index in range(3):
            task = build_task(_task_spec(seed=index, name=f"toy-{index}"))
            engine.rank_task(task, task_fingerprint(task), seed=0, top_k=1)
        assert len(engine._rank_cache) == 2
        # The most recent two tasks survived, the oldest was evicted.
        newest = build_task(_task_spec(seed=2, name="toy-2"))
        assert task_fingerprint(newest) in engine._rank_cache


class TestConcurrency:
    def test_concurrent_clients_no_double_execution(self, tmp_path):
        stack = Service(tmp_path, eval_fn=cheap_eval)
        # A second daemon on the same registry: claims must not collide.
        second = Daemon(stack.db, stack.engine, poll_interval=0.01).start()
        try:
            specs = [
                {
                    "kind": "collect",
                    "task": _task_spec(seed=index, name=f"toy-{index}"),
                    "options": {"n_samples": 2},
                }
                for index in range(6)
            ]
            results: dict[int, dict] = {}
            errors: list[Exception] = []

            def client(index):
                try:
                    status, body = stack.request("/jobs", specs[index])
                    assert status == 202, body
                    results[index] = stack.wait_for(body["job"]["id"])
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(len(specs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(results) == len(specs)
            for body in results.values():
                assert body["job"]["status"] == "done"
                # Exactly one claim per job: no daemon double-executed it.
                assert body["job"]["attempts"] == 1
                assert len(body["result"]["samples"]) == 2
        finally:
            second.stop()
            stack.close()


class TestRuntimeOverrides:
    def test_per_job_divergence_policy_beats_daemon_env(self, tmp_path, monkeypatch):
        # The daemon's environment says 'raise'; the job says 'sentinel'.
        # The job must win: divergence becomes the deterministic sentinel
        # score instead of failing the job.
        monkeypatch.setenv("REPRO_DIVERGENCE_POLICY", "raise")
        stack = Service(tmp_path, eval_fn=diverging_eval)
        try:
            payload = {
                "kind": "collect",
                "task": _task_spec(),
                "options": {"n_samples": 2},
                "runtime": {"divergence_policy": "sentinel"},
            }
            _, submitted = stack.request("/jobs", payload)
            final = stack.wait_for(submitted["job"]["id"])
            assert final["job"]["status"] == "done"
            assert [s["score"] for s in final["result"]["samples"]] == [
                SENTINEL_SCORE,
                SENTINEL_SCORE,
            ]

            # And with no per-job override, the daemon's env applies.
            payload = {
                "kind": "collect",
                "task": _task_spec(seed=1, name="toy-b"),
                "options": {"n_samples": 2},
            }
            _, submitted = stack.request("/jobs", payload)
            final = stack.wait_for(submitted["job"]["id"])
            assert final["job"]["status"] == "failed"
            assert "DivergenceError" in final["job"]["error"]
        finally:
            stack.close()

    def test_retired_buffer_pool_key_accepted_and_ignored(self):
        from repro.service.protocol import RuntimeOverrides, parse_runtime

        overrides = parse_runtime({"workers": 2, "buffer_pool": False})
        assert overrides == RuntimeOverrides(workers=2)
        assert overrides.proxy_config() == RuntimeOverrides().proxy_config()


class _GatedLock:
    """A lock that makes the second contender's turn observable.

    ``waiting`` is set once a second thread blocks on the lock.  The first
    holder, on release, waits until that second thread has released it too,
    so whatever the first holder does *after* its critical section happens
    strictly after the second thread's whole critical section.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._first = None
        self.waiting = threading.Event()
        self.second_done = threading.Event()

    def __enter__(self):
        if self._first is None:
            self._first = threading.get_ident()
        else:
            self.waiting.set()
        self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
        if threading.get_ident() == self._first:
            assert self.second_done.wait(timeout=30)
        else:
            self.second_done.set()


class TestRankConcurrency:
    def test_concurrent_identical_ranks_execute_once(self, tmp_path, monkeypatch):
        import repro.service.api as api_module

        engine = Engine(_artifacts(), SCALES["smoke"], cache_enabled=False)
        api = ServiceAPI(ServiceDB(tmp_path / "registry.sqlite"), engine)
        api._rank_lock = lock = _GatedLock()
        entered, release = threading.Event(), threading.Event()
        calls = []
        real_execute = api_module.execute_job

        def gated_execute(*args):
            calls.append(args)
            if len(calls) == 1:
                entered.set()
                assert release.wait(timeout=30)
            return real_execute(*args)

        monkeypatch.setattr(api_module, "execute_job", gated_execute)
        payload = {"task": _task_spec(), "options": {"top_k": 1}}
        bodies = []

        def post():
            bodies.append(api.handle_rank(payload, None)[1])

        first = threading.Thread(target=post)
        first.start()
        assert entered.wait(timeout=30)
        second = threading.Thread(target=post)
        second.start()
        # Both requests missed the registry; the second now queues on the
        # lock while the first is still ranking.
        assert lock.waiting.wait(timeout=30)
        release.set()
        first.join(timeout=60)
        second.join(timeout=60)
        assert not first.is_alive() and not second.is_alive()
        assert len(calls) == 1
        assert sorted(body["deduped"] for body in bodies) == [False, True]
        # json round-trip: the registry copy holds lists, the fresh one tuples.
        first_result, second_result = (
            json.loads(json.dumps(body["result"])) for body in bodies
        )
        assert first_result == second_result


class TestTransport:
    def test_keep_alive_responses_not_held_by_nagle(self, service):
        import http.client
        import socket

        # Record every connection the server accepts.
        server = service.api._server
        accepted = []
        real_get_request = server.get_request

        def get_request():
            connection, address = real_get_request()
            accepted.append(connection)
            return connection, address

        server.get_request = get_request
        client = http.client.HTTPConnection(service.api.host, service.api.port)
        try:
            for _ in range(3):  # one keep-alive connection, several responses
                client.request("GET", "/health")
                response = client.getresponse()
                assert response.status == 200
                json.loads(response.read())
            assert accepted
            # Headers and body are separate writes; with Nagle on, the body
            # of every keep-alive response waits for the client's delayed ACK.
            assert all(
                connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                for connection in accepted
            )
        finally:
            client.close()


class TestCLISubmit:
    def test_cli_sync_rank_against_live_server(self, service, capsys):
        from repro.cli import main

        code = main(
            [
                "submit",
                "SZ-TAXI",
                "--sync",
                "--url",
                service.address,
                "--options",
                '{"top_k": 1}',
                "--tenant",
                "cli-user",
            ]
        )
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert not body["deduped"]
        assert len(body["result"]["candidates"]) == 1

    def test_cli_submit_wait_roundtrip(self, service, capsys):
        from repro.cli import main

        code = main(
            [
                "submit",
                "SZ-TAXI",
                "--kind",
                "collect",
                "--url",
                service.address,
                "--options",
                '{"n_samples": 2}',
                "--wait",
                "--poll",
                "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # First line is the submission echo; the rest is the result JSON.
        header, _, rest = out.partition("\n")
        assert "job " in header
        result = json.loads(rest)
        assert len(result["samples"]) == 2
