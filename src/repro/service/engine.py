"""The :class:`Engine` facade: one code path for the CLI and the daemon.

Before the service existed, the CLI wired pre-trained artifacts, the proxy
evaluator, checkpoints, and the ranking engine together inline in
``_cmd_search``.  The daemon needs the same wiring, and a drift between the
two would silently break the service's core guarantee — that a ranking
served over HTTP is bitwise-identical to the same search run locally.  The
Engine owns that wiring once:

* **rank** — zero-shot candidate ranking (Algorithm 2 phases 1–2) with a
  per-task :class:`~repro.comparator.scoring.RankingEngine` cached across
  requests, so a task asked about twice re-encodes nothing,
* **search** — the full pipeline (rank + final training), which is what
  ``repro search`` runs,
* **collect** — proxy-label sample collection through the
  :class:`~repro.runtime.ProxyEvaluator`, checkpointed and resumable,
* **train** — a fully trained forecaster persisted as an on-disk artifact.

Per-job runtime overrides (see
:class:`~repro.service.protocol.RuntimeOverrides`) are resolved here, at
execution time: an explicit payload value beats the daemon's environment,
which beats the defaults — so two queued jobs can run under different
divergence policies or pool settings without anyone mutating ``os.environ``.

The engine's :attr:`fingerprint` digests its pre-trained weights; request
fingerprints include it so the result registry can never serve a ranking
produced by a different comparator.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..comparator.scoring import RankingEngine
from ..obs import get_registry, span
from ..runtime import (
    Checkpoint,
    EvalCache,
    EvalProgress,
    ProxyEvaluator,
    resolve_retry_policy,
)
from ..space.archhyper import ArchHyper
from ..tasks.task import Task
from .protocol import RuntimeOverrides

if TYPE_CHECKING:
    from ..experiments.config import ExperimentScale
    from ..experiments.harness import PretrainedArtifacts
    from ..search.zero_shot import ZeroShotResult


def _digest_arrays(hasher, arrays: dict) -> None:
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        hasher.update(name.encode())
        hasher.update(str(value.shape).encode())
        hasher.update(value.dtype.str.encode())
        hasher.update(value.tobytes())


def artifacts_fingerprint(artifacts: "PretrainedArtifacts") -> str:
    """SHA-256 over the pre-trained weights that shape every ranking.

    The comparator's parameters and (when the embedder is trainable) the
    embedder's parameters fully determine a rank result for a given task,
    so this digest is what makes registry entries portable across daemon
    restarts: same weights, same fingerprint, same cached results.
    """
    hasher = hashlib.sha256()
    hasher.update(artifacts.variant.encode())
    _digest_arrays(hasher, artifacts.model.state_dict())
    embedder = artifacts.embedder
    state_dict = getattr(embedder, "state_dict", None)
    if callable(state_dict):
        _digest_arrays(hasher, state_dict())
    else:
        encoder = getattr(embedder, "encoder", None)
        if encoder is not None and callable(getattr(encoder, "state_dict", None)):
            _digest_arrays(hasher, encoder.state_dict())
    return hasher.hexdigest()


class RankOutcome:
    """The result of one zero-shot rank: candidates best-first."""

    __slots__ = ("candidates", "comparisons", "task_name")

    def __init__(
        self, candidates: list[ArchHyper], comparisons: int, task_name: str
    ) -> None:
        self.candidates = candidates
        self.comparisons = comparisons
        self.task_name = task_name

    def to_dict(self) -> dict:
        return {
            "task": self.task_name,
            "comparisons": self.comparisons,
            "candidates": [ah.to_dict() for ah in self.candidates],
        }


class Engine:
    """Facade over evaluator, checkpointing, and ranking for one artifact set.

    Args:
        artifacts: pre-trained T-AHC artifacts (model + embedder + space).
        scale: the :class:`~repro.experiments.config.ExperimentScale` whose
            evolution/training knobs parameterize searches.
        checkpoint_dir: where per-job progress checkpoints live; ``None``
            disables checkpointing.
        artifact_dir: where trained-forecaster artifacts are saved.
        eval_fn: override of the proxy evaluation function (tests inject
            cheap or faulty evaluations here; must be module-level picklable
            for pooled jobs).
        cache_dir: proxy score-cache directory (``None``: the default);
            ``cache_enabled=False`` disables the cache entirely.
        rank_cache_size: how many per-task ranking caches to keep (LRU).
            Each entry holds a task's preliminary embedding plus every
            candidate embedding computed for it, so a long-running daemon
            accepting arbitrary inline tasks must bound it; eviction is
            safe because entries are pure caches rebuilt bitwise-identically.
    """

    def __init__(
        self,
        artifacts: "PretrainedArtifacts",
        scale: "ExperimentScale",
        checkpoint_dir: str | Path | None = None,
        artifact_dir: str | Path | None = None,
        eval_fn: Callable | None = None,
        cache_dir: str | Path | None = None,
        cache_enabled: bool = True,
        rank_cache_size: int = 8,
    ) -> None:
        self.artifacts = artifacts
        self.scale = scale
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.artifact_dir = Path(artifact_dir) if artifact_dir else None
        self.eval_fn = eval_fn
        self.cache_dir = cache_dir
        self.cache_enabled = cache_enabled
        self.rank_cache_size = max(1, rank_cache_size)
        self.fingerprint = artifacts_fingerprint(artifacts)
        # task fingerprint -> (preliminary embedding, RankingEngine); the
        # encode-once-across-requests cache.  Sound because the comparator's
        # weights are frozen for the engine's lifetime (inference only) and
        # memoized embeddings are bitwise-identical to fresh ones (PR-4).
        self._rank_cache: OrderedDict[str, tuple[np.ndarray, RankingEngine]] = (
            OrderedDict()
        )
        # Serializes every rank no matter who calls (API thread, daemon
        # worker, CLI): the cached RankingEngines are stateful and all share
        # one comparator model whose train/eval mode they toggle, so
        # concurrent ranks would corrupt cached embeddings and break the
        # bitwise-determinism guarantee.
        self._rank_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Evaluator construction (per-job overrides resolved here)
    # ------------------------------------------------------------------
    def evaluator_for(self, runtime: RuntimeOverrides) -> ProxyEvaluator:
        """A :class:`ProxyEvaluator` honoring the job's explicit overrides.

        Resolution order for every knob: job payload > this process's
        environment > default — the environment is consulted *now*, inside
        the resolver, not frozen at daemon startup.
        """
        cache = (
            EvalCache(self.cache_dir) if self.cache_enabled else None
        )
        return ProxyEvaluator(
            workers=runtime.workers,
            cache=cache,
            eval_fn=self.eval_fn,
            retry_policy=resolve_retry_policy(
                runtime.max_retries, runtime.eval_timeout
            ),
            divergence_policy=runtime.divergence_policy,
        )

    def job_checkpoint(self, request_fingerprint: str, kind: str) -> Checkpoint | None:
        """The progress checkpoint of one job, addressed by its request.

        Content-addressing the path means a requeued or recovered job finds
        exactly its own progress, and two deduped submissions share one
        file.
        """
        if self.checkpoint_dir is None:
            return None
        return Checkpoint(
            self.checkpoint_dir / f"job-{request_fingerprint[:24]}.ckpt",
            kind=kind,
            meta={"request": request_fingerprint},
        )

    # ------------------------------------------------------------------
    # Zero-shot ranking (the service hot path)
    # ------------------------------------------------------------------
    def _searcher(self, seed: int, top_k: int | None, initial_samples: int | None):
        from ..experiments.harness import make_searcher

        return make_searcher(
            self.artifacts,
            self.scale,
            seed=seed,
            initial_samples=initial_samples,
            top_k=top_k,
        )

    def rank_task(
        self,
        task: Task,
        task_fingerprint: str,
        seed: int = 0,
        top_k: int | None = None,
        initial_samples: int | None = None,
        checkpoint: Checkpoint | None = None,
    ) -> RankOutcome:
        """Algorithm 2 phases 1–2: embed the task, rank candidates under it.

        The preliminary embedding and the task-conditioned ranking engine
        are cached by ``task_fingerprint`` (bounded LRU of
        ``rank_cache_size`` tasks), so repeated requests about one task
        reuse every GIN encoding computed so far (bitwise-identical to
        recomputing; only the encoder-forward count changes).  The whole
        rank runs under the engine's lock — see ``_rank_lock``.
        """
        started = time.perf_counter()
        registry = get_registry()
        try:
            with self._rank_lock, span("engine-rank", task=task.name):
                searcher = self._searcher(seed, top_k, initial_samples)
                cached = self._rank_cache.get(task_fingerprint)
                if cached is None:
                    registry.counter("engine.rank_cache.misses").inc()
                    preliminary = searcher.embed_task(task)
                    ranking_engine = RankingEngine(
                        self.artifacts.model,
                        preliminary=preliminary,
                        space=self.artifacts.space.hyper_space,
                    )
                    self._rank_cache[task_fingerprint] = (preliminary, ranking_engine)
                    while len(self._rank_cache) > self.rank_cache_size:
                        self._rank_cache.popitem(last=False)
                else:
                    registry.counter("engine.rank_cache.hits").inc()
                    self._rank_cache.move_to_end(task_fingerprint)
                    preliminary, ranking_engine = cached
                top, comparisons = searcher.rank(
                    preliminary, checkpoint=checkpoint, engine=ranking_engine
                )
                return RankOutcome(top, comparisons, task.name)
        finally:
            registry.histogram("service.rank.seconds").observe(
                time.perf_counter() - started
            )

    def search_task(
        self, task: Task, seed: int = 0, resume: bool = False
    ) -> "ZeroShotResult":
        """The full zero-shot pipeline (rank + final training) — the
        ``repro search`` path, shared with benchmarks via
        :func:`~repro.experiments.harness.run_zero_shot`."""
        from ..experiments.harness import run_zero_shot

        started = time.perf_counter()
        try:
            with span("engine-search", task=task.name):
                return run_zero_shot(
                    self.artifacts,
                    task,
                    self.scale,
                    seed=seed,
                    checkpoint_dir=self.checkpoint_dir,
                    resume=resume,
                )
        finally:
            get_registry().histogram("service.search.seconds").observe(
                time.perf_counter() - started
            )

    # ------------------------------------------------------------------
    # Long-running work (daemon jobs)
    # ------------------------------------------------------------------
    def collect_scores(
        self,
        task: Task,
        runtime: RuntimeOverrides,
        n_samples: int,
        seed: int = 0,
        progress: EvalProgress | None = None,
    ) -> tuple[list[ArchHyper], list[float], list[int] | None]:
        """Measure ``n_samples`` sampled arch-hypers on ``task`` (proxy labels).

        The sample-collection primitive behind comparator pre-training,
        exposed as a service job: candidates are drawn deterministically
        from ``seed``, scored through the evaluator (with per-job runtime
        overrides), and checkpointed score-by-score so a killed daemon
        resumes bitwise-identically.

        With a ``runtime.fidelity_schedule`` the sweep runs as a
        successive-halving ladder (``docs/fidelity.md``); the returned
        fidelity list tags the epoch budget each score was measured at.
        Without one, fidelities are ``None`` and the path is byte-identical
        to the flat pipeline.
        """
        space = self.artifacts.space
        candidates = space.sample_batch(n_samples, np.random.default_rng(seed))
        evaluator = self.evaluator_for(runtime)
        pairs = [(ah, task) for ah in candidates]
        config = runtime.proxy_config()
        if runtime.fidelity_schedule is None:
            scores = evaluator.evaluate_pairs(pairs, config, progress=progress)
            return candidates, scores, None
        warm_dir = (
            str(self.checkpoint_dir / "warm")
            if self.checkpoint_dir is not None
            else None
        )
        result = evaluator.evaluate_rungs(
            pairs,
            config,
            schedule=runtime.fidelity_schedule,
            progress=progress,
            warm_dir=warm_dir,
        )
        return candidates, result.scores, result.fidelities

    def train_artifact(
        self,
        arch_hyper: ArchHyper,
        task: Task,
        request_fingerprint: str,
        epochs: int | None = None,
        seed: int = 0,
    ) -> dict:
        """Fully train one arch-hyper and persist it as a content-addressed
        artifact directory; returns artifact metadata + test scores."""
        from ..core.model import build_forecaster
        from ..core.trainer import TrainConfig, evaluate_forecaster, train_forecaster
        from ..io import save_forecaster

        prepared = task.prepared
        model = build_forecaster(arch_hyper, task.data, task.horizon, seed=seed)
        config = TrainConfig(
            epochs=epochs if epochs is not None else self.scale.final_train_epochs,
            batch_size=self.scale.batch_size,
            seed=seed,
        )
        result = train_forecaster(model, prepared.train, prepared.val, config)
        scores = evaluate_forecaster(
            model, prepared.test, config.batch_size, inverse=prepared.inverse
        )
        payload = {
            "arch_hyper": arch_hyper.to_dict(),
            "task": task.name,
            "best_val_mae": result.best_val_mae,
            "best_epoch": result.best_epoch,
            "test_mae": scores.mae,
            "test_rmse": scores.rmse,
            "test_mape": scores.mape,
        }
        if self.artifact_dir is not None:
            directory = self.artifact_dir / f"model-{request_fingerprint[:24]}"
            save_forecaster(model, directory)
            payload["artifact"] = str(directory)
        return payload
