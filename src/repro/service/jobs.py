"""Job executors: what one claimed registry job actually runs.

One function per job kind, all funnelled through :func:`execute_job` so the
daemon, the synchronous API path, and tests execute the *same* code — the
only difference between ``POST /rank`` (synchronous) and ``POST /jobs``
(queued) is who calls this module, not what it does.

Every execution happens inside a fresh :func:`~repro.obs.metrics_scope`
whose registry has the ambient one as parent: increments flow upward to the
process totals while the job keeps its own delta snapshot, which the daemon
persists into the registry row (``GET /jobs/<id>`` streams it as progress).
"""

from __future__ import annotations

from ..obs import MetricsRegistry, get_registry, metrics_scope, span
from ..runtime import EvalProgress
from ..space.archhyper import ArchHyper
from .engine import Engine
from .protocol import JobRequest, ProtocolError, task_fingerprint

# Checkpoint kinds per job kind; mismatched files are discarded, not resumed.
_CHECKPOINT_KINDS = {"rank": "evolution", "collect": "eval-progress"}


class JobResult:
    """The body of one finished job plus its metric delta."""

    __slots__ = ("body", "metrics")

    def __init__(self, body: dict, metrics: dict) -> None:
        self.body = body
        self.metrics = metrics


def _int_option(options: dict, key: str, default: int | None) -> int | None:
    value = options.get(key, default)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"options: {key!r} must be an integer")
    return value


def _run_rank(engine: Engine, request: JobRequest, fingerprint: str) -> dict:
    task = request.build_task()
    checkpoint = engine.job_checkpoint(fingerprint, _CHECKPOINT_KINDS["rank"])
    outcome = engine.rank_task(
        task,
        task_fingerprint(task),
        seed=_int_option(request.options, "seed", 0),
        top_k=_int_option(request.options, "top_k", None),
        initial_samples=_int_option(request.options, "initial_samples", None),
        checkpoint=checkpoint,
    )
    if checkpoint is not None:
        checkpoint.clear()
    return outcome.to_dict()


def _run_collect(engine: Engine, request: JobRequest, fingerprint: str) -> dict:
    task = request.build_task()
    checkpoint = engine.job_checkpoint(fingerprint, _CHECKPOINT_KINDS["collect"])
    progress = EvalProgress(checkpoint) if checkpoint is not None else None
    candidates, scores, fidelities = engine.collect_scores(
        task,
        request.runtime,
        n_samples=_int_option(request.options, "n_samples", 8),
        seed=_int_option(request.options, "seed", 0),
        progress=progress,
    )
    if progress is not None:
        progress.clear()
    samples = [
        {"arch_hyper": ah.to_dict(), "score": float(score)}
        for ah, score in zip(candidates, scores)
    ]
    body = {"task": task.name, "samples": samples}
    if fidelities is not None:
        # A fidelity-scheduled collect tags each score with the epoch budget
        # it was measured at; the key is absent on flat collects so their
        # result bodies stay byte-identical to pre-fidelity ones.
        for sample, fidelity in zip(samples, fidelities):
            sample["fidelity_epochs"] = int(fidelity)
        body["fidelity_schedule"] = request.runtime.fidelity_schedule
    return body


def _run_train(engine: Engine, request: JobRequest, fingerprint: str) -> dict:
    task = request.build_task()
    arch_hyper = ArchHyper.from_dict(request.options["arch_hyper"])
    return engine.train_artifact(
        arch_hyper,
        task,
        fingerprint,
        epochs=_int_option(request.options, "epochs", None),
        seed=_int_option(request.options, "seed", 0),
    )


_EXECUTORS = {"rank": _run_rank, "collect": _run_collect, "train": _run_train}


def execute_job(engine: Engine, request: JobRequest, fingerprint: str) -> JobResult:
    """Run one validated request to completion and return its result body.

    Raises whatever the underlying executor raises — the *caller* decides
    what an exception means (the daemon marks the job failed; the
    synchronous API renders a 500; an injected ``KeyboardInterrupt`` in
    tests kills the worker with the job still 'running', which is exactly
    the crash the recovery path must handle).
    """
    executor = _EXECUTORS.get(request.kind)
    if executor is None:
        raise ProtocolError(f"unknown job kind {request.kind!r}")
    with metrics_scope(MetricsRegistry(parent=get_registry())) as registry:
        with span("execute", kind=request.kind, tenant=request.tenant):
            body = executor(engine, request, fingerprint)
        return JobResult(body, registry.snapshot())
