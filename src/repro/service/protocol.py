"""Wire protocol of the search service: payload schemas and fingerprints.

Everything that crosses the HTTP boundary is validated here, in one place,
so the API handler and the CLI ``repro submit`` client agree on the schema
and malformed payloads become a typed :class:`ProtocolError` (rendered as a
4xx) instead of a stack trace deep inside the engine.

Two design points matter beyond parsing:

* **Per-job runtime overrides.**  Knobs like ``$REPRO_DIVERGENCE_POLICY``
  used to be resolved from the parent process's environment when an
  evaluator or config was constructed — fine for a one-shot CLI, wrong for
  a multi-tenant daemon where two queued jobs may want different policies.
  :class:`RuntimeOverrides` carries those knobs *inside the job payload*;
  the engine resolves them per job at execution time (explicit payload
  value > daemon environment > default).
* **Content-addressed requests.**  :func:`request_fingerprint` hashes the
  score-relevant identity of a submission — job kind, task contents (via
  :func:`~repro.runtime.fingerprint.task_fingerprint_material`), options,
  the score-relevant runtime knobs, and the serving engine's identity.
  Two tenants submitting the same work dedupe to one computation; knobs
  that are provably score-inert (workers, retries, timeouts) are excluded
  so they cannot split the registry, mirroring the eval-cache keying in
  :mod:`repro.runtime.fingerprint`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..data.datasets import CTSData, list_datasets, non_finite_report, sanitize_values
from ..data.transforms import IMPUTATION_POLICIES
from ..runtime.evaluator import DIVERGENCE_POLICIES
from ..runtime.fingerprint import task_fingerprint_material
from ..space.archhyper import ArchHyper
from ..tasks.proxy import ProxyConfig
from ..tasks.task import Task
from ..utils.validation import ConfigError

PROTOCOL_VERSION = 1

JOB_KINDS = ("rank", "collect", "train")


class ProtocolError(ValueError):
    """A malformed or unsupported payload; rendered as an HTTP 4xx."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _require(payload: dict, key: str, kinds, where: str):
    """``payload[key]`` checked against ``kinds``; ProtocolError otherwise."""
    if key not in payload:
        raise ProtocolError(f"{where}: missing required field {key!r}")
    value = payload[key]
    if not isinstance(value, kinds):
        names = (
            "/".join(k.__name__ for k in kinds)
            if isinstance(kinds, tuple)
            else kinds.__name__
        )
        raise ProtocolError(
            f"{where}: field {key!r} must be {names}, got {type(value).__name__}"
        )
    return value


def _optional(payload: dict, key: str, kinds, where: str, default=None):
    if key not in payload or payload[key] is None:
        return default
    return _require(payload, key, kinds, where)


# ---------------------------------------------------------------------------
# Task specs: a registered dataset by name, or raw series shipped inline
# ---------------------------------------------------------------------------


def build_task(spec: dict) -> Task:
    """Materialize a :class:`~repro.tasks.task.Task` from a task spec.

    Two forms are accepted:

    * ``{"dataset": "SZ-TAXI", "p": 6, "q": 6, ...}`` — a registered
      benchmark dataset by name;
    * ``{"name": "...", "values": [[[...]]], "adjacency": [[...]], "p": ...}``
      — raw series shipped inline as nested lists ``(N, T, F)`` plus an
      ``(N, N)`` adjacency.

    Inline payloads may be *dirty*: ``NaN``/``null`` entries (both parse to
    NaN) are rejected with a typed 422 unless the spec requests an
    ``"imputation"`` policy (one of
    :data:`~repro.data.transforms.IMPUTATION_POLICIES`), in which case the
    bad entries are repaired and recorded in the task's observation mask.
    An explicit boolean ``"mask"`` (same nested shape, 1 = trusted
    observation) may also be shipped to mark entries that are finite but
    untrusted; it is ANDed with finiteness.

    Every validation failure (unknown dataset, bad shapes, non-finite data,
    too-short series) is re-raised as a :class:`ProtocolError`.
    """
    if not isinstance(spec, dict):
        raise ProtocolError("task spec must be a JSON object")
    p = _require(spec, "p", int, "task")
    q = _require(spec, "q", int, "task")
    single_step = _optional(spec, "single_step", bool, "task", False)
    max_train_windows = _optional(spec, "max_train_windows", int, "task")
    if "dataset" in spec:
        name = _require(spec, "dataset", str, "task")
        if name not in list_datasets():
            raise ProtocolError(f"task: unknown dataset {name!r}")
        from ..data.datasets import get_dataset

        data = get_dataset(name, seed=_optional(spec, "seed", int, "task", 0))
    elif "values" in spec:
        values = _require(spec, "values", list, "task")
        adjacency = _require(spec, "adjacency", list, "task")
        name = _optional(spec, "name", str, "task", "inline")
        imputation = _optional(spec, "imputation", str, "task")
        if imputation is not None and imputation not in IMPUTATION_POLICIES:
            raise ProtocolError(
                f"task: unknown imputation policy {imputation!r}; "
                f"expected one of {IMPUTATION_POLICIES}"
            )
        try:
            values_arr = np.asarray(values, dtype=np.float32)
            adjacency_arr = np.asarray(adjacency, dtype=np.float32)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"task: non-numeric series payload ({exc})") from exc
        mask_arr = None
        if _optional(spec, "mask", list, "task") is not None:
            try:
                mask_arr = np.asarray(spec["mask"]).astype(bool)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"task: non-boolean mask payload ({exc})") from exc
            if mask_arr.shape != values_arr.shape:
                raise ProtocolError(
                    f"task: mask shape {mask_arr.shape} does not match "
                    f"values shape {values_arr.shape}"
                )
        report = non_finite_report(values_arr)
        if report is not None:
            # json NaN literals and nulls both land here as NaN.  Refusing
            # them without an explicit policy is deliberate: the alternative
            # is parser-dependent, silently-zero-filled garbage.
            if imputation is None:
                raise ProtocolError(
                    f"task: series payload has NaN/null entries "
                    f"({report.describe()}); request task.imputation "
                    f"(one of {IMPUTATION_POLICIES}) to repair them",
                    status=422,
                )
            with np.errstate(invalid="ignore"):
                finite = np.isfinite(values_arr)
            mask_arr = finite if mask_arr is None else (mask_arr & finite)
            values_arr, _ = sanitize_values(
                values_arr,
                name,
                on_non_finite="impute",
                policy=imputation,
                mask=mask_arr,
            )
        try:
            data = CTSData(
                name=name,
                values=values_arr,
                adjacency=adjacency_arr,
                domain=_optional(spec, "domain", str, "task", "service"),
                mask=mask_arr,
            )
        except ValueError as exc:  # includes NonFiniteDataError
            raise ProtocolError(f"task: invalid series payload ({exc})") from exc
    else:
        raise ProtocolError("task: needs either 'dataset' or inline 'values'")
    try:
        return Task(
            data=data,
            p=p,
            q=q,
            single_step=single_step,
            max_train_windows=max_train_windows,
        )
    except ValueError as exc:
        raise ProtocolError(f"task: {exc}") from exc


# ---------------------------------------------------------------------------
# Per-job runtime overrides
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeOverrides:
    """Evaluator/trainer knobs carried in the job payload.

    ``None`` means "not specified": the engine falls back to *its own*
    environment at execution time, exactly like the CLI resolvers do.  An
    explicit value always wins over the daemon's environment — that is the
    point of threading these through the payload rather than reading
    ``$REPRO_*`` in the parent once at startup.
    """

    workers: int | None = None
    divergence_policy: str | None = None
    max_retries: int | None = None
    eval_timeout: float | None = None
    proxy_epochs: int | None = None
    proxy_batch_size: int | None = None
    proxy_lr: float | None = None
    proxy_seed: int | None = None
    # Successive-halving collection (docs/fidelity.md): an
    # ``eta:rungs:min-epochs`` spec and the label policy for sub-full-fidelity
    # scores.  Score-MATERIAL — a scheduled collect measures different
    # (candidate, fidelity) pairs than a flat one — so both land in request
    # fingerprints (conditionally, to keep no-schedule fingerprints stable).
    fidelity_schedule: str | None = None
    fidelity_label_policy: str | None = None

    def proxy_config(self) -> ProxyConfig:
        """The per-job :class:`ProxyConfig`, overrides applied over defaults."""
        base = ProxyConfig()
        return ProxyConfig(
            epochs=self.proxy_epochs if self.proxy_epochs is not None else base.epochs,
            batch_size=(
                self.proxy_batch_size
                if self.proxy_batch_size is not None
                else base.batch_size
            ),
            lr=self.proxy_lr if self.proxy_lr is not None else base.lr,
            seed=self.proxy_seed if self.proxy_seed is not None else base.seed,
        )

    def score_material(self) -> dict:
        """The score-*relevant* subset, for request fingerprints.

        Workers, retries, and timeouts are score-inert (bitwise-identical
        results, enforced by the runtime suites), so they are deliberately
        absent: a tenant asking for 4 workers must dedupe against a tenant
        asking for 1.  The fidelity schedule IS score-relevant, but its keys
        are included only when set, so every schedule-free request
        fingerprint stays byte-identical to its pre-fidelity value.
        """
        material = {
            "divergence_policy": self.divergence_policy,
            "proxy_epochs": self.proxy_epochs,
            "proxy_batch_size": self.proxy_batch_size,
            "proxy_lr": self.proxy_lr,
            "proxy_seed": self.proxy_seed,
        }
        if self.fidelity_schedule is not None:
            from ..runtime.fidelity import (
                parse_fidelity_schedule,
                resolve_label_policy,
            )

            # Canonicalize so "3:3:1" and "3 : 3 : 1" (and an explicit vs
            # defaulted label policy) dedupe to one computation.
            material["fidelity_schedule"] = parse_fidelity_schedule(
                self.fidelity_schedule
            ).spec()
            material["fidelity_label_policy"] = resolve_label_policy(
                self.fidelity_label_policy
            )
        return material


def parse_runtime(payload: dict | None) -> RuntimeOverrides:
    """Validate the ``runtime`` section of a submission.

    Keys other than the :class:`RuntimeOverrides` fields are ignored, so
    payloads from older clients (e.g. one still carrying the retired
    buffer-pooling switch; training always pools now) are accepted and
    dedupe with new ones.
    """
    if payload is None:
        return RuntimeOverrides()
    if not isinstance(payload, dict):
        raise ProtocolError("runtime: must be a JSON object")
    policy = _optional(payload, "divergence_policy", str, "runtime")
    if policy is not None and policy not in DIVERGENCE_POLICIES:
        raise ProtocolError(
            f"runtime: unknown divergence_policy {policy!r}; "
            f"expected one of {DIVERGENCE_POLICIES}"
        )
    fidelity_schedule = _optional(payload, "fidelity_schedule", str, "runtime")
    if fidelity_schedule is not None:
        from ..runtime.fidelity import parse_fidelity_schedule

        try:
            parse_fidelity_schedule(fidelity_schedule)
        except ConfigError as exc:
            raise ProtocolError(f"runtime: {exc}") from exc
    label_policy = _optional(payload, "fidelity_label_policy", str, "runtime")
    if label_policy is not None:
        from ..runtime.fidelity import LABEL_POLICIES

        if label_policy not in LABEL_POLICIES:
            raise ProtocolError(
                f"runtime: unknown fidelity_label_policy {label_policy!r}; "
                f"expected one of {LABEL_POLICIES}"
            )
    overrides = RuntimeOverrides(
        workers=_optional(payload, "workers", int, "runtime"),
        divergence_policy=policy,
        max_retries=_optional(payload, "max_retries", int, "runtime"),
        eval_timeout=_optional(payload, "eval_timeout", (int, float), "runtime"),
        proxy_epochs=_optional(payload, "proxy_epochs", int, "runtime"),
        proxy_batch_size=_optional(payload, "proxy_batch_size", int, "runtime"),
        proxy_lr=_optional(payload, "proxy_lr", (int, float), "runtime"),
        proxy_seed=_optional(payload, "proxy_seed", int, "runtime"),
        fidelity_schedule=fidelity_schedule,
        fidelity_label_policy=label_policy,
    )
    try:
        # ProxyConfig validates its numerics at construction (ConfigError);
        # surface a bad proxy_epochs/lr as a 400 at submit time, not as a
        # failed job deep inside the daemon.
        overrides.proxy_config()
    except ConfigError as exc:
        raise ProtocolError(f"runtime: {exc}") from exc
    return overrides


# ---------------------------------------------------------------------------
# Submissions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobRequest:
    """One validated submission, ready for the registry and the engine."""

    kind: str
    task_spec: dict
    options: dict = field(default_factory=dict)
    runtime: RuntimeOverrides = field(default_factory=RuntimeOverrides)
    tenant: str = "anonymous"

    def build_task(self) -> Task:
        """The materialized task, built once and memoized.

        Inline payloads can be tens of megabytes; validation at parse
        time, fingerprinting, and execution must all see one build, not
        three.  Sound to memoize because the spec is immutable once the
        request is constructed.
        """
        task = self.__dict__.get("_task")
        if task is None:
            task = build_task(self.task_spec)
            object.__setattr__(self, "_task", task)
        return task


def parse_submit(payload, tenant: str | None = None) -> JobRequest:
    """Validate a ``POST /jobs`` (or ``POST /rank``) body into a request.

    ``tenant`` (e.g. from an ``X-Repro-Tenant`` header) beats any tenant
    field inside the payload.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("submission must be a JSON object")
    kind = _require(payload, "kind", str, "submission")
    if kind not in JOB_KINDS:
        raise ProtocolError(
            f"submission: unknown kind {kind!r}; expected one of {JOB_KINDS}"
        )
    task_spec = _require(payload, "task", dict, "submission")
    options = _optional(payload, "options", dict, "submission", {})
    runtime = parse_runtime(payload.get("runtime"))
    if tenant is None:
        tenant = _optional(payload, "tenant", str, "submission", "anonymous")
    if kind == "train":
        arch_hyper = options.get("arch_hyper")
        if not isinstance(arch_hyper, dict):
            raise ProtocolError(
                "submission: kind 'train' needs options.arch_hyper (an "
                "ArchHyper dict from a previous ranking)"
            )
        try:
            ArchHyper.from_dict(arch_hyper)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"submission: invalid options.arch_hyper ({exc})"
            ) from exc
    request = JobRequest(
        kind=kind,
        task_spec=task_spec,
        options=dict(options),
        runtime=runtime,
        tenant=tenant,
    )
    # Fail fast on task problems at submit time, not in the daemon; the
    # built task stays memoized on the request for fingerprint/execution.
    request.build_task()
    return request


# ---------------------------------------------------------------------------
# Content-addressed request identity
# ---------------------------------------------------------------------------


def task_fingerprint(task: Task) -> str:
    """Content address of one task (hex SHA-256 over its data digests)."""
    material = task_fingerprint_material(task)
    payload = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def request_fingerprint(request: JobRequest, engine_fingerprint: str) -> str:
    """Content address of one submission (hex SHA-256).

    Hashes everything that determines the *result*: the job kind, the task's
    contents (data digests, not just names), the job options, the
    score-relevant runtime overrides, and the identity of the serving engine
    (its pre-trained weights).  Tenant identity and score-inert runtime
    knobs are excluded — that is what makes cross-tenant dedup sound.
    """
    task = request.build_task()
    material = {
        "protocol": PROTOCOL_VERSION,
        "kind": request.kind,
        "task": task_fingerprint_material(task),
        "options": request.options,
        "runtime": request.runtime.score_material(),
        "engine": engine_fingerprint,
    }
    payload = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
