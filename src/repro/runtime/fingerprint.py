"""Stable fingerprints for proxy evaluations.

A fingerprint is the content address of one ``R'(ah)`` measurement: it
captures everything that determines the score — the arch-hyper encoding, the
task identity (dataset contents and forecasting setting), and the
:class:`~repro.tasks.proxy.ProxyConfig`.  Two evaluations with the same
fingerprint are guaranteed to produce bitwise-identical scores, which is what
makes the on-disk cache and the cross-backend determinism guarantee sound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace

import numpy as np

from ..space.archhyper import ArchHyper
from ..tasks.proxy import ProxyConfig
from ..tasks.task import Task

# Bump whenever the semantics of measure_arch_hyper or of this keying change;
# old cache entries then simply stop matching.
# v2: im2col conv kernels reorder the gemm reductions, shifting proxy scores
# within float tolerance — cached v1 scores no longer match the new kernels.
CACHE_KEY_VERSION = 2


def _array_digest(array: np.ndarray) -> str:
    """SHA-256 over an array's shape, dtype, and raw bytes."""
    hasher = hashlib.sha256()
    hasher.update(str(array.shape).encode())
    hasher.update(array.dtype.str.encode())
    hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def task_fingerprint_material(task: Task) -> dict:
    """The JSON-able identity of a task, including its data contents.

    Hashing the values/adjacency arrays (not just the dataset name) means
    regenerating a synthetic dataset with a different seed, or enriching it
    into a different subset, invalidates cached scores automatically.
    """
    data = task.data
    material = {
        "dataset": data.name,
        "domain": data.domain,
        "steps_per_day": data.steps_per_day,
        "values_sha256": _array_digest(data.values),
        "adjacency_sha256": _array_digest(data.adjacency),
        "p": task.p,
        "q": task.q,
        "single_step": task.single_step,
        "split_ratio": list(task.split_ratio),
        "max_train_windows": task.max_train_windows,
    }
    # The observation mask changes scaler statistics, the loss, and the
    # metrics, so it is score-relevant; the key is added only when a mask is
    # present so every pre-existing clean-task fingerprint stays unchanged.
    if data.mask is not None:
        material["mask_sha256"] = _array_digest(data.mask)
    return material


def proxy_fingerprint(
    arch_hyper: ArchHyper, task: Task, config: ProxyConfig
) -> str:
    """Content address of one proxy evaluation (hex SHA-256)."""
    proxy_material = asdict(config)
    # warm_dir is score-inert: a warm continuation is bitwise-identical
    # to a fresh run of the same fidelity (enforced by tests).
    proxy_material.pop("warm_dir", None)
    # The fidelity budget IS score-material — a k'-epoch score is a different
    # measurement than a k-epoch one — but the key is included only when the
    # fidelity is actually partial, so every full-fidelity fingerprint stays
    # byte-identical to its pre-fidelity value (same conditional-inclusion
    # pattern as mask_sha256 above).
    fidelity = proxy_material.pop("fidelity_epochs", None)
    if fidelity is not None and fidelity < config.epochs:
        proxy_material["fidelity_epochs"] = int(fidelity)
    material = {
        "key_version": CACHE_KEY_VERSION,
        "arch_hyper": arch_hyper.to_dict(),
        "task": task_fingerprint_material(task),
        "proxy": proxy_material,
    }
    payload = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def warm_lineage_fingerprint(
    arch_hyper: ArchHyper, task: Task, config: ProxyConfig
) -> str:
    """Fidelity-independent identity of one candidate's training lineage.

    Every fidelity rung of the same ``(ah, task, config)`` shares one
    training trajectory — the partial runs are literal prefixes of the full
    one — so warm-resume snapshots are keyed by the fingerprint with the
    fidelity axis stripped.  By construction this equals the plain
    full-fidelity :func:`proxy_fingerprint`.
    """
    return proxy_fingerprint(
        arch_hyper, task, replace(config, fidelity_epochs=None, warm_dir=None)
    )
