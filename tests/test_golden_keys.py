"""Golden content addresses: the eval-cache and service-registry keys.

Every cached proxy score is keyed by :func:`proxy_fingerprint`, and every
service result by :func:`request_fingerprint`.  A refactor that changes
either key without bumping ``CACHE_KEY_VERSION`` / ``PROTOCOL_VERSION``
silently splits the cache or the registry: nothing fails, work is merely
redone.  These tests pin one key of each kind to a fixed hex string, so such
a change has to be deliberate (update the constants here together with the
version bump).
"""

import numpy as np

from repro.experiments import target_task
from repro.experiments.config import SMOKE
from repro.runtime.fingerprint import proxy_fingerprint
from repro.service import parse_submit, request_fingerprint
from repro.space import ArchHyper
from repro.tasks.proxy import ProxyConfig

ARCH_HYPER = {
    "arch": {
        "num_nodes": 3,
        "edges": [[0, 1, "inf_s"], [0, 2, "gdcc"], [1, 2, "gdcc"]],
    },
    "hyper": {"B": 1, "C": 3, "H": 8, "I": 8, "U": 1, "delta": 0},
}

ENGINE = "0" * 64


def _task_spec():
    values = np.arange(4 * 40, dtype=np.float32).reshape(4, 40, 1) % 7
    return {
        "name": "golden",
        "values": values.tolist(),
        "adjacency": np.eye(4).tolist(),
        "p": 6,
        "q": 3,
    }


def test_proxy_fingerprint_pinned():
    task = target_task(SMOKE, "SZ-TAXI", SMOKE.settings[0])
    arch_hyper = ArchHyper.from_dict(ARCH_HYPER)
    assert proxy_fingerprint(arch_hyper, task, ProxyConfig()) == (
        "f59cb4e4a609c82cf06b2490ea7edaaeea5060dd2ba5c5b4403cbb603d36e6bc"
    )


def test_rank_request_fingerprint_pinned():
    request = parse_submit(
        {"kind": "rank", "task": _task_spec(), "options": {"top_k": 2}}
    )
    assert request_fingerprint(request, ENGINE) == (
        "1223b073ab8a2cbe74f810d0c1152cdf79bfad54e49494e4700da5f4da0dd956"
    )


def test_collect_request_fingerprint_pinned():
    # Score-inert runtime keys — workers, and the retired buffer-pooling
    # switch older clients still send — must not move the key.
    expected = "0051ebac06cd04aba087797d01bd6b5f887cc5ab61ab5ec9636bb406c8999a7c"
    base = {"kind": "collect", "task": _task_spec(), "options": {"n_samples": 2}}
    for runtime in (
        {"proxy_epochs": 2},
        {"proxy_epochs": 2, "workers": 2, "buffer_pool": False},
    ):
        request = parse_submit({**base, "runtime": runtime})
        assert request_fingerprint(request, ENGINE) == expected
