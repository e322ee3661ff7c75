"""Shape-keyed buffer pool: recycle activation/gradient arrays across steps.

Proxy training runs the *same* computation graph every step, so the set of
array shapes a forward/backward pass allocates is identical step after step.
Allocating those arrays fresh each step costs a trip through the allocator
(and, for the large activations, an ``mmap``/``munmap`` round trip plus page
faults on first touch).  :class:`BufferPool` is a small arena that
eliminates that churn:

* ops request output buffers via :func:`take_buffer`, keyed by
  ``(shape, dtype)``,
* every buffer handed out during one *step* (one forward + backward +
  optimizer update, delimited by :meth:`BufferPool.step`) stays live until
  the step context **exits** — at which point the step's graph is dead by
  contract and its buffers return to the free lists, to be reused by the
  next step.

Reclaiming at step exit (rather than one generation later) keeps the live
working set to a single step's buffers, so the same arrays — same
addresses, warm in cache, pages already faulted in — serve every step.

Safety contract (see ``docs/performance.md``):

* a pooled buffer is only ever used as the *fully overwritten* output of a
  numpy ufunc/gemm (``out=``), so recycled contents can never leak into a
  result — pooled and pool-free runs are **bitwise identical**,
* everything a caller needs from a step must be extracted *inside* the step
  context (scalars, or copies of arrays); once ``step()`` exits, any array
  produced within it may be recycled.
  :func:`~repro.core.trainer.train_forecaster` honors this by reading the
  loss value and stepping the optimizer within the step (parameter and
  optimizer-state arrays are ordinary allocations, never pooled),
* evaluation/inference paths never activate a pool, so arrays returned by
  ``predict`` are ordinary owned allocations.

The pool is thread-local: training always runs its steps under one, and
with no active pool (inference, evaluation) every op takes its original
allocation path untouched.
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque

import numpy as np

_state = threading.local()


def active_pool() -> "BufferPool | None":
    """The pool activated on this thread, or ``None``."""
    return getattr(_state, "pool", None)


@contextlib.contextmanager
def pool_paused():
    """Deactivate the pool for the enclosed region (used by the backward
    pass).

    Backward-pass temporaries are transient — allocated, consumed by the
    next gradient op, and dropped — so the allocator's immediate reuse keeps
    them in a few cache-hot addresses.  Routing them through the pool
    instead spreads each step's gradient work across hundreds of distinct
    recycled buffers, which profiles measurably *slower* (cold writes).
    Forward activations are the opposite: they all stay live until backward
    anyway, so pooled stable addresses win there.  Hence: pool the forward,
    pause for the backward.
    """
    previous = getattr(_state, "pool", None)
    _state.pool = None
    try:
        yield
    finally:
        _state.pool = previous


def take_buffer(shape: tuple[int, ...], dtype) -> np.ndarray | None:
    """Pooled output buffer for the active pool, or ``None`` when pooling is
    off (numpy ufuncs treat ``out=None`` as "allocate fresh")."""
    pool = getattr(_state, "pool", None)
    if pool is None:
        return None
    return pool.take(shape, dtype)


class BufferPool:
    """Step-scoped ``(shape, dtype)``-keyed arena for training steps."""

    def __init__(self) -> None:
        self._free: dict[tuple[tuple[int, ...], np.dtype], deque[np.ndarray]] = {}
        self._current: list[np.ndarray] = []
        self.hits = 0
        self.misses = 0
        self.steps = 0

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Hand out a buffer of ``shape``/``dtype``, recycling when possible.

        Free lists are FIFO: a training step performs the same ``take``
        sequence as the last one (same graph), so first-reclaimed-first-out
        hands every op the *same* buffer — same address, warm in cache — it
        wrote the previous step.  LIFO would reverse the pairing each step,
        costing measurable cache locality on the hot activation shapes.
        """
        key = (tuple(shape), np.dtype(dtype))
        queue = self._free.get(key)
        if queue:
            buffer = queue.popleft()
            self.hits += 1
        else:
            buffer = np.empty(key[0], key[1])
            self.misses += 1
        self._current.append(buffer)
        return buffer

    @contextlib.contextmanager
    def step(self):
        """Delimit one training step; activates the pool on this thread.

        Exiting reclaims every buffer handed out during the step — the
        step's computation graph is dead by contract once the context ends,
        so the next step reuses the same arrays.
        """
        self.steps += 1
        previous = getattr(_state, "pool", None)
        _state.pool = self
        try:
            yield self
        finally:
            _state.pool = previous
            for buffer in self._current:
                self._free.setdefault(
                    (buffer.shape, buffer.dtype), deque()
                ).append(buffer)
            self._current = []

    def drain(self) -> None:
        """Drop every free buffer (keeps live handed-out buffers untouched)."""
        self._free.clear()

    def stats(self) -> dict[str, int]:
        """Allocation accounting for benchmarks and debugging."""
        free_bytes = int(
            sum(b.nbytes for stack in self._free.values() for b in stack)
        )
        return {
            "steps": self.steps,
            "hits": self.hits,
            "misses": self.misses,
            "free_buffers": int(sum(len(s) for s in self._free.values())),
            "free_bytes": free_bytes,
        }
