"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions and methods of the program's
modules with timing shims, keeps a per-thread stack of open spans, and
accumulates inclusive time, self time (inclusive minus the time of wrapped
calls made inside it) and call counts per layer.  A *root* is one unit of
traced work (a search, or the server-side handling of one HTTP request); the
part of a root that no wrapped call covers is booked as ``unattributed``, so
the self times of all layers plus ``unattributed`` add up to the traced wall
time exactly.

Every wrapper is installed where its callers look the name up: a function is
replaced in its defining module *and* in every ``repro`` module that imported
it by name; a method is replaced on its class.  :meth:`LayerTracer.uninstall`
puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer, defining module, function name): plain functions, patched in the
# defining module and wherever another repro module bound the same object.
FUNCTIONS = (
    ("tasks.proxy.eval", "repro.tasks.proxy", "measure_arch_hyper"),
    ("core.model.build", "repro.core.model", "build_forecaster"),
    ("core.trainer.train", "repro.core.trainer", "train_forecaster"),
    ("core.trainer.predict", "repro.core.trainer", "predict"),
    ("core.trainer.evaluate", "repro.core.trainer", "evaluate_forecaster"),
    ("embedding.task", "repro.embedding.task_encoder", "preliminary_task_embedding"),
    ("comparator.pretrain.collect", "repro.comparator.pretrain", "collect_task_samples"),
    ("comparator.pretrain.train", "repro.comparator.pretrain", "pretrain_tahc"),
    ("experiments.harness.artifact_load", "repro.experiments.harness", "_load_artifact_cache"),
    ("service.protocol.parse", "repro.service.protocol", "parse_submit"),
    ("service.protocol.fingerprint", "repro.service.protocol", "request_fingerprint"),
    ("service.protocol.fingerprint", "repro.service.protocol", "task_fingerprint"),
)

# (layer, module, class, method): patched on the class.
METHODS = (
    ("autodiff.forward", "repro.core.model", "CTSForecaster", "forward"),
    ("autodiff.backward", "repro.autodiff.tensor", "Tensor", "backward"),
    ("optim.step", "repro.optim.optimizer", "Adam", "step"),
    ("runtime.evaluator", "repro.runtime.evaluator", "ProxyEvaluator", "evaluate_pairs"),
    ("runtime.cache.get", "repro.runtime.cache", "EvalCache", "get"),
    ("runtime.cache.put", "repro.runtime.cache", "EvalCache", "put"),
    ("runtime.checkpoint.save", "repro.runtime.checkpoint", "Checkpoint", "save"),
    ("embedding.fit", "repro.embedding.ts2vec", "TS2Vec", "fit"),
    ("search.zero_shot.embed", "repro.search.zero_shot", "ZeroShotSearch", "embed_task"),
    ("search.zero_shot.rank", "repro.search.zero_shot", "ZeroShotSearch", "rank"),
    ("search.zero_shot.train_final", "repro.search.zero_shot", "ZeroShotSearch", "train_final"),
    ("comparator.scoring.win_matrix", "repro.comparator.scoring", "RankingEngine", "win_matrix"),
    ("service.db.get_result", "repro.service.db", "ServiceDB", "get_result"),
    ("service.db.put_result", "repro.service.db", "ServiceDB", "put_result"),
    ("service.engine.rank", "repro.service.engine", "Engine", "rank_task"),
    ("service.api.handler", "repro.service.api", "ServiceAPI", "handle_rank"),
)

# Train-step layers count only inside a training loop, outside validation
# inference, so forward/backward/step describe the train step and predict
# keeps the whole cost of validation (and the comparator's own training stays
# in comparator.pretrain.train).
_TRAIN_STEP_LAYERS = {"autodiff.forward", "autodiff.backward", "optim.step"}

def import_program_modules() -> None:
    """Import every ``repro`` module so no later import can bind a wrapper
    that :meth:`LayerTracer.uninstall` would not see."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def program_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child = 0.0


class LayerTracer:
    """Timing shims around the program's layer entry points."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.traced_s = 0.0
        self.unattributed_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def add_pseudo(self, layer: str, seconds: float) -> None:
        """Book time that lies outside any root (lateness, transport) as a
        layer row *and* as traced wall time."""
        with self._lock:
            self.inclusive[layer] += seconds
            self.self_time[layer] += seconds
            self.calls[layer] += 1
            self.durations[layer].append(seconds)
            self.traced_s += seconds

    @contextmanager
    def root(self):
        """One unit of traced work; its uncovered time is ``unattributed``."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        frame = _Frame("")
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self.traced_s += elapsed
                self.unattributed_s += elapsed - frame.child

    def _record(self, layer: str, elapsed: float, child: float) -> None:
        with self._lock:
            self.inclusive[layer] += elapsed
            self.self_time[layer] += elapsed - child
            self.calls[layer] += 1
            self.durations[layer].append(elapsed)

    def wrap(self, layer: str, fn, on_result=None):
        train_step = layer in _TRAIN_STEP_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Only calls inside a root are traced: set-up and off-clock
            # correctness checks run outside every root.
            if not self.enabled or not stack:
                return fn(*args, **kwargs)
            if train_step:
                layers = [frame.layer for frame in stack]
                if "core.trainer.train" not in layers or "core.trainer.predict" in layers:
                    return fn(*args, **kwargs)
            frame = _Frame(layer)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stack[-1].child += elapsed
                self._record(layer, elapsed, frame.child)
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Installing and removing the shims
    # ------------------------------------------------------------------
    def patch(self, owner, name: str, value) -> None:
        """Replace ``owner.name`` until :meth:`uninstall`."""
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every entry point in :data:`FUNCTIONS` and :data:`METHODS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import_program_modules()
        modules = program_modules()
        wrapped: dict[int, object] = {}
        for layer, module_name, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            wrapper = wrapped.setdefault(id(original), self.wrap(layer, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patch(module, attr, wrapper)
        for layer, module_name, class_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self.patch(cls, method, self.wrap(layer, cls.__dict__[method], _HOOKS.get(layer)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.enabled = False
            self.uninstall()

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def rows(self) -> list[tuple[str, int, float, float]]:
        """(layer, calls, self seconds, inclusive seconds), by self time."""
        with self._lock:
            rows = [
                (layer, self.calls[layer], self.self_time[layer], self.inclusive[layer])
                for layer in self.self_time
                if self.calls[layer]
            ]
        return sorted(rows, key=lambda row: -row[2])

    def attributed_s(self) -> float:
        with self._lock:
            return sum(self.self_time.values())

    def median_ms(self, layer: str) -> float:
        with self._lock:
            values = sorted(self.durations.get(layer, ()))
        if not values:
            return 0.0
        mid = len(values) // 2
        middle = values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2
        return middle * 1e3


def _count_cache_get(tracer: LayerTracer, args, result) -> None:
    tracer.count("runtime.cache.gets")
    if result is not None:
        tracer.count("runtime.cache.hits")


def _count_comparisons(tracer: LayerTracer, args, result) -> None:
    tracer.count("search.evolutionary.comparisons", result[1])


def _count_step(tracer: LayerTracer, args, result) -> None:
    tracer.count("core.trainer.steps")


def _count_dedup(tracer: LayerTracer, args, result) -> None:
    tracer.count("service.db.rank_requests")
    if result[1].get("deduped"):
        tracer.count("service.db.dedup_hits")


_HOOKS = {
    "runtime.cache.get": _count_cache_get,
    "search.zero_shot.rank": _count_comparisons,
    "optim.step": _count_step,
    "service.api.handler": _count_dedup,
}


def render_table(tracer: LayerTracer, title: str, overhead: float) -> str:
    """The per-layer self-time table, with the unattributed row and total."""
    total = tracer.traced_s or 1e-12
    lines = [
        f"per-layer table: {title}",
        f"  {'layer':36s} {'calls':>7s} {'self_s':>10s} {'incl_s':>10s} {'self%':>6s}",
    ]
    for layer, calls, self_s, incl_s in tracer.rows():
        lines.append(
            f"  {layer:36s} {calls:7d} {self_s:10.4f} {incl_s:10.4f} {100 * self_s / total:6.1f}"
        )
    lines.append(
        f"  {'unattributed':36s} {'':7s} {tracer.unattributed_s:10.4f} {'':10s} "
        f"{100 * tracer.unattributed_s / total:6.1f}"
    )
    lines.append(f"  {'traced wall':36s} {'':7s} {tracer.traced_s:10.4f}")
    lines.append(f"  tracing overhead (traced / untraced wall): {overhead:.3f}x")
    return "\n".join(lines)
