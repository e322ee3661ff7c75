"""The two benchmark workloads: cold-search and rank-http.

Each workload drives the real program through its public entry points
(``pretrain_variant``, ``target_task``, ``Engine``, ``ServiceAPI``), checks
every output it times, and returns a :class:`Result`.  With ``trace=True`` the
same work runs once untraced and once under :class:`layers.LayerTracer`, and
the result carries per-layer metrics instead of end-to-end ones.

All program state (artifact pickles, proxy score cache, checkpoints, service
registry) lives under the per-run directory handed in by ``run.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.experiments import make_searcher, pretrain_variant, source_tasks, target_task
from repro.experiments.config import TINY
from repro.nn import Module
from repro.obs import default_span_buffer, global_registry
from repro.runtime import configure_default_evaluator, set_default_evaluator
from repro.service import Engine, ServiceAPI, ServiceDB, parse_submit, request_fingerprint
from repro.service import task_fingerprint
from repro.tasks.proxy import ProxyConfig, measure_arch_hyper

import layers
import loadgen

# TINY with the comparator's label budget cut from 8 enrichment subsets per
# source dataset (192 proxy evaluations, ~110 s) to 1 (24 evaluations), so a
# cold search fits in one run.  Ranking and final-training cost depend on the
# comparator's shape, the space and the evolution budget, which are TINY's.
SCALE = dataclasses.replace(TINY, n_pretrain_subsets=1)

# The program seed every search uses: `repro search` defaults to seed 0, and
# the seed picks the sampled arch-hypers and so the cost of a search (the
# label collection took 10.6-20.9 s across seeds 0-4), which would drown any
# change smaller than that.
PROGRAM_SEED = 0

COLD_TARGET = ("SZ-TAXI", "P-12/Q-12")

# Latency limits of the goodput metric, per workload.
LIMIT_MS = {"cold-search": 60_000.0, "rank-http": 150.0}

# rank-http traffic: an open loop at RANK_RATE requests per second from
# RANK_SENDERS threads (= nproc on the reference box), a connection per
# request as `repro submit` opens; every block of 20 requests holds these
# counts of each kind, in a seeded order.  No source states a request rate or
# mix for the service, so both are assumptions: a light load with repeats and
# rank-cache hits common.
RANK_RATE = 4.0
RANK_SENDERS = 2
RANK_BLOCK = {"repeat": 6, "seen_task": 8, "new_task": 4, "inline": 2}
# A seen task is one of the last few introduced, so most of them are still
# in the engine's rank cache (8 tasks) while new tasks keep evicting.
SEEN_WINDOW = 6
INLINE_NODES, INLINE_STEPS = 8, 400

# Set-ups per run: half before the timed work and half after it.
SETUP_REPEATS = 6
# What child.py prints once its step is done.
READY = "perfbench-child-ready"

# Where the comparator artifact that rank-http serves, and that cold-search
# checks its own against, is pre-trained, once per version of the program's
# sources (see provide_artifacts).
ROOT = Path(__file__).resolve().parent.parent
SHARED_DIR = ROOT / ".perfbench-cache"


@dataclasses.dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = dataclasses.field(default_factory=dict)
    report: dict[str, tuple[float, str]] = dataclasses.field(default_factory=dict)
    table: str = ""

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(step: str, directory: Path, timeout: float = 120) -> float:
    """Run one ``child.py`` step in a fresh process; the wall seconds from
    its start until it prints READY, that is without its shutdown (stopping
    a server waits up to 0.5 s for the serve loop's poll).

    The parent blocks on the child's output rather than polling: the
    ``Popen.wait(timeout=...)`` loop sleeps up to 50 ms at a time, which
    rounded set-up times to 50 ms steps.  A timer kills an overrunning child."""
    command = [sys.executable, str(Path(__file__).with_name("child.py")), step, str(directory)]
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, process.kill)
    timer.start()
    try:
        ready = None
        for line in process.stdout:
            if ready is None and line.strip() == READY:
                ready = time.perf_counter() - start
            elif line.strip():
                print(line, end="")
        code = process.wait()
    finally:
        timer.cancel()
    if code != 0 or ready is None:
        raise subprocess.CalledProcessError(code, command)
    return ready


def measure_setup(workload: str, run_dir: Path) -> list[float]:
    """Wall times of SETUP_REPEATS // 2 fresh processes doing the workload's
    set-up (imports, artifact load, engine, server).  A run calls this before
    and after its timed work and reports the median of both halves: set-up
    is almost all CPU-bound imports, and the host's speed drifts over tens of
    seconds, so sampling both ends of the run steadies the median."""
    return [run_child(workload, run_dir) for _ in range(SETUP_REPEATS // 2)]


def setup_median(setups: list[float], workload: str, run_dir: Path) -> float | None:
    """The second half of a run's set-ups and the median of all of them;
    None on a trace run, which times no set-up."""
    if not setups:
        return None
    return statistics.median(setups + measure_setup(workload, run_dir))


def build_artifacts(directory: Path):
    """Pre-train (or load) the comparator artifact pickle under ``directory``."""
    evaluator = configure_default_evaluator(cache_dir=directory / "evalcache")
    try:
        return pretrain_variant(
            SCALE,
            "full",
            seed=PROGRAM_SEED,
            cache_dir=directory / "artifacts",
            evaluator=evaluator,
            checkpoint_dir=directory / "checkpoints",
        )
    finally:
        set_default_evaluator(None)


def source_digest() -> str:
    """sha256 over the program's and the benchmark's sources (paths and
    contents), so an artifact built by other code is never reused."""
    hasher = hashlib.sha256()
    for base, pattern in ((ROOT / "src", "repro/**/*.py"), (Path(__file__).parent, "*.py")):
        for path in sorted(base.glob(pattern)):
            hasher.update(str(path.relative_to(base)).encode() + b"\0")
            hasher.update(path.read_bytes() + b"\0")
    return hasher.hexdigest()[:16]


def shared_artifacts() -> tuple[float, Path]:
    """Build (or find) the shared artifact in a child process; returns the
    seconds it took and the directory whose ``artifacts`` holds it."""
    shared = SHARED_DIR / source_digest()
    return run_child("build", shared, timeout=900), shared


def provide_artifacts(run_dir: Path) -> float:
    """Put the artifact pickle a deployed service already has into the
    run's own artifact directory; returns the seconds spent making it
    available.

    The pickle is pre-trained once per version of the sources, under
    SHARED_DIR/<source_digest()>, and copied from there, so rank-http runs
    do not each pay ~18 s of label collection.  Everything else a run
    touches stays in its own directory."""
    seconds, shared = shared_artifacts()
    target = run_dir / "artifacts"
    target.mkdir(parents=True, exist_ok=True)
    for pickle_file in (shared / "artifacts").glob("*.pkl"):
        shutil.copy2(pickle_file, target / pickle_file.name)
    return seconds


def load_artifacts(run_dir: Path):
    """The artifact pickle under ``run_dir/artifacts`` (a cache hit)."""
    return pretrain_variant(SCALE, "full", seed=PROGRAM_SEED, cache_dir=run_dir / "artifacts")


def scores_tuple(scores) -> tuple:
    return dataclasses.astuple(scores)


def search_signature(result) -> tuple:
    return (
        result.best.key(),
        repr(scores_tuple(result.best_scores)),
        tuple(ah.key() for ah in result.top_candidates),
        repr(tuple(result.candidate_scores)),
    )


def label_digest(artifacts) -> str:
    hasher = hashlib.sha256()
    for sample_set in artifacts.sample_sets:
        hasher.update(sample_set.task_name.encode())
        for arch_hyper in sample_set.arch_hypers:
            hasher.update(arch_hyper.key().encode())
        hasher.update(np.asarray(sample_set.scores, dtype=np.float64).tobytes())
    return hasher.hexdigest()


def artifact_digest(artifacts) -> str:
    """sha256 over the labels, the comparator's and embedder's weights and
    the pre-training history."""
    hasher = hashlib.sha256(label_digest(artifacts).encode())
    modules = [artifacts.model] + [
        value for value in vars(artifacts.embedder).values() if isinstance(value, Module)
    ]
    for module in modules:
        for name, array in sorted(module.state_dict().items()):
            hasher.update(name.encode())
            hasher.update(np.ascontiguousarray(array).tobytes())
    hasher.update(repr(dataclasses.astuple(artifacts.history)).encode())
    return hasher.hexdigest()


def registry_counter(name: str) -> float:
    return float(global_registry().snapshot().get(name, {}).get("value", 0.0))


def check_search(result, artifacts, task, problems: list[str]) -> None:
    """Off the clock: the search's ranking equals Engine.rank_task on the
    same task, and retraining its best candidate reproduces its scores."""
    outcome = Engine(artifacts, SCALE).rank_task(
        task, task_fingerprint(task), seed=PROGRAM_SEED
    )
    ranked = [ah.key() for ah in outcome.candidates]
    if ranked != [ah.key() for ah in result.top_candidates]:
        problems.append(f"{task.name}: search ranking differs from rank_task")
    searcher = make_searcher(artifacts, SCALE, seed=PROGRAM_SEED)
    best, scores, _ = searcher.train_final(task, [result.best])
    if best.key() != result.best.key() or repr(scores_tuple(scores)) != repr(
        scores_tuple(result.best_scores)
    ):
        problems.append(f"{task.name}: retraining the best candidate gave other scores")


# ---------------------------------------------------------------------------
# cold-search
# ---------------------------------------------------------------------------


def _cold_search(op_dir: Path) -> tuple[float, object, object, object, object]:
    """One first-time `repro search`: empty caches, labels, pretrain, search."""
    start = time.perf_counter()
    evaluator = configure_default_evaluator(cache_dir=op_dir / "evalcache")
    artifacts = pretrain_variant(
        SCALE,
        "full",
        seed=PROGRAM_SEED,
        cache_dir=op_dir / "artifacts",
        evaluator=evaluator,
        checkpoint_dir=op_dir / "checkpoints",
    )
    dataset, setting = COLD_TARGET
    task = target_task(SCALE, dataset, SCALE.setting(setting), seed=PROGRAM_SEED)
    engine = Engine(artifacts, SCALE, checkpoint_dir=op_dir / "checkpoints")
    result = engine.search_task(task, seed=PROGRAM_SEED)
    wall = time.perf_counter() - start
    set_default_evaluator(None)
    return wall, evaluator.stats, artifacts, task, result


def _check_labels(artifacts, rng: np.random.Generator, problems: list[str]) -> None:
    """Recompute two seeded label scores directly, bypassing evaluator,
    cache and checkpoints."""
    tasks = source_tasks(SCALE, seed=PROGRAM_SEED)
    by_name = {task.name: task for task in tasks}
    config = ProxyConfig(
        epochs=SCALE.proxy_epochs, batch_size=SCALE.batch_size, seed=PROGRAM_SEED
    )
    pairs = [
        (sample_set, index)
        for sample_set in artifacts.sample_sets
        for index in range(len(sample_set.arch_hypers))
    ]
    for choice in rng.choice(len(pairs), size=2, replace=False):
        sample_set, index = pairs[int(choice)]
        direct = measure_arch_hyper(
            sample_set.arch_hypers[index], by_name[sample_set.task_name], config
        )
        if direct != float(sample_set.scores[index]):
            problems.append(
                f"label {sample_set.task_name}[{index}]: {sample_set.scores[index]!r} "
                f"!= direct {direct!r}"
            )


def cold_search(seed: int, seconds: float, trace: bool, run_dir: Path) -> Result:
    result = Result()
    rng = np.random.default_rng(seed)
    setups = [] if trace else measure_setup("cold-search", run_dir)
    tracer = layers.LayerTracer()
    walls, traced_walls, signatures, labels_per_s, zero_shot, oks = [], [], [], [], [], []
    searches = []
    deadline = time.perf_counter() + seconds
    op = 0

    def another() -> bool:
        # A trace run makes exactly two identical searches, the second
        # traced; a timed run starts another only if it fits the window.
        if trace:
            return op < 2
        return op == 0 or time.perf_counter() + walls[-1] <= deadline

    while another():
        traced = trace and op == 1
        op_dir = run_dir / f"cold-{op}"
        rows_before = registry_counter("rank.embed_misses")
        with tracer.installed() if traced else contextlib.nullcontext():
            tracer.enabled = traced
            with tracer.root():
                wall, stats, artifacts, task, search = _cold_search(op_dir)
        result.attempted += 1
        problems: list[str] = []
        if stats.hits != 0 or stats.evaluations != stats.misses:
            problems.append(f"cold run hit a cache ({stats.hits} hits)")
        signature = (artifact_digest(artifacts), search_signature(search))
        if signatures and signature != signatures[0]:
            problems.append("cold search differs from the first one in this run")
        oks.append(problems)
        signatures.append(signature)
        searches.append(search)
        (traced_walls if traced else walls).append(wall)
        if traced:
            tracer.counts["comparator.scoring.encoder_rows"] = (
                registry_counter("rank.embed_misses") - rows_before
            )
        labels_per_s.append(stats.evaluations / stats.batch_seconds)
        zero_shot.append((search.timings.embedding + search.timings.ranking) * 1e3)
        del artifacts, task
        op += 1
    peak_mb = peak_rss_mb()
    setup_s = setup_median(setups, "cold-search", run_dir)
    # Off the clock and after the memory reading: the first search's labels,
    # ranking and best candidate, and its artifact against one pre-trained
    # independently in another process.
    artifacts = load_artifacts(run_dir / "cold-0")
    dataset, setting = COLD_TARGET
    task = target_task(SCALE, dataset, SCALE.setting(setting), seed=PROGRAM_SEED)
    _, shared = shared_artifacts()
    if artifact_digest(load_artifacts(shared)) != signatures[0][0]:
        oks[0].append("cold artifact differs from one pre-trained in a separate process")
    _check_labels(artifacts, rng, oks[0])
    check_search(searches[0], artifacts, task, oks[0])
    for problems in oks:
        if problems:
            result.fail("; ".join(problems))
    oks = [not problems for problems in oks]
    if trace:
        overhead = sum(traced_walls) / sum(walls)
        result.metrics = layer_metrics(tracer, overhead)
        result.table = layers.render_table(tracer, "cold-search", overhead)
        return result
    latencies = [wall * 1e3 for wall in walls]
    _op_metrics(result, "cold-search", latencies, oks, setup_s, peak_mb)
    result.report = {
        "cold_search_s": (statistics.median(walls), "s"),
        "cold_search_max_s": (max(walls), "s"),
        "labels_per_s": (statistics.median(labels_per_s), "1/s"),
        "zero_shot_search_ms": (statistics.median(zero_shot), "ms"),
        "cold_searches": (len(walls), "count"),
    }
    return result


# ---------------------------------------------------------------------------
# rank-http
# ---------------------------------------------------------------------------


def _inline_spec(rng: np.random.Generator, name: str) -> dict:
    """A raw-series task shipped inline (~30 KB of JSON)."""
    steps = np.arange(INLINE_STEPS, dtype=np.float64)
    period = rng.uniform(12, 48, size=(INLINE_NODES, 1))
    phase = rng.uniform(0, 2 * np.pi, size=(INLINE_NODES, 1))
    level = rng.uniform(20, 60, size=(INLINE_NODES, 1))
    values = level + 10 * np.sin(2 * np.pi * steps / period + phase)
    values += rng.normal(0, 1.5, size=values.shape)
    adjacency = (rng.random((INLINE_NODES, INLINE_NODES)) < 0.3).astype(float)
    np.fill_diagonal(adjacency, 1.0)
    return {
        "name": name,
        "values": np.round(values, 3)[..., None].tolist(),
        "adjacency": adjacency.tolist(),
        "p": 6,
        "q": 6,
    }


def make_schedule(seed: int, seconds: float) -> list[loadgen.Request]:
    """The seeded /rank traffic: arrival times, the order of request kinds,
    tasks, program seeds and inline series all come from ``seed``.

    Kinds come in shuffled blocks with the fixed counts of RANK_BLOCK, and
    new tasks walk a shuffled list of every (target dataset, setting) cell,
    so every run offers the same mix and the same spread of task sizes."""
    rng = np.random.default_rng(seed)
    block = [kind for kind, count in RANK_BLOCK.items() for _ in range(count)]
    cells = [(name, setting) for name in SCALE.target_datasets for setting in SCALE.settings]
    cell_order: list[int] = []
    tasks: list[dict] = []
    used: set[tuple] = set()
    payloads: list[bytes] = []
    requests = []
    kinds: list[str] = []
    for due in loadgen.poisson_arrivals(rng, RANK_RATE, seconds):
        if not kinds:
            kinds = [block[int(i)] for i in rng.permutation(len(block))]
        kind = kinds.pop()
        if kind == "repeat" and payloads:
            body = payloads[int(rng.integers(len(payloads)))]
            requests.append(loadgen.Request(due, body, kind))
            continue
        if kind == "seen_task" and tasks:
            spec = tasks[-1 - int(rng.integers(min(SEEN_WINDOW, len(tasks))))]
        elif kind == "inline":
            spec = _inline_spec(rng, f"inline-{seed}-{len(tasks)}")
            tasks.append(spec)
        else:
            kind = "new_task"
            if not cell_order:
                cell_order = [int(i) for i in rng.permutation(len(cells))]
            name, setting = cells[cell_order.pop()]
            data_seed = int(rng.integers(1000))
            while (name, setting.label, data_seed) in used:
                data_seed = int(rng.integers(1000))
            used.add((name, setting.label, data_seed))
            spec = {
                "dataset": name,
                "p": setting.p,
                "q": setting.q,
                "single_step": setting.single_step,
                "seed": data_seed,
            }
            tasks.append(spec)
        options = {"seed": int(rng.integers(1, 2**31 - 1))}
        body = json.dumps({"task": spec, "options": options}).encode()
        payloads.append(body)
        requests.append(loadgen.Request(due, body, kind))
    return requests


class _Stack:
    """A fresh service: engine, registry and HTTP API on 127.0.0.1."""

    def __init__(self, run_dir: Path, name: str) -> None:
        stack_dir = run_dir / name
        self.engine = Engine(
            load_artifacts(run_dir), SCALE, checkpoint_dir=stack_dir / "checkpoints"
        )
        self.db = ServiceDB(stack_dir / "registry.sqlite")
        self.api = ServiceAPI(self.db, self.engine).start()

    def close(self) -> None:
        self.api.stop()
        self.db.close()


def _send(run_dir: Path, name: str, schedule, start=contextlib.nullcontext):
    """Run the schedule against a fresh service, started inside ``start()``;
    returns the outcomes and the program's own ``engine-rank`` span
    durations (seconds)."""
    buffer = default_span_buffer()
    buffer.clear()
    with start():
        stack = _Stack(run_dir, name)
    exchange = run_dir / name / "loadgen"
    exchange.mkdir(parents=True)
    loadgen.write_schedule(
        exchange, "127.0.0.1", stack.api.port, "/rank", schedule, RANK_SENDERS
    )
    try:
        subprocess.run(
            [sys.executable, loadgen.__file__, str(exchange)],
            check=True,
            timeout=(schedule[-1].due if schedule else 0) + 120,
        )
    finally:
        stack.close()
    ranks = [record["dur"] for record in buffer.records() if record.get("name") == "engine-rank"]
    return loadgen.read_outcomes(exchange), ranks


def _check_rankings(run_dir: Path, schedule, passes, result: Result):
    """Off the clock: every reply, dedup replies included, equals
    Engine.rank_task on the same request (a fresh engine, no checkpoints).

    Returns the last pass's per-request correctness and how many replies of
    that pass were ranked again although their fingerprint had been ranked
    before: the API stores a result only after releasing its rank lock, so
    a repeat that arrives while the original is being ranked ranks again.
    That costs time, not correctness, and is counted, not failed."""
    engine = Engine(load_artifacts(run_dir), SCALE, rank_cache_size=10**6)
    expected: dict[bytes, tuple[str, object]] = {}
    ok_flags: list[bool] = []
    duplicates = 0
    for outcomes in passes:
        computed: dict[str, int] = {}
        ok_flags = []
        for request, outcome in zip(schedule, outcomes):
            ok = outcome.status == 200
            if ok:
                reply = json.loads(outcome.body)
                if request.body not in expected:
                    submit = parse_submit({**json.loads(request.body), "kind": "rank"})
                    task = submit.build_task()
                    ranked = engine.rank_task(
                        task, task_fingerprint(task), seed=submit.options["seed"]
                    )
                    expected[request.body] = (
                        request_fingerprint(submit, engine.fingerprint),
                        json.loads(json.dumps(ranked.to_dict())),
                    )
                fingerprint, body = expected[request.body]
                ok = reply.get("fingerprint") == fingerprint and reply.get("result") == body
                if not reply.get("deduped"):
                    computed[fingerprint] = computed.get(fingerprint, 0) + 1
            if not ok:
                result.fail(
                    f"request {len(ok_flags)} ({request.kind}): status {outcome.status}, "
                    "reply differs from Engine.rank_task"
                    if outcome.status == 200
                    else f"request {len(ok_flags)} ({request.kind}): status {outcome.status}"
                )
            ok_flags.append(ok)
        duplicates = sum(count - 1 for count in computed.values())
    return ok_flags, duplicates


def rank_http(seed: int, seconds: float, trace: bool, run_dir: Path) -> Result:
    result = Result()
    prep_s = provide_artifacts(run_dir)
    setups = [] if trace else measure_setup("rank-http", run_dir)
    schedule = make_schedule(seed, seconds)
    outcomes, engine_ranks = _send(run_dir, "pass-0", schedule)
    # Read before the off-clock check below builds an engine of its own.
    peak_mb = peak_rss_mb()
    setup_s = setup_median(setups, "rank-http", run_dir)
    passes = [outcomes]
    tracer = layers.LayerTracer()
    if trace:
        passes.append(_traced_pass(run_dir, schedule, tracer))
    result.attempted = len(schedule) * len(passes)
    ok_flags, duplicates = _check_rankings(run_dir, schedule, passes, result)
    if trace:
        tracer.counts["service.api.duplicate_ranks"] = duplicates
        overhead = sum(o.latency for o in passes[1]) / sum(o.latency for o in passes[0])
        result.metrics = layer_metrics(tracer, overhead)
        result.table = layers.render_table(tracer, "rank-http", overhead) + (
            "\n  cross-check: the program's own engine-rank spans "
            f"{tracer.counts['engine_rank_spans_s']:.4f} s, "
            f"wrapped Engine.rank_task {tracer.inclusive['service.engine.rank']:.4f} s"
        )
        return result
    latencies = [outcome.latency * 1e3 for outcome in outcomes]
    limit = LIMIT_MS["rank-http"]
    kinds = [request.kind for request in schedule]
    _op_metrics(result, "rank-http", latencies, ok_flags, setup_s, peak_mb)
    good = sum(ok and latency <= limit for ok, latency in zip(ok_flags, latencies))
    repeats = [latency for latency, kind in zip(latencies, kinds) if kind == "repeat"]
    beyond_p99 = sum(lat > percentile(latencies, 99) for lat in latencies)
    result.report = {
        "rank_p50_ms": (percentile(latencies, 50), "ms"),
        "rank_p90_ms": (percentile(latencies, 90), "ms"),
        "rank_p99_ms": (percentile(latencies, 99), "ms"),
        "rank_p99_samples_beyond": (beyond_p99, "count"),
        "rank_goodput": (good / len(outcomes), "share"),
        "rank_limit_ms": (limit, "ms"),
        "rank_repeat_p50_ms": (percentile(repeats, 50), "ms"),
        "requests": (len(outcomes), "count"),
        "late_p50_ms": (percentile([o.late * 1e3 for o in outcomes], 50), "ms"),
        "engine_rank_p50_ms": (statistics.median(engine_ranks) * 1e3, "ms"),
        "duplicate_ranks": (duplicates, "count"),
        "artifact_provide_s": (prep_s, "s"),
        **{f"share_{kind}": (kinds.count(kind) / len(kinds), "share") for kind in RANK_BLOCK},
    }
    return result


def _traced_pass(run_dir: Path, schedule, tracer: layers.LayerTracer):
    """Replay the schedule on a fresh service under the layer tracer.

    Starting the service is one root and the server-side handling of each
    request another; the client's lateness and the transport remainder
    (client latency minus server handling) are booked as their own rows, so
    the rows add up to the start-up time plus the sum of request latencies
    measured from their due times."""
    import repro.service.api as api_module

    server_s: dict[str, float] = {}
    original = api_module._make_handler

    def make_handler(service):
        base = original(service)

        class TimedHandler(base):
            def do_POST(self):  # noqa: N802 (stdlib name)
                start = time.perf_counter()
                with tracer.root():
                    base.do_POST(self)
                server_s[self.headers.get(loadgen.ID_HEADER)] = time.perf_counter() - start

        return TimedHandler

    rows_before = registry_counter("rank.embed_misses")
    hits_before = registry_counter("engine.rank_cache.hits")
    misses_before = registry_counter("engine.rank_cache.misses")
    with tracer.installed():
        tracer.patch(api_module, "_make_handler", make_handler)
        tracer.enabled = True
        # Starting the service (artifact load, engine, registry, API) is a
        # root of its own, so the artifact load shows as a layer.
        outcomes, spans = _send(run_dir, "pass-1", schedule, start=tracer.root)
    deadline = time.perf_counter() + 10
    while len(server_s) < len(outcomes) and time.perf_counter() < deadline:
        time.sleep(0.01)
    for index, outcome in enumerate(outcomes):
        handled = server_s.get(str(index), 0.0)
        tracer.add_pseudo("loadgen.late", outcome.late)
        tracer.add_pseudo("service.api.transport", outcome.done - outcome.sent - handled)
    hits = registry_counter("engine.rank_cache.hits") - hits_before
    misses = registry_counter("engine.rank_cache.misses") - misses_before
    tracer.counts["service.engine.rank_cache_hit_ratio"] = hits / max(hits + misses, 1)
    tracer.counts["comparator.scoring.encoder_rows"] = (
        registry_counter("rank.embed_misses") - rows_before
    )
    tracer.counts["engine_rank_spans_s"] = sum(spans)
    return outcomes


# ---------------------------------------------------------------------------
# Metric assembly
# ---------------------------------------------------------------------------


def _op_metrics(result, workload, latencies_ms, ok_flags, setup_s, peak_mb):
    """The end-to-end metrics every workload reports about its operations;
    ``peak_mb`` is read when the timed work ends, before any check runs."""
    limit = LIMIT_MS[workload]
    good = sum(ok and latency <= limit for ok, latency in zip(ok_flags, latencies_ms))
    result.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "op_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "goodput_pct": (100.0 * good / len(latencies_ms), "%"),
    }


def layer_metrics(tracer: layers.LayerTracer, overhead: float) -> dict:
    selft, incl, calls, counts = tracer.self_time, tracer.inclusive, tracer.calls, tracer.counts

    def ratio(hits: str, total: str) -> float:
        return counts[hits] / counts[total] if counts[total] else 0.0

    return {
        "tasks.proxy.evals": (calls["tasks.proxy.eval"], "count"),
        "tasks.proxy.eval_p50_ms": (tracer.median_ms("tasks.proxy.eval"), "ms"),
        "tasks.proxy.busy_s": (incl["tasks.proxy.eval"], "s"),
        "core.model.build_s": (selft["core.model.build"], "s"),
        "core.trainer.train_s": (selft["core.trainer.train"], "s"),
        "core.trainer.predict_s": (selft["core.trainer.predict"], "s"),
        "core.trainer.evaluate_s": (selft["core.trainer.evaluate"], "s"),
        "core.trainer.steps": (counts["core.trainer.steps"], "count"),
        "autodiff.forward_s": (selft["autodiff.forward"], "s"),
        "autodiff.backward_s": (selft["autodiff.backward"], "s"),
        "optim.step_s": (selft["optim.step"], "s"),
        "runtime.evaluator.overhead_s": (selft["runtime.evaluator"], "s"),
        "runtime.cache.get_s": (selft["runtime.cache.get"], "s"),
        "runtime.cache.put_s": (selft["runtime.cache.put"], "s"),
        "runtime.cache.hit_ratio": (ratio("runtime.cache.hits", "runtime.cache.gets"), "ratio"),
        "runtime.checkpoint.save_s": (selft["runtime.checkpoint.save"], "s"),
        "runtime.checkpoint.saves": (calls["runtime.checkpoint.save"], "count"),
        "embedding.fit_s": (selft["embedding.fit"], "s"),
        "embedding.task_s": (selft["embedding.task"], "s"),
        "comparator.pretrain.collect_s": (incl["comparator.pretrain.collect"], "s"),
        "comparator.pretrain.train_s": (selft["comparator.pretrain.train"], "s"),
        "experiments.harness.artifact_load_s": (selft["experiments.harness.artifact_load"], "s"),
        "search.zero_shot.embed_s": (incl["search.zero_shot.embed"], "s"),
        "search.zero_shot.rank_s": (incl["search.zero_shot.rank"], "s"),
        "search.zero_shot.train_final_s": (incl["search.zero_shot.train_final"], "s"),
        "search.evolutionary.comparisons": (counts["search.evolutionary.comparisons"], "count"),
        "comparator.scoring.win_matrix_s": (selft["comparator.scoring.win_matrix"], "s"),
        "comparator.scoring.encoder_rows": (counts["comparator.scoring.encoder_rows"], "count"),
        "service.protocol.parse_s": (selft["service.protocol.parse"], "s"),
        "service.protocol.fingerprint_s": (selft["service.protocol.fingerprint"], "s"),
        "service.db.get_result_s": (selft["service.db.get_result"], "s"),
        "service.db.put_result_s": (selft["service.db.put_result"], "s"),
        "service.db.dedup_ratio": (ratio("service.db.dedup_hits", "service.db.rank_requests"), "ratio"),
        "service.engine.rank_s": (incl["service.engine.rank"], "s"),
        "service.engine.rank_cache_hit_ratio": (counts["service.engine.rank_cache_hit_ratio"], "ratio"),
        "service.api.handler_s": (selft["service.api.handler"], "s"),
        "service.api.transport_ms": (tracer.median_ms("service.api.transport"), "ms"),
        "service.api.duplicate_ranks": (counts["service.api.duplicate_ranks"], "count"),
        "loadgen.late_ms": (tracer.median_ms("loadgen.late"), "ms"),
        "unattributed_s": (tracer.unattributed_s, "s"),
        "traced_s": (tracer.traced_s, "s"),
        "trace_overhead": (overhead, "ratio"),
    }


WORKLOADS = {
    "cold-search": cold_search,
    "rank-http": rank_http,
}
