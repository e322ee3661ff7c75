"""Unit suite for the telemetry layer: tracing, metrics, heartbeat, profiling.

The contract under test throughout: telemetry observes, it never feeds
computation — disabled hooks are inert, enabled hooks only accumulate
counts/timings and span records.
"""

import json

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn.module import Module, Parameter
from repro.obs import (
    Heartbeat,
    MetricsRegistry,
    Tracer,
    build_tree,
    configure_heartbeat,
    configure_tracing,
    file_tracer,
    get_registry,
    global_registry,
    heartbeat,
    load_trace,
    metrics_scope,
    profile,
    profiling_enabled,
    render_report,
    span,
    stage_rollup,
    tracer_scope,
    tracing_enabled,
)
from repro.obs.trace import TRACE_SCHEMA_VERSION


@pytest.fixture(autouse=True)
def _clean_obs():
    """Keep the process-wide tracer/heartbeat state out of other tests."""
    configure_tracing(None)
    configure_heartbeat(False)
    yield
    configure_tracing(None)
    configure_heartbeat(False)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_link_parents(self):
        records = []
        tracer = Tracer(records.append)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.id != outer.id
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner_rec, outer_rec = records
        assert inner_rec["parent"] == outer_rec["id"]
        assert outer_rec["parent"] is None

    def test_span_attrs_and_set(self):
        records = []
        tracer = Tracer(records.append)
        with tracer.span("work", fixed=1) as handle:
            handle.set(late=2)
        assert records[0]["attrs"] == {"fixed": 1, "late": 2}

    def test_exception_sets_error_attr_and_reraises(self):
        records = []
        tracer = Tracer(records.append)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert records[0]["attrs"]["error"] == "ValueError"

    def test_durations_are_nonnegative_and_versioned(self):
        records = []
        tracer = Tracer(records.append)
        with tracer.span("t"):
            pass
        assert records[0]["dur"] >= 0.0
        assert records[0]["v"] == TRACE_SCHEMA_VERSION

    def test_relay_grafts_roots_and_keeps_subtree(self):
        worker_records = []
        worker = Tracer(worker_records.append)
        with worker.span("eval"):
            with worker.span("train-forecaster"):
                pass
        parent_records = []
        parent = Tracer(parent_records.append)
        parent.relay(worker_records, parent_id="p.0.0", root_attrs={"attempt": 2})
        by_name = {r["name"]: r for r in parent_records}
        assert by_name["eval"]["parent"] == "p.0.0"
        assert by_name["eval"]["attrs"]["attempt"] == 2
        # The child keeps its worker-local parent link (the relayed eval id).
        assert by_name["train-forecaster"]["parent"] == by_name["eval"]["id"]

    def test_ambient_span_is_noop_when_disabled(self):
        assert not tracing_enabled()
        with span("anything", attr=1) as handle:
            handle.set(more=2)  # goes nowhere, must not raise
        assert handle.id is None

    def test_tracer_scope_overrides_and_restores(self):
        records = []
        with tracer_scope(Tracer(records.append)):
            assert tracing_enabled()
            with span("scoped"):
                pass
        assert not tracing_enabled()
        assert records[0]["name"] == "scoped"

    def test_tracer_scope_none_forces_off(self):
        records = []
        with tracer_scope(Tracer(records.append)):
            with tracer_scope(None):
                assert not tracing_enabled()
                with span("invisible"):
                    pass
        assert records == []

    def test_validate_span_is_child_of_train_forecaster(self):
        from repro.core.model import build_forecaster
        from repro.core.trainer import TrainConfig, train_forecaster
        from repro.data import CTSData
        from repro.space import JointSearchSpace
        from repro.tasks import Task

        values = np.random.default_rng(0).normal(10, 2, size=(3, 120, 1))
        adjacency = np.ones((3, 3), dtype=np.float32)
        data = CTSData("obs-toy", values.astype(np.float32), adjacency, "test")
        task = Task(data, p=6, q=3)
        ah = JointSearchSpace().sample(np.random.default_rng(0))
        model = build_forecaster(ah, task.data, task.horizon, seed=0)
        records = []
        with tracer_scope(Tracer(records.append)):
            train_forecaster(
                model, task.prepared.train, task.prepared.val, TrainConfig(epochs=2)
            )
        (train,) = [r for r in records if r["name"] == "train-forecaster"]
        validates = [r for r in records if r["name"] == "validate"]
        assert [r["attrs"]["epoch"] for r in validates] == [0, 1]
        assert all(r["parent"] == train["id"] for r in validates)


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = file_tracer(path)
        with tracer_scope(tracer):
            with span("a", x=1):
                with span("b"):
                    pass
        tracer.close()
        trace = load_trace(path)
        assert trace.schema == TRACE_SCHEMA_VERSION
        assert [s["name"] for s in trace.spans] == ["b", "a"]
        assert trace.skipped_lines == 0

    def test_unparseable_lines_are_counted_not_fatal(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        tracer = file_tracer(path)
        with tracer.span("ok"):
            pass
        tracer.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "kind": "span", "id": "x", truncated\n')
        trace = load_trace(path)
        assert len(trace.spans) == 1
        assert trace.skipped_lines == 1

    def test_future_schema_rejected_loudly(self, tmp_path):
        path = tmp_path / "future.jsonl"
        record = {"v": TRACE_SCHEMA_VERSION + 1, "kind": "span", "id": "x"}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="newer than supported"):
            load_trace(path)

    def test_configure_tracing_installs_and_removes(self, tmp_path):
        path = tmp_path / "ambient.jsonl"
        configure_tracing(path)
        assert tracing_enabled()
        with span("ambient"):
            pass
        configure_tracing(None)
        assert not tracing_enabled()
        trace = load_trace(path)
        assert [s["name"] for s in trace.spans] == ["ambient"]


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert snap["c"]["value"] == 3.5
        assert snap["g"]["value"] == 7.0
        h = snap["h"]
        assert h["kind"] == "histogram"
        assert h["count"] == 2 and h["total"] == 4.0
        assert h["min"] == 1.0 and h["max"] == 3.0 and h["mean"] == 2.0
        # The bucketed summary: one bucket per observation here, plus
        # quantiles (bucket upper bounds clamped to the observed extremes).
        assert sum(h["buckets"].values()) == 2
        assert h["p50"] == 1.0
        assert h["p90"] == 3.0 and h["p99"] == 3.0

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge("x")

    def test_parent_propagation(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("n").inc(3)
        child.histogram("h").observe(2.0)
        assert parent.counter("n").value == 3.0
        assert parent.histogram("h").count == 1
        # Parent-side updates do NOT flow down.
        parent.counter("n").inc()
        assert child.counter("n").value == 3.0

    def test_merge_snapshot(self):
        source = MetricsRegistry()
        source.counter("c").inc(2)
        source.gauge("g").set(5)
        source.histogram("h").observe(1.0)
        target = MetricsRegistry()
        target.counter("c").inc(1)
        target.histogram("h").observe(4.0)
        target.merge(source.snapshot())
        snap = target.snapshot()
        assert snap["c"]["value"] == 3.0
        assert snap["g"]["value"] == 5.0
        assert snap["h"]["count"] == 2
        assert snap["h"]["min"] == 1.0 and snap["h"]["max"] == 4.0

    def test_metrics_scope_isolates_and_restores(self):
        assert get_registry() is global_registry()
        with metrics_scope() as inner:
            assert get_registry() is inner
            inner.counter("only.here").inc()
        assert get_registry() is global_registry()
        assert "only.here" not in global_registry().snapshot()

    def test_render_formats_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc(2)
        registry.gauge("a.level").set(0.5)
        registry.histogram("a.lat").observe(0.25)
        text = registry.render()
        assert "a.count: 2" in text
        assert "a.level: 0.5" in text
        assert "a.lat: n=1" in text
        assert registry.render(prefix="b.") == ""


class TestStatsMigration:
    def test_eval_stats_attributes_and_report(self):
        from repro.runtime.evaluator import EvalStats

        with metrics_scope() as ambient:
            stats = EvalStats()
            stats.hits += 2
            stats.misses += 1
            stats.record_eval(0.5, queue_wait=0.1)
            stats.batch_seconds += 0.75
            stats.batches += 1
            assert stats.hits == 2 and stats.misses == 1
            assert stats.evaluations == 1
            assert stats.hit_rate == pytest.approx(2 / 3)
            report = stats.report()
            assert "1 fresh, 2 cache hits" in report
            assert "compute 0.50s, queue wait 0.10s" in report
            # Local counts tee into the ambient registry.
            snap = ambient.snapshot()
            assert snap["eval.hits"]["value"] == 2.0
            assert snap["eval.queue_wait_seconds"]["value"] == pytest.approx(0.1)

    def test_eval_stats_instances_are_isolated(self):
        from repro.runtime.evaluator import EvalStats

        with metrics_scope():
            one, two = EvalStats(), EvalStats()
            one.misses += 5
            assert two.misses == 0

    def test_ranking_stats_attributes_and_report(self):
        from repro.comparator.scoring import RankingStats

        with metrics_scope() as ambient:
            stats = RankingStats()
            stats.embed_hits += 3
            stats.embed_misses += 1
            stats.pair_scores += 12
            stats.win_matrices += 1
            assert "1 win matrices" in stats.report()
            assert "75% hit rate" in stats.report()
            assert ambient.snapshot()["rank.pair_scores"]["value"] == 12.0


# ---------------------------------------------------------------------------
# Heartbeat
# ---------------------------------------------------------------------------


class TestHeartbeat:
    def test_first_beat_only_arms(self):
        lines, now = [], [0.0]
        beat = Heartbeat(min_interval=10.0, sink=lines.append, clock=lambda: now[0])
        assert not beat.beat("k", lambda: "one")
        assert lines == []

    def test_rate_limited_then_emits(self):
        lines, now = [], [0.0]
        beat = Heartbeat(min_interval=10.0, sink=lines.append, clock=lambda: now[0])
        beat.beat("k", lambda: "armed")
        now[0] = 5.0
        assert not beat.beat("k", lambda: "too soon")
        now[0] = 11.0
        assert beat.beat("k", lambda: "due")
        assert lines == ["[heartbeat] due"]
        now[0] = 12.0
        assert not beat.beat("k", lambda: "again too soon")

    def test_force_bypasses_interval(self):
        lines, now = [], [0.0]
        beat = Heartbeat(min_interval=10.0, sink=lines.append, clock=lambda: now[0])
        beat.beat("k", lambda: "armed")
        assert beat.beat("k", lambda: "forced", force=True)
        assert lines == ["[heartbeat] forced"]

    def test_keys_are_independent(self):
        lines, now = [], [0.0]
        beat = Heartbeat(min_interval=10.0, sink=lines.append, clock=lambda: now[0])
        beat.beat("a", lambda: "")
        now[0] = 11.0
        assert not beat.beat("b", lambda: "b arms separately")

    def test_disabled_module_heartbeat_never_renders(self):
        calls = []

        def render():
            calls.append(1)
            return "never"

        assert not heartbeat("k", render)
        assert calls == []

    def test_configured_heartbeat_emits_through_sink(self):
        lines = []
        configure_heartbeat(enabled=True, min_interval=0.0, sink=lines.append)
        heartbeat("k", lambda: "armed")
        assert heartbeat("k", lambda: "emitted")
        assert lines == ["[heartbeat] emitted"]


# ---------------------------------------------------------------------------
# Profiling hooks
# ---------------------------------------------------------------------------


class _TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((3, 3), dtype=np.float64))

    def forward(self, x):
        return x @ self.weight


class TestProfiling:
    def test_disabled_by_default(self):
        assert not profiling_enabled()
        with metrics_scope() as registry:
            _TinyNet()(Tensor(np.ones((2, 3))))
        assert registry.snapshot() == {}

    def test_forward_timing_attributed_to_module_path(self):
        with metrics_scope() as registry, profile():
            _TinyNet()(Tensor(np.ones((2, 3))))
        snap = registry.snapshot()
        assert snap["profile.forward._TinyNet.calls"]["value"] == 1.0
        assert snap["profile.forward._TinyNet.seconds"]["value"] >= 0.0

    def test_op_counts_forward_and_backward(self):
        with metrics_scope() as registry, profile():
            net = _TinyNet()
            loss = (net(Tensor(np.ones((2, 3)))) * 2.0).sum()
            loss.backward()
        snap = registry.snapshot()
        matmul_fwd = snap["profile.ops.matmul.forward"]["value"]
        matmul_bwd = snap["profile.ops.matmul.backward"]["value"]
        assert matmul_fwd == 1.0 and matmul_bwd == 1.0

    def test_profiling_never_changes_outputs(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        net = _TinyNet()
        plain = net(Tensor(x)).numpy()
        with metrics_scope(), profile():
            profiled = net(Tensor(x)).numpy()
        np.testing.assert_array_equal(plain, profiled)

    def test_profile_context_restores_state(self):
        with profile():
            assert profiling_enabled()
            with profile(enabled=False):
                assert not profiling_enabled()
            assert profiling_enabled()
        assert not profiling_enabled()


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _span_record(span_id, name, parent=None, dur=1.0, wall0=0.0, attrs=None):
    return {
        "v": 1, "kind": "span", "id": span_id, "parent": parent,
        "name": name, "wall0": wall0, "dur": dur, "pid": 1,
        "attrs": attrs or {},
    }


class TestReport:
    def test_stage_rollup_aggregates_by_name(self):
        spans = [
            _span_record("1", "eval", dur=1.0),
            _span_record("2", "eval", dur=3.0, attrs={"error": "X"}),
            _span_record("3", "rank", dur=0.5),
        ]
        rollup = stage_rollup(spans)
        assert rollup["eval"].count == 2
        assert rollup["eval"].total == 4.0
        assert rollup["eval"].max == 3.0
        assert rollup["eval"].mean == 2.0
        assert rollup["eval"].errors == 1
        assert rollup["rank"].count == 1

    def test_build_tree_promotes_orphans(self):
        spans = [
            _span_record("root", "search", wall0=1.0),
            _span_record("kid", "eval", parent="root", wall0=2.0),
            _span_record("lost", "eval", parent="never-closed", wall0=3.0),
        ]
        roots, children = build_tree(spans)
        assert [r["id"] for r in roots] == ["root", "lost"]
        assert [c["id"] for c in children["root"]] == ["kid"]

    def test_render_report_end_to_end(self, tmp_path):
        path = tmp_path / "report.jsonl"
        tracer = file_tracer(path)
        with tracer_scope(tracer):
            with span("search", task="toy"):
                with span("eval", candidate="cand-a", task="toy") as handle:
                    handle.set(attempt=2, diverged=True)
        tracer.close()
        text = render_report(path)
        assert "== per-stage rollup ==" in text
        assert "== span tree ==" in text
        assert "== candidate timeline ==" in text
        assert "attempt 2" in text and "diverged" in text


# ---------------------------------------------------------------------------
# Quantile histograms (bucketed summary, merge exactness)
# ---------------------------------------------------------------------------


class TestQuantileHistogram:
    def test_bucket_index_is_pure_and_monotonic(self):
        from repro.obs import bucket_index, bucket_upper_bound

        values = [1e-9, 0.003, 0.1, 0.99, 1.0, 1.0000001, 7.5, 4096.0]
        indices = [bucket_index(v) for v in values]
        assert indices == sorted(indices)
        for v in values:
            # Every value lies at or below its bucket's upper bound...
            assert v <= bucket_upper_bound(bucket_index(v)) * (1 + 1e-12)
            # ...and bucketing is deterministic.
            assert bucket_index(v) == bucket_index(v)
        assert bucket_upper_bound(bucket_index(0.0)) == 0.0
        assert bucket_upper_bound(bucket_index(-3.0)) == 0.0

    def test_quantiles_clamped_to_observed_extremes(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for v in (0.5, 0.5, 0.5):
            h.observe(v)
        # A single-bucket distribution: every quantile is the (clamped)
        # observed value, not the bucket's (larger) upper bound.
        assert h.quantile(0.5) == 0.5
        assert h.quantile(0.99) == 0.5
        assert h.quantile(0.5) >= h.min and h.quantile(0.99) <= h.max

    def test_empty_histogram_quantile_is_none(self):
        h = MetricsRegistry().histogram("empty")
        assert h.quantile(0.5) is None
        snap = h.snapshot()
        assert snap["p50"] is None and snap["p99"] is None

    def test_merge_tolerates_pre_bucket_snapshots(self):
        target = MetricsRegistry()
        target.histogram("h").observe(1.0)
        # A snapshot from an old build: summary only, no bucket map.
        target.merge({"h": {
            "kind": "histogram", "count": 2, "total": 6.0,
            "min": 2.0, "max": 4.0, "mean": 3.0,
        }})
        h = target.histogram("h")
        assert h.count == 3 and h.min == 1.0 and h.max == 4.0
        assert h.quantile(0.99) == 4.0  # degrades to the extremes

    def test_render_is_sorted_by_name_across_kinds(self):
        registry = MetricsRegistry()
        # Deliberately interleave creation order and kinds.
        registry.histogram("z.lat").observe(1.0)
        registry.counter("a.count").inc()
        registry.gauge("m.level").set(2.0)
        registry.counter("b.count").inc()
        names = [line.split(":")[0] for line in registry.render().splitlines()]
        assert names == sorted(names)
        snap_names = list(registry.snapshot())
        assert snap_names == sorted(snap_names)

    def test_render_includes_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("a.lat").observe(0.25)
        line = registry.render()
        assert "p50=" in line and "p90=" in line and "p99=" in line


class TestQuantileMergeExactness:
    """Acceptance criterion: merged quantiles == single-registry quantiles."""

    def _property(self, values, split_mask):
        whole = MetricsRegistry()
        parts = [MetricsRegistry(), MetricsRegistry()]
        for value, which in zip(values, split_mask):
            whole.histogram("h").observe(value)
            parts[which].histogram("h").observe(value)
        merged = MetricsRegistry()
        for part in parts:
            merged.merge(part.snapshot())
        left, right = merged.snapshot()["h"], whole.snapshot()["h"]
        for key in ("count", "min", "max", "buckets", "p50", "p90", "p99"):
            assert left[key] == right[key], key

    def test_hypothesis_any_split_merges_exactly(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=200, deadline=None)
        @given(
            st.lists(
                st.floats(
                    min_value=-1e6, max_value=1e9,
                    allow_nan=False, allow_infinity=False,
                ),
                min_size=1, max_size=40,
            ),
            st.randoms(use_true_random=False),
        )
        def run(values, rng):
            mask = [rng.randint(0, 1) for _ in values]
            self._property(values, mask)

        run()

    def test_three_way_worker_split(self):
        values = [0.01 * (i + 1) for i in range(30)]
        whole = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(3)]
        for i, v in enumerate(values):
            whole.histogram("eval.seconds").observe(v)
            workers[i % 3].histogram("eval.seconds").observe(v)
        merged = MetricsRegistry()
        for worker in workers:
            merged.merge(worker.snapshot())
        for q in (0.5, 0.9, 0.99):
            assert (
                merged.histogram("eval.seconds").quantile(q)
                == whole.histogram("eval.seconds").quantile(q)
            )


# ---------------------------------------------------------------------------
# Correlation ids and the span buffer
# ---------------------------------------------------------------------------


class TestCorrelation:
    def test_correlation_scope_stamps_spans(self):
        from repro.obs import correlation_scope, current_correlation

        records = []
        tracer = Tracer(records.append)
        assert current_correlation() is None
        with correlation_scope("job-7"):
            assert current_correlation() == "job-7"
            with tracer.span("work"):
                pass
        with tracer.span("outside"):
            pass
        assert records[0]["corr"] == "job-7"
        assert "corr" not in records[1]
        assert current_correlation() is None

    def test_correlation_scopes_nest(self):
        from repro.obs import correlation_scope, current_correlation

        with correlation_scope("outer"):
            with correlation_scope("inner"):
                assert current_correlation() == "inner"
            assert current_correlation() == "outer"

    def test_relay_stamps_ambient_correlation(self):
        from repro.obs import correlation_scope

        records = []
        tracer = Tracer(records.append)
        worker = [
            {"kind": "span", "id": "w.0", "parent": None, "name": "eval",
             "dur": 0.1, "attrs": {}},
            {"kind": "span", "id": "w.1", "parent": "w.0", "name": "train",
             "dur": 0.05, "attrs": {}},
        ]
        with correlation_scope("job-3"):
            tracer.relay(worker, parent_id="batch", root_attrs={"attempt": 2})
        assert all(r["corr"] == "job-3" for r in records)
        assert records[0]["parent"] == "batch"
        assert records[0]["attrs"]["attempt"] == 2
        assert records[1]["parent"] == "w.0"  # child link intact
        # Relay never mutates the caller's originals.
        assert "corr" not in worker[0]

    def test_relay_preserves_existing_correlation(self):
        from repro.obs import correlation_scope

        records = []
        tracer = Tracer(records.append)
        with correlation_scope("new"):
            tracer.relay([{"kind": "span", "id": "a", "parent": None,
                           "name": "x", "dur": 0.0, "attrs": {}, "corr": "old"}])
        assert records[0]["corr"] == "old"


class TestSpanBuffer:
    def test_buffer_filters_by_correlation(self):
        from repro.obs import SpanBuffer, buffered_tracer, correlation_scope

        buffer = SpanBuffer()
        tracer = buffered_tracer(buffer)
        with correlation_scope("a"):
            with tracer.span("one"):
                pass
        with correlation_scope("b"):
            with tracer.span("two"):
                pass
        assert len(buffer) == 2
        assert [r["name"] for r in buffer.records(correlation="a")] == ["one"]
        assert [r["name"] for r in buffer.records(correlation="b")] == ["two"]
        buffer.clear()
        assert buffer.records() == []

    def test_buffer_is_bounded(self):
        from repro.obs import SpanBuffer

        buffer = SpanBuffer(maxlen=3)
        for i in range(10):
            buffer({"kind": "span", "id": str(i), "name": "s"})
        records = buffer.records()
        assert len(records) == 3
        assert [r["id"] for r in records] == ["7", "8", "9"]

    def test_buffered_tracer_tees_into_base(self):
        from repro.obs import SpanBuffer, buffered_tracer

        base_records = []
        base = Tracer(base_records.append)
        buffer = SpanBuffer()
        tracer = buffered_tracer(buffer, base=base)
        with tracer.span("teed"):
            pass
        assert [r["name"] for r in buffer.records()] == ["teed"]
        assert [r["name"] for r in base_records] == ["teed"]


class TestReportJobFilter:
    def test_render_report_filters_by_job(self, tmp_path):
        from repro.obs import correlation_scope

        path = tmp_path / "jobs.jsonl"
        tracer = file_tracer(path)
        with tracer_scope(tracer):
            with correlation_scope("job-a"):
                with span("execute", kind="rank"):
                    pass
            with correlation_scope("job-b"):
                with span("execute", kind="train"):
                    pass
        tracer.close()
        text = render_report(path, job="job-a")
        assert "1 spans for job job-a" in text
        filtered = render_report(path, job="job-b")
        assert "1 spans for job job-b" in filtered
        everything = render_report(path)
        assert "2 spans" in everything

    def test_rollup_has_quantile_columns(self):
        from repro.obs import render_rollup

        spans_ = [_span_record(str(i), "eval", dur=0.1 * (i + 1)) for i in range(10)]
        rollup = stage_rollup(spans_)
        assert rollup["eval"].p50 == pytest.approx(0.5)
        assert rollup["eval"].p99 == pytest.approx(1.0)
        table = render_rollup(rollup)
        assert "p50 s" in table and "p99 s" in table


class TestLatencySummary:
    def test_formats_histogram_and_snapshot_and_empty(self):
        from repro.obs import latency_summary

        registry = MetricsRegistry()
        h = registry.histogram("h")
        assert latency_summary(h) == "p50=- p99=-"
        for v in (0.5, 0.5, 0.5):
            h.observe(v)
        live = latency_summary(h)
        assert live.startswith("p50=0.5s") and "p99=0.5s" in live
        assert latency_summary(h.snapshot()) == live
        assert latency_summary(None) == "p50=- p99=-"


# ---------------------------------------------------------------------------
# Export surfaces: Prometheus text + dashboard HTML
# ---------------------------------------------------------------------------


class TestPrometheusExport:
    def test_all_kinds_render_sorted_and_sanitized(self):
        from repro.obs import render_prometheus

        registry = MetricsRegistry()
        registry.counter("z.count").inc(2)
        registry.gauge("a.level").set(1.5)
        registry.histogram("m.lat.seconds").observe(0.2)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE a_level gauge" in text
        assert "# TYPE m_lat_seconds histogram" in text
        assert "# TYPE z_count counter" in text
        # Sorted by metric name.
        assert text.index("a_level") < text.index("m_lat_seconds") < text.index("z_count")
        assert 'm_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "m_lat_seconds_count 1" in text
        assert "m_lat_seconds_sum" in text

    def test_bucket_series_is_cumulative(self):
        from repro.obs import render_prometheus

        registry = MetricsRegistry()
        h = registry.histogram("lat")
        for v in (0.001, 0.01, 0.1, 1.0, 10.0):
            h.observe(v)
        lines = [l for l in render_prometheus(registry.snapshot()).splitlines()
                 if l.startswith("lat_bucket")]
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 5  # +Inf bucket carries the total count

    def test_name_sanitization(self):
        from repro.obs import prometheus_name

        assert prometheus_name("eval.seconds") == "eval_seconds"
        assert prometheus_name("profile.forward.Conv2d.seconds") == (
            "profile_forward_Conv2d_seconds"
        )
        assert prometheus_name("9lives") == "_9lives"


class TestDashboard:
    def test_dashboard_renders_all_sections(self):
        from repro.obs import render_dashboard

        registry = MetricsRegistry()
        registry.histogram("service.rank.seconds").observe(0.05)
        html = render_dashboard({
            "title": "repro test",
            "jobs": {"pending": 3, "running": 1, "done": 9},
            "workers": [{"owner": "worker-ab", "job": "j1", "age": 0.4}],
            "metrics": registry.snapshot(),
            "cache": {"eval": "50% (1/2)"},
            "traces": [{"name": "job", "corr": "j1", "dur": 1.25,
                        "attrs": {"kind": "rank"}}],
        })
        assert html.startswith("<!doctype html>")
        assert "queue depth 4" in html
        assert "worker-ab" in html
        assert "service.rank.seconds" in html
        assert "50% (1/2)" in html
        assert "j1" in html and "1.250s" in html

    def test_dashboard_escapes_html(self):
        from repro.obs import render_dashboard

        html = render_dashboard({
            "title": "<script>alert(1)</script>",
            "traces": [{"name": "<b>x</b>", "dur": 0.0,
                        "attrs": {"evil": "<img src=x>"}}],
        })
        assert "<script>alert" not in html
        assert "<b>x</b>" not in html
        assert "<img" not in html

    def test_dashboard_empty_data_is_valid(self):
        from repro.obs import render_dashboard

        html = render_dashboard({})
        assert "(none)" in html and "queue depth 0" in html
