"""Tests for the task abstraction, enrichment, and the early-validation proxy."""

import dataclasses

import numpy as np
import pytest

import repro.tasks.proxy as proxy
from repro.core.health import DivergenceError
from repro.core.model import build_forecaster
from repro.core.trainer import evaluate_forecaster, train_forecaster
from repro.data import CTSData, corrupt_dataset, get_dataset
from repro.metrics import ForecastScores
from repro.runtime import CACHE_KEY_VERSION, Checkpoint, warm_lineage_fingerprint
from repro.runtime.warm import WarmStore
from repro.space import JointSearchSpace, HyperSpace
from repro.tasks import (
    EnrichmentConfig,
    ProxyConfig,
    Task,
    derive_subset,
    enrich_tasks,
    measure_arch_hyper,
    supported_settings,
)

TINY_HYPER = HyperSpace(
    num_blocks=(1,), num_nodes=(3,), hidden_dims=(8,), output_dims=(8,),
    output_modes=(0, 1), dropout=(0, 1),
)


def _toy_data(n=4, t=300, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(10, 2, size=(n, t, 1)).astype(np.float32)
    adj = np.ones((n, n), dtype=np.float32)
    return CTSData("toy", values, adj, "test")


class TestTask:
    def test_name_encodes_setting(self):
        task = Task(_toy_data(), p=12, q=12)
        assert task.name == "toy/P12-Q12(M)"
        assert Task(_toy_data(), p=12, q=3, single_step=True).name.endswith("(S)")

    def test_horizon(self):
        assert Task(_toy_data(), p=12, q=12).horizon == 12
        assert Task(_toy_data(), p=12, q=3, single_step=True).horizon == 1

    def test_rejects_too_short_dataset(self):
        with pytest.raises(ValueError):
            Task(_toy_data(t=50), p=24, q=24)

    def test_rejects_nonpositive_setting(self):
        with pytest.raises(ValueError):
            Task(_toy_data(), p=0, q=12)

    def test_prepared_splits_and_scaling(self):
        task = Task(_toy_data(), p=6, q=6, split_ratio=(6, 2, 2))
        prepared = task.prepared
        assert len(prepared.train) > len(prepared.val)
        # Training windows are standardized (approximately zero mean).
        assert abs(prepared.train.x.mean()) < 0.3

    def test_inverse_recovers_units(self):
        task = Task(_toy_data(), p=6, q=6)
        prepared = task.prepared
        raw = prepared.inverse(prepared.train.y)
        assert 5 < raw.mean() < 15  # original scale had mean 10

    def test_prepared_is_cached(self):
        task = Task(_toy_data(), p=6, q=6)
        assert task.prepared is task.prepared

    def test_embedding_windows_shape(self):
        task = Task(_toy_data(), p=6, q=6)
        windows = task.embedding_windows(max_windows=5)
        assert windows.ndim == 4
        assert windows.shape[1] == 4  # N
        assert windows.shape[2] == 12  # S = P + Q
        assert windows.shape[0] <= 5

    def test_embedding_windows_depend_on_setting(self):
        data = _toy_data()
        w1 = Task(data, p=6, q=6).embedding_windows()
        w2 = Task(data, p=12, q=12).embedding_windows()
        assert w1.shape[2] != w2.shape[2]


class TestEnrichment:
    def test_derive_subset_shrinks(self):
        data = _toy_data(n=8, t=400)
        subset = derive_subset(data, np.random.default_rng(0))
        assert subset.n_series <= data.n_series
        assert subset.n_steps <= data.n_steps
        assert subset.adjacency.shape == (subset.n_series, subset.n_series)

    def test_subset_values_come_from_source(self):
        data = _toy_data(n=4, t=300)
        subset = derive_subset(data, np.random.default_rng(1))
        # Every subset row must appear somewhere in the source rows.
        source_flat = data.values[:, :, 0]
        row = subset.values[0, :, 0]
        matches = [
            np.where((source_flat[i, : data.n_steps - len(row) + 1] == row[0]))[0]
            for i in range(data.n_series)
        ]
        assert any(m.size > 0 for m in matches)

    def test_supported_settings_filters_long_horizons(self):
        data = _toy_data(t=100)
        settings = supported_settings(data, [(6, 6), (48, 48)], min_windows=10)
        assert (6, 6) in settings
        assert (48, 48) not in settings

    def test_enrich_tasks_produces_valid_tasks(self):
        sources = [_toy_data(n=6, t=400, seed=s) for s in range(2)]
        tasks = enrich_tasks(sources, [(6, 6), (12, 12)], n_subsets=4, seed=0)
        assert len(tasks) >= 4
        for task in tasks:
            assert task.data.n_steps >= task.window_span * 3

    def test_enrich_tasks_deterministic(self):
        sources = [_toy_data(n=6, t=400)]
        t1 = enrich_tasks(sources, [(6, 6)], n_subsets=3, seed=5)
        t2 = enrich_tasks(sources, [(6, 6)], n_subsets=3, seed=5)
        assert [t.name for t in t1] == [t.name for t in t2]

    def test_enrich_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            enrich_tasks([], [(6, 6)], n_subsets=1)
        with pytest.raises(ValueError):
            enrich_tasks([_toy_data()], [], n_subsets=1)

    def test_enrichment_config_validation(self):
        with pytest.raises(ValueError):
            EnrichmentConfig(min_fraction_steps=0.0)


class TestProxy:
    def test_proxy_returns_finite_error(self):
        task = Task(_toy_data(t=200), p=6, q=3)
        space = JointSearchSpace(hyper_space=TINY_HYPER)
        ah = space.sample(np.random.default_rng(0))
        score = measure_arch_hyper(ah, task, ProxyConfig(epochs=1, batch_size=32))
        assert np.isfinite(score)
        assert score > 0

    def test_proxy_is_deterministic(self):
        task = Task(_toy_data(t=200), p=6, q=3)
        space = JointSearchSpace(hyper_space=TINY_HYPER)
        ah = space.sample(np.random.default_rng(1))
        config = ProxyConfig(epochs=1, batch_size=32, seed=3)
        assert measure_arch_hyper(ah, task, config) == measure_arch_hyper(
            ah, task, config
        )

    def test_real_dataset_smoke(self):
        data = get_dataset("SZ-TAXI", seed=0)
        task = Task(data, p=6, q=3)
        space = JointSearchSpace(hyper_space=TINY_HYPER)
        ah = space.sample(np.random.default_rng(0))
        score = measure_arch_hyper(ah, task, ProxyConfig(epochs=1, batch_size=64))
        assert np.isfinite(score)


def _old_path(ah, task, config):
    """The proxy as it was before it reused the loop's scores: train, then
    run validation again on the restored best state."""
    model = build_forecaster(ah, task.data, task.horizon, seed=config.seed)
    result = train_forecaster(
        model, task.prepared.train, task.prepared.val, config.train_config()
    )
    scores = evaluate_forecaster(model, task.prepared.val, config.batch_size)
    return result, scores


def _bits(scores):
    return [float(value).hex() for value in dataclasses.astuple(scores)]


class TestProxyReusesBestEpochScores:
    """R' comes from the best epoch's in-loop validation; it must equal, bit
    for bit, a second validation pass over the restored best state."""

    # lr=0.03 on this toy task: validation MAE is best at epoch 0 of 3.
    EARLY_BEST = ProxyConfig(epochs=3, batch_size=32, lr=0.03)

    def _candidate(self, seed=0):
        space = JointSearchSpace(hyper_space=TINY_HYPER)
        return space.sample(np.random.default_rng(seed))

    def _assert_matches_old_path(self, ah, task, config):
        result, scores = _old_path(ah, task, config)
        assert _bits(result.best_val_scores) == _bits(scores)
        expected = scores.primary(single_step=task.single_step)
        assert measure_arch_hyper(ah, task, config).hex() == expected.hex()
        return result

    def test_multi_step_mae(self):
        task = Task(_toy_data(t=200), p=6, q=3)
        self._assert_matches_old_path(
            self._candidate(), task, ProxyConfig(epochs=1, batch_size=32)
        )

    def test_single_step_rrse(self):
        task = Task(_toy_data(t=200), p=6, q=3, single_step=True)
        self._assert_matches_old_path(
            self._candidate(), task, ProxyConfig(epochs=1, batch_size=32)
        )

    def test_masked_windows(self):
        dirty = corrupt_dataset(_toy_data(t=200), "block_missing", severity=0.3)
        task = Task(dirty, p=6, q=3)
        assert task.prepared.val.y_mask is not None
        self._assert_matches_old_path(
            self._candidate(), task, ProxyConfig(epochs=2, batch_size=32)
        )

    def test_best_epoch_is_not_the_last(self):
        task = Task(_toy_data(t=200), p=6, q=3)
        result = self._assert_matches_old_path(
            self._candidate(1), task, self.EARLY_BEST
        )
        assert result.best_epoch < result.epochs_trained - 1

    def test_warm_promoted_best_epoch_in_earlier_rung(self, tmp_path):
        task = Task(_toy_data(t=200), p=6, q=3)
        ah = self._candidate(1)
        result, scores = _old_path(ah, task, self.EARLY_BEST)
        assert result.best_epoch == 0  # inside the 1-epoch first rung
        warm = str(tmp_path / "warm")
        rung = dataclasses.replace(self.EARLY_BEST, fidelity_epochs=1, warm_dir=warm)
        measure_arch_hyper(ah, task, rung)
        promoted = dataclasses.replace(self.EARLY_BEST, warm_dir=warm)
        assert measure_arch_hyper(ah, task, promoted).hex() == scores.mae.hex()

    def test_no_finite_epoch_raises_divergence(self, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(
            "repro.core.trainer.evaluate_forecaster",
            lambda *args, **kwargs: ForecastScores(nan, nan, nan, nan, nan),
        )
        task = Task(_toy_data(t=200), p=6, q=3)
        with pytest.raises(DivergenceError, match="non-finite"):
            measure_arch_hyper(
                self._candidate(), task, ProxyConfig(epochs=2, batch_size=32)
            )

    def test_unversioned_warm_snapshot_is_retrained(self, tmp_path, monkeypatch):
        """A snapshot from before the version stamp lacks the best epoch's
        scores; it must be discarded and the rung retrained, never resumed."""
        task = Task(_toy_data(t=200), p=6, q=3)
        ah = self._candidate(1)
        warm = tmp_path / "warm"
        config = dataclasses.replace(self.EARLY_BEST, warm_dir=str(warm))
        rung = dataclasses.replace(config, fidelity_epochs=1)
        measure_arch_hyper(ah, task, rung)
        state = WarmStore(warm).load(ah, task, rung)
        state["best_val_mae"] = state.pop("best_val_scores").mae  # the old schema
        lineage = warm_lineage_fingerprint(ah, task, rung)
        Checkpoint(
            warm / f"{lineage}.warm.pkl",
            "warm-train",
            meta={"fingerprint": lineage, "key_version": CACHE_KEY_VERSION},
        ).save(state)
        resumes = []
        real_train = proxy.train_forecaster

        def spy(*args, **kwargs):
            resumes.append(kwargs["resume_state"])
            return real_train(*args, **kwargs)

        monkeypatch.setattr(proxy, "train_forecaster", spy)
        fresh = measure_arch_hyper(ah, task, self.EARLY_BEST)
        assert measure_arch_hyper(ah, task, config) == fresh
        assert resumes == [None, None]
        assert WarmStore(warm).load(ah, task, rung)["best_val_scores"] is not None
