"""Recorded training loops (repro.nn.loop): bit-identity, fallbacks,
telemetry, and the compiled-step weakref cache."""

import gc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.core.dataset import CircuitDataset
from repro.core.training import (
    TrainConfig,
    _compiled_step_for,
    report_training_round,
    train_model,
)
from repro.core.vae import CircuitVAEModel, VAEConfig
from repro.nn.loop import CompiledTrainLoop, use_compiled_loop
from repro.prefix import random_graph

CURVES = ("total", "reconstruction", "kl", "cost")


def small_dataset(seed=0, size=24, n=8):
    rng = np.random.default_rng(seed)
    ds = CircuitDataset()
    while len(ds) < size:
        g = random_graph(n, rng, rng.random() * 0.6)
        ds.add(g, float(g.node_count()))
    return ds


def small_model(seed=1):
    return CircuitVAEModel(
        VAEConfig(n=8, latent_dim=6, base_channels=4, hidden_dim=32),
        np.random.default_rng(seed),
    )


def fit(monkeypatch, loop, epochs=4, compiled=True):
    """One deterministic training round under the given engine knobs."""
    monkeypatch.setenv("REPRO_COMPILED_TRAIN", "1" if compiled else "0")
    monkeypatch.setenv("REPRO_COMPILED_LOOP", "1" if loop else "0")
    ds = small_dataset()
    model = small_model()
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(5)
    stats = train_model(
        model, ds, rng, TrainConfig(epochs=epochs, batch_size=8),
        optimizer=optimizer,
    )
    return model, optimizer, rng, stats


class TestRecordedLoop:
    def test_kill_switch_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILED_LOOP", raising=False)
        assert use_compiled_loop()
        monkeypatch.setenv("REPRO_COMPILED_LOOP", "0")
        assert not use_compiled_loop()

    def test_loop_bit_identical_to_per_step(self, monkeypatch):
        """The contract: same losses, parameters and rng stream position
        as replaying the compiled step once per step."""
        m_off, _, rng_off, s_off = fit(monkeypatch, loop=False)
        m_on, _, rng_on, s_on = fit(monkeypatch, loop=True)
        for name in CURVES:
            np.testing.assert_array_equal(
                getattr(s_on, name), getattr(s_off, name)
            )
        on_state, off_state = m_on.state_dict(), m_off.state_dict()
        for name, value in off_state.items():
            np.testing.assert_array_equal(on_state[name], value)
        assert rng_on.bit_generator.state == rng_off.bit_generator.state

    def test_loop_engages_and_labels_timings(self, monkeypatch):
        """Every step rides the loop: loop_seconds carries the segments,
        the per-step/eager histograms stay empty."""
        _, _, _, stats = fit(monkeypatch, loop=True)
        assert stats.compiled
        assert len(stats.loop_seconds) == 1  # no checkpoints: one segment
        assert stats.replay_seconds == []
        assert stats.eager_seconds == []

    def test_kill_switch_restores_per_step_path(self, monkeypatch):
        _, _, _, stats = fit(monkeypatch, loop=False)
        assert stats.compiled
        assert stats.loop_seconds == []
        assert len(stats.replay_seconds) == 4 * 3  # epochs * batches

    def test_eager_fallback_labels_its_own_timings(self, monkeypatch):
        _, _, _, stats = fit(monkeypatch, loop=True, compiled=False)
        assert not stats.compiled
        assert stats.loop_seconds == []
        assert stats.replay_seconds == []
        assert len(stats.eager_seconds) == 4 * 3

    def test_segments_replayed_counter(self, monkeypatch):
        model, optimizer, _, stats = fit(monkeypatch, loop=True)
        step = _compiled_step_for(
            model, optimizer, TrainConfig(epochs=4, batch_size=8)
        )
        loop = step._train_loop
        assert isinstance(loop, CompiledTrainLoop)
        assert loop.segments_replayed == len(stats.loop_seconds) == 1

    def test_begin_failure_falls_back_per_step(self, monkeypatch):
        """A loop that cannot prove itself defers to per-step replay
        wholesale — results identical to the kill-switch path."""
        _, _, rng_ref, s_ref = fit(monkeypatch, loop=False)

        def broken_begin(self, *args, **kwargs):
            raise nn.CompileUnsupported("forced by test")

        monkeypatch.setattr(CompiledTrainLoop, "begin", broken_begin)
        _, _, rng, stats = fit(monkeypatch, loop=True)
        assert stats.compiled
        assert stats.loop_seconds == []
        assert len(stats.replay_seconds) == 4 * 3
        for name in CURVES:
            np.testing.assert_array_equal(
                getattr(stats, name), getattr(s_ref, name)
            )
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_fallback_reasons_are_kept(self, monkeypatch):
        """Each engine that falls back leaves its CompileUnsupported
        message on TrainStats, and report_training_round hands it on."""
        _, _, _, clean = fit(monkeypatch, loop=True)
        assert clean.fallback_reason is None

        def broken_begin(self, *args, **kwargs):
            raise nn.CompileUnsupported("loop forced by test")

        def broken_step(self, *arrays):
            raise nn.CompileUnsupported("step forced by test")

        monkeypatch.setattr(CompiledTrainLoop, "begin", broken_begin)
        _, _, _, stats = fit(monkeypatch, loop=True)
        assert stats.fallback_reason == "loop: loop forced by test"
        monkeypatch.setattr(nn.CompiledTrainStep, "__call__", broken_step)
        _, _, _, stats = fit(monkeypatch, loop=True)
        assert stats.fallback_reason == (
            "loop: loop forced by test; step: step forced by test"
        )
        assert not stats.compiled

        class Listener:
            telemetry = None

            def on_training(self, info):
                self.info = info

        listener = Listener()
        report_training_round(listener, stats, 0)
        assert listener.info["fallback_reason"] == stats.fallback_reason

    def test_predrawn_indices_match_rng_choice(self):
        """The loop's hoisted-CDF searchsorted replays rng.choice
        draw-for-draw, including the generator's stream position."""
        weights = np.random.default_rng(0).random(13)
        weights /= weights.sum()
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        mine, reference = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(50):
            drawn = cdf.searchsorted(mine.random(8), side="right")
            expected = reference.choice(13, size=8, replace=True, p=weights)
            np.testing.assert_array_equal(drawn, expected)
        assert mine.bit_generator.state == reference.bit_generator.state


class TestCompiledStepCache:
    CFG = TrainConfig(epochs=2, batch_size=8)

    def test_cache_hit_same_model_and_config(self):
        model = small_model()
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        step = _compiled_step_for(model, optimizer, self.CFG)
        assert _compiled_step_for(model, optimizer, self.CFG) is step

    def test_distinct_models_get_distinct_steps(self):
        model_a, model_b = small_model(1), small_model(2)
        opt_a = nn.Adam(model_a.parameters(), lr=1e-3)
        opt_b = nn.Adam(model_b.parameters(), lr=1e-3)
        assert _compiled_step_for(model_a, opt_a, self.CFG) is not (
            _compiled_step_for(model_b, opt_b, self.CFG)
        )

    def test_entry_dies_with_model(self, monkeypatch):
        """Regression: the cached step must not strongly reference the
        model (a WeakKeyDictionary entry whose value holds its key is
        immortal), so dropping the model drops the whole entry — even
        after a full recorded-loop training round."""
        monkeypatch.setenv("REPRO_COMPILED_TRAIN", "1")
        monkeypatch.setenv("REPRO_COMPILED_LOOP", "1")
        ds = small_dataset()
        model = small_model()
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        stats = train_model(
            model, ds, np.random.default_rng(5), self.CFG, optimizer=optimizer
        )
        assert stats.compiled
        cache = optimizer._compiled_train_steps
        assert len(cache) == 1
        model_ref = weakref.ref(model)
        del model
        gc.collect()
        assert model_ref() is None
        assert len(cache) == 0

    def test_dead_model_trace_raises_compile_unsupported(self):
        model = small_model()
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        step = _compiled_step_for(model, optimizer, self.CFG)
        del model
        gc.collect()
        with pytest.raises(nn.CompileUnsupported):
            step.step_fn(
                nn.Tensor(np.zeros((2, 1, 12, 12))),
                nn.Tensor(np.zeros((2, 8, 8))),
                nn.Tensor(np.zeros((2, 6))),
                nn.Tensor(np.zeros(2)),
            )
