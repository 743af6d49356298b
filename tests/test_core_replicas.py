"""Stacked multi-replica training (repro.core.replicas): equivalence,
kill switch, structural fallbacks, and the seed-grid round pool."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.core.dataset import CircuitDataset
from repro.core.replicas import (
    ReplicaRoundPool,
    train_replicas,
    use_stacked_replicas,
)
from repro.core.training import TrainConfig, train_model
from repro.core.vae import CircuitVAEModel, VAEConfig
from repro.prefix import random_graph

CURVES = ("total", "reconstruction", "kl", "cost")
VCFG = VAEConfig(n=8, latent_dim=4, base_channels=2, hidden_dim=16)
CFG = TrainConfig(epochs=2, batch_size=4)
K = 3


def small_dataset(seed, size=12, n=8):
    rng = np.random.default_rng(seed)
    ds = CircuitDataset()
    while len(ds) < size:
        g = random_graph(n, rng, rng.random() * 0.6)
        ds.add(g, float(g.node_count()))
    return ds


def fixtures(count=K, vcfg=VCFG):
    models = [
        CircuitVAEModel(vcfg, np.random.default_rng(10 + k)) for k in range(count)
    ]
    datasets = [small_dataset(k) for k in range(count)]
    rngs = [np.random.default_rng(20 + k) for k in range(count)]
    optimizers = [nn.Adam(m.parameters(), lr=1e-3) for m in models]
    return models, datasets, rngs, optimizers


def serial_reference(monkeypatch, count=K):
    """Per-replica train_model on fresh fixtures: the contract baseline."""
    monkeypatch.setenv("REPRO_STACKED_REPLICAS", "0")
    models, datasets, rngs, optimizers = fixtures(count)
    stats = [
        train_model(m, d, r, CFG, optimizer=o)
        for m, d, r, o in zip(models, datasets, rngs, optimizers)
    ]
    monkeypatch.delenv("REPRO_STACKED_REPLICAS", raising=False)
    return models, rngs, stats


class TestStackedReplicas:
    def test_kill_switch_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_STACKED_REPLICAS", raising=False)
        assert use_stacked_replicas()
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "0")
        assert not use_stacked_replicas()

    def test_stacked_matches_serial_within_1e10(self, monkeypatch):
        """The acceptance contract: per-replica loss curves and final
        parameters within 1e-10 of training each replica alone."""
        ref_models, ref_rngs, ref_stats = serial_reference(monkeypatch)
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")
        models, datasets, rngs, optimizers = fixtures()
        stats = train_replicas(models, datasets, rngs, CFG, optimizers)
        assert all(s.stacked and s.compiled for s in stats)
        for mine, ref in zip(stats, ref_stats):
            for name in CURVES:
                np.testing.assert_allclose(
                    getattr(mine, name), getattr(ref, name),
                    rtol=1e-10, atol=1e-12,
                )
        for model, ref_model in zip(models, ref_models):
            state, ref_state = model.state_dict(), ref_model.state_dict()
            for name, value in ref_state.items():
                np.testing.assert_allclose(
                    state[name], value, rtol=1e-9, atol=1e-11
                )
        # Each replica's stream advanced exactly as the serial form's.
        for rng, ref_rng in zip(rngs, ref_rngs):
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_kill_switch_is_bit_identical_to_serial(self, monkeypatch):
        """REPRO_STACKED_REPLICAS=0 must restore per-replica train_model
        exactly (the opt-out contract)."""
        ref_models, ref_rngs, ref_stats = serial_reference(monkeypatch)
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "0")
        models, datasets, rngs, optimizers = fixtures()
        stats = train_replicas(models, datasets, rngs, CFG, optimizers)
        assert all(not s.stacked for s in stats)
        for mine, ref in zip(stats, ref_stats):
            for name in CURVES:
                np.testing.assert_array_equal(
                    getattr(mine, name), getattr(ref, name)
                )
        for model, ref_model in zip(models, ref_models):
            state, ref_state = model.state_dict(), ref_model.state_dict()
            for name, value in ref_state.items():
                np.testing.assert_array_equal(state[name], value)
        for rng, ref_rng in zip(rngs, ref_rngs):
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_single_replica_trains_serially(self, monkeypatch):
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")
        models, datasets, rngs, optimizers = fixtures(count=1)
        stats = train_replicas(models, datasets, rngs, CFG, optimizers)
        assert len(stats) == 1 and not stats[0].stacked

    def test_mismatched_architectures_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")
        models, datasets, rngs, optimizers = fixtures()
        odd = CircuitVAEModel(
            VAEConfig(n=8, latent_dim=4, base_channels=2, hidden_dim=24),
            np.random.default_rng(99),
        )
        models[1] = odd
        optimizers[1] = nn.Adam(odd.parameters(), lr=1e-3)
        stats = train_replicas(models, datasets, rngs, CFG, optimizers)
        assert all(not s.stacked for s in stats)
        assert all(len(s.total) == CFG.epochs for s in stats)

    def test_mismatched_optimizer_hyperparams_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")
        models, datasets, rngs, optimizers = fixtures()
        optimizers[2] = nn.Adam(models[2].parameters(), lr=5e-4)
        stats = train_replicas(models, datasets, rngs, CFG, optimizers)
        assert all(not s.stacked for s in stats)

    def test_mismatched_dataset_sizes_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")
        models, datasets, rngs, optimizers = fixtures()
        datasets[0] = small_dataset(7, size=16)
        stats = train_replicas(models, datasets, rngs, CFG, optimizers)
        assert all(not s.stacked for s in stats)

    def test_length_mismatch_raises(self):
        models, datasets, rngs, _ = fixtures()
        with pytest.raises(ValueError):
            train_replicas(models[:2], datasets, rngs, CFG)

    def test_empty_dataset_raises(self):
        models, datasets, rngs, optimizers = fixtures()
        datasets[1] = CircuitDataset()
        with pytest.raises(ValueError):
            train_replicas(models, datasets, rngs, CFG, optimizers)


class TestReplicaRoundPool:
    def _run_wave(self, pool, cells, withdraw=()):
        """One thread per cell, as the seed-grid runner guarantees."""
        results = {}

        def worker(cid, model, ds, rng, opt):
            handle = handles[cid]
            if cid in withdraw:
                handle.withdraw()
                results[cid] = None
                return
            results[cid] = handle.train(model, ds, rng, CFG, opt)

        handles = {cid: pool.handle(cid) for cid in cells}
        threads = [
            threading.Thread(target=worker, args=(cid,) + cells[cid])
            for cid in cells
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "pool rendezvous deadlocked"
        return results

    def test_wave_trains_stacked_and_matches_serial(self, monkeypatch):
        ref_models, _, ref_stats = serial_reference(monkeypatch)
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")
        models, datasets, rngs, optimizers = fixtures()
        cells = {
            cid: (models[cid], datasets[cid], rngs[cid], optimizers[cid])
            for cid in range(K)
        }
        results = self._run_wave(ReplicaRoundPool(), cells)
        assert all(results[cid] is not None for cid in cells)
        assert all(results[cid].stacked for cid in cells)
        for cid in cells:
            for name in CURVES:
                np.testing.assert_allclose(
                    getattr(results[cid], name),
                    getattr(ref_stats[cid], name),
                    rtol=1e-10, atol=1e-12,
                )
        for model, ref_model in zip(models, ref_models):
            state, ref_state = model.state_dict(), ref_model.state_dict()
            for name, value in ref_state.items():
                np.testing.assert_allclose(
                    state[name], value, rtol=1e-9, atol=1e-11
                )

    def test_withdrawn_cell_leaves_group_intact(self, monkeypatch):
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")
        models, datasets, rngs, optimizers = fixtures()
        cells = {
            cid: (models[cid], datasets[cid], rngs[cid], optimizers[cid])
            for cid in range(K)
        }
        results = self._run_wave(ReplicaRoundPool(), cells, withdraw={1})
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        assert results[0].stacked and results[2].stacked

    def test_singleton_group_returns_none(self, monkeypatch):
        """A lone arrival (everyone else withdrew) trains solo."""
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")
        models, datasets, rngs, optimizers = fixtures()
        cells = {
            cid: (models[cid], datasets[cid], rngs[cid], optimizers[cid])
            for cid in range(K)
        }
        results = self._run_wave(ReplicaRoundPool(), cells, withdraw={0, 2})
        assert results[1] is None

    def test_handle_is_one_shot(self, monkeypatch):
        """Second-round train_model calls must not re-enter the pool."""
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")
        models, datasets, rngs, optimizers = fixtures()
        cells = {
            cid: (models[cid], datasets[cid], rngs[cid], optimizers[cid])
            for cid in range(K)
        }
        pool = ReplicaRoundPool()
        results = self._run_wave(pool, cells)
        assert all(results[cid] is not None for cid in cells)
        handle = pool.handle(99)  # unrelated late registration
        handle._used = True
        assert handle.train(models[0], datasets[0], rngs[0], CFG, optimizers[0]) is None

    def test_checkpointed_cell_withdraws_via_train_model(self, monkeypatch, tmp_path):
        """train_model with a checkpoint_dir withdraws its handle so
        durable resume stays per-cell; the rest of the wave still stacks."""
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")
        models, datasets, rngs, optimizers = fixtures()
        pool = ReplicaRoundPool()
        handles = {cid: pool.handle(cid) for cid in range(K)}
        results = {}

        def pooled(cid):
            stats = train_model(
                models[cid], datasets[cid], rngs[cid], CFG,
                optimizer=optimizers[cid], replica_pool=handles[cid],
            )
            results[cid] = stats

        def checkpointed(cid):
            stats = train_model(
                models[cid], datasets[cid], rngs[cid], CFG,
                optimizer=optimizers[cid], replica_pool=handles[cid],
                checkpoint_dir=str(tmp_path / f"cell{cid}"),
            )
            results[cid] = stats

        threads = [
            threading.Thread(target=pooled, args=(0,)),
            threading.Thread(target=checkpointed, args=(1,)),
            threading.Thread(target=pooled, args=(2,)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "pool rendezvous deadlocked"
        assert results[0].stacked and results[2].stacked
        assert not results[1].stacked
        assert len(results[1].total) == CFG.epochs

    def test_stacked_failure_counts_and_falls_back_solo(self, monkeypatch):
        """An exception inside stacked training is counted (telemetry
        ``stacked_failures``), warned about once, and every member
        trains solo exactly as it would have without the pool."""
        import types
        import warnings

        from repro.core import replicas
        from repro.core.training import report_training_round
        from repro.engine.telemetry import EngineTelemetry

        _, _, ref_stats = serial_reference(monkeypatch)
        monkeypatch.setenv("REPRO_STACKED_REPLICAS", "1")

        def broken(*args, **kwargs):
            raise RuntimeError("injected stacking failure")

        monkeypatch.setattr(replicas, "train_replicas", broken)
        models, datasets, rngs, optimizers = fixtures()
        pool = ReplicaRoundPool()
        handles = {cid: pool.handle(cid) for cid in range(K)}
        results = {}

        def cell(cid):
            results[cid] = train_model(
                models[cid], datasets[cid], rngs[cid], CFG,
                optimizer=optimizers[cid], replica_pool=handles[cid],
            )

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            threads = [threading.Thread(target=cell, args=(cid,)) for cid in range(K)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "pool rendezvous deadlocked"
        failures = [w for w in caught if "injected stacking failure" in str(w.message)]
        assert len(failures) == 1
        for cid in range(K):
            assert handles[cid].failure == "RuntimeError: injected stacking failure"
            stats = results[cid]
            assert stats.stacked_failed and not stats.stacked
            for name in CURVES:
                assert getattr(stats, name) == getattr(ref_stats[cid], name)
            telemetry = EngineTelemetry()
            report_training_round(
                types.SimpleNamespace(telemetry=telemetry, on_training=None), stats, 0
            )
            assert telemetry.stacked_failures == 1
            assert telemetry.train_epochs == CFG.epochs
