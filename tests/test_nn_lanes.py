"""Batch-lane replay (repro.nn.compile lane plans, repro.nn.lanes):
split programs are bitwise equal to single-lane ones, the recorded loop
stays bitwise equal with lanes on, and the thread budget refuses
helpers when the cores are busy."""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.dataset import CircuitDataset
from repro.core.training import TrainConfig, _compiled_step_for
from repro.core.vae import CircuitVAEModel, VAEConfig
from repro.nn import compile as compile_mod
from repro.nn.lanes import MAX_LANES, LaneBudget, _Helper, share
from repro.nn.loop import CompiledTrainLoop
from repro.prefix import random_graph

CFG = TrainConfig()


def compiled_step(n, seed=0, latent=6):
    model = CircuitVAEModel(
        VAEConfig(n=n, latent_dim=latent, base_channels=2, hidden_dim=16),
        np.random.default_rng(seed),
    )
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    return model, optimizer, _compiled_step_for(model, optimizer, CFG)


def step_inputs(model, batch, seed):
    rng = np.random.default_rng(seed)
    n = model.config.n
    grids = (rng.random((batch, n, n)) < 0.3).astype(np.float64)
    eps = rng.standard_normal((batch, model.config.latent_dim))
    targets = rng.standard_normal(batch)
    return (model._pad_grids(grids), grids, eps, targets)


def snapshot(program, outputs):
    return (
        {name: np.array(value) for name, value in outputs.items()},
        [np.array(buf) for _, buf in program._param_grad_binds],
    )


def run_split(program, arrays, lanes):
    """One replay through the probed ``lanes`` plan on ``lanes - 1``
    helper threads (single-lane when the probe refused it)."""
    plan = program._lane_plans.get(lanes)
    if plan is None:
        return snapshot(program, program.run(arrays))
    budget = LaneBudget(cores=lanes)
    helpers = budget.grant(lanes)
    try:
        assert len(helpers) == lanes - 1
        return snapshot(program, program._replay(arrays, plan, helpers))
    finally:
        budget.release(helpers)


def assert_bitwise(got, want):
    (outs, grads), (ref_outs, ref_grads) = got, want
    assert outs.keys() == ref_outs.keys()
    for name in ref_outs:
        assert np.array_equal(outs[name], ref_outs[name]), name
    assert len(grads) == len(ref_grads)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)


class TestSplitProgram:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.sampled_from([8, 12, 16]),
        batch=st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 40)),
        lanes=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_split_equals_single_lane(self, n, batch, lanes, seed):
        model, _, step = compiled_step(n, seed)
        arrays = step_inputs(model, batch, seed + 1)
        program = step.program_for(arrays)
        reference = snapshot(program, program.run(arrays))
        reason = program.probe_lanes(arrays, lanes) if lanes > 1 else None
        if lanes > min(batch, MAX_LANES):
            assert reason is not None and program._lane_plans.get(lanes) is None
        assert_bitwise(run_split(program, arrays, lanes), reference)
        if lanes in program._lane_plans:
            # A second replay on fresh inputs is still bitwise equal.
            other = step_inputs(model, batch, seed + 2)
            reference = snapshot(program, program.run(other))
            assert_bitwise(run_split(program, other, lanes), reference)

    def test_model_program_splits(self):
        """The CircuitVAE step at its real shape passes the probe for
        every lane count up to the cap (a rejection would silently cost
        the speedup) and refuses more lanes than the cap."""
        model, _, step = compiled_step(16)
        arrays = step_inputs(model, 64, 3)
        program = step.program_for(arrays)
        for lanes in range(2, MAX_LANES + 1):
            assert program.probe_lanes(arrays, lanes) is None
            plan = program._lane_plans.get(lanes)
            regions = [r for _, r in plan.forward + plan.backward if r is not None]
            assert plan.lanes == lanes and len(regions) >= 2
        assert program.lane_rejects == {}
        assert program.stats.lane_rejects == 0
        assert "cap" in program.probe_lanes(arrays, MAX_LANES + 1)
        assert program.stats.lane_rejects == 0  # refused, not a mismatch

    def test_probe_rejection_keeps_single_lane(self, monkeypatch):
        """A split that differs is refused, counted and never replayed."""
        model, _, step = compiled_step(8)
        arrays = step_inputs(model, 8, 4)
        program = step.program_for(arrays)
        reference = snapshot(program, program.run(arrays))
        real_build = compile_mod.GraphProgram.build_lane_plan

        def corrupted(self, lanes, forward=None):
            plan = real_build(self, lanes, forward)
            grad = self._param_grad_binds[0][1]
            plan.backward.append((lambda: np.add(grad, 1.0, out=grad), None))
            return plan

        monkeypatch.setattr(compile_mod.GraphProgram, "build_lane_plan", corrupted)
        program._lane_plans.clear()
        program.lane_rejects.clear()
        assert "differs" in program.probe_lanes(arrays, 2)
        assert program._lane_plans.get(2) is None and program.stats.lane_rejects >= 1
        assert_bitwise(run_split(program, arrays, 2), reference)


def gather_step(seed=0):
    """A step whose batch-major value ``a`` (computed in a lane region)
    is read through an advanced index, which numpy copies."""
    rng = np.random.default_rng(seed)
    w = nn.Tensor(rng.standard_normal((32, 1024)) * 0.1, requires_grad=True)
    perm = [int(i) for i in rng.permutation(1024)]

    def step_fn(x):
        h = x @ w
        a = h * h
        b = a[:, perm] * h
        return {"loss": (b * b).mean()}

    return nn.compile_train_step(step_fn, [w], optimizer=nn.Adam([w], lr=1e-3))


class TestStaleReads:
    def test_advanced_index_getitem_is_not_hoisted(self):
        """The copying getitem runs after the region that writes ``a``,
        and the split stays bitwise equal on inputs it was not probed
        on."""
        step = gather_step()
        x = np.random.default_rng(1).standard_normal((64, 32))
        program = step.program_for((x,))
        plan = program._lane_plans.get(2)
        assert plan is not None and program.lane_rejects == {}
        assert any(r is not None for _, r in plan.forward)
        hoisted = [fn for _, r in plan.forward if r is not None for fn in r.before]
        assert hoisted == []  # the getitem is not among them
        other = (np.random.default_rng(2).standard_normal((64, 32)),)
        reference = snapshot(program, program.run(other))
        assert_bitwise(run_split(program, other, 2), reference)

    def test_probe_sees_a_stale_read(self, monkeypatch):
        """Hoisting the copying getitem before the lanes reads the
        previous replay's rows; the probe replays on NaN inputs first,
        so it refuses the plan instead of passing it."""
        monkeypatch.setattr(compile_mod.GraphProgram, "_pure_view", lambda self, node: True)
        step = gather_step()
        x = np.random.default_rng(1).standard_normal((64, 32))
        program = step.program_for((x,))
        assert "differs" in program.lane_rejects[2]
        assert program._lane_plans == {} and program.stats.lane_rejects == 1


def dataset(n, size, seed):
    rng = np.random.default_rng(seed)
    ds = CircuitDataset()
    while len(ds) < size:
        g = random_graph(n, rng, rng.random() * 0.6)
        ds.add(g, float(g.node_count()))
    return ds


def loop_run(n, lanes, budget, segments=(3, 2, 4), batch=12, size=40):
    """Train one model through the recorded loop, several segments."""
    model, optimizer, step = compiled_step(n, seed=5)
    ds = dataset(n, size, 6)
    targets = model.standardize_costs(ds.costs)
    loop = CompiledTrainLoop(step)
    session = loop.begin(
        ds.grids(), targets, ds.weights(), batch, model._pad_grids,
        model.config.latent_dim, lanes=lanes, budget=budget,
    )
    rng = np.random.default_rng(7)
    losses = [session.run(steps, rng) for steps in segments]
    params = [np.array(p.data) for p in model.parameters()]
    moments = [np.array(m) for m in optimizer._m + optimizer._v]
    return losses, params, moments, rng.random(), session, step


class TestSplitLoop:
    @pytest.mark.parametrize("n, lanes", [(8, 2), (12, 3), (16, 2)])
    def test_multi_segment_loop_is_bitwise_equal(self, n, lanes):
        single = loop_run(n, 1, LaneBudget(cores=1))
        split = loop_run(n, lanes, LaneBudget(cores=lanes))
        for a, b in zip(single[:3], split[:3]):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
        assert single[3] == split[3]  # rng stream position
        session, step = split[4], split[5]
        assert session.lanes_used == min(lanes, MAX_LANES)
        assert step.stats.lane_steps == 9
        assert single[5].stats.lane_steps == 0

    def test_busy_cores_keep_the_loop_single_lane(self):
        """Another trainer holding the only spare core: no helper, same
        values."""
        budget = LaneBudget(cores=2)
        reference = loop_run(8, 1, LaneBudget(cores=1))
        release = threading.Event()
        registered = threading.Event()

        def other_trainer():
            with budget.training():
                registered.set()
                release.wait(60)

        thread = threading.Thread(target=other_trainer)
        thread.start()
        try:
            assert registered.wait(60)
            busy = loop_run(8, 2, budget)
        finally:
            release.set()
            thread.join(60)
        assert busy[4].lanes_used == 1 and busy[5].stats.lane_steps == 0
        for a, b in zip(reference[:3], busy[:3]):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)


class TestLaneBudget:
    def test_lone_trainer_gets_spare_cores(self):
        budget = LaneBudget(cores=3)
        with budget.training():
            helpers = budget.grant(3)  # capped at MAX_LANES lanes
            assert len(helpers) == MAX_LANES - 1 and budget._busy == MAX_LANES - 1
            budget.release(helpers)
        assert budget._busy == 0 and budget._trainers == 0

    def test_no_helper_when_cores_are_busy(self):
        budget = LaneBudget(cores=2)
        with budget.training(), budget.training():
            assert budget.grant(2) == []  # two trainers fill two cores
        with budget.training():
            first = budget.grant(2)
            assert len(first) == 1
            assert budget.grant(2) == []  # the helper is busy
            budget.release(first)
            again = budget.grant(2)
            assert again == first  # helpers are reused, not respawned
            budget.release(again)

    def test_single_core_never_splits(self):
        budget = LaneBudget(cores=1)
        with budget.training():
            assert budget.grant(MAX_LANES) == []
        assert budget.default_lanes() == 1

    def test_share_runs_each_task_once_and_reraises(self):
        helpers = [_Helper(), _Helper()]
        ran = []
        lock = threading.Lock()

        def task(i):
            def run():
                with lock:
                    ran.append(i)
                if i == 2:
                    raise ValueError("lane failed")

            return run

        with pytest.raises(ValueError, match="lane failed"):
            share([task(i) for i in range(6)], helpers)
        assert sorted(ran) == list(range(6))
        ran.clear()
        share([task(i) for i in (0, 1, 3)], helpers)  # helpers still serve
        assert sorted(ran) == [0, 1, 3]

    def test_share_does_not_wait_for_a_helper_that_never_starts(self):
        """A helper whose core is taken (here: one that never runs its
        work) cannot stall the caller: the caller claims every task."""

        class Asleep:
            def submit(self, work):
                pass

        ran = []
        share([lambda i=i: ran.append(i) for i in range(4)], [Asleep()])
        assert ran == [0, 1, 2, 3]

    def test_concurrent_grants_never_oversubscribe(self):
        """More trainer threads than cores, hammering grant/release with
        a tiny switch interval: no helper is handed to two trainers, the
        helpers in use never exceed the spare cores, and the counters
        return to zero (a lost update would break each)."""
        import sys

        budget = LaneBudget(cores=3)
        guard = threading.Lock()
        in_use = set()
        peak = [0]
        errors = []

        def trainer():
            try:
                with budget.training():
                    for _ in range(300):
                        helpers = budget.grant(3)
                        with guard:
                            for helper in helpers:
                                if id(helper) in in_use:
                                    errors.append("helper handed out twice")
                                in_use.add(id(helper))
                            peak[0] = max(peak[0], len(in_use))
                        with guard:
                            for helper in helpers:
                                in_use.discard(id(helper))
                        budget.release(helpers)
            except Exception as error:  # surfaced below
                errors.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=trainer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert peak[0] <= budget.cores - 1
        assert budget._trainers == 0 and budget._busy == 0
