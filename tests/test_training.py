import dataclasses
import math
import sys
import weakref

import numpy as np
import pytest

import bwinr.network
from bwinr import (
    Activation,
    ConfigurationError,
    DivergenceError,
    Gradients,
    ImageGrid,
    NumericalError,
    ShapeError,
    TrainConfig,
    TrainLog,
    UnsupportedActivationError,
    adam_step,
    init_adam_state,
    init_network,
    lr_at,
    make_signal_task,
    make_task,
    mlp_specs,
    shepp_logan,
    train,
    univariate_benchmark,
)
from bwinr.diagnostics import variation_norm_deep
from bwinr.training import (
    ADAM_BETA2,
    ADAM_EPS,
    LOG_COLUMNS,
    LogEntry,
    _gradients,
    _objective,
    build_network,
    grad_check,
    prepare_inputs,
)


def small_cfg(**kw):
    base = dict(
        activation=Activation("bwrelu", 3.0),
        epochs=50,
        lr0=5e-3,
        decay=0.1,
        width=16,
        depth=1,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def quadratic_task(n=64):
    x = np.linspace(-1, 1, n)
    return make_signal_task(x, 0.5 * x**2)


class TestLrSchedule:
    def test_initial(self):
        cfg = small_cfg(epochs=100, lr0=2e-3, decay=0.1)
        assert lr_at(cfg, 0) == pytest.approx(2e-3)

    def test_final(self):
        cfg = small_cfg(epochs=100, lr0=2e-3, decay=0.1)
        assert lr_at(cfg, 100) == pytest.approx(2e-4)

    def test_halfway_ct_settings(self):
        cfg = small_cfg(epochs=100, lr0=2e-3, decay=0.1)
        assert lr_at(cfg, 50) == pytest.approx(2e-3 * 10 ** (-0.5))

    def test_monotone_nonincreasing(self):
        cfg = small_cfg(epochs=200, lr0=1e-2, decay=0.3)
        lrs = [lr_at(cfg, t) for t in range(0, 201, 10)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestAdamStep:
    def test_zero_gradient_fixed_point(self):
        p = init_network(mlp_specs([1, 4, 1], Activation("relu")), 0)
        state = init_adam_state(p)
        zero = Gradients(
            weights=[np.zeros_like(w) for w in p.weights],
            biases=[np.zeros_like(b) for b in p.biases],
        )
        q, _ = adam_step(p, zero, state, lr=1e-2, weight_decay=0.0)
        for a, b in zip(p.weights + p.biases, q.weights + q.biases):
            assert np.array_equal(a, b)

    def test_first_step_magnitude(self):
        # t=1 Adam algebra: delta = -lr * g / (|g| + eps * sqrt(corr)),
        # corr = 1/(1 - beta2)
        p = init_network([*mlp_specs([1, 1], Activation("identity"))], 0)
        p.weights[0][:] = 0.5
        p.biases[0][:] = 0.0
        g = 0.37
        grads = Gradients(weights=[np.array([[g]])], biases=[np.zeros(1)])
        state = init_adam_state(p)
        lr = 1e-2
        q, new_state = adam_step(p, grads, state, lr)
        eps_eff = ADAM_EPS * math.sqrt(1.0 / (1.0 - ADAM_BETA2))
        expected = -lr * g / (abs(g) + eps_eff)
        assert q.weights[0][0, 0] - 0.5 == pytest.approx(expected, rel=1e-12)
        assert new_state.step == 1

    def test_weight_decay_shrinks_weights_only(self):
        p = init_network(mlp_specs([2, 4, 1], Activation("relu")), 1)
        state = init_adam_state(p)
        zero = Gradients(
            weights=[np.zeros_like(w) for w in p.weights],
            biases=[np.zeros_like(b) for b in p.biases],
        )
        q, _ = adam_step(p, zero, state, lr=1e-3, weight_decay=0.1)
        for a, b in zip(p.weights, q.weights):
            moved = a != 0.0
            assert np.all(np.abs(b[moved]) < np.abs(a[moved]))
        for a, b in zip(p.biases, q.biases):
            assert np.array_equal(a, b)

    def test_nonfinite_gradient_aborts(self):
        p = init_network(mlp_specs([1, 2, 1], Activation("relu")), 0)
        state = init_adam_state(p)
        bad = Gradients(
            weights=[np.full_like(w, np.nan) for w in p.weights],
            biases=[np.zeros_like(b) for b in p.biases],
        )
        with pytest.raises(NumericalError):
            adam_step(p, bad, state, lr=1e-3)

    def test_overflowing_second_moment_aborts(self):
        # A finite gradient of 1e200 squares past the float64 range; warnings
        # are errors here, so this also checks that none is raised.
        p = init_network(mlp_specs([1, 2, 1], Activation("relu")), 0)
        state = init_adam_state(p)
        huge = Gradients(
            weights=[np.full_like(w, 1e200) for w in p.weights],
            biases=[np.zeros_like(b) for b in p.biases],
        )
        with pytest.raises(NumericalError, match="second moment"):
            adam_step(p, huge, state, lr=1e-3)

    def test_shapes_and_finiteness_preserved(self):
        rng = np.random.default_rng(2)
        p = init_network(mlp_specs([2, 8, 1], Activation("bwrelu", 2.0)), 3)
        state = init_adam_state(p)
        grads = Gradients(
            weights=[rng.standard_normal(w.shape) for w in p.weights],
            biases=[rng.standard_normal(b.shape) for b in p.biases],
        )
        q, _ = adam_step(p, grads, state, lr=0.1, weight_decay=0.01)
        for a, b in zip(p.weights + p.biases, q.weights + q.biases):
            assert a.shape == b.shape
            assert np.all(np.isfinite(b))


class TestTrainLoop:
    def test_zero_epochs_returns_init(self):
        cfg = small_cfg(epochs=0)
        task = quadratic_task()
        params, log = train(cfg, task)
        fresh = init_network(
            mlp_specs([1, cfg.width, 1], cfg.activation), cfg.seed
        )
        for a, b in zip(params.weights, fresh.weights):
            assert np.array_equal(a, b)
        assert len(log.entries) == 1
        assert log.entries[0].epoch == 0

    def test_bitwise_reproducible(self):
        cfg = small_cfg(epochs=30)
        task = quadratic_task()
        _, log_a = train(cfg, task)
        _, log_b = train(cfg, task)
        assert log_a.to_csv() == log_b.to_csv()

    def test_loss_decreases_on_smooth_problem(self):
        cfg = small_cfg(epochs=300, lr0=1e-2, width=32, log_every=50)
        task = quadratic_task()
        _, log = train(cfg, task)
        assert log.entries[-1].loss < 0.1 * log.entries[0].loss

    def test_linear_quadratic_monotone_first_steps(self):
        # identity net on a linear-regression problem: small-lr Adam should
        # descend monotonically over the first 100 steps
        x = np.linspace(-1, 1, 32)
        task = make_signal_task(x, 0.8 * x + 0.1)
        cfg = TrainConfig(
            activation=Activation("identity"),
            epochs=100, lr0=1e-3, decay=1.0, width=1, depth=1,
            seed=0, log_every=1,
        )
        _, log = train(cfg, task)
        losses = [e.loss for e in log.entries]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_early_stop_at_target_loss(self):
        cfg = small_cfg(
            epochs=2000, lr0=1e-2, width=32, target_loss=1e-2, log_every=100
        )
        task = quadratic_task()
        _, log = train(cfg, task)
        final = log.entries[-1]
        assert final.loss <= 1e-2
        assert final.epoch < 2000
        # training stops at the first crossing, not some later epoch
        assert all(e.loss > 1e-2 for e in log.entries[:-1])

    def test_divergence_aborts_with_log(self):
        cfg = small_cfg(
            activation=Activation("relu"), epochs=200, lr0=1e4,
            decay=1.0, log_every=1,
        )
        x = np.linspace(-1, 1, 16)
        task = make_signal_task(x, np.full(16, 1e5))
        with pytest.raises(DivergenceError) as err:
            train(cfg, task)
        assert err.value.log is not None

    def test_wavelet_beats_relu_on_mixed_frequencies(self):
        # matched-budget univariate benchmark: width 64, same epochs/seed
        x, y = univariate_benchmark(512)
        task = make_signal_task(x, y)
        bw = TrainConfig(
            activation=Activation("bwrelu", 3.0),
            epochs=400, lr0=5e-3, decay=0.1, width=64, depth=1, seed=0,
        )
        relu = TrainConfig(
            activation=Activation("relu"),
            epochs=400, lr0=5e-3, decay=0.1, width=64, depth=1, seed=0,
        )
        _, bw_log = train(bw, task)
        _, relu_log = train(relu, task)
        assert bw_log.entries[-1].loss <= 0.1 * relu_log.entries[-1].loss

    def test_psnr_and_vnorm_logged_for_image_task(self):
        rng = np.random.default_rng(0)
        img = ImageGrid(rng.uniform(0, 1, (8, 8)))
        task = make_task("sigrep", img)
        cfg = small_cfg(epochs=5, width=8, depth=2, log_every=1)
        params, log = train(cfg, task)
        final = log.entries[-1]
        assert final.psnr is not None
        assert final.vnorm_total is not None
        assert len(variation_norm_deep(params).layers) == 2

    @pytest.mark.parametrize("activation", [
        Activation("bwrelu", 3.0), Activation("relu"), Activation("sine", 30.0),
        Activation("gaussian", 10.0),
    ], ids=lambda a: a.kind)
    @pytest.mark.parametrize("depth", [1, 3])
    def test_vnorm_logged_exactly_where_defined(self, activation, depth):
        # The log tests cfg.activation; variation_norm_deep tests the net.
        cfg = small_cfg(activation=activation, epochs=0, width=4, depth=depth)
        params, log = train(cfg, quadratic_task(8))
        if activation.kind == "bwrelu":
            assert log.entries[-1].vnorm_total == variation_norm_deep(params).total
        else:
            assert log.entries[-1].vnorm_total is None
            with pytest.raises(UnsupportedActivationError):
                variation_norm_deep(params)

    def test_feature_condition_tracking(self):
        task = quadratic_task(64)
        cfg = small_cfg(epochs=4, track_feature_condition=True, log_every=2)
        _, log = train(cfg, task)
        assert all(e.feat_cond is not None for e in log.entries)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            small_cfg(lr0=0.0)
        with pytest.raises(ConfigurationError):
            small_cfg(decay=0.0)
        with pytest.raises(ConfigurationError):
            small_cfg(decay=1.5)
        with pytest.raises(ConfigurationError):
            small_cfg(epochs=-1)
        with pytest.raises(ConfigurationError):
            small_cfg(weight_decay=-0.1)
        for bad in (dict(pe_levels=0), dict(log_every=0), dict(log_every=-5),
                    dict(target_loss=-1.0), dict(target_loss=math.nan),
                    dict(width=0), dict(depth=0),
                    dict(lr0=math.inf), dict(lr0=math.nan),
                    dict(weight_decay=math.inf), dict(weight_decay=math.nan)):
            with pytest.raises(ConfigurationError):
                small_cfg(**bad)

    def test_pe_levels_whose_top_frequency_overflows(self):
        assert small_cfg(pe_levels=1023).pe_levels == 1023
        with pytest.raises(ConfigurationError, match="got 1024"):
            small_cfg(pe_levels=1024)


def _count_forwards(monkeypatch):
    """Count calls to ``network.forward`` through every binding in the package.

    Each call also asserts that no earlier call's trace is still alive, so
    training holds at most one ForwardTrace at a time.
    """
    real = bwinr.network.forward
    traces = []

    def counted(params, X):
        assert all(ref() is None for ref in traces), "an old trace is alive"
        Y, trace = real(params, X)
        traces.append(weakref.ref(trace))
        return Y, trace

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bwinr" and getattr(module, "forward", None) is real:
            monkeypatch.setattr(module, "forward", counted)
    return traces


class TestOneForwardPerState:
    @pytest.mark.parametrize("kw", [
        dict(epochs=7, log_every=3),
        dict(epochs=2000, lr0=1e-2, width=32, target_loss=1e-2, log_every=100),
        dict(epochs=0),
    ], ids=["full", "early-stop", "zero-epochs"])
    def test_forward_calls_with_condition_tracking(self, monkeypatch, kw):
        cfg = small_cfg(track_feature_condition=True, **kw)
        calls = _count_forwards(monkeypatch)
        _, log = train(cfg, quadratic_task())
        epochs_run = log.entries[-1].epoch
        if cfg.target_loss is not None:
            assert epochs_run < cfg.epochs
        else:
            assert epochs_run == cfg.epochs
        assert len(calls) == epochs_run + 1
        assert all(e.feat_cond is not None for e in log.entries)

    @pytest.mark.parametrize("task_name, kw", [
        ("sigrep", dict(epochs=5)),
        ("sigrep", dict(epochs=300, lr0=1e-2, target_loss=0.05, log_every=50)),
        ("superres", dict(epochs=3, activation=Activation("relu"), pe_levels=3)),
        ("ct", dict(epochs=0)),
    ])
    def test_final_render_is_the_final_state(self, task_name, kw):
        img = ImageGrid(np.random.default_rng(0).uniform(0, 1, (8, 8)))
        extra = {"factor": 2} if task_name == "superres" else {}
        task = make_task(task_name, img, **extra)
        cfg = small_cfg(width=8, depth=2, **kw)
        params, log = train(cfg, task)
        Y, _ = bwinr.network.forward(params, prepare_inputs(cfg, task))
        expected = Y.reshape(task.operator.in_shape)
        assert log.final_render.shape == expected.shape
        assert log.final_render.tobytes() == expected.tobytes()
        assert TrainLog.from_csv(log.to_csv()).final_render is None


class TestObjective:
    def test_gradient_shapes(self):
        p = init_network(mlp_specs([2, 5, 1], Activation("bwrelu", 3.0)), 0)
        X = np.zeros((4, 2))
        task = make_signal_task(X, np.zeros((4, 1)))
        loss, resid, _, trace = _objective(p, X, task)
        g = _gradients(p, trace, task, resid)
        assert loss >= 0.0
        assert [gw.shape for gw in g.weights] == [w.shape for w in p.weights]
        assert [gb.shape for gb in g.biases] == [b.shape for b in p.biases]

    def test_misshaped_target_rejected(self):
        # (4, 4) measurements against a (4, 1) target would broadcast.
        task = make_task("superres", shepp_logan(8), factor=2)
        task = dataclasses.replace(task, target=task.target[:, :1])
        cfg = small_cfg(width=5)
        p, X = build_network(cfg, task)
        with pytest.raises(ShapeError):
            _objective(p, X, task)
        with pytest.raises(ShapeError):
            train(cfg, task)

    def test_output_count_must_fill_the_rendering(self):
        # One output per row cannot render a (20, 3) signal.
        X = np.linspace(-1, 1, 40).reshape(20, 2)
        task = make_signal_task(X, np.zeros((20, 3)))
        p = init_network(mlp_specs([2, 4, 1], Activation("bwrelu", 3.0)), 0)
        names = r"\(20, 1\).*\(20, 3\)"
        with pytest.raises(ShapeError, match=names):
            grad_check(p, X, task)
        with pytest.raises(ShapeError, match=names):
            train(small_cfg(width=4, depth=1), task)

    @pytest.mark.parametrize("task_name, kw", [
        ("ct", dict(n_angles=6)),
        ("superres", dict(factor=2)),
    ], ids=["ct", "superres"])
    @pytest.mark.parametrize("act", [
        Activation("bwrelu", 3.0),
        Activation("sine", 2.0),
        Activation("gaussian", 2.0),
    ], ids=["bwrelu", "sine", "gaussian"])
    def test_grad_check_through_the_operator(self, task_name, kw, act):
        task = make_task(task_name, shepp_logan(8), **kw)
        p = init_network(mlp_specs([2, 8, 1], act), 0)
        assert grad_check(p, task.coords, task) <= 1e-5

    def test_train_steps_along_the_checked_gradient(self):
        task = make_task("superres", shepp_logan(8), factor=2)
        cfg = small_cfg(width=8, epochs=1)
        p0, X = build_network(cfg, task)
        _, resid, _, trace = _objective(p0, X, task)
        expected, _ = adam_step(p0, _gradients(p0, trace, task, resid),
                                init_adam_state(p0), cfg.lr0)
        params, _ = train(cfg, task)
        for got, want in zip(params.weights + params.biases,
                             expected.weights + expected.biases):
            assert got.tobytes() == want.tobytes()


class TestTrainLogCsv:
    def test_header(self):
        assert LOG_COLUMNS == ("epoch", "loss", "psnr", "lr", "vnorm_total", "feat_cond")
        assert TrainLog().to_csv() == ",".join(LOG_COLUMNS) + "\n"

    def test_roundtrip(self):
        log = TrainLog(entries=[
            LogEntry(epoch=0, loss=0.5, psnr=12.25, lr=1e-3,
                     vnorm_total=42.0, feat_cond=1e8),
            LogEntry(epoch=10, loss=0.125, psnr=math.inf, lr=5e-4,
                     vnorm_total=None, feat_cond=None),
        ])
        text = log.to_csv()
        parsed = TrainLog.from_csv(text)
        assert parsed.to_csv() == text
        assert parsed.entries[1].psnr == math.inf
        assert parsed.entries[1].vnorm_total is None

    def test_missing_fields_empty(self):
        log = TrainLog(entries=[
            LogEntry(epoch=3, loss=1.0, psnr=None, lr=0.1),
        ])
        line = log.to_csv().splitlines()[1]
        assert line == "3,1.0,,0.1,,"

    def test_wrong_header_rejected(self):
        text = TrainLog().to_csv().replace("feat_cond", "kappa")
        with pytest.raises(ShapeError):
            TrainLog.from_csv(text)
