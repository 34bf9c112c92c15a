"""Layers, initialization, Adam schedule, and the checkpoint container."""

import numpy as np
import pytest

from gradcheck import check_gradients

import fus3d.tensor as T
from fus3d.nn import (
    Conv2d,
    Linear,
    LSTMCell,
    Module,
    Parameter,
    kaiming_uniform,
    load_checkpoint,
    orthogonal,
    save_checkpoint,
)
from fus3d.optim import Adam
from fus3d.tensor import Tensor, backward


class TestLayers:
    def test_linear_shapes_and_values(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 2, rng)
        x = Tensor(rng.standard_normal((5, 3)))
        out = layer(x)
        assert out.shape == (5, 2)
        np.testing.assert_allclose(
            out.data, x.data @ layer.weight.data.T + layer.bias.data, atol=1e-12
        )

    def test_conv_layer_shapes(self):
        rng = np.random.default_rng(1)
        layer = Conv2d(2, 4, 3, rng, stride=2, padding=1)
        out = layer(Tensor(rng.standard_normal((3, 2, 8, 8))))
        assert out.shape == (3, 4, 4, 4)

    def test_lstm_cell_gradients(self):
        rng = np.random.default_rng(2)
        shapes = [(2, 16), (2, 4), (2, 4), (16, 4)]
        arrays = [rng.uniform(-0.5, 0.5, s) for s in shapes]
        cell = LSTMCell(1, 4, np.random.default_rng(0))

        def op(t):
            cell.w_hh = t[3]
            h, c = cell(t[0], t[1], t[2])
            return T.concat([h, c], axis=1)

        check_gradients(op, arrays)

    def test_lstm_state_shapes(self):
        rng = np.random.default_rng(3)
        cell = LSTMCell(6, 4, rng)
        h, c = cell.initial_state(batch=3)
        gates = cell.project(Tensor(rng.standard_normal((3, 6))))
        h2, c2 = cell(gates, h, c)
        assert h2.shape == (3, 4) and c2.shape == (3, 4)
        assert np.abs(h2.data).max() > 0.0

    def test_lstm_projected_sequence_gradients(self):
        """project once, then three recurrent steps, against finite
        differences for the inputs and all three parameters."""
        rng = np.random.default_rng(7)
        cell = LSTMCell(3, 4, rng)
        cell.bias.data = rng.uniform(-0.5, 0.5, 16)
        arrays = [rng.uniform(-0.5, 0.5, (2, 3, 3)), rng.uniform(-0.5, 0.5, (2, 4)),
                  rng.uniform(-0.5, 0.5, (2, 4)), cell.w_ih.data, cell.w_hh.data,
                  cell.bias.data]

        def op(t):
            cell.w_ih, cell.w_hh, cell.bias = t[3], t[4], t[5]
            gates = cell.project(t[0])
            h, c = t[1], t[2]
            outs = []
            for step in range(3):
                h, c = cell(gates[:, step], h, c)
                outs.append(T.concat([h, c], axis=1))
            return T.stack(outs, axis=1)

        check_gradients(op, arrays)

    def test_lstm_hoisted_projection_matches_per_step_formula(self):
        """The projected loop equals the per-step gates
        x_t @ W_ihᵀ + h @ W_hhᵀ + b written out in numpy."""
        rng = np.random.default_rng(8)
        batch, steps, n_in, hidden = 3, 5, 7, 4
        cell = LSTMCell(n_in, hidden, rng)
        cell.bias.data = rng.uniform(-0.5, 0.5, 4 * hidden)
        x = rng.standard_normal((batch, steps, n_in))
        gates = cell.project(Tensor(x))
        h, c = cell.initial_state(batch)
        hs = []
        for t in range(steps):
            h, c = cell(gates[:, t], h, c)
            hs.append(h.data)

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        w_ih, w_hh, b = cell.w_ih.data, cell.w_hh.data, cell.bias.data
        h_ref, c_ref = np.zeros((batch, hidden)), np.zeros((batch, hidden))
        for t in range(steps):
            z = x[:, t] @ w_ih.T + h_ref @ w_hh.T + b
            zi, zf, zc, zo = np.split(z, 4, axis=1)
            c_ref = sig(zf) * c_ref + sig(zi) * np.tanh(zc)
            h_ref = sig(zo) * np.tanh(c_ref)
            np.testing.assert_allclose(hs[t], h_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(c.data, c_ref, rtol=0.0, atol=1e-12)

    def test_orthogonal_init(self):
        rng = np.random.default_rng(4)
        q = orthogonal(rng, (16, 4))
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-10)

    def test_kaiming_bound(self):
        rng = np.random.default_rng(5)
        w = kaiming_uniform(rng, (64, 9), fan_in=9)
        assert np.abs(w).max() <= np.sqrt(6.0 / 9)


class TestModuleTree:
    def test_named_parameters_are_unique_dotted_paths(self):
        rng = np.random.default_rng(6)

        class Child(Module):
            def __init__(self):
                self.lin = Linear(2, 2, rng)

        class Root(Module):
            def __init__(self):
                self.a = Child()
                self.blocks = [Child(), Child()]
                self.w = Parameter(np.zeros(3))

        root = Root()
        names = [n for n, _ in root.named_parameters()]
        assert "a.lin.weight" in names
        assert "blocks.1.lin.bias" in names
        assert "w" in names
        assert len(names) == len(set(names))

    def test_named_parameters_leaves_parameters_unchanged(self):
        model = Linear(2, 2, np.random.default_rng(6))
        params = [p for _, p in model.named_parameters()]
        before = [[getattr(p, slot) for slot in Tensor.__slots__]
                  for p in params]
        named = model.named_parameters(prefix="head.")
        assert [n for n, _ in named] == ["head.weight", "head.bias"]
        assert all(a is b for (_, a), b in zip(named, params))
        after = [[getattr(p, slot) for slot in Tensor.__slots__]
                 for p in params]
        assert all(x is y for b, a in zip(before, after) for x, y in zip(b, a))
        assert not any(hasattr(p, "__dict__") for p in params)

    def test_state_round_trip(self):
        rng = np.random.default_rng(7)
        model = Linear(3, 3, rng)
        state = model.state_arrays()
        other = Linear(3, 3, np.random.default_rng(8))
        other.load_state_arrays(state)
        np.testing.assert_array_equal(other.weight.data, model.weight.data)

    def test_load_keeps_parameters_and_stores_float64_copies(self):
        model = Linear(2, 2, np.random.default_rng(9))
        params = [p for _, p in model.named_parameters()]
        opt = Adam(model.named_parameters())
        weight = np.arange(4).reshape(2, 2)  # an integer array
        bias = np.array([0.5, -1.5])
        model.load_state_arrays({"weight": weight, "bias": bias})
        assert all(a is b for (_, a), b in zip(model.named_parameters(), params))
        assert all(a is b for a, b in zip(opt.params, params))
        assert model.weight.data.dtype == np.float64
        np.testing.assert_array_equal(model.weight.data, weight)
        bias[0] = 9.0
        assert model.bias.data[0] == 0.5


class TestParameterIsTensor:
    def test_parameter_is_a_trainable_tensor(self):
        p = Parameter(np.arange(3))
        assert isinstance(p, Tensor)
        assert p.requires_grad
        assert p.data.dtype == np.float64
        assert not any(hasattr(p, name) for name in ("grad", "zero_grad", "name"))

    @pytest.mark.parametrize("layer", ["linear", "conv", "lstm"])
    def test_backward_fills_and_zero_grad_clears(self, layer):
        # backward returns one gradient per parameter, and each sweep
        # starts from zero: a second sweep returns equal values
        rng = np.random.default_rng(15)
        if layer == "linear":
            module = Linear(3, 2, rng)
            out = module(Tensor(rng.standard_normal((4, 3))))
        elif layer == "conv":
            module = Conv2d(2, 3, 3, rng, padding=1)
            out = module(Tensor(rng.standard_normal((2, 2, 5, 5))))
        else:
            module = LSTMCell(3, 2, rng)
            h, c = module.initial_state(batch=2)
            gates = module.project(Tensor(rng.standard_normal((2, 3))))
            out = T.concat(list(module(gates, h, c)), axis=1)
        loss = T.tensor_sum(T.mul(out, out))
        params = [p for _, p in module.named_parameters()]
        grads = backward(loss, params)
        assert params and all(g is not None for g in grads)
        assert all(g.shape == p.shape for g, p in zip(grads, params))
        for g, again in zip(grads, backward(loss, params)):
            np.testing.assert_array_equal(g, again)


class TestAdam:
    def test_descent_direction(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([("p", p)])
        opt.step([np.array([1.0])], 0.1)
        assert p.data[0] < 1.0

    def test_missing_grad_is_an_error(self):
        w, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        opt = Adam([("w", w), ("b", b)])
        with pytest.raises(RuntimeError,
                           match="parameter b has no gradient: the loss "
                                 "does not reach it"):
            opt.step([np.ones(1), None], 0.1)
        # raised before any update
        assert opt.step_count == 0 and w.data[0] == 0.0

    def test_gradient_count_must_match_parameters(self):
        opt = Adam([("p", Parameter(np.zeros(1)))])
        with pytest.raises(ValueError):
            opt.step([np.ones(1), np.ones(1)], 0.1)

    def test_quadratic_bowl_convergence(self):
        # minimize sum((x - c)^2); closed-form minimum at c
        rng = np.random.default_rng(9)
        c = rng.standard_normal(4)
        p = Parameter(np.zeros(4))
        opt = Adam([("p", p)])
        for _ in range(2000):
            diff = T.sub(p, c)
            opt.step(backward(T.tensor_sum(T.mul(diff, diff)), opt.params), 0.05)
        assert float(np.abs(p.data - c).max()) < 1e-6

    def test_state_round_trip_updates_identically(self):
        rng = np.random.default_rng(10)

        def make():
            r = np.random.default_rng(11)
            model = Linear(3, 2, r)
            return model, Adam(model.named_parameters())

        model_a, opt_a = make()
        model_b, opt_b = make()
        x = rng.standard_normal((4, 3))

        def one_step(model, opt):
            out = model(Tensor(x))
            opt.step(backward(T.tensor_sum(T.mul(out, out)), opt.params), 1e-3)

        one_step(model_a, opt_a)
        # transfer a's state to b, then both take the same second step
        model_b.load_state_arrays(model_a.state_arrays())
        opt_b.load_state_arrays(opt_a.state_arrays())
        one_step(model_a, opt_a)
        one_step(model_b, opt_b)
        np.testing.assert_array_equal(model_a.weight.data, model_b.weight.data)


class TestCheckpointFormat:
    def test_round_trip_with_config(self, tmp_path):
        rng = np.random.default_rng(12)
        arrays = {
            "enc.weight": rng.standard_normal((3, 2, 2, 2)),
            "head.bias": rng.standard_normal(5),
            "scalar": np.array(3.5),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays, config={"scale": "toy", "s": "8"})
        loaded, config = load_checkpoint(path)
        assert config == {"scale": "toy", "s": "8"}
        assert set(loaded) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_magic_and_layout(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros((2, 2))}, config={})
        blob = path.read_bytes()
        assert blob[:4] == b"CKPT"
        assert int.from_bytes(blob[4:8], "little") == 1

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros((2, 2))}, config={})
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError) as caught:
            load_checkpoint(path)
        assert str(caught.value) == (f"{path}: trailing bytes, expected "
                                     f"{size} bytes, got {size + 4}")

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import builtins

        import fus3d.nn

        rng = np.random.default_rng(14)
        before = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, before, config={"step": "1"})

        class FailAfterHeader:
            """File handle whose writes fail once the header is written."""

            def __init__(self, handle):
                self.handle = handle
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 5:  # magic, version, config size, config, count
                    raise OSError("no space left on device")
                return self.handle.write(data)

            def __getattr__(self, name):
                return getattr(self.handle, name)

        monkeypatch.setattr(fus3d.nn, "open",
                            lambda *args: FailAfterHeader(builtins.open(*args)),
                            raising=False)
        after = {"w": np.zeros((3, 4)), "b": np.ones(4)}
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, after, config={"step": "2"})
        monkeypatch.undo()

        loaded, config = load_checkpoint(path)
        assert config == {"step": "1"}
        for name in before:
            np.testing.assert_array_equal(loaded[name], before[name])
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
