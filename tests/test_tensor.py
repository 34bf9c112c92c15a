"""Autodiff engine tests: forward semantics plus finite-difference checks
for every primitive."""

import threading

import numpy as np
import pytest

from gradcheck import check_gradients, fd_gradient

import fus3d.tensor as T
from fus3d.tensor import Tensor, backward, no_grad


def rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape)


class TestForwardSemantics:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_saturation_is_stable(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_cosine_self_similarity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = Tensor(rand(rng, 7) + 2.0)
            assert T.cosine_similarity(v, v).item() == pytest.approx(1.0, abs=1e-12)

    def test_cosine_zero_norm_is_zero(self):
        a = Tensor(np.zeros(4))
        b = Tensor(np.ones(4))
        assert T.cosine_similarity(a, b).item() == 0.0

    def test_conv2d_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rand(rng, 1, 1, 3, 3))
        kernel = Tensor(np.ones((1, 1, 1, 1)))
        out = T.conv2d(x, kernel)
        np.testing.assert_array_equal(out.data, x.data)

    def test_conv2d_shape_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((3, 5, 3, 3)))
        with pytest.raises(ValueError, match=r"\(1, 2, 4, 4\).*\(3, 5, 3, 3\)"):
            T.conv2d(x, w)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) vs \(4, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_concat_and_take_round_trip(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 2)))
        joined = T.concat([a, b], axis=1)
        assert joined.shape == (2, 5)
        np.testing.assert_array_equal(joined[:, 3:].data, b.data)


class TestBroadcasting:
    @staticmethod
    def brute_force_broadcast(a, b, op):
        """Independent trailing-dimension alignment evaluator (<=3-d)."""
        ndim = max(a.ndim, b.ndim)
        sa = (1,) * (ndim - a.ndim) + a.shape
        sb = (1,) * (ndim - b.ndim) + b.shape
        out_shape = tuple(max(x, y) for x, y in zip(sa, sb))
        av, bv = a.reshape(sa), b.reshape(sb)
        out = np.empty(out_shape)
        for idx in np.ndindex(out_shape):
            ia = tuple(i if n > 1 else 0 for i, n in zip(idx, sa))
            ib = tuple(i if n > 1 else 0 for i, n in zip(idx, sb))
            out[idx] = op(av[ia], bv[ib])
        return out

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((2, 1, 3), (3,)), ((4,), (2, 4)), ((2, 3), (2, 1)), ((1,), (2, 2, 2))],
    )
    def test_add_mul_match_scalar_evaluator(self, shape_a, shape_b):
        rng = np.random.default_rng(hash((shape_a, shape_b)) % 2**32)
        a, b = rand(rng, *shape_a), rand(rng, *shape_b)
        for op_t, op_s in [(T.add, lambda x, y: x + y), (T.mul, lambda x, y: x * y)]:
            got = op_t(Tensor(a), Tensor(b)).data
            expected = self.brute_force_broadcast(a, b, op_s)
            np.testing.assert_allclose(got, expected, atol=0)


class TestBackwardMechanics:
    def test_square_gradient_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        (grad,) = backward(T.mul(x, x), [x])
        assert grad == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(T.mul(x, x), [x])

    def test_repeated_backward_returns_the_same_gradient(self):
        # nothing accumulates between sweeps
        x = Tensor(2.0, requires_grad=True)
        loss = T.mul(x, x)
        first = backward(loss, [x])[0].copy()
        np.testing.assert_array_equal(backward(loss, [x])[0], first)
        np.testing.assert_array_equal(backward(T.mul(x, x), [x])[0], first)

    def test_unreached_and_untracked_inputs_get_none(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)  # the loss does not use b
        c = Tensor(np.full(2, 3.0))  # no requires_grad
        loss = T.tensor_sum(T.mul(a, c))
        grad_a, grad_b, grad_c = backward(loss, [a, b, c])
        np.testing.assert_array_equal(grad_a, [3.0, 3.0])
        assert grad_b is None and grad_c is None

    def test_gradients_come_back_in_the_order_asked(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = Tensor(np.array([3.0, 5.0]), requires_grad=True)
        loss = T.tensor_sum(T.mul(x, w))
        grad_w, grad_x = backward(loss, [w, x])
        np.testing.assert_array_equal(grad_w, x.data)
        np.testing.assert_array_equal(grad_x, w.data)

    def test_shared_subexpression_gradient(self):
        # y = x*x used twice: d/dx (x*x + x*x) = 4x
        x = Tensor(1.5, requires_grad=True)
        y = T.mul(x, x)
        assert backward(T.add(y, y), [x])[0] == pytest.approx(6.0)

    def test_no_grad_suppresses_tape(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad
        with pytest.raises(ValueError):
            backward(y, [x])

    def test_no_grad_holds_on_its_own_thread_only(self):
        # one thread sits inside no_grad while another builds a graph:
        # only the first thread's op leaves the tape
        x = Tensor(2.0, requires_grad=True)
        inside, built = threading.Event(), threading.Event()
        results = {}

        def inference():
            with no_grad():
                inside.set()
                built.wait(30)
                results["inference"] = T.mul(x, x)

        thread = threading.Thread(target=inference)
        thread.start()
        try:
            assert inside.wait(30)
            results["training"] = T.mul(x, x)
        finally:
            built.set()
            thread.join(30)
        assert not thread.is_alive()
        assert results["training"].requires_grad
        assert backward(results["training"], [x])[0] == pytest.approx(4.0)
        assert not results["inference"].requires_grad
        # on one thread, the tape is back on once the block ends
        with no_grad():
            assert not T.mul(x, x).requires_grad
        assert T.mul(x, x).requires_grad

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
            out = T.tanh(T.conv2d(x, w, padding=1, stride=2))
            return (out.data.copy(),
                    *backward(T.tensor_sum(T.mul(out, out)), [x, w]))

        first, second = run(), run()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestPrimitiveGradients:
    """Central-difference checks, step 1e-5, relative error < 1e-4."""

    def setup_method(self):
        self.rng = np.random.default_rng(99)

    def test_add(self):
        check_gradients(lambda t: T.add(t[0], t[1]),
                        [rand(self.rng, 2, 3), rand(self.rng, 3)])

    def test_sub(self):
        check_gradients(lambda t: T.sub(t[0], t[1]),
                        [rand(self.rng, 4), rand(self.rng, 2, 4)])

    def test_mul(self):
        check_gradients(lambda t: T.mul(t[0], t[1]),
                        [rand(self.rng, 2, 3), rand(self.rng, 2, 1)])

    def test_matmul(self):
        check_gradients(lambda t: T.matmul(t[0], t[1]),
                        [rand(self.rng, 3, 4), rand(self.rng, 4, 2)])

    def test_matmul_batched_broadcast(self):
        check_gradients(lambda t: T.matmul(t[0], t[1]),
                        [rand(self.rng, 2, 3, 4), rand(self.rng, 4, 2)])

    def test_reshape_transpose(self):
        check_gradients(
            lambda t: T.transpose(T.reshape(t[0], (3, 4)), (1, 0)),
            [rand(self.rng, 2, 6)],
        )

    def test_concat(self):
        check_gradients(
            lambda t: T.concat(t, axis=1),
            [rand(self.rng, 2, 2), rand(self.rng, 2, 3)],
        )

    def test_stack(self):
        check_gradients(
            lambda t: T.stack(t, axis=1),
            [rand(self.rng, 2, 3), rand(self.rng, 2, 3)],
        )

    def test_take_basic_slice(self):
        check_gradients(lambda t: t[0][:, 1:3], [rand(self.rng, 3, 4)])

    def test_take_advanced_with_repeats(self):
        idx = np.array([0, 2, 2, 1])
        check_gradients(lambda t: t[0][idx], [rand(self.rng, 3, 2)])

    def test_sum_axis(self):
        check_gradients(lambda t: T.tensor_sum(t[0], axis=1), [rand(self.rng, 3, 4)])

    def test_mean_all(self):
        check_gradients(lambda t: T.tensor_mean(t[0]), [rand(self.rng, 2, 3)])

    def test_mean_axis_keepdims(self):
        check_gradients(
            lambda t: T.tensor_mean(t[0], axis=(0, 2), keepdims=True),
            [rand(self.rng, 2, 3, 2)],
        )

    def test_reduce_max(self):
        x = rand(self.rng, 3, 5)  # distinct values almost surely
        check_gradients(lambda t: T.reduce_max(t[0], axis=1), [x])

    def test_relu(self):
        x = rand(self.rng, 12)
        x[np.abs(x) < 0.05] = 0.5  # keep away from the kink
        check_gradients(lambda t: T.relu(t[0]), [x])

    def test_sigmoid(self):
        check_gradients(lambda t: T.sigmoid(t[0]), [rand(self.rng, 9)])

    def test_tanh(self):
        check_gradients(lambda t: T.tanh(t[0]), [rand(self.rng, 9)])

    def test_abs(self):
        x = rand(self.rng, 10)
        x[np.abs(x) < 0.05] = -0.3
        check_gradients(lambda t: T.tensor_abs(t[0]), [x])

    def test_sqrt(self):
        check_gradients(lambda t: T.sqrt(t[0]), [rand(self.rng, 8) + 1.5])

    def test_conv2d(self):
        check_gradients(
            lambda t: T.conv2d(t[0], t[1], t[2], stride=2, padding=1),
            [rand(self.rng, 2, 3, 5, 5), rand(self.rng, 4, 3, 3, 3),
             rand(self.rng, 4)],
        )

    def test_conv2d_no_pad(self):
        check_gradients(
            lambda t: T.conv2d(t[0], t[1]),
            [rand(self.rng, 1, 2, 4, 4), rand(self.rng, 3, 2, 2, 2)],
        )

    def test_spatial_mean(self):
        # the network's global average pooling of (n, c, h, w) maps
        check_gradients(
            lambda t: T.tensor_mean(t[0], axis=(2, 3)), [rand(self.rng, 2, 3, 4, 5)]
        )

    def test_cosine_similarity_full(self):
        check_gradients(
            lambda t: T.cosine_similarity(t[0], t[1]),
            [rand(self.rng, 6) + 2.0, rand(self.rng, 6) + 2.0],
        )

    def test_cosine_similarity_axis(self):
        check_gradients(
            lambda t: T.cosine_similarity(t[0], t[1], axis=(1, 2)),
            [rand(self.rng, 3, 2, 2) + 1.0, rand(self.rng, 3, 2, 2) + 1.0],
        )

    @pytest.mark.parametrize("shapes", [((3, 4, 2, 2), (3, 1, 2, 2)),
                                        ((3, 1, 2, 2), (3, 4, 2, 2)),
                                        ((3, 4, 2, 2), (2, 2))])
    def test_cosine_similarity_broadcast(self, shapes):
        # the attention block's (n, 1, c, e, e) global feature against
        # (n, blocks, c, e, e) blocks: extent 1 on the kept block axis
        check_gradients(
            lambda t: T.cosine_similarity(t[0], t[1], axis=(2, 3)),
            [rand(self.rng, *shape) + 1.0 for shape in shapes],
        )


class TestCosineHandDerived:
    def test_zero_norm_broadcast_operand_reads_zero_with_zero_gradient(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(np.zeros((2, 1, 4)), requires_grad=True)
        out = T.cosine_similarity(a, b, axis=2)
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out.data, 0.0)
        grad_a, grad_b = backward(
            T.tensor_sum(T.mul(out, rng.standard_normal((2, 3)))), [a, b])
        np.testing.assert_array_equal(grad_a, np.zeros((2, 3, 4)))
        np.testing.assert_array_equal(grad_b, np.zeros((2, 1, 4)))

    @pytest.mark.parametrize("shapes, axis", [(((2, 3), (2, 4)), 1),
                                              (((2, 3), (2, 4)), 0),
                                              (((3, 4), (3, 1)), 1),
                                              (((4,), ()), None)])
    def test_shapes_that_do_not_broadcast_raise(self, shapes, axis):
        # only kept axes broadcast: extent 1 on a reduced axis would
        # shrink that operand's norm
        a, b = (Tensor(np.ones(shape)) for shape in shapes)
        with pytest.raises(ValueError):
            T.cosine_similarity(a, b, axis=axis)

    def test_gradient_at_orthogonal_unit_vectors(self):
        # For unit-norm orthogonal a, b: d cos/da = b, d cos/db = a.
        a = Tensor(np.array([1.0, 0.0]), requires_grad=True)
        b = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        grad_a, grad_b = backward(T.cosine_similarity(a, b), [a, b])
        np.testing.assert_allclose(grad_a, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(grad_b, [1.0, 0.0], atol=1e-12)


def conv2d_reference(x, w, b, stride, padding):
    """Cross-correlation as nested loops over output pixels."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, ho, wo))
    for img in range(n):
        for k in range(f):
            for y in range(ho):
                for x_ in range(wo):
                    patch = xp[img, :, y * stride : y * stride + kh,
                               x_ * stride : x_ * stride + kw]
                    out[img, k, y, x_] = (patch * w[k]).sum() + b[k]
    return out


CONV_CASES = [
    # (input shape, weight shape, stride, padding)
    ((2, 3, 7, 5), (4, 3, 3, 3), 1, 0),
    ((2, 3, 7, 5), (4, 3, 3, 3), 1, 1),
    ((2, 3, 7, 5), (4, 3, 3, 3), 2, 0),
    ((2, 3, 7, 5), (4, 3, 3, 3), 2, 1),
    ((2, 3, 7, 5), (4, 3, 1, 1), 1, 0),  # the 1x1 projection layers
    ((2, 3, 6, 8), (4, 3, 2, 2), 2, 0),
]


class TestConv2d:
    """The patch-matrix kernel: gradients, a loop reference, and the
    input-without-gradient path."""

    @pytest.mark.parametrize("xs, ws, stride, padding", CONV_CASES)
    def test_gradients(self, xs, ws, stride, padding):
        rng = np.random.default_rng(31)
        check_gradients(
            lambda t: T.conv2d(t[0], t[1], t[2], stride=stride, padding=padding),
            [rand(rng, *xs), rand(rng, *ws), rand(rng, ws[0])],
        )

    @pytest.mark.parametrize("xs, ws, stride, padding", CONV_CASES)
    def test_forward_matches_loop_reference(self, xs, ws, stride, padding):
        rng = np.random.default_rng(32)
        x, w, b = rand(rng, *xs), rand(rng, *ws), rand(rng, ws[0])
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                       padding=padding)
        np.testing.assert_allclose(out.data, conv2d_reference(x, w, b, stride, padding),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_gradient_grid(self, kernel, stride, padding):
        # odd extents leave a row and a column that a stride-2 kernel
        # never reaches; kernel 1 with padding 1 crops the stride-1 dx
        rng = np.random.default_rng(34)
        ws = (3, 2, kernel, kernel)
        check_gradients(
            lambda t: T.conv2d(t[0], t[1], t[2], stride=stride, padding=padding),
            [rand(rng, 2, 2, 7, 5), rand(rng, *ws), rand(rng, ws[0])],
        )

    def test_dx_is_the_adjoint_at_stage_one_shape(self):
        # <conv(x), g> = <x, dx> for the stage-1 residual convolution
        rng = np.random.default_rng(35)
        x = rng.standard_normal((40, 8, 32, 32))
        w = rng.standard_normal((8, 8, 3, 3))
        xt = Tensor(x, requires_grad=True)
        out = T.conv2d(xt, Tensor(w), padding=1)
        g = rng.standard_normal(out.shape)
        (dx,) = backward(T.tensor_sum(T.mul(out, g)), [xt])
        np.testing.assert_allclose(np.vdot(x, dx), np.vdot(out.data, g),
                                   rtol=1e-12)

    def test_input_without_grad_gets_no_gradient(self):
        rng = np.random.default_rng(33)
        x, w, b = rand(rng, 2, 3, 7, 5), rand(rng, 4, 3, 3, 3), rand(rng, 4)
        g = rand(rng, 2, 4, 4, 3)
        grads = {}
        for x_grad in (False, True):
            xt = Tensor(x, requires_grad=x_grad)
            wt = Tensor(w, requires_grad=True)
            bt = Tensor(b, requires_grad=True)
            out = T.conv2d(xt, wt, bt, stride=2, padding=1)
            slots = out._vjp(g)
            assert (slots[0] is None) is not x_grad
            dx, dw, db = backward(T.tensor_sum(T.mul(out, g)), [xt, wt, bt])
            grads[x_grad] = (dw, db)
            assert (dx is None) is not x_grad
        np.testing.assert_array_equal(grads[False][0], grads[True][0])
        np.testing.assert_array_equal(grads[False][1], grads[True][1])
