"""Finite-difference gradient oracle shared by the autodiff test modules."""

import numpy as np

from fus3d.tensor import Tensor, backward, mul, tensor_sum

FD_STEP = 1e-5
REL_TOL = 1e-4


def fd_gradient(fn, arrays, index, h=FD_STEP):
    """Central-difference gradient of scalar fn(arrays) wrt arrays[index]."""
    work = [a.copy() for a in arrays]
    target = work[index]
    grad = np.zeros_like(target)
    flat, gflat = target.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = fn(work)
        flat[i] = orig - h
        f_minus = fn(work)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def check_gradients(op, arrays, seed=0, rtol=REL_TOL, check=None):
    """Compare analytic gradients of ``op`` against finite differences.

    ``op`` maps a list of Tensors to a Tensor of any shape; the scalar loss
    is a fixed random weighting of the output so every output element
    contributes. ``check`` restricts which inputs are differentiated.
    """
    rng = np.random.default_rng(seed)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(tensors)
    weights = rng.standard_normal(out.shape)

    def scalar(ts):
        return tensor_sum(mul(op(ts), weights))

    grads = backward(tensor_sum(mul(out, weights)), tensors)

    indices = range(len(arrays)) if check is None else check
    for index in indices:
        analytic = grads[index]
        assert analytic is not None, f"input {index} received no gradient"

        def as_scalar(work):
            ts = [Tensor(w) for w in work]
            return float(scalar(ts).item())

        numeric = fd_gradient(as_scalar, arrays, index)
        err = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
        worst = err.max() if err.size else 0.0
        assert worst < rtol, (
            f"input {index}: worst relative gradient error {worst:.3e} "
            f"(analytic {analytic.ravel()[err.argmax()]:.6e}, "
            f"numeric {numeric.ravel()[err.argmax()]:.6e})"
        )
