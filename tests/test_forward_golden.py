"""Golden-output regression for ``MotionNetwork.forward_window``.

``tests/data/forward_window_golden.npz`` holds the outputs of a seeded
toy model on a seeded (2, 6, 64, 64) window, and the sum and sum of
squares of every parameter gradient of a fixed random weighting of
those outputs. It was written by the im2col/per-step-LSTM kernels that
preceded the patch-matrix convolution and the hoisted LSTM input
projection, so any later kernel change is checked against them.
Regenerate (only on purpose) with ``PYTHONPATH=src python
tests/test_forward_golden.py``.
"""

from pathlib import Path

import numpy as np

import fus3d.tensor as T
from fus3d.network import ModelConfig, MotionNetwork

GOLDEN = Path(__file__).parent / "data" / "forward_window_golden.npz"
OUTPUTS = ("fused", "global6", "local6", "embeddings")
REL_TOL = 1e-12


def golden_run() -> dict:
    """Outputs and per-parameter gradient statistics of the seeded run."""
    model = MotionNetwork(ModelConfig.toy(), seed=21)
    rng = np.random.default_rng(22)
    frames = rng.uniform(0.0, 1.0, (2, 6, 64, 64))
    out = model.forward_window(frames)
    loss = T.add(0.0, 0.0)
    for key in OUTPUTS:
        weights = rng.standard_normal(out[key].shape)
        loss = T.add(loss, T.tensor_sum(T.mul(out[key], weights)))
    named = model.named_parameters()
    grads = T.backward(loss, [p for _, p in named])
    arrays = {key: out[key].data for key in OUTPUTS}
    arrays["param_names"] = np.array([name for name, _ in named])
    arrays["param_sizes"] = np.array([p.data.size for _, p in named])
    arrays["grad_sum"] = np.array([g.sum() for g in grads])
    arrays["grad_sumsq"] = np.array([(g * g).sum() for g in grads])
    return arrays


def test_forward_window_matches_golden():
    golden = np.load(GOLDEN)
    now = golden_run()
    for key in OUTPUTS:
        scale = np.abs(golden[key]).max()
        assert now[key].shape == golden[key].shape, key
        assert np.abs(now[key] - golden[key]).max() <= REL_TOL * scale, key
    np.testing.assert_array_equal(now["param_names"], golden["param_names"])
    np.testing.assert_allclose(now["grad_sumsq"], golden["grad_sumsq"],
                               rtol=REL_TOL, atol=0.0)
    # a sum can cancel to near zero: compare it on the scale its
    # Cauchy-Schwarz bound sqrt(size * sumsq) sets
    bound = np.sqrt(golden["param_sizes"] * golden["grad_sumsq"])
    assert np.all(np.abs(now["grad_sum"] - golden["grad_sum"]) <= REL_TOL * bound)


if __name__ == "__main__":
    np.savez_compressed(GOLDEN, **golden_run())
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
