"""Adam optimizer."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


# Adam's moment decays and denominator floor: no caller selects other
# values.
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam:
    """Adam over ``(name, parameter)`` pairs, as ``Module.named_parameters``
    lists them; the names key the moments in :meth:`state_arrays`.

    Moments are zero-initialized. ``step_count`` counts the updates taken
    and is the training cursor: ``training.train`` reads the epoch, the
    batch and the learning rate from it, and a checkpoint stores it with
    the moments. :meth:`step` takes the gradients
    ``tensor.backward(loss, optimizer.params)`` returns and the step's
    learning rate.
    """

    def __init__(self, named_parameters):
        self.names, self.params = map(list, zip(*named_parameters))
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads, lr: float) -> None:
        """Apply one update from ``grads``, one array per parameter in
        order, at rate ``lr``; a None entry (a parameter the loss does not
        reach) is an error, raised before any parameter changes."""
        for name, grad in zip(self.names, grads, strict=True):
            if grad is None:
                raise RuntimeError(f"parameter {name} has no gradient: "
                                   "the loss does not reach it")
        self.step_count += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for p, m, v, grad in zip(self.params, self._m, self._v, grads):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)

    # -- checkpointing ------------------------------------------------------
    def state_arrays(self) -> dict:
        out = {"_optim.step": np.array(float(self.step_count))}
        for name, m, v in zip(self.names, self._m, self._v):
            out[f"_optim.m.{name}"] = m.copy()
            out[f"_optim.v.{name}"] = v.copy()
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        self.step_count = int(np.asarray(arrays["_optim.step"]).ravel()[0])
        for i, name in enumerate(self.names):
            self._m[i] = arrays[f"_optim.m.{name}"].copy()
            self._v[i] = arrays[f"_optim.v.{name}"].copy()
