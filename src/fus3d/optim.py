"""Adam optimizer with a stepped learning-rate decay schedule."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


# Adam's moment decays and denominator floor, and the schedule's decay
# factor and period in epochs (the paper's 0.8 every 100 epochs): no
# caller selects other values.
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8
DECAY_FACTOR = 0.8
DECAY_EVERY = 100


class Adam:
    """Adam over ``(name, parameter)`` pairs, as ``Module.named_parameters``
    lists them; the names key the moments in :meth:`state_arrays`.

    The effective learning rate is ``lr * DECAY_FACTOR ** (epoch //
    DECAY_EVERY)``; call :meth:`set_epoch` as training advances. ``lr``
    comes from ``TrainConfig``. Moments are zero-initialized and the step
    counter is monotone. :meth:`step` takes the gradients
    ``tensor.backward(loss, optimizer.params)`` returns.
    """

    def __init__(self, named_parameters, lr: float):
        self.names, self.params = map(list, zip(*named_parameters))
        self.base_lr = float(lr)
        self.epoch = 0
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    @property
    def lr(self) -> float:
        return self.base_lr * DECAY_FACTOR ** (self.epoch // DECAY_EVERY)

    def set_epoch(self, epoch: int) -> None:
        if epoch < 0:
            raise ValueError("epoch must be nonnegative")
        self.epoch = int(epoch)

    def step(self, grads) -> None:
        """Apply one update from ``grads``, one array per parameter in
        order; a None entry (a parameter the loss does not reach) is an
        error, raised before any parameter changes."""
        for name, grad in zip(self.names, grads, strict=True):
            if grad is None:
                raise RuntimeError(f"parameter {name} has no gradient: "
                                   "the loss does not reach it")
        self.step_count += 1
        lr = self.lr
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
        out = {"_optim.step": np.array(float(self.step_count)),
               "_optim.epoch": np.array(float(self.epoch))}
        for name, m, v in zip(self.names, self._m, self._v):
            out[f"_optim.m.{name}"] = m.copy()
            out[f"_optim.v.{name}"] = v.copy()
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        self.step_count = int(np.asarray(arrays["_optim.step"]).ravel()[0])
        self.epoch = int(np.asarray(arrays["_optim.epoch"]).ravel()[0])
        for i, name in enumerate(self.names):
            self._m[i] = arrays[f"_optim.m.{name}"].copy()
            self._v[i] = arrays[f"_optim.v.{name}"].copy()
