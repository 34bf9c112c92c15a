"""Training objectives for motion estimation.

Three terms, combined linearly:

* motion-weighted mean absolute error over 6-DoF steps, where each
  component's error is weighted by the true motion magnitude plus a
  smoothing epsilon (fast motion counts more),
* a scale-free correlation term penalizing per-component direction
  mismatch of the motion time series,
* a zero-margin triplet hinge contrasting embedding features, with
  positives/negatives selected by label similarity.

Motions are ``(..., n, 6)``: n steps of one series, with any leading
axes holding more series of the same length (a training batch is
``(b, n, 6)``). Each term is one graph over all series and returns the
mean of its per-series values as a scalar tensor, differentiable with
respect to predictions / features.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (
    Tensor,
    add,
    cosine_similarity,
    mul,
    relu,
    sqrt,
    sub,
    take,
    tensor_abs,
    tensor_mean,
    tensor_sum,
)

__all__ = [
    "LossWeights",
    "mmae",
    "correlation_loss",
    "triplet_loss",
    "select_triplets",
    "total_loss",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LossWeights:
    """Mixing coefficients for the combined objective."""

    alpha_mmae: float = 1.0
    alpha_corr: float = 0.5
    alpha_triplet: float = 0.1
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        alphas = (self.alpha_mmae, self.alpha_corr, self.alpha_triplet)
        if not all(0.0 <= a < math.inf for a in alphas):
            raise ValueError("loss weights must be finite and nonnegative")
        if not any(a > 0 for a in alphas):
            raise ValueError("at least one loss weight must be positive")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and nonnegative")


def _as_motions(*values) -> list:
    """Coerce (..., n, 6) arrays or tensors of one shape into tensors."""
    out = [v if isinstance(v, Tensor) else Tensor(np.asarray(v, dtype=float))
           for v in values]
    for t in out:
        if t.ndim < 2 or t.shape[-1] != 6:
            raise ValueError(f"expected (..., n, 6) motions, got shape {t.shape}")
        if t.shape != out[0].shape:
            raise ValueError(f"shape mismatch: {out[0].shape} vs {t.shape}")
    return out


def mmae(true, pred, epsilon: float) -> Tensor:
    """Motion-weighted MAE: mean over series, steps and components of
    (|true| + epsilon) * |true - pred|."""
    t, p = _as_motions(true, pred)
    weights = np.abs(t.data) + epsilon  # depends on labels only
    return tensor_mean(mul(tensor_abs(sub(t, p)), weights))


def correlation_loss(true, pred, degenerate: Counter) -> Tensor:
    """Per-component (1 - cosine) over each motion time series, averaged
    over series and the six components. Invariant under positive scaling
    of the predictions; a zero-norm component series contributes exactly 1.

    Each series with zero-norm components is counted in ``degenerate``
    under the tuple of their indices, so that a caller running many
    batches can warn once (training logs one warning per run)."""
    t, p = _as_motions(true, pred)
    if t.shape[-2] < 2:
        raise ValueError("correlation loss needs a series of at least 2 steps")
    dead = ~(t.data.any(axis=-2) & p.data.any(axis=-2)).reshape(-1, 6)
    for row in dead[dead.any(axis=1)]:
        degenerate[tuple(np.flatnonzero(row).tolist())] += 1
    return tensor_mean(sub(1.0, cosine_similarity(t, p, axis=-2)))


def _distance(a: Tensor, b: Tensor) -> Tensor:
    diff = sub(a, b)
    return sqrt(tensor_sum(mul(diff, diff), axis=-1))


def triplet_loss(embeddings, triples) -> Tensor:
    """Mean zero-margin hinge on the distance gap,
    max(0, dist(anchor, positive) - dist(anchor, negative)), over index
    triples into the step axis of (..., n, d) embeddings; ``triples`` is
    (..., m, 3), one set of (anchor, positive, negative) per series."""
    triples = np.asarray(triples)
    if triples.shape[-1:] != (3,) or triples.shape[:-2] != embeddings.shape[:-2]:
        raise ValueError(
            f"triplet shapes differ: embeddings {embeddings.shape}, "
            f"triples {triples.shape}"
        )
    # index arrays over the leading (series) axes, one entry per triple
    series = tuple(np.indices(triples.shape[:-1])[:-1])
    anchor, positive, negative = (
        take(embeddings, series + (triples[..., k],)) for k in range(3)
    )
    gap = sub(_distance(anchor, positive), _distance(anchor, negative))
    return tensor_mean(relu(gap))


def select_triplets(motions) -> np.ndarray:
    """(anchor, positive, negative) step indices for every anchor step of
    (..., n, 6) label motions, as an (..., n, 3) integer array.

    The positive is the step whose label is most cosine-similar to the
    anchor's, the negative the least similar; the anchor itself is
    excluded and ties resolve to the lowest index. A zero-norm label has
    cosine 0 with every step.
    """
    labels = _as_motions(motions)[0].data
    n = labels.shape[-2]
    if n < 3:
        raise ValueError(f"triplet selection needs at least 3 steps, got {n}")
    norms = np.linalg.norm(labels, axis=-1)
    dots = labels @ np.swapaxes(labels, -1, -2)
    denom = norms[..., :, None] * norms[..., None, :]
    cos = np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0.0)
    self_pair = np.eye(n, dtype=bool)
    positives = np.where(self_pair, -np.inf, cos).argmax(axis=-1)
    negatives = np.where(self_pair, np.inf, cos).argmin(axis=-1)
    anchors = np.broadcast_to(np.arange(n), positives.shape)
    return np.stack([anchors, positives, negatives], axis=-1)


def total_loss(components: Sequence[Tensor], weights: LossWeights) -> Tensor:
    """Weighted sum alpha1 * mmae + alpha2 * corr + alpha3 * triplet."""
    if len(components) != 3:
        raise ValueError(f"expected 3 loss components, got {len(components)}")
    alphas = (weights.alpha_mmae, weights.alpha_corr, weights.alpha_triplet)
    out = None
    for alpha, term in zip(alphas, components):
        weighted = mul(term, alpha)
        out = weighted if out is None else add(out, weighted)
    return out
