"""Training objectives for motion estimation.

Three terms, combined linearly:

* motion-weighted mean absolute error over 6-DoF steps, where each
  component's error is weighted by the true motion magnitude plus a
  smoothing epsilon (fast motion counts more),
* a scale-free correlation term penalizing per-component direction
  mismatch of the motion time series,
* a zero-margin triplet hinge contrasting embedding features, with
  positives/negatives selected by label similarity.

All terms return scalar tensors and are differentiable with respect to
predictions / features.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (
    Tensor,
    cosine_similarity,
    mul,
    relu,
    sqrt,
    sub,
    tensor_abs,
    tensor_mean,
    tensor_sum,
    transpose,
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

DEFAULT_EPSILON = 0.1


@dataclass(frozen=True)
class LossWeights:
    """Mixing coefficients for the combined objective."""

    alpha_mmae: float = 1.0
    alpha_corr: float = 0.5
    alpha_triplet: float = 0.1
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        alphas = (self.alpha_mmae, self.alpha_corr, self.alpha_triplet)
        if any(a < 0 for a in alphas):
            raise ValueError("loss weights must be nonnegative")
        if not any(a > 0 for a in alphas):
            raise ValueError("at least one loss weight must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


def _as_motion(values) -> Tensor:
    """Coerce an (n, 6) array or tensor into an (n, 6) tensor."""
    t = values if isinstance(values, Tensor) else Tensor(np.asarray(values, dtype=float))
    if t.ndim != 2 or t.shape[1] != 6:
        raise ValueError(f"expected (n, 6) motions, got shape {t.shape}")
    return t


def mmae(true, pred, epsilon: float = DEFAULT_EPSILON) -> Tensor:
    """Motion-weighted MAE: mean over steps and components of
    (|true| + epsilon) * |true - pred|, normalized by 6 * n_steps."""
    t, p = _as_motion(true), _as_motion(pred)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: true {t.shape} vs pred {p.shape}")
    weights = np.abs(t.data) + epsilon  # depends on labels only
    err = tensor_abs(sub(t, p))
    return tensor_sum(mul(err, weights)) / (6.0 * t.shape[0])


def correlation_loss(true, pred, degenerate: Counter | None = None) -> Tensor:
    """Per-component (1 - cosine) over the motion time series, averaged
    over the six components. Invariant under positive scaling of the
    predictions; a zero-norm component series contributes exactly 1.

    Zero-norm components are logged as one warning per call, or, when
    ``degenerate`` is given, counted there under the tuple of their
    indices, so a caller looping over many windows can warn once."""
    t, p = _as_motion(true), _as_motion(pred)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: true {t.shape} vs pred {p.shape}")
    if t.shape[0] < 2:
        raise ValueError("correlation loss needs a series of at least 2 steps")
    zero = [
        k for k in range(6)
        if not np.any(t.data[:, k]) or not np.any(p.data[:, k])
    ]
    if zero and degenerate is not None:
        degenerate[tuple(zero)] += 1
    elif zero:
        logger.warning(
            "correlation loss: zero-norm series for component(s) %s; "
            "their cosine is defined as 0", zero
        )
    cos = cosine_similarity(transpose(t, (1, 0)), transpose(p, (1, 0)), axis=1)
    return tensor_mean(sub(1.0, cos))


def _euclidean(a: Tensor, b: Tensor) -> Tensor:
    diff = sub(a, b)
    return sqrt(tensor_sum(mul(diff, diff)))


def triplet_loss(anchor: Tensor, positive: Tensor, negative: Tensor) -> Tensor:
    """Zero-margin hinge on the distance gap:
    max(0, dist(anchor, positive) - dist(anchor, negative))."""
    if anchor.shape != positive.shape or anchor.shape != negative.shape:
        raise ValueError(
            f"triplet shapes differ: {anchor.shape}, {positive.shape}, "
            f"{negative.shape}"
        )
    return relu(sub(_euclidean(anchor, positive), _euclidean(anchor, negative)))


def _label_cosine_matrix(motions: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(motions, axis=1)
    dots = motions @ motions.T
    denom = norms[:, None] * norms[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom == 0.0, 0.0, dots / np.where(denom == 0.0, 1.0, denom))
    return cos


def select_triplets(motions) -> list:
    """(anchor, positive, negative) index triples for every anchor step.

    The positive is the step whose label is most cosine-similar to the
    anchor's, the negative the least similar; the anchor itself is
    excluded and ties resolve to the lowest index.
    """
    labels = _as_motion(motions).data
    n = labels.shape[0]
    if n < 3:
        raise ValueError(f"triplet selection needs at least 3 steps, got {n}")
    cos = _label_cosine_matrix(labels)
    triples = []
    for a in range(n):
        row = cos[a].copy()
        row[a] = -np.inf
        p = int(row.argmax())
        row[a] = np.inf
        neg = int(row.argmin())
        triples.append((a, p, neg))
    return triples


def total_loss(components: Sequence[Tensor], weights: LossWeights) -> Tensor:
    """Weighted sum alpha1 * mmae + alpha2 * corr + alpha3 * triplet."""
    if len(components) != 3:
        raise ValueError(f"expected 3 loss components, got {len(components)}")
    alphas = (weights.alpha_mmae, weights.alpha_corr, weights.alpha_triplet)
    out = None
    for alpha, term in zip(alphas, components):
        if not isinstance(term, Tensor):
            term = Tensor(float(term))
        weighted = mul(term, alpha)
        out = weighted if out is None else out + weighted
    return out
