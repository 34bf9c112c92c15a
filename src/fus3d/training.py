"""Training and evaluation harness for the motion network.

Datasets are directories of scan containers. Epochs sample one random
window (s+2 consecutive frames) per training scan; sampling is driven
by a stateless per-epoch generator seeded with (seed, epoch), so a
resumed run continues bit-exactly without serialized RNG state. The
optimizer's step count is the one training cursor: the epoch, the batch
and the stepped learning-rate decay follow from it. Validation runs on
fixed windows; the checkpoint tracks the best validation
motion-weighted error and carries the step count and the Adam moments
for exact resume.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .losses import (
    LossWeights,
    correlation_loss,
    logger as losses_logger,
    mmae,
    select_triplets,
    total_loss,
    triplet_loss,
)
from .metrics import evaluate_trajectories
from .network import MotionNetwork, save_model
from .optim import Adam
from .pose import accumulate, pose_to_transform
from .simulate import ScanSequence, read_scan

__all__ = [
    "TrainConfig",
    "ScanDataset",
    "TrainResult",
    "train",
    "window_motions",
    "validation_mmae",
    "validation_report",
]

TRAIN_LOG_HEADER = "step,mmae,corr,triplet,total,lr"

# fixed, evenly spaced validation windows per scan
VAL_WINDOWS_PER_SCAN = 3

# the learning rate falls by DECAY_FACTOR every DECAY_EVERY epochs (the
# paper's 0.8 every 100): no caller selects other values
DECAY_FACTOR = 0.8
DECAY_EVERY = 100

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch_size: int = 4
    seq_len: int = 8  # s: each window holds s+1 frame pairs
    learning_rate: float = 1e-3
    loss_weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    val_every_epochs: int = 10

    def __post_init__(self) -> None:
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch size must be positive")
        # a window of s+1 motions must hold a triplet of 3 steps
        if self.seq_len < 2:
            raise ValueError(f"seq_len must be at least 2, got {self.seq_len}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if self.val_every_epochs < 1:
            raise ValueError(f"val_every_epochs must be at least 1, "
                             f"got {self.val_every_epochs}")


class ScanDataset:
    """An ordered collection of scans (sorted by directory name)."""

    def __init__(self, scans: list):
        if not scans:
            raise ValueError("dataset is empty")
        self.scans = list(scans)

    @classmethod
    def from_directory(cls, root) -> "ScanDataset":
        root = Path(root)
        dirs = sorted(p for p in root.iterdir() if (p / "frames.bin").exists())
        if not dirs:
            raise ValueError(f"no scan containers found under {root}")
        return cls([read_scan(p) for p in dirs])

    def __len__(self) -> int:
        return len(self.scans)

    def subjects(self) -> list:
        return sorted({s.subject for s in self.scans})

    def split_by_subject(self, val_fraction: float, seed: int):
        """Subject-disjoint split; subjects are shuffled deterministically.
        ``val_fraction`` must be finite and above 0."""
        if not (math.isfinite(val_fraction) and val_fraction > 0.0):
            raise ValueError(f"validation fraction must be above 0 and "
                             f"finite, got {val_fraction}")
        subjects = self.subjects()
        if len(subjects) < 2:
            raise ValueError("need at least 2 subjects for a disjoint split")
        rng = np.random.default_rng((seed, 0xD15C))
        order = [subjects[i] for i in rng.permutation(len(subjects))]
        n_val = max(1, int(round(val_fraction * len(order))))
        if n_val >= len(order):
            raise ValueError("validation fraction leaves no training subjects")
        val_subjects = set(order[:n_val])
        train = [s for s in self.scans if s.subject not in val_subjects]
        val = [s for s in self.scans if s.subject in val_subjects]
        return ScanDataset(train), ScanDataset(val)


def window_motions(scan: ScanSequence, start: int, pairs: int) -> np.ndarray:
    """True relative motions (pairs, 6) for frames [start, start+pairs],
    a read-only slice of the scan's cached truth motions."""
    if start < 0 or start + pairs > len(scan.truth_motions):
        raise IndexError(f"window of {pairs} steps from frame {start} leaves "
                         f"a scan of {scan.n_frames} frames")
    return scan.truth_motions[start : start + pairs]


def _epoch_batches(train_scans, config: TrainConfig, epoch: int):
    """Deterministic batches for one epoch: a window per scan, shuffled.
    Every scan holds a window (see :func:`_long_enough`)."""
    window = config.seq_len + 2
    rng = np.random.default_rng((config.seed, epoch))
    order = rng.permutation(len(train_scans))
    starts = [int(rng.integers(0, train_scans[idx].n_frames - window + 1))
              for idx in order]
    batches = []
    for pos in range(0, len(order), config.batch_size):
        chunk = list(zip(order[pos : pos + config.batch_size],
                         starts[pos : pos + config.batch_size]))
        batches.append(chunk)
    return batches


def _batch_loss(model: MotionNetwork, scans, batch, config: TrainConfig,
                degenerate: Counter):
    window = config.seq_len + 2
    frames = np.stack([scans[i].frames[s : s + window] for i, s in batch])
    truth = np.stack(
        [window_motions(scans[i], s, config.seq_len + 1) for i, s in batch]
    )
    out = model.forward_window(frames)
    parts = (
        mmae(truth, out["fused"], epsilon=config.loss_weights.epsilon),
        correlation_loss(truth, out["fused"], degenerate),
        triplet_loss(out["embeddings"], select_triplets(truth)),
    )
    return total_loss(parts, config.loss_weights), parts


def _train_step(model: MotionNetwork, optimizer: Adam, scans, batch,
                config: TrainConfig, step: int, lr: float,
                degenerate: Counter) -> tuple:
    """One optimizer step at rate ``lr`` on one batch; returns the (mmae,
    corr, triplet, total) loss values as floats, so the step's autodiff
    graph is freed before the next step builds its own. Windows with
    zero-norm motion series are counted into ``degenerate``."""
    loss, parts = _batch_loss(model, scans, batch, config, degenerate)
    value = loss.item()
    if not math.isfinite(value):
        raise FloatingPointError(
            f"non-finite training loss at step {step}: {value}"
        )
    optimizer.step(T.backward(loss, optimizer.params), lr)
    return parts[0].item(), parts[1].item(), parts[2].item(), value


def _val_windows(scan: ScanSequence, config: TrainConfig):
    """Fixed, evenly spaced validation windows; none for a scan shorter
    than a window."""
    window = config.seq_len + 2
    last = scan.n_frames - window
    if last < 0:
        return []
    count = min(VAL_WINDOWS_PER_SCAN, last + 1)
    return sorted({int(round(p)) for p in np.linspace(0, last, count)})


def validation_mmae(model: MotionNetwork, val_scans, config: TrainConfig) -> float:
    """Mean motion-weighted error over the fixed validation windows, one
    batched forward pass per scan. Scans shorter than a window take no
    part; none long enough is an error."""
    window = config.seq_len + 2
    values = []
    with T.no_grad():
        for scan in val_scans:
            starts = _val_windows(scan, config)
            if not starts:
                continue
            out = model.forward_window(
                np.stack([scan.frames[s : s + window] for s in starts]))
            for b, start in enumerate(starts):
                truth = window_motions(scan, start, config.seq_len + 1)
                values.append(
                    mmae(truth, out["fused"][b],
                         epsilon=config.loss_weights.epsilon).item()
                )
    if not values:
        raise ValueError(f"every validation scan is shorter than a "
                         f"{window}-frame window")
    return float(np.mean(values))


def _long_enough(scans, window: int, kind: str) -> list:
    """The scans that hold a window; the others are skipped with one
    warning, and none long enough is an error."""
    scans = list(scans)
    usable = [scan for scan in scans if scan.n_frames >= window]
    if not usable:
        raise ValueError(f"every {kind} scan is shorter than a "
                         f"{window}-frame window")
    if len(usable) < len(scans):
        logger.warning("skipping %d of %d %s scans shorter than a "
                       "%d-frame window", len(scans) - len(usable),
                       len(scans), kind, window)
    return usable


@dataclass
class TrainResult:
    steps_done: int
    best_val_mmae: float
    init_val_mmae: float
    final_val_mmae: float
    log_rows: list


def train(model: MotionNetwork, train_scans, val_scans, config: TrainConfig,
          log_path, checkpoint_path,
          resume_extra: dict | None = None) -> TrainResult:
    """Run the training loop; returns summary statistics.

    Every epoch holds the same ``ceil(len(train_scans) / batch_size)``
    batches, so the optimizer's step count is the one cursor: the epoch,
    the batch within it and the decayed learning rate all follow from
    it. Validation runs every ``val_every_epochs`` epochs and after the
    last step; each improvement writes ``checkpoint_path`` and its
    ``best_`` sibling, and the last step is always checkpointed.
    ``resume_extra`` is the non-parameter record dict of such a
    checkpoint (the step count, the Adam moments and the best validation
    error); model parameters must already be loaded. A resumed run keeps
    the rows of an existing log up to the checkpoint's step and appends
    to them. Training and validation scans shorter than a window are
    skipped with one warning each; none long enough, in either set, is
    an error raised before the first step.
    Windows whose correlation loss meets a zero-norm series (scans without
    rotation) are counted, and one ``fus3d.losses`` warning at the end of
    the run gives the count and the components.
    """
    window = config.seq_len + 2
    train_scans = _long_enough(train_scans, window, "training")
    val_scans = _long_enough(val_scans, window, "validation")
    optimizer = Adam(model.named_parameters())
    best_val = math.inf
    if resume_extra:
        optimizer.load_state_arrays(resume_extra)
        best_val = float(np.asarray(resume_extra["_train.best_val"]).ravel()[0])
    start = optimizer.step_count
    batches_per_epoch = math.ceil(len(train_scans) / config.batch_size)

    init_val = validation_mmae(model, val_scans, config)

    kept = [TRAIN_LOG_HEADER + "\n"]
    if resume_extra and Path(log_path).exists():
        # rows a cut run logged after its last checkpoint are dropped,
        # since the resume trains those steps again, and so is a last
        # line cut mid-write
        with open(log_path, encoding="utf-8", newline="\n") as handle:
            kept += [line for line in handle.readlines()[1:]
                     if line.endswith("\n")
                     and int(line.split(",", 1)[0]) <= start]
    Path(log_path).parent.mkdir(parents=True, exist_ok=True)

    log_rows = []
    final_val = init_val
    degenerate = Counter()
    saved_step = None
    with open(log_path, "w", encoding="utf-8", newline="\n") as log_handle:
        log_handle.writelines(kept)

        def save(best: bool) -> None:
            nonlocal saved_step
            extra = optimizer.state_arrays()
            extra["_train.best_val"] = np.array(best_val)
            # the log on disk holds every row up to the checkpoint's step
            log_handle.flush()
            target = Path(checkpoint_path)
            save_model(target, model, extra_arrays=extra)
            saved_step = optimizer.step_count
            if best:
                save_model(target.with_name("best_" + target.name), model)

        for step in range(start, config.steps):
            epoch, batch = divmod(step, batches_per_epoch)
            if batch == 0 or step == start:
                batches = _epoch_batches(train_scans, config, epoch)
            lr = config.learning_rate * DECAY_FACTOR ** (epoch // DECAY_EVERY)
            losses = _train_step(model, optimizer, train_scans, batches[batch],
                                 config, step, lr, degenerate)
            row = (step + 1, *losses, lr)
            log_rows.append(row)
            log_handle.write(",".join(repr(v) for v in row) + "\n")
            if ((step + 1) % (batches_per_epoch * config.val_every_epochs) == 0
                    or step + 1 == config.steps):
                final_val = validation_mmae(model, val_scans, config)
                if final_val < best_val:
                    best_val = final_val
                    save(best=True)
        # a best checkpoint at the last step is already the final one
        if saved_step != optimizer.step_count:
            save(best=False)
    if degenerate:
        losses_logger.warning(
            "correlation loss: zero-norm series in %d training window(s), "
            "component(s) %s; their cosine is defined as 0",
            sum(degenerate.values()), sorted(set().union(*degenerate)),
        )

    return TrainResult(
        steps_done=optimizer.step_count,
        best_val_mmae=best_val,
        init_val_mmae=init_val,
        final_val_mmae=final_val,
        log_rows=log_rows,
    )


# -- evaluation -------------------------------------------------------------------

def validation_report(model: MotionNetwork, val_scans) -> dict:
    """Per-scan and mean metrics of a model's accumulated trajectories
    over validation scans."""
    per_scan = []
    for scan in val_scans:
        rel_poses, _ = model.infer_scan(scan.frames)
        trajectory = accumulate([pose_to_transform(p) for p in rel_poses])
        report, _ = evaluate_trajectories(scan.truth, trajectory, scan.geometry)
        per_scan.append(report.as_json_dict())
    mean = {
        key: float(np.mean([r[key] for r in per_scan]))
        for key in per_scan[0]
    }
    return {"per_scan": per_scan, "mean": mean}
