"""Global-local attention and the motion-estimation network.

The network consumes windows of consecutive B-mode frames of one scan
and estimates the motion of every step (frame t to frame t+1). It
encodes each frame once with the first encoder stage, correlates the
stage-1 feature maps of each step's two frames patch-wise, pushes the
concatenated features through three more residual stages, recalibrates
mid/deep features with a global-local attention block, and regresses
per-step 6-DoF motion with two LSTM estimators (one on the global
summary, one on the local one) whose outputs are fused by averaging.
The attention block is the only head, and every forward pass returns
its per-step block scores; ``fus3d infer --diagnostics`` writes them as
16-bit PGM grids (``write_pgm16``). The package writes PGM and never
reads it back; the tests pin the writer's bytes.

Shape ladder (channels x extent) at 64px and 128px frames, and at the
paper's 256px with its channels:

              64px            128px            256px (paper)
    stage1    8 x 32 x 32     8 x 64 x 64      64 x 128 x 128
    corr     25 x  8 x  8    25 x  8 x  8      25 x  8 x  8
    stage2   16 x 16 x 16    16 x 32 x 32     128 x 64 x 64
    stage3   32 x  8 x  8    32 x  8 x  8     256 x  8 x  8
    stage4   64 x  4 x  4    64 x  4 x  4     512 x  4 x  4

The corr rows are 5 x 5 displacements on the RoI grid. Stages 1, 2
and 4 halve their input; stage 3 divides it by
``frame_extent // 32``, so every legal extent (32 * 2**k px) keeps the
8x8 correlation grid and the 4x4 global map. ``ModelConfig`` holds only
the frame extent, which ``fus3d train`` takes from its scans; channels,
LSTM width, correlation RoI and patch and the MLP reduction are the
module constants ``ENCODER_CHANNELS``, ``LSTM_HIDDEN``, ``CORR_ROI``,
``CORR_PATCH`` and ``MLP_REDUCTION``. The network tests patch the first
two to build the paper-shape column.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _workers
from . import tensor as T
from .correlation import CorrConfig, correlate_batch
from .nn import Conv2d, Linear, LSTMCell, Module, Parameter, kaiming_uniform
from .nn import load_checkpoint, save_checkpoint
from .pose import _pose_rows
from .tensor import Tensor

__all__ = [
    "GlaConfig",
    "ModelConfig",
    "GlobalLocalAttention",
    "MotionNetwork",
    "export_attention_scores",
    "write_pgm16",
    "save_model",
    "load_model",
]

# Steps per forward pass in ``infer_scan``; any chunk gives the same
# poses. With the kernels' helper thread, inference of the benchmark's
# 250-frame reconstruct sweep took a median 229 ms at 16, 211 ms at 24
# and 202 ms at 32 (2-CPU host, 10 rounds alternating the three; 24 was
# faster than 16 in 10 rounds, 32 in 9). Before it, 24 and 32 were
# within 5 % of 16, and one 249-step chunk took 0.74 s against 0.44 s.
INFER_CHUNK = 32

# Correlation RoI and patch extents (stage-1 pixels), the attention
# MLPs' bottleneck ratio, the encoder's stage channels and the LSTM
# width, the same at every frame extent. Checkpoints record them (older
# ones the first three); loading checks that the records match.
CORR_ROI = 9
CORR_PATCH = 5
MLP_REDUCTION = 16
ENCODER_CHANNELS = (8, 16, 32, 64)
LSTM_HIDDEN = 32


@dataclass(frozen=True)
class GlaConfig:
    """Shapes of the attention block: local features (channels, extent)
    and global features (channels, extent). The MLPs' bottleneck ratio is
    ``MLP_REDUCTION``.

    The local map is tiled into blocks of the global extent, because the
    cosine weighting compares each block with the projected global map."""

    local_channels: int
    local_extent: int
    global_channels: int
    global_extent: int

    def __post_init__(self) -> None:
        if self.local_extent % self.global_extent != 0:
            raise ValueError(
                f"block extent {self.global_extent} does not tile a "
                f"{self.local_extent}px local map"
            )
        if self.global_channels % self.local_channels != 0:
            raise ValueError(
                "global channel count must be a multiple of the local one"
            )

    @property
    def n_blocks(self) -> int:
        return (self.local_extent // self.global_extent) ** 2


def _downsample_chain(frame_extent: int) -> tuple:
    """Per-stage downsampling factors for ``frame_extent`` px frames:
    2 at stages 1, 2 and 4, and ``frame_extent // 32`` at stage 3, which
    keeps the 8x8 correlation grid and the 4x4 global map at every legal
    extent, 32 * 2**k px."""
    if frame_extent < 32 or frame_extent & (frame_extent - 1):
        raise ValueError(f"frame extent must be 32 * 2**k px (stage 3 downsamples "
                         f"by extent // 32), got {frame_extent}px")
    return (2, 2, frame_extent // 32, 2)


@dataclass(frozen=True)
class ModelConfig:
    """The frame extent, which fixes the rest of the network's geometry;
    the default (``toy``) is the trainable desk-scale setup.

    The extent sets the encoder's downsampling chain (``downsample``,
    stage 3 by ``frame_extent // 32``). The chain fixes the other
    extents: the correlation grid is the stage-3 extent, whose maps the
    correlation channels join, and the attention blocks take the stage-4
    (global) extent. Channels and LSTM width are ``ENCODER_CHANNELS`` and
    ``LSTM_HIDDEN``."""

    frame_extent: int = 64

    def __post_init__(self) -> None:
        # raises for an extent off the chain rule, and when no RoI stride
        # lays out the stage-3 grid on the stage-1 map
        self.corr_config

    @classmethod
    def toy(cls) -> "ModelConfig":
        return cls()

    # -- derived shapes -------------------------------------------------
    @property
    def downsample(self) -> tuple:
        return _downsample_chain(self.frame_extent)

    def stage_extent(self, stage: int) -> int:
        extent = self.frame_extent
        for ds in self.downsample[: stage + 1]:
            extent //= ds
        return extent

    @property
    def corr_config(self) -> CorrConfig:
        return CorrConfig.for_map_extent(
            self.stage_extent(0), grid=self.stage_extent(2),
            roi_extent=CORR_ROI, patch_extent=CORR_PATCH,
        )

    @property
    def gla_config(self) -> GlaConfig:
        return GlaConfig(
            local_channels=ENCODER_CHANNELS[1],
            local_extent=self.stage_extent(1),
            global_channels=ENCODER_CHANNELS[3],
            global_extent=self.stage_extent(3),
        )

    # -- flat key=value serialization ------------------------------------
    def to_text_dict(self) -> dict:
        """The frame extent and the channels, chain and LSTM width it
        runs with, as comma-joined ints."""
        return {"frame_extent": str(self.frame_extent),
                "encoder_channels": ",".join(map(str, ENCODER_CHANNELS)),
                "downsample": ",".join(map(str, self.downsample)),
                "lstm_hidden": str(LSTM_HIDDEN)}

    @classmethod
    def from_text_dict(cls, text: dict) -> "ModelConfig":
        """Inverse of :meth:`to_text_dict`. Every other recorded geometry
        key (``encoder_channels``, ``downsample``, ``lstm_hidden`` and the
        retired ``corr_roi``, ``corr_patch``, ``mlp_reduction``) must
        record the value the extent and the constants fix: another RoI or
        patch extent can give the same parameter shapes and would load
        into the fixed geometry unnoticed. Keys of other retired settings
        are ignored."""
        config = cls(frame_extent=int(text["frame_extent"]))
        fixed = {"corr_roi": str(CORR_ROI), "corr_patch": str(CORR_PATCH),
                 "mlp_reduction": str(MLP_REDUCTION), **config.to_text_dict()}
        for key, want in fixed.items():
            if key in text and _ints(text[key]) != _ints(want):
                raise ValueError(f"checkpoint records {key}={text[key]}, but "
                                 f"the network fixes {key} at {want}")
        return config


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


class ResidualStage(Module):
    """Stride-2 downsampling conv(s), one per halving of the power-of-two
    ``downsample`` (one stride-1 conv at 1), followed by a two-conv
    residual block."""

    def __init__(self, in_channels: int, out_channels: int, downsample: int,
                 rng: np.random.Generator):
        steps = max(1, downsample.bit_length() - 1)
        convs = []
        ch = in_channels
        for i in range(steps):
            stride = 2 if downsample > 1 else 1
            convs.append(Conv2d(ch, out_channels, 3, rng, stride=stride, padding=1))
            ch = out_channels
        self.down = convs
        self.res1 = Conv2d(out_channels, out_channels, 3, rng, padding=1)
        self.res2 = Conv2d(out_channels, out_channels, 3, rng, padding=1)

    def __call__(self, x: Tensor) -> Tensor:
        h = x
        for conv in self.down:
            h = T.relu(conv(h))
        r = self.res2(T.relu(self.res1(h)))
        return T.relu(T.add(h, r))


def _tile_blocks(x: Tensor, block_extent: int) -> Tensor:
    """(n, c, h, w) -> (n, n_blocks, c, e, e), row-major non-overlapping."""
    n, c, h, w = x.shape
    gy, gx = h // block_extent, w // block_extent
    t = T.reshape(x, (n, c, gy, block_extent, gx, block_extent))
    t = T.transpose(t, (0, 2, 4, 1, 3, 5))
    return T.reshape(t, (n, gy * gx, c, block_extent, block_extent))


class GlobalLocalAttention(Module):
    """Channel attention on local blocks, channel+spatial attention on the
    global map, then cosine-similarity reweighting of each local block
    against the projected global feature."""

    def __init__(self, cfg: GlaConfig, rng: np.random.Generator):
        self.cfg = cfg
        hidden_l = max(1, cfg.local_channels // MLP_REDUCTION)
        hidden_g = max(1, cfg.global_channels // MLP_REDUCTION)
        self.local_mlp1 = Linear(cfg.local_channels, hidden_l, rng, bias=False)
        self.local_mlp2 = Linear(hidden_l, cfg.local_channels, rng, bias=False)
        self.global_mlp1 = Linear(cfg.global_channels, hidden_g, rng, bias=False)
        self.global_mlp2 = Linear(hidden_g, cfg.global_channels, rng, bias=False)
        self.spatial_conv = Conv2d(2, 1, 1, rng, bias=False)
        self.global_proj = Conv2d(cfg.global_channels, cfg.local_channels, 1,
                                  rng, bias=False)
        proj_out = cfg.global_channels // cfg.local_channels
        self.block_proj = Parameter(
            kaiming_uniform(rng, (proj_out, cfg.n_blocks), cfg.n_blocks)
        )

    def local_channel_scores(self, e2: Tensor) -> Tensor:
        """Sigmoid-bounded per-channel score vector of the local map."""
        pooled = T.tensor_mean(e2, axis=(2, 3))
        return T.sigmoid(self.local_mlp2(self.local_mlp1(pooled)))

    def recalibrate_local(self, e2: Tensor, scores: Tensor) -> Tensor:
        """Channel-weighted local blocks, (n, n_blocks, c, e, e)."""
        blocks = _tile_blocks(e2, self.cfg.global_extent)
        w = T.reshape(scores, (e2.shape[0], 1, e2.shape[1], 1, 1))
        return T.mul(blocks, w)

    def global_attention(self, e4: Tensor) -> Tensor:
        """Parallel channel and spatial recalibration of the global map."""
        n, c = e4.shape[:2]
        pooled = T.tensor_mean(e4, axis=(2, 3))
        channel = T.sigmoid(self.global_mlp2(self.global_mlp1(pooled)))
        spatial_in = T.concat(
            [T.reduce_max(e4, axis=1, keepdims=True),
             T.tensor_mean(e4, axis=1, keepdims=True)],
            axis=1,
        )
        spatial = T.sigmoid(self.spatial_conv(spatial_in))  # (n, 1, h, w)
        return T.mul(T.mul(e4, T.reshape(channel, (n, c, 1, 1))), spatial)

    def _weight_blocks(self, blocks: Tensor, g_tilde: Tensor):
        """Cosine-weight each block against the projected global feature."""
        n, nb = blocks.shape[0], blocks.shape[1]
        # (n, 1, c, e, e): the cosine broadcasts it over the block axis
        g_row = T.reshape(g_tilde, (n, 1) + g_tilde.shape[1:])
        scores = T.cosine_similarity(blocks, g_row, axis=(2, 3, 4))
        weighted = T.mul(blocks, T.reshape(scores, (n, nb, 1, 1, 1)))
        return weighted, scores

    def __call__(self, e2: Tensor, e4: Tensor):
        """Returns (local summary L, global summary G, block scores)."""
        cfg = self.cfg
        n = e2.shape[0]
        local_scores = self.local_channel_scores(e2)
        blocks = self.recalibrate_local(e2, local_scores)
        g = self.global_attention(e4)
        g_tilde = self.global_proj(g)
        weighted, block_scores = self._weight_blocks(blocks, g_tilde)
        # aggregate: project the block axis down, then fold into channels
        flat = T.reshape(weighted, (n, cfg.n_blocks, -1))
        projected = T.matmul(self.block_proj, flat)  # (n, proj, c*e*e)
        proj_out = projected.shape[1]
        e = cfg.global_extent
        l_tilde = T.reshape(projected, (n, proj_out, cfg.local_channels, e, e))
        local = T.reshape(
            T.transpose(l_tilde, (0, 2, 1, 3, 4)),
            (n, cfg.local_channels * proj_out, e, e),
        )
        return local, g, block_scores


class MotionNetwork(Module):
    """Full assembly: shared stage-1 encoder on every frame, patch
    correlation, stages 2-4, attention, dual LSTM estimators, fusion."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        c1, c2, c3, c4 = ENCODER_CHANNELS
        ds = config.downsample
        corr_cfg = config.corr_config
        d2 = corr_cfg.displacement_extent**2
        self.config = config
        self.stage1 = ResidualStage(1, c1, ds[0], rng)
        self.stage2 = ResidualStage(2 * c1, c2, ds[1], rng)
        self.stage3 = ResidualStage(c2, c3, ds[2], rng)
        self.stage4 = ResidualStage(c3 + d2, c4, ds[3], rng)
        self.attention = GlobalLocalAttention(config.gla_config, rng)
        feature_size = c4 * config.stage_extent(3) ** 2
        self.lstm_global = LSTMCell(feature_size, LSTM_HIDDEN, rng)
        self.head_global = Linear(LSTM_HIDDEN, 6, rng)
        self.lstm_local = LSTMCell(feature_size, LSTM_HIDDEN, rng)
        self.head_local = Linear(LSTM_HIDDEN, 6, rng)

    def forward_window(self, frames, state=None):
        """Run a batch of consecutive-frame windows.

        ``frames`` is (batch, steps+1, h, w); step t is (frame t, frame
        t+1), and the stage-1 encoder runs once per frame. Returns a dict
        with fused / per-branch motion tensors (batch, steps, 6), triplet
        embeddings, the final LSTM ``state`` and the per-step attention
        block scores (batch, steps, n_blocks). ``state`` carries LSTM
        context across chunks of one long sequence. The encoder,
        correlation and attention run with a helper thread lent to their
        batched kernels (``_workers.lend_helper``).
        """
        frames = frames if isinstance(frames, Tensor) else Tensor(np.asarray(frames))
        if frames.ndim != 4 or frames.shape[1] < 2:
            raise ValueError(
                f"expected (batch, steps+1, h, w) with >= 2 frames, got {frames.shape}"
            )
        if frames.shape[-1] != frames.shape[-2]:
            raise ValueError(f"frames must be square, got {frames.shape}")
        if frames.shape[-1] != self.config.frame_extent:
            raise ValueError(
                f"model expects {self.config.frame_extent}px frames, "
                f"got {frames.shape[-1]}px"
            )
        b, total, h, w = frames.shape
        steps = total - 1
        with _workers.lend_helper():
            e1 = self.stage1(T.reshape(frames, (b * total, 1, h, w)))
            c1, eh, ew = e1.shape[1:]
            e1 = T.reshape(e1, (b, total, c1, eh, ew))
            e1a = T.reshape(e1[:, :-1], (b * steps, c1, eh, ew))
            e1b = T.reshape(e1[:, 1:], (b * steps, c1, eh, ew))
            local, global_, scores = self._attend(e1a, e1b)
        gf = T.reshape(global_, (b, steps, -1))
        lf = T.reshape(local, (b, steps, -1))

        if state is None:
            hg, cg = self.lstm_global.initial_state(b)
            hl, cl = self.lstm_local.initial_state(b)
        else:
            hg, cg, hl, cl = state
        gates_g = self.lstm_global.project(gf)
        gates_l = self.lstm_local.project(lf)
        out_g, out_l = [], []
        for t in range(steps):
            hg, cg = self.lstm_global(gates_g[:, t], hg, cg)
            hl, cl = self.lstm_local(gates_l[:, t], hl, cl)
            out_g.append(self.head_global(hg))
            out_l.append(self.head_local(hl))
        global6 = T.stack(out_g, axis=1)
        local6 = T.stack(out_l, axis=1)
        fused = T.mul(T.add(global6, local6), 0.5)

        pool_g = T.reshape(T.tensor_mean(global_, axis=(2, 3)), (b, steps, -1))
        pool_l = T.reshape(T.tensor_mean(local, axis=(2, 3)), (b, steps, -1))
        embeddings = T.concat([pool_g, pool_l], axis=2)

        return {
            "fused": fused,
            "global6": global6,
            "local6": local6,
            "embeddings": embeddings,
            "state": (hg, cg, hl, cl),
            "attention_scores": T.reshape(scores, (b, steps, -1)),
        }

    def _attend(self, e1a: Tensor, e1b: Tensor):
        # the correlation's displacement maps join stage 3's channels as
        # they come, (n, d*d, gy, gx) on the stage-3 grid
        corr = correlate_batch(e1a, e1b, self.config.corr_config)
        e2 = self.stage2(T.concat([e1a, e1b], axis=1))
        e3 = self.stage3(e2)
        e4 = self.stage4(T.concat([corr, e3], axis=1))
        return self.attention(e2, e4)

    def infer_scan(self, frames: np.ndarray):
        """Relative motions for a whole scan (n frames -> n-1 steps).

        The scan runs in chunks of ``INFER_CHUNK`` steps. LSTM state is
        carried across chunks, so the result equals one long forward
        pass. Returns (list of PoseVector, (n-1, n_blocks) array of
        attention block scores)."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim != 3 or frames.shape[0] < 2:
            raise ValueError("inference needs at least two frames")
        poses: list = []
        score_rows = []
        state = None
        with T.no_grad():
            for start in range(0, frames.shape[0] - 1, INFER_CHUNK):
                stop = min(start + INFER_CHUNK, frames.shape[0] - 1)
                out = self.forward_window(frames[start : stop + 1][None],
                                          state=state)
                state = out["state"]
                poses.extend(_pose_rows(out["fused"].data[0]))
                score_rows.append(out["attention_scores"].data[0])
        return poses, np.concatenate(score_rows, axis=0)


def write_pgm16(path, values: np.ndarray) -> None:
    """Write a 2-D array as 16-bit binary PGM: the header
    ``P5\\n{width} {height}\\n65535\\n``, then big-endian u16 pixels row
    by row, mapping [-1, 1] (the range of the attention block scores)
    onto [0, 65535]."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"PGM needs a 2-d array, got shape {arr.shape}")
    scaled = np.clip((arr + 1.0) / 2.0, 0.0, 1.0)
    pixels = np.round(scaled * 65535.0).astype(">u2")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def export_attention_scores(scores: np.ndarray, directory) -> list:
    """Write per-step block-score grids as 16-bit PGM images.

    ``scores`` is (steps, n_blocks); each row becomes a sqrt(n_blocks)
    square grid mapped from ``write_pgm16``'s range [-1, 1]."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    steps, nb = scores.shape
    grid = int(round(np.sqrt(nb)))
    if grid * grid != nb:
        raise ValueError(f"{nb} block scores do not form a square grid")
    paths = []
    for t in range(steps):
        path = directory / f"attention_{t:04d}.pgm"
        write_pgm16(path, scores[t].reshape(grid, grid))
        paths.append(path)
    return paths


# -- model checkpoints ----------------------------------------------------------

def save_model(path, model: MotionNetwork,
               extra_arrays: dict | None = None) -> None:
    arrays = model.state_arrays()
    if extra_arrays:
        arrays.update(extra_arrays)
    save_checkpoint(path, arrays, model.config.to_text_dict())


def load_model(path):
    """Rebuild a MotionNetwork from a checkpoint.

    Returns (model, extra_arrays, config) where extra_arrays holds any
    non-parameter records (optimizer state, counters). A checkpoint
    without a positive integer ``frame_extent`` record, or without one
    of the model's parameters, raises ValueError naming the file."""
    arrays, config = load_checkpoint(path)
    extent = config.get("frame_extent")
    if extent is None or not extent.isdecimal():
        raise ValueError(f"{path}: checkpoint needs a frame_extent record "
                         f"holding a positive integer, got {extent!r}")
    model = MotionNetwork(ModelConfig.from_text_dict(config))
    params = {name for name, _ in model.named_parameters()}
    try:
        model.load_state_arrays({k: v for k, v in arrays.items() if k in params})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    extra = {k: v for k, v in arrays.items() if k not in params}
    return model, extra, config
