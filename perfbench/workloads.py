"""The three benchmark workloads.

Each workload is closed loop: one caller runs one operation at a time,
and each waits for the last. ``setup`` builds what every operation
needs; ``prepare`` builds the inputs of one operation, outside its
timing and trace; ``op`` runs the operation and returns the wall time of
each of its timed stages (the operation time is their sum) plus what
``check`` needs to verify its outputs. Inputs come only from the seed.

Library calls go through module attributes (``pose.accumulate``, not a
name imported from it), so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fus3d import compound, metrics, network, pose, simulate, tensor, training

import reference

GEOMETRY = pose.ImageGeometry(64, 64, simulate.DEFAULT_PITCH_MM,
                              simulate.DEFAULT_PITCH_MM)
VAL_MMAE_REFERENCE = Path(__file__).with_name("val_mmae_reference.json")
FRAME_RATE_HZ = 20.0
STEP_MM = 0.15
SHAPES = ("linear", "s_curve", "c_curve")
# metric values are checked against the numpy reference to this tolerance
METRIC_RTOL = 1e-9
METRIC_ATOL = 1e-12
# frames of the chunked-inference check: more than one 16-step chunk
CHUNK_CHECK_FRAMES = 40
SWEEPS_PER_SUBJECT = 2


NETWORK_FORWARD_LAYERS = (
    "tensor.conv2d.fwd_s", "tensor.conv2d.calls", "correlation.fwd_s",
    "correlation.calls", "network.forward_window_s", "network.stage_s",
    "network.attention_s", "network.forward_window.calls", "nn.lstm_s",
    "nn.lstm.calls",
)
SCAN_IO_LAYERS = ("simulate.write_scan_s", "simulate.read_scan_s",
                  "pose.csv_write_s", "pose.csv_read_s")
SIMULATE_LAYERS = ("simulate.make_phantom_s", "simulate.make_trajectory_s",
                   "simulate.slice_phantom_s", "pose.extract_relatives_s",
                   "pose.transforms_built")
METRICS_LAYERS = ("metrics.evaluate_s", "metrics.accumulated_errors_s",
                  "metrics.frame_error_series_s")


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input, independent across ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def trajectory_spec(shape: str, n_frames: int, seed: int) -> simulate.TrajectorySpec:
    """A freehand sweep: steady elevational progress, a lateral curve,
    a slow rotation sweep and per-frame jitter."""
    return simulate.TrajectorySpec(
        shape=shape,
        length_mm=STEP_MM * (n_frames - 1),
        n_frames=n_frames,
        lateral_amplitude_mm=1.0,
        rotation_amplitude_deg=3.0,
        noise_translation_mm=(0.02, 0.02, 0.01),
        noise_rotation_deg=(0.05, 0.05, 0.05),
        seed=seed,
    )


def make_phantom(spec: simulate.TrajectorySpec, seed: int) -> simulate.Phantom:
    wiggle = spec.lateral_amplitude_mm + 4.0 * max(spec.noise_translation_mm)
    phantom_spec = simulate.PhantomSpec.for_scan(
        GEOMETRY, scan_length_mm=spec.length_mm, margin_mm=2.0 + wiggle,
        voxel_mm=0.10,
    )
    return simulate.make_phantom(phantom_spec, seed=seed)


def sweep(phantom, spec, subject: str) -> simulate.ScanSequence:
    trajectory, _ = simulate.make_trajectory(spec)
    frames = simulate.slice_phantom(phantom, trajectory, GEOMETRY)
    return simulate.ScanSequence(frames=frames, geometry=GEOMETRY,
                                 frame_rate_hz=FRAME_RATE_HZ, truth=trajectory,
                                 subject=subject, meta={"shape": spec.shape})


def check_report(name: str, report, truth, pred, geometry) -> list:
    """Compare a MetricsReport with the numpy reference."""
    expected = reference.evaluate(list(truth), list(pred), geometry)
    failures = []
    for key, value in report.as_json_dict().items():
        if not math.isclose(value, expected[key], rel_tol=METRIC_RTOL,
                            abs_tol=METRIC_ATOL):
            failures.append(f"{name}: {key} = {value!r}, reference "
                            f"{expected[key]!r}")
    return failures


class Workload:
    """What the workloads share: an untraced run sets up ``setups``
    times (``setup_s`` is the median), spread over the run when
    ``spread_setups`` is set, and operations need no inputs beyond the
    state."""

    setups = 9
    spread_setups = True

    def prepare(self, state, index: int) -> None:
        """Build the inputs of operation ``index`` into ``state``."""


class _Stopwatch:
    """Wall time of consecutive stages."""

    def __init__(self):
        self.stages: dict = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.stages[stage] = now - self._last
        self._last = now


# -- train --------------------------------------------------------------------

@dataclass
class TrainSizes:
    subjects: int = 3
    frames: int = 200
    steps: int = 4


@dataclass
class TrainState:
    seed: int
    workdir: Path
    train_scans: list
    val_scans: list


class TrainWorkload(Workload):
    """``training.train()`` on the toy model (64 px, batch 4, s = 8).

    The dataset is simulated in set-up, written as scan containers and
    read back with ``ScanDataset.from_directory``, as ``fus3d train``
    does, then split by subject. Every operation trains a fresh model
    with the same seed for a fixed number of steps, with log and
    checkpoint files in a scratch directory."""

    name = "train"
    setups = 3
    # The memory a set-up frees stays in the heap, so set-ups between
    # operations would add to peak_rss_mb; and three set-ups of about
    # 5 s each already meet several host speed phases.
    spread_setups = False
    # per-layer metrics that must read non-zero in a traced run; the
    # others must read zero (the simulate layers run in the traced set-up)
    layers = NETWORK_FORWARD_LAYERS + SCAN_IO_LAYERS + SIMULATE_LAYERS + (
        "tensor.backward_s", "tensor.conv2d.bwd_s", "correlation.bwd_s",
        "nn.save_checkpoint_s", "losses_s", "losses.triplet.calls",
        "optim.adam_step_s", "training.window_motions_s",
        "training.window_motions.calls", "training.relpose_useful_ratio",
        "training.validation_s",
    )

    def __init__(self, sizes: TrainSizes | None = None):
        self.sizes = sizes or TrainSizes()
        self.config = training.TrainConfig(steps=self.sizes.steps,
                                           batch_size=4, seq_len=8)
        self.val_mmae: list = []

    def setup(self, seed: int, workdir: Path) -> TrainState:
        sizes = self.sizes
        root = Path(tempfile.mkdtemp(prefix="dataset-", dir=workdir))
        for s in range(sizes.subjects):
            phantom = None
            for k in range(SWEEPS_PER_SUBJECT):
                index = s * SWEEPS_PER_SUBJECT + k
                spec = trajectory_spec(SHAPES[index % len(SHAPES)], sizes.frames,
                                       derive_seed(seed, 1, index))
                if phantom is None:
                    # one phantom per subject: its sweeps share the tissue
                    phantom = make_phantom(spec, derive_seed(seed, 2, s))
                simulate.write_scan(root / f"scan{index:02d}",
                                    sweep(phantom, spec, f"s{s:02d}"))
        dataset = training.ScanDataset.from_directory(root)
        train_ds, val_ds = dataset.split_by_subject(1.0 / sizes.subjects, seed)
        return TrainState(seed, workdir, train_ds.scans, val_ds.scans)

    def op(self, state: TrainState, index: int):
        out = Path(tempfile.mkdtemp(prefix="train-", dir=state.workdir))
        model = network.MotionNetwork(network.ModelConfig.toy(), seed=state.seed)
        config = dataclasses.replace(self.config, seed=state.seed)
        clock = _Stopwatch()
        result = training.train(model, state.train_scans, state.val_scans,
                                config, log_path=out / "train_log.csv",
                                checkpoint_path=out / "checkpoint.ckpt")
        clock.lap("train")
        return clock.stages, (result, out, config)

    def check(self, state: TrainState, payload) -> list:
        result, out, config = payload
        failures = []
        try:
            totals = [row[4] for row in result.log_rows]
            if len(totals) != config.steps or not all(map(math.isfinite, totals)):
                failures.append(f"train: losses {totals} are not "
                                f"{config.steps} finite values")
            with open(out / "train_log.csv", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            if len(lines) != config.steps + 1:
                failures.append(f"train: log holds {len(lines)} lines")
            # the best checkpoint reproduces the validation it was saved for
            best, _, _ = network.load_model(out / "best_checkpoint.ckpt")
            again = training.validation_mmae(best, state.val_scans, config)
            if again != result.best_val_mmae:
                failures.append(f"train: reloaded checkpoint gives val mMAE "
                                f"{again!r}, not {result.best_val_mmae!r}")
            # a fixed seed trains deterministically
            if self.val_mmae and result.final_val_mmae != self.val_mmae[0]:
                failures.append(f"train: val mMAE {result.final_val_mmae!r} "
                                f"differs from the first run's "
                                f"{self.val_mmae[0]!r}")
            self.val_mmae.append(result.final_val_mmae)
            failures += self._check_reference(state.seed, result.final_val_mmae)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return failures

    def _check_reference(self, seed: int, value: float) -> list:
        """The validation mMAE recorded for this seed, where there is one;
        the tolerance allows a changed summation order, not a changed
        gradient."""
        if self.sizes != TrainSizes():
            return []
        table = json.loads(VAL_MMAE_REFERENCE.read_text(encoding="utf-8"))
        expected = table["val_mmae"].get(str(seed))
        if expected is None or math.isclose(value, expected,
                                            rel_tol=table["rel_tol"]):
            return []
        return [f"train: val mMAE {value!r} for seed {seed}, reference "
                f"{expected!r}"]

    def summary(self, stages: dict) -> dict:
        windows = self.config.steps * self.config.batch_size
        return {
            "train_windows_per_s": (windows / stages["train"], "1/s"),
            "val_mmae": (self.val_mmae[0] if self.val_mmae else math.nan,
                         "mMAE"),
        }


# -- reconstruct --------------------------------------------------------------

@dataclass
class ReconstructSizes:
    frames: int = 250


@dataclass
class ReconstructState:
    seed: int
    workdir: Path
    model: network.MotionNetwork


class ReconstructWorkload(Workload):
    """One fresh sweep per operation through the whole pipeline:
    simulate, write and read the scan, infer with an untrained toy model
    of fixed seed, accumulate, evaluate against the truth and compound
    along the predicted poses."""

    name = "reconstruct"
    layers = NETWORK_FORWARD_LAYERS + SCAN_IO_LAYERS + SIMULATE_LAYERS + (
        METRICS_LAYERS + ("pose.accumulate_s", "compound.compound_s",
                          "compound.write_volume_s")
    )
    voxel_mm = simulate.DEFAULT_PITCH_MM

    def __init__(self, sizes: ReconstructSizes | None = None):
        self.sizes = sizes or ReconstructSizes()

    def setup(self, seed: int, workdir: Path) -> ReconstructState:
        model = network.MotionNetwork(network.ModelConfig.toy(), seed=0)
        # one chunk of inference on noise lets lazy allocation finish
        # before the first timed operation
        noise = np.random.default_rng(derive_seed(seed, 7)).random((17, 64, 64))
        model.infer_scan(noise)
        return ReconstructState(seed, workdir, model)

    def op(self, state: ReconstructState, index: int):
        out = Path(tempfile.mkdtemp(prefix="reconstruct-", dir=state.workdir))
        spec = trajectory_spec("s_curve", self.sizes.frames,
                               derive_seed(state.seed, 3, index))
        clock = _Stopwatch()
        phantom = make_phantom(spec, derive_seed(state.seed, 4, index))
        scan = sweep(phantom, spec, "s00")
        del phantom
        clock.lap("simulate")
        simulate.write_scan(out / "scan", scan)
        scan = simulate.read_scan(out / "scan")
        clock.lap("scan_io")
        rel_poses, _ = state.model.infer_scan(scan.frames)
        clock.lap("infer")
        pred = pose.accumulate([pose.pose_to_transform(p) for p in rel_poses])
        clock.lap("accumulate")
        report, _ = metrics.evaluate_trajectories(scan.truth, pred, scan.geometry)
        clock.lap("evaluate")
        volume = compound.compound(scan.frames, list(pred), scan.geometry,
                                   self.voxel_mm)
        compound.write_volume(out / "volume.fvl", volume)
        clock.lap("compound")
        return clock.stages, (scan, rel_poses, pred, report, volume, out, index)

    def check(self, state: ReconstructState, payload) -> list:
        scan, rel_poses, pred, report, volume, out, index = payload
        shutil.rmtree(out, ignore_errors=True)
        failures = check_report("reconstruct", report, scan.truth, pred,
                                scan.geometry)
        # mean splatting conserves the intensity of in-bounds pixels
        geometry = scan.geometry
        plane = geometry.pixel_to_plane(geometry.full_pixel_grid())
        rot, tra = reference.stack(list(pred))
        points = np.einsum("nij,pj->npi", rot, plane) + tra[:, None, :]
        idx = np.rint((points - volume.origin_mm) / volume.voxel_mm)
        inside = np.all((idx >= 0) & (idx < np.array(volume.dims)), axis=2)
        expected = float(scan.frames.reshape(len(pred), -1)[inside].sum())
        if not math.isclose(volume.mass(), expected, rel_tol=1e-9):
            failures.append(f"reconstruct: volume mass {volume.mass()!r}, "
                            f"in-bounds intensity {expected!r}")
        if index == 0:
            failures += self._check_chunking(state.model, scan, rel_poses)
        return failures

    def _check_chunking(self, model, scan, rel_poses) -> list:
        """Chunked inference equals one forward_window pass."""
        n = min(CHUNK_CHECK_FRAMES, scan.n_frames)
        chunked, _ = model.infer_scan(scan.frames[:n])
        with tensor.no_grad():
            whole = model.forward_window(scan.frames[None, :n])["fused"].data[0]
        got = np.array([p.as_array() for p in chunked])
        want = np.array([pose.PoseVector.from_array(r).as_array()
                         for r in whole])
        full = np.array([p.as_array() for p in rel_poses[: n - 1]])
        error = max(np.abs(got - want).max(), np.abs(full - want).max())
        if error > 1e-9:
            return [f"reconstruct: chunked inference differs from one pass "
                    f"by {error:.3e}"]
        return []

    def summary(self, stages: dict) -> dict:
        n = self.sizes.frames
        return {
            "simulate_frames_per_s": (n / stages["simulate"], "1/s"),
            "infer_frames_per_s": (n / stages["infer"], "1/s"),
            "accumulate_frames_per_s": (n / stages["accumulate"], "1/s"),
            "evaluate_frames_per_s": (n / stages["evaluate"], "1/s"),
            "compound_frames_per_s": (n / stages["compound"], "1/s"),
            "reconstruct_s": (sum(stages.values()), "s"),
        }


# -- long trajectory ----------------------------------------------------------

@dataclass
class LongSizes:
    frames: int = 2000


@dataclass
class LongState:
    seed: int
    workdir: Path
    inputs: tuple


class LongTrajectoryWorkload(Workload):
    """Trajectories from ``make_trajectory`` with a drifting prediction
    (the true relative poses plus a seeded bias and noise): accumulate,
    evaluate, then write and read the pose CSV. No frames, no network.
    Set-up builds the first operation's inputs; ``prepare`` builds those
    of the later ones the same way."""

    name = "long_trajectory"
    layers = METRICS_LAYERS + (
        "pose.accumulate_s", "pose.extract_relatives_s", "pose.transforms_built",
        "pose.csv_write_s", "pose.csv_read_s", "simulate.make_trajectory_s",
    )

    def __init__(self, sizes: LongSizes | None = None):
        self.sizes = sizes or LongSizes()

    def inputs(self, seed: int, index: int):
        spec = trajectory_spec(SHAPES[index % len(SHAPES)], self.sizes.frames,
                               derive_seed(seed, 5, index))
        truth, true_rel = simulate.make_trajectory(spec)
        rng = np.random.default_rng(derive_seed(seed, 6, index))
        bias = rng.uniform(-1.0, 1.0, 6) * np.array([0.005] * 3 + [0.02] * 3)
        noise = rng.standard_normal((len(true_rel), 6)) * np.array(
            [0.01] * 3 + [0.03] * 3)
        pred_rel = [pose.PoseVector.from_array(p.as_array() + bias + e)
                    for p, e in zip(true_rel, noise)]
        return truth, pred_rel

    def setup(self, seed: int, workdir: Path) -> LongState:
        return LongState(seed, workdir, self.inputs(seed, 0))

    def prepare(self, state: LongState, index: int) -> None:
        if index > 0:
            state.inputs = self.inputs(state.seed, index)

    def op(self, state: LongState, index: int):
        truth, pred_rel = state.inputs
        path = state.workdir / f"poses-{index}.csv"
        clock = _Stopwatch()
        rel = [pose.pose_to_transform(p) for p in pred_rel]
        pred = pose.accumulate(rel)
        clock.lap("accumulate")
        report, _ = metrics.evaluate_trajectories(truth, pred, GEOMETRY)
        clock.lap("evaluate")
        written = pred.poses()
        pose.write_pose_csv(path, written)
        read = pose.read_pose_csv(path)
        clock.lap("pose_io")
        return clock.stages, (truth, rel, pred, report, written, read, path)

    def check(self, state: LongState, payload) -> list:
        truth, rel, pred, report, written, read, path = payload
        path.unlink(missing_ok=True)
        failures = check_report("long_trajectory", report, truth, pred, GEOMETRY)
        back = pose.extract_relatives(pred)
        error = max(
            max(np.abs(a.rotation - b.rotation).max(),
                np.abs(a.translation - b.translation).max())
            for a, b in zip(rel, back)
        )
        if len(back) != len(rel) or error > 1e-9:
            failures.append(f"long_trajectory: extract_relatives(accumulate()) "
                            f"is off by {error:.3e}")
        if not np.array_equal([p.as_array() for p in written],
                              [p.as_array() for p in read]):
            failures.append("long_trajectory: pose CSV did not round-trip")
        return failures

    def summary(self, stages: dict) -> dict:
        n = self.sizes.frames
        return {
            "accumulate_frames_per_s": (n / stages["accumulate"], "1/s"),
            "evaluate_frames_per_s": (n / stages["evaluate"], "1/s"),
            "pose_io_frames_per_s": (n / stages["pose_io"], "1/s"),
        }


WORKLOADS = {
    "train": TrainWorkload,
    "reconstruct": ReconstructWorkload,
    "long_trajectory": LongTrajectoryWorkload,
}
