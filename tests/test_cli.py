"""CLI contract tests: command wiring, schemas, exit codes, determinism."""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import simulate_scan

import fus3d
from fus3d import training
from fus3d.baseline import DecorrModel
from fus3d.cli import build_parser, main
from fus3d.compound import read_volume
from fus3d.losses import LossWeights
from fus3d.network import ModelConfig, MotionNetwork, save_model
from fus3d.nn import save_checkpoint
from fus3d.pgm import read_pgm16, write_pgm16
from fus3d.pose import ImageGeometry, read_pose_csv, write_pose_csv
from fus3d.simulate import (TRAJECTORY_SHAPES, TrajectorySpec, make_trajectory,
                            read_scan, write_scan)
from fus3d.training import ScanDataset, TrainConfig, train


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_scan")
    code = run(
        "simulate", "--out", root / "scan", "--shape", "s_curve",
        "--frames", 24, "--length-mm", 3.5, "--lateral-amplitude", 0.4,
        "--noise-translation", 0.02, 0.02, 0.01, "--seed", 11,
        "--subject", "s42",
    )
    assert code == 0
    return root / "scan"


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_dataset")
    for k in range(3):
        spec = TrajectorySpec(
            shape="linear", length_mm=0.16 * 13, n_frames=14,
            noise_translation_mm=(0.02, 0.02, 0.01), seed=300 + k,
        )
        scan = simulate_scan(spec, phantom_seed=400 + k, subject=f"s{k:02d}")
        write_scan(root / f"scan{k:02d}", scan)
    return root


class TestSimulate:
    def test_frame_count_contract(self, scan_dir):
        scan = read_scan(scan_dir)
        assert scan.n_frames == 24
        assert scan.subject == "s42"
        assert (scan_dir / "manifest.json").exists()

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        args = ["simulate", "--shape", "linear", "--frames", 10,
                "--length-mm", 1.5, "--seed", 3]
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a" / "frames.bin").read_bytes() == (
            tmp_path / "b" / "frames.bin"
        ).read_bytes()
        assert (tmp_path / "a" / "poses.csv").read_bytes() == (
            tmp_path / "b" / "poses.csv"
        ).read_bytes()

    def test_single_frame_is_config_error(self, tmp_path, capsys):
        # the trajectory spec rejects it before the output directory exists
        assert run("simulate", "--out", tmp_path / "x", "--frames", 1) == 2
        assert "a trajectory needs at least 2 frames" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_shape_choices_are_the_trajectory_shapes(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--out", tmp_path / "x", "--shape", "zigzag")
        assert exc.value.code == 2
        choices = ", ".join(repr(shape) for shape in TRAJECTORY_SHAPES)
        assert f"(choose from {choices})" in capsys.readouterr().err

    def test_frame_extent_defaults_to_the_model_input(self, monkeypatch):
        monkeypatch.setattr(ModelConfig, "frame_extent", 48)
        args = build_parser().parse_args(["simulate", "--out", "scan"])
        assert args.frame_extent == 48

    def test_mirrored_lateral_amplitude_keeps_the_margin(self, tmp_path):
        # a linear sweep ignores the lateral amplitude, so with the margin
        # sized by its magnitude both signs write the same frames
        args = ["simulate", "--frames", 4, "--length-mm", 0.6,
                "--rotation-amplitude", 3, "--margin", 0.3]
        for amplitude in ("-1.5", "1.5"):
            assert run(*args, f"--lateral-amplitude={amplitude}",
                       "--out", tmp_path / amplitude) == 0
        assert (tmp_path / "-1.5" / "frames.bin").read_bytes() == (
            tmp_path / "1.5" / "frames.bin").read_bytes()

    def test_rotation_sweep_widens_the_margin(self, tmp_path):
        # tilted by the sweep, the frame corners reach past the lateral
        # amplitude and the margin
        assert run("simulate", "--shape", "c_curve", "--lateral-amplitude", 1.5,
                   "--rotation-amplitude", 3, "--margin", 0.3,
                   "--out", tmp_path / "scan") == 0
        assert read_scan(tmp_path / "scan").n_frames == 50

    def test_overwrite_requires_force(self, tmp_path):
        args = ["simulate", "--out", tmp_path / "x", "--frames", 8,
                "--length-mm", 1.0, "--seed", 1]
        assert run(*args) == 0
        assert run(*args) == 2
        assert run(*args, "--force") == 0


class TestInfer:
    def test_identity_debug_round_trip(self, scan_dir, tmp_path):
        code = run("infer", "--scan", scan_dir, "--identity-debug",
                   "--out", tmp_path / "pred")
        assert code == 0
        truth = read_pose_csv(scan_dir / "poses.csv")
        rel = read_pose_csv(tmp_path / "pred" / "pred_relative.csv")
        absolute = read_pose_csv(tmp_path / "pred" / "pred_absolute.csv")
        assert len(rel) == len(truth) - 1
        assert len(absolute) == len(truth)
        worst = max(
            np.abs(a.as_array() - b.as_array()).max()
            for a, b in zip(absolute, truth)
        )
        assert worst < 1e-9

    def test_requires_exactly_one_source(self, scan_dir, tmp_path):
        assert run("infer", "--scan", scan_dir, "--out", tmp_path / "x") == 2
        assert run("infer", "--scan", scan_dir, "--identity-debug",
                   "--baseline", "nope.csv", "--out", tmp_path / "y") == 2

    @pytest.mark.parametrize("source", [
        ("--identity-debug",), ("--baseline", "cal.csv"),
    ], ids=["identity-debug", "baseline"])
    def test_diagnostics_need_a_checkpoint(self, scan_dir, tmp_path, capsys,
                                           source):
        code = run("infer", "--scan", scan_dir, *source, "--diagnostics",
                   "--out", tmp_path / "pred")
        assert code == 2
        assert "--diagnostics needs --checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    def test_baseline_path(self, scan_dir, dataset_dir, tmp_path):
        cal_scan = sorted(dataset_dir.iterdir())[0]
        assert run("calibrate-baseline", "--scan", cal_scan,
                   "--out", tmp_path / "cal", "--lags", 1, 2, 3, 4) == 0
        code = run("infer", "--scan", scan_dir,
                   "--baseline", tmp_path / "cal" / "calibration.csv",
                   "--out", tmp_path / "pred")
        assert code == 0
        rel = read_pose_csv(tmp_path / "pred" / "pred_relative.csv")
        assert len(rel) == 23
        assert all(p.rx == 0.0 and p.ry == 0.0 and p.rz == 0.0 for p in rel)

    def test_baseline_rejects_frames_it_cannot_search(self, tmp_path, capsys):
        assert run("simulate", "--out", tmp_path / "scan", "--frames", 4,
                   "--length-mm", 0.5, "--frame-extent", 6, "--seed", 2) == 0
        DecorrModel(gap_mm=np.array([0.0, 1.0]),
                    ncc=np.array([1.0, 0.0])).save_csv(tmp_path / "cal.csv")
        code = run("infer", "--scan", tmp_path / "scan",
                   "--baseline", tmp_path / "cal.csv", "--out", tmp_path / "pred")
        assert code == 2
        assert ("error: frame shape (6, 6) is too small for the in-plane "
                "search: each side needs at least 7 pixels\n"
                in capsys.readouterr().err)

    def test_frames_off_the_model_extent_fail_before_any_output(
            self, scan_dir, tmp_path, capsys):
        path = tmp_path / "model32.ckpt"
        save_model(path, MotionNetwork(ModelConfig(frame_extent=32), seed=0))
        code = run("infer", "--scan", scan_dir, "--checkpoint", path,
                   "--out", tmp_path / "pred")
        assert code == 2
        assert "model expects 32px frames, got 64px" in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("recorded, message", [
        ({"corr_roi": "11", "corr_patch": "7"}, "corr_roi=11, but the network "
         "fixes corr_roi at 9"),
        ({"encoder_channels": "8,16,32,32"}, "encoder_channels=8,16,32,32, but "
         "the network fixes encoder_channels at 8,16,32,64"),
        ({"lstm_hidden": "64"}, "lstm_hidden=64, but the network fixes "
         "lstm_hidden at 32"),
        ({"downsample": "2,2,1,4"}, "downsample=2,2,1,4, but the network "
         "fixes downsample at 2,2,2,2"),
    ], ids=["corr_roi", "encoder_channels", "lstm_hidden", "downsample"])
    def test_checkpoint_off_the_fixed_geometry_is_usage_error(
            self, scan_dir, tmp_path, capsys, recorded, message):
        model = MotionNetwork(ModelConfig.toy(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.state_arrays(),
                        {**model.config.to_text_dict(), **recorded})
        code = run("infer", "--scan", scan_dir, "--checkpoint", path,
                   "--out", tmp_path / "pred")
        assert code == 2
        assert (f"error: checkpoint records {message}\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "pred").exists()


class TestCalibrateBaseline:
    @pytest.mark.parametrize("lags", [(1, 2, 0), (1, -2)],
                             ids=["zero", "negative"])
    def test_lags_below_one_are_usage_errors(self, dataset_dir, tmp_path,
                                             capsys, lags):
        # a zero lag pairs frames with themselves, a negative one reads
        # frames from the end of the scan
        code = run("calibrate-baseline", "--scan", sorted(dataset_dir.iterdir())[0],
                   "--out", tmp_path / "cal", "--lags", *lags)
        assert code == 2
        assert "calibration lags must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "cal" / "calibration.csv").exists()


class TestTruncatedInputs:
    @pytest.mark.parametrize("keep", [10, 1000])
    def test_short_frames_file_is_runtime_error(self, scan_dir, tmp_path,
                                                capsys, keep):
        # 10 bytes end inside the 28-byte header, 1000 inside the frames
        shutil.copytree(scan_dir, tmp_path / "scan")
        frames = tmp_path / "scan" / "frames.bin"
        blob = frames.read_bytes()
        assert len(blob) == 28 + 4 * 24 * 64 * 64
        frames.write_bytes(blob[:keep])
        code = run("infer", "--scan", tmp_path / "scan", "--identity-debug",
                   "--out", tmp_path / "pred")
        assert code == 1
        expected = (
            "at least 28 bytes" if keep < 28
            else f"{len(blob)} bytes for 24 64x64 frames"
        )
        assert (f"error: {frames}: truncated, expected {expected}, got {keep}"
                in capsys.readouterr().err)

    def test_long_frames_file_is_usage_error(self, scan_dir, tmp_path,
                                             capsys):
        shutil.copytree(scan_dir, tmp_path / "scan")
        frames = tmp_path / "scan" / "frames.bin"
        frames.write_bytes(frames.read_bytes() + b"junk")
        code = run("infer", "--scan", tmp_path / "scan", "--identity-debug",
                   "--out", tmp_path / "pred")
        assert code == 2
        assert f"error: {frames}: trailing bytes" in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("cut", ["header", "payload"])
    def test_short_checkpoint_is_runtime_error(self, scan_dir, tmp_path,
                                               capsys, cut):
        path = tmp_path / "model.ckpt"
        save_model(path, MotionNetwork(ModelConfig.toy(), seed=0))
        blob = path.read_bytes()
        # 10 bytes end inside the u32 config length at bytes 8-11; the
        # last record's payload ends the file
        keep, needed = (10, 12) if cut == "header" else (len(blob) - 8, len(blob))
        path.write_bytes(blob[:keep])
        code = run("infer", "--scan", scan_dir, "--checkpoint", path,
                   "--out", tmp_path / "pred")
        assert code == 1
        assert (f"error: {path}: truncated, expected at least {needed} bytes, "
                f"got {keep}" in capsys.readouterr().err)

    def test_short_calibration_row_is_usage_error(self, scan_dir, tmp_path,
                                                  capsys):
        calibration = tmp_path / "calibration.csv"
        calibration.write_text("ncc,gap_mm\n0.9,0.1\n1.0\n")
        code = run("infer", "--scan", scan_dir, "--baseline", calibration,
                   "--out", tmp_path / "pred")
        assert code == 2
        assert (f"error: {calibration}: malformed calibration row ['1.0'], "
                "expected ncc,gap_mm\n" in capsys.readouterr().err)
        assert not (tmp_path / "pred").exists()

    def test_pgm_comment_cut_by_the_end_of_file_raises(self, tmp_path):
        # in a child process with a timeout, so a reader that loops on
        # the unterminated comment fails the test instead of hanging it
        path = tmp_path / "cut.pgm"
        path.write_bytes(b"P5\n#")
        env = dict(os.environ, PYTHONPATH=str(Path(fus3d.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c",
             f"from fus3d.pgm import read_pgm16; read_pgm16({str(path)!r})"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1
        assert (f"EOFError: {path}: header comment runs to the end of the "
                "file") in done.stderr

    def test_pgm_pixels_cut_by_the_end_of_file_raise(self, tmp_path):
        path = tmp_path / "cut.pgm"
        write_pgm16(path, np.zeros((3, 4)))
        blob = path.read_bytes()
        assert len(blob) == 13 + 2 * 3 * 4  # "P5\n4 3\n65535\n" + pixels
        path.write_bytes(blob[:-1])
        with pytest.raises(EOFError, match=f"{path}: truncated, expected 37 "
                                           "bytes for 4x3 pixels, got 36"):
            read_pgm16(path)


def float_options() -> list:
    """(subcommand, option, nargs) of every ``type=float`` option of every
    subcommand, read from the parser's actions."""
    parser = build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return [(command, action.option_strings[0], action.nargs)
            for command, sub in commands.choices.items()
            for action in sub._actions if action.type is float]


# valid inputs for each subcommand that takes a float option, besides the
# option under test (argparse keeps its last value)
VALID_INPUTS = {
    "simulate": lambda scan_dir, dataset_dir: [],
    "train": lambda scan_dir, dataset_dir: [
        "--dataset", dataset_dir, "--steps", 1, "--seq-len", 3, "--batch", 2,
        "--val-fraction", 0.34],
    "compound": lambda scan_dir, dataset_dir: [
        "--scan", scan_dir, "--poses", scan_dir / "poses.csv"],
}


# the setting that the error of each simulate option names: the margin
# is checked by its own name, not as the phantom extent it widens
SIMULATE_SETTINGS = {
    "--length-mm": "length_mm", "--lateral-amplitude": "lateral_amplitude_mm",
    "--rotation-amplitude": "rotation_amplitude_deg",
    "--noise-translation": "noise_translation_mm",
    "--noise-rotation": "noise_rotation_deg", "--pitch": "pixel pitch",
    "--voxel": "voxel_mm", "--margin": "margin_mm",
}


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, option, nargs", [
        pytest.param(*case, id=f"{case[0]}{case[1]}") for case in float_options()])
    def test_non_finite_option_is_usage_error(self, scan_dir, dataset_dir,
                                              tmp_path, capsys, command,
                                              option, nargs, value):
        # one component of a three-value option carries the value
        values = [value, 0, 0] if nargs == 3 else [value]
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(command, *VALID_INPUTS[command](scan_dir, dataset_dir),
                       option, *values, "--out", out)
        err = capsys.readouterr().err.splitlines()
        assert (code, len(err)) == (2, 1), err
        assert err[0].startswith("error: ") and "finite" in err[0], err
        if command == "simulate":
            assert SIMULATE_SETTINGS[option] in err[0], err
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_nan_frame_is_usage_error(self, scan_dir, tmp_path, capsys):
        # a NaN in the first frame of the container fails the [0, 1]
        # range check; "min() < 0 or max() > 1" let it through
        shutil.copytree(scan_dir, tmp_path / "scan")
        frames = tmp_path / "scan" / "frames.bin"
        blob = bytearray(frames.read_bytes())
        blob[28:32] = np.array(np.nan, dtype="<f4").tobytes()
        frames.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"frame intensities must lie "
                                             r"in \[0, 1\]"):
            read_scan(tmp_path / "scan")
        code = run("infer", "--scan", tmp_path / "scan", "--identity-debug",
                   "--out", tmp_path / "pred")
        assert code == 2
        assert "frame intensities must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_pitch_is_rejected(self, scan_dir, tmp_path, value):
        # the axial pitch is the f32 at bytes 16-19 of the header
        shutil.copytree(scan_dir, tmp_path / "scan")
        frames = tmp_path / "scan" / "frames.bin"
        blob = bytearray(frames.read_bytes())
        blob[16:20] = np.array(float(value), dtype="<f4").tobytes()
        frames.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="pixel pitch must be positive "
                                             "and finite"):
            read_scan(tmp_path / "scan")

    @pytest.mark.parametrize("setting", [
        ("--alpha-corr", "nan"), ("--alpha-mmae", "inf"),
        ("--alpha-triplet=-inf",), ("--epsilon", "nan"),
    ], ids=["alpha-corr-nan", "alpha-mmae-inf", "alpha-triplet-neg-inf",
            "epsilon-nan"])
    def test_non_finite_loss_setting_is_usage_error(self, dataset_dir,
                                                    tmp_path, capsys, setting):
        code = run("train", "--dataset", dataset_dir, "--out", tmp_path / "run",
                   "--steps", 1, "--seq-len", 3, "--batch", 2,
                   "--val-fraction", 0.34, *setting)
        assert code == 2
        assert "must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestEmptyInputs:
    def test_empty_pose_csv_is_runtime_error(self, scan_dir, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = run("evaluate", "--truth", scan_dir / "poses.csv",
                   "--pred", empty, "--scan", scan_dir,
                   "--out", tmp_path / "eval")
        assert code == 1
        assert (f"error: {empty}: empty, expected a pose CSV header\n"
                in capsys.readouterr().err)

    def test_empty_calibration_csv_is_runtime_error(self, scan_dir, tmp_path,
                                                    capsys):
        empty = tmp_path / "calibration.csv"
        empty.write_text("")
        code = run("infer", "--scan", scan_dir, "--baseline", empty,
                   "--out", tmp_path / "pred")
        assert code == 1
        assert (f"error: {empty}: empty, expected a calibration header\n"
                in capsys.readouterr().err)


class TestDebugTraceback:
    @pytest.fixture
    def truncated_scan(self, scan_dir, tmp_path):
        shutil.copytree(scan_dir, tmp_path / "scan")
        frames = tmp_path / "scan" / "frames.bin"
        blob = frames.read_bytes()
        frames.write_bytes(blob[:1000])
        line = (f"error: {frames}: truncated, expected {len(blob)} bytes for "
                f"24 64x64 frames, got 1000\n")
        return tmp_path / "scan", line

    def infer(self, scan, tmp_path) -> int:
        return run("infer", "--scan", scan, "--identity-debug",
                   "--out", tmp_path / "pred")

    def test_error_line_alone_by_default(self, truncated_scan, tmp_path,
                                         capsys, monkeypatch):
        monkeypatch.delenv("FUS3D_DEBUG", raising=False)
        scan, line = truncated_scan
        assert self.infer(scan, tmp_path) == 1
        assert capsys.readouterr().err == line

    def test_traceback_before_error_line(self, truncated_scan, tmp_path,
                                         capsys, monkeypatch):
        monkeypatch.setenv("FUS3D_DEBUG", "1")
        scan, line = truncated_scan
        assert self.infer(scan, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("\n" + line)
        trace = err[: -len(line)]
        assert "in read_scan" in trace
        assert f"EOFError: {line[len('error: '):]}" in trace


class TestEvaluate:
    def test_truth_vs_itself_is_zero(self, scan_dir, tmp_path, capsys):
        code = run("evaluate", "--truth", scan_dir / "poses.csv",
                   "--pred", scan_dir / "poses.csv", "--scan", scan_dir,
                   "--out", tmp_path / "eval")
        assert code == 0
        payload = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert set(payload) == {"rAE", "aAE", "rFE", "aFE", "corr", "fd", "fdr",
                                "breakdown"}
        assert payload["breakdown"] == {
            "rae_translation_mm": 0.0, "rae_rotation_deg": 0.0,
            "aae_translation_mm": 0.0, "aae_rotation_deg": 0.0,
        }
        assert payload["rAE"] == 0.0
        assert payload["fd"] == 0.0
        assert payload["corr"] == 1.0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == payload

    def test_matches_metrics_module(self, scan_dir, tmp_path):
        from fus3d.metrics import evaluate_trajectories
        from fus3d.pose import pose_to_transform

        # perturb the trajectory deterministically
        truth = read_pose_csv(scan_dir / "poses.csv")
        rng = np.random.default_rng(5)
        noisy = [
            type(p).from_array(p.as_array() + rng.normal(0, 0.05, 6))
            for p in truth
        ]
        noisy[0] = type(truth[0]).from_array(np.zeros(6))
        from fus3d.pose import write_pose_csv

        write_pose_csv(tmp_path / "noisy.csv", noisy)
        code = run("evaluate", "--truth", scan_dir / "poses.csv",
                   "--pred", tmp_path / "noisy.csv", "--scan", scan_dir,
                   "--out", tmp_path / "eval")
        assert code == 0
        payload = json.loads((tmp_path / "eval" / "report.json").read_text())
        scan = read_scan(scan_dir)
        expected, breakdown = evaluate_trajectories(
            [pose_to_transform(p) for p in truth],
            [pose_to_transform(p) for p in noisy],
            scan.geometry,
        )
        for key, value in expected.as_json_dict().items():
            assert payload[key] == pytest.approx(value, abs=1e-12)
        assert payload["breakdown"] == pytest.approx(
            dataclasses.asdict(breakdown), abs=1e-12
        )

    def test_frame_count_mismatch_names_the_frames(self, scan_dir, tmp_path,
                                                   capsys):
        for n_frames in (20, 30):
            trajectory, _ = make_trajectory(
                TrajectorySpec(n_frames=n_frames, seed=n_frames))
            write_pose_csv(tmp_path / f"{n_frames}.csv", trajectory.poses())
        code = run("evaluate", "--truth", tmp_path / "20.csv",
                   "--pred", tmp_path / "30.csv", "--scan", scan_dir,
                   "--out", tmp_path / "eval")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: frame counts differ: 20 true vs 30 predicted frames\n")
        assert not (tmp_path / "eval").exists()

    def test_csv_row(self, scan_dir, tmp_path):
        run("evaluate", "--truth", scan_dir / "poses.csv",
            "--pred", scan_dir / "poses.csv", "--scan", scan_dir,
            "--out", tmp_path / "eval")
        lines = (tmp_path / "eval" / "report.csv").read_text().splitlines()
        assert lines[0] == "rAE,aAE,rFE,aFE,corr,fd,fdr"
        assert len(lines[1].split(",")) == 7


class TestCompound:
    def test_volume_with_provenance(self, scan_dir, tmp_path):
        code = run("compound", "--scan", scan_dir,
                   "--poses", scan_dir / "poses.csv", "--voxel", 0.1484,
                   "--source", "truth", "--out", tmp_path / "vol")
        assert code == 0
        intensity, origin, voxel, sidecar = read_volume(
            tmp_path / "vol" / "volume.fvl"
        )
        assert intensity.ndim == 3
        assert voxel == pytest.approx(0.1484)
        assert sidecar["source"] == "truth"
        assert sidecar["scan"] == str(scan_dir)

    def test_pose_count_mismatch_is_usage_error(self, scan_dir, dataset_dir,
                                                tmp_path):
        other = sorted(dataset_dir.iterdir())[0] / "poses.csv"
        assert run("compound", "--scan", scan_dir, "--poses", other,
                   "--voxel", 0.1, "--out", tmp_path / "vol") == 2

    def test_reordered_pose_rows_are_rejected(self, scan_dir, tmp_path, capsys):
        lines = (scan_dir / "poses.csv").read_text().splitlines(keepends=True)
        lines[2], lines[3] = lines[3], lines[2]
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("".join(lines))
        assert run("compound", "--scan", scan_dir, "--poses", swapped,
                   "--voxel", 0.1, "--out", tmp_path / "vol") == 2
        assert "has frame '2', expected 1" in capsys.readouterr().err
        assert not (tmp_path / "vol" / "volume.fvl").exists()


class TestTrainCommand:
    def test_short_training_run(self, dataset_dir, tmp_path):
        code = run("train", "--dataset", dataset_dir, "--out", tmp_path / "run",
                   "--steps", 2, "--seq-len", 3, "--batch", 2,
                   "--val-fraction", 0.34, "--val-every", 1, "--seed", 1)
        assert code == 0
        out = tmp_path / "run"
        assert (out / "checkpoint.ckpt").exists()
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "step,mmae,corr,triplet,total,lr"
        assert len(log) == 3
        report = json.loads((out / "val_report.json").read_text())
        assert "mean" in report and "per_scan" in report
        assert set(report["mean"]) == {"rAE", "aAE", "rFE", "aFE", "corr",
                                       "fd", "fdr"}

    def test_checkpoint_infer_round_trip(self, dataset_dir, tmp_path):
        run("train", "--dataset", dataset_dir, "--out", tmp_path / "run",
            "--steps", 1, "--seq-len", 3, "--batch", 2,
            "--val-fraction", 0.34, "--seed", 1)
        scan = sorted(dataset_dir.iterdir())[0]
        code = run("infer", "--scan", scan,
                   "--checkpoint", tmp_path / "run" / "checkpoint.ckpt",
                   "--out", tmp_path / "pred")
        assert code == 0
        rel = read_pose_csv(tmp_path / "pred" / "pred_relative.csv")
        assert len(rel) == 13
        assert not (tmp_path / "pred" / "attention").exists()
        # --diagnostics adds one score grid per step and leaves the poses
        code = run("infer", "--scan", scan,
                   "--checkpoint", tmp_path / "run" / "checkpoint.ckpt",
                   "--out", tmp_path / "diag", "--diagnostics")
        assert code == 0
        grids = sorted(p.name for p in (tmp_path / "diag" / "attention").iterdir())
        assert grids == [f"attention_{t:04d}.pgm" for t in range(13)]
        for name in ("pred_relative.csv", "pred_absolute.csv"):
            assert ((tmp_path / "diag" / name).read_bytes()
                    == (tmp_path / "pred" / name).read_bytes())

    def test_zero_validation_period_fails_before_any_step(
            self, dataset_dir, tmp_path, monkeypatch, capsys):
        steps = []
        monkeypatch.setattr(training, "_train_step",
                            lambda *args: steps.append(args))
        code = run("train", "--dataset", dataset_dir, "--out",
                   tmp_path / "run", "--steps", 2, "--seq-len", 3,
                   "--batch", 2, "--val-every", 0)
        assert code == 2
        assert steps == []
        assert not (tmp_path / "run").exists()
        assert "val_every_epochs must be at least 1" in capsys.readouterr().err

    def test_one_step_window_fails_before_any_scan_is_read(
            self, dataset_dir, tmp_path, monkeypatch, capsys):
        # a window of 2 motions holds no triplet of 3 steps
        reads = []
        monkeypatch.setattr(training, "read_scan", reads.append)
        code = run("train", "--dataset", dataset_dir, "--out",
                   tmp_path / "run", "--steps", 2, "--seq-len", 1,
                   "--batch", 2)
        assert code == 2
        assert reads == []
        assert not (tmp_path / "run").exists()
        assert "seq_len must be at least 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["0", "-0.25", "nan", "inf"])
    def test_validation_fraction_must_be_above_zero(
            self, dataset_dir, tmp_path, monkeypatch, capsys, fraction):
        steps = []
        monkeypatch.setattr(training, "_train_step",
                            lambda *args: steps.append(args))
        code = run("train", "--dataset", dataset_dir, "--out",
                   tmp_path / "run", "--steps", 2, "--seq-len", 3,
                   "--batch", 2, "--val-fraction", fraction)
        assert code == 2
        assert steps == []
        assert ("validation fraction must be above 0"
                in capsys.readouterr().err)

    def test_validation_dataset_replaces_the_split(self, dataset_dir, tmp_path):
        # both scans of --dataset train, and the scan of --val-dataset, of
        # a third subject, validates
        first, *rest = sorted(dataset_dir.iterdir())
        for scan in rest:
            shutil.copytree(scan, tmp_path / "train" / scan.name)
        shutil.copytree(first, tmp_path / "val" / first.name)
        code = run("train", "--dataset", tmp_path / "train",
                   "--val-dataset", tmp_path / "val", "--out", tmp_path / "run",
                   "--steps", 2, "--seq-len", 3, "--batch", 2, "--seed", 1)
        assert code == 0
        report = json.loads((tmp_path / "run" / "val_report.json").read_text())
        assert len(report["per_scan"]) == 1
        config = TrainConfig(steps=2, batch_size=2, seq_len=3, seed=1)
        assert report["init_val_mmae"] == training.validation_mmae(
            MotionNetwork(ModelConfig.toy(), seed=1),
            ScanDataset.from_directory(tmp_path / "val").scans, config)
        log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
        assert len(log) == 3  # 2 training scans, batch 2: one step an epoch

    def test_validation_dataset_sharing_a_subject_is_usage_error(
            self, dataset_dir, tmp_path, monkeypatch, capsys):
        # a copy of a training scan validates: its subject trains as well
        steps = []
        monkeypatch.setattr(training, "_train_step",
                            lambda *args: steps.append(args))
        first = sorted(dataset_dir.iterdir())[0]
        shutil.copytree(first, tmp_path / "val" / first.name)
        code = run("train", "--dataset", dataset_dir,
                   "--val-dataset", tmp_path / "val", "--out", tmp_path / "run",
                   "--steps", 2, "--seq-len", 3, "--batch", 2)
        assert code == 2
        assert steps == []
        assert "share subjects 's00'" in capsys.readouterr().err

    def test_rate_and_loss_weight_from_config_file(self, dataset_dir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("lr=0.004\nalpha-corr=0.25\n")
        code = run("train", "--config", cfg, "--dataset", dataset_dir,
                   "--out", tmp_path / "run", "--steps", 2, "--seq-len", 3,
                   "--batch", 2, "--val-fraction", 0.34, "--seed", 1)
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "run" / "train_log.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2
        weights = LossWeights(alpha_corr=0.25)
        for step, mmae, corr, triplet, total, lr in rows:
            assert float(lr) == 0.004
            assert float(total) == pytest.approx(
                weights.alpha_mmae * float(mmae) + weights.alpha_corr * float(corr)
                + weights.alpha_triplet * float(triplet), rel=1e-12)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["arguments"]["lr"] == 0.004
        assert manifest["arguments"]["alpha_corr"] == 0.25

    def test_too_small_dataset_is_usage_error(self, tmp_path, dataset_dir):
        single = tmp_path / "single"
        single.mkdir()
        import shutil

        shutil.copytree(sorted(dataset_dir.iterdir())[0], single / "scan00")
        assert run("train", "--dataset", single, "--out", tmp_path / "run",
                   "--steps", 1) == 2
        assert not (tmp_path / "run").exists()

    def test_resumed_model_off_the_frame_extent_fails_before_any_output(
            self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "model32.ckpt"
        save_model(path, MotionNetwork(ModelConfig(frame_extent=32), seed=0))
        code = run("train", "--dataset", dataset_dir, "--out", tmp_path / "run",
                   "--resume", path, "--steps", 2, "--seq-len", 3,
                   "--batch", 2, "--val-fraction", 0.34)
        assert code == 2
        assert "model expects 32px frames, got 64px" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resume_checks_frames_against_the_checkpoint(self, tmp_path):
        # a 32 px model resumed on 32 px scans
        geometry = ImageGeometry(32, 32, 0.1484, 0.1484)
        root = tmp_path / "data32"
        for k in range(3):
            spec = TrajectorySpec(
                shape="linear", length_mm=0.16 * 13, n_frames=14,
                noise_translation_mm=(0.02, 0.02, 0.01), seed=300 + k,
            )
            scan = simulate_scan(spec, geometry, phantom_seed=400 + k,
                                 subject=f"s{k:02d}")
            write_scan(root / f"scan{k:02d}", scan)
        scans = ScanDataset.from_directory(root).scans
        config = ModelConfig(frame_extent=32)
        ckpt = tmp_path / "first.ckpt"
        train(MotionNetwork(config, seed=1), scans[:2], scans[2:],
              TrainConfig(steps=1, batch_size=2, seq_len=3, seed=1),
              log_path=tmp_path / "first.csv", checkpoint_path=ckpt)
        code = run("train", "--dataset", root, "--out", tmp_path / "run",
                   "--resume", ckpt, "--steps", 2, "--seq-len", 3,
                   "--batch", 2, "--val-fraction", 0.34, "--seed", 1)
        assert code == 0
        report = json.loads((tmp_path / "run" / "val_report.json").read_text())
        assert report["steps"] == 2


class TestFrameExtent:
    """``fus3d train`` builds the network for its scans' frame extent."""

    @staticmethod
    def simulate(root, extents) -> Path:
        for k, extent in enumerate(extents):
            assert run("simulate", "--out", root / f"scan{k:02d}",
                       "--frame-extent", extent, "--frames", 6,
                       "--length-mm", 0.75, "--seed", 40 + k,
                       "--subject", f"s{k:02d}") == 0
        return root

    def test_128px_scans_train_and_infer(self, tmp_path):
        data = self.simulate(tmp_path / "data", [128, 128, 128])
        assert run("train", "--dataset", data, "--out", tmp_path / "run",
                   "--steps", 1, "--batch", 2, "--seq-len", 3,
                   "--val-fraction", 0.34, "--seed", 1) == 0
        code = run("infer", "--scan", data / "scan00", "--checkpoint",
                   tmp_path / "run" / "checkpoint.ckpt", "--out",
                   tmp_path / "pred", "--diagnostics")
        assert code == 0
        assert len(read_pose_csv(tmp_path / "pred" / "pred_relative.csv")) == 5
        assert len(read_pose_csv(tmp_path / "pred" / "pred_absolute.csv")) == 6
        # 32px local maps tiled into 4px global blocks: an 8x8 score grid
        grid = read_pgm16(tmp_path / "pred" / "attention" / "attention_0000.pgm")
        assert grid.shape == (8, 8)

    @pytest.mark.parametrize("extents, message", [
        ([64, 32, 64], "training and validation scans must share one square "
                       "frame extent, got (32, 32), (64, 64)"),
        ([96, 96, 96], "frame extent must be 32 * 2**k px (stage 3 downsamples "
                       "by extent // 32), got 96px"),
    ], ids=["mixed", "96px"])
    def test_scans_off_one_legal_extent_write_nothing(
            self, tmp_path, capsys, extents, message):
        data = self.simulate(tmp_path / "data", extents)
        capsys.readouterr()
        code = run("train", "--dataset", data, "--out", tmp_path / "run",
                   "--steps", 1, "--batch", 2, "--seq-len", 3,
                   "--val-fraction", 0.34)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "run").exists()


class TestConfigFile:
    def test_defaults_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=9\nlength-mm=1.2\nshape=linear\nseed=5\n")
        code = run("simulate", "--config", cfg, "--out", tmp_path / "scan")
        assert code == 0
        assert read_scan(tmp_path / "scan").n_frames == 9

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=9\nlength-mm=1.2\n")
        run("simulate", "--config", cfg, "--frames", 7,
            "--out", tmp_path / "scan")
        assert read_scan(tmp_path / "scan").n_frames == 7

    @pytest.mark.parametrize("spelling", [
        ("--config", "{}"), ("--config={}",), ("--conf", "{}"),
    ], ids=["separate", "equals", "prefix"])
    def test_every_spelling_reads_the_file(self, tmp_path, spelling):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=7\nlength-mm=1.2\n")
        option = [part.format(cfg) for part in spelling]
        assert run("simulate", *option, "--out", tmp_path / "scan") == 0
        assert read_scan(tmp_path / "scan").n_frames == 7

    @pytest.mark.parametrize("key, field", [
        ("noise_translation", "noise_translation_mm"),
        ("noise_rotation", "noise_rotation_deg"),
    ])
    def test_noise_needs_three_values(self, tmp_path, capsys, key, field):
        # argparse checks a config file's value as it checks the command
        # line's, before the trajectory spec sees it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"frames=4\nlength-mm=0.6\n{key}=0.05\n")
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--config", cfg, "--out", tmp_path / "scan")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        option = "--" + key.replace("_", "-")
        assert f"error: argument {option}: expected 3 arguments" in err
        assert field not in err
        assert not (tmp_path / "scan" / "frames.bin").exists()

    def test_bad_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=abc\nlength-mm=0.6\n")
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--config", cfg, "--out", tmp_path / "scan")
        assert exc.value.code == 2
        assert ("argument --frames: invalid int value: 'abc'"
                in capsys.readouterr().err)
        assert not (tmp_path / "scan" / "frames.bin").exists()

    @pytest.mark.parametrize("command, key", [("simulate", "out"),
                                              ("train", "dataset")])
    def test_required_option_stays_on_the_command_line(
            self, tmp_path, capsys, command, key):
        # the probe parse that finds the file demands the required
        # options before the file is read
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={tmp_path / 'named'}\n")
        out = [] if key == "out" else ["--out", tmp_path / "run"]
        with pytest.raises(SystemExit) as exc:
            run(command, "--config", cfg, *out)
        assert exc.value.code == 2
        assert (f"error: the following arguments are required: --{key}\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "named").exists()
        assert not (tmp_path / "run").exists()

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert run("simulate", "--config", missing,
                   "--out", tmp_path / "scan") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err

    def test_choices_are_checked(self, scan_dir, tmp_path, capsys):
        cfg = tmp_path / "compound.cfg"
        cfg.write_text("voxel=0.1\nsource=bogus\n")
        with pytest.raises(SystemExit) as exc:
            run("compound", "--config", cfg, "--scan", scan_dir,
                "--poses", scan_dir / "poses.csv", "--out", tmp_path / "vol")
        assert exc.value.code == 2
        assert "argument --source: invalid choice: 'bogus'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "vol" / "volume.fvl").exists()

    def test_config_run_matches_command_line_run(self, tmp_path):
        # a list key, a flag and a dashed float key; each run after the
        # first overwrites the scan, so the file's force=yes must count
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=6\nlength-mm=0.75\n"
                       "noise_translation=0.02,0.03,0.01\nforce=yes\n")
        out = tmp_path / "scan"
        written = []
        for argv in [("--config", cfg),
                     ("--frames", 6, "--length-mm", 0.75, "--noise-translation",
                      0.02, 0.03, 0.01, "--force"),
                     ("--config", cfg)]:
            assert run("simulate", *argv, "--seed", 4, "--out", out) == 0
            written.append([(out / name).read_bytes()
                            for name in ("manifest.json", "frames.bin")])
        assert written[0] == written[1] == written[2]
        manifest = json.loads(written[0][0])["arguments"]
        assert manifest["noise_translation"] == [0.02, 0.03, 0.01]
        assert manifest["force"] is True

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=9\nbogus_key=1\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "scan") == 2


class TestManifest:
    def test_manifest_captures_config_and_seed(self, scan_dir):
        manifest = json.loads((scan_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["arguments"]["seed"] == 11
        assert manifest["arguments"]["frames"] == 24

    def test_other_commands_keep_a_scans_manifest(self, scan_dir, tmp_path,
                                                  capsys):
        scan = tmp_path / "scan"
        shutil.copytree(scan_dir, scan)
        before = (scan / "manifest.json").read_bytes()
        args = ["evaluate", "--truth", scan / "poses.csv",
                "--pred", scan / "poses.csv", "--scan", scan, "--out", scan]
        assert run(*args) == 2
        assert capsys.readouterr().err == (
            f"error: {scan / 'manifest.json'} exists; rerun with --force to "
            "overwrite\n")
        assert (scan / "manifest.json").read_bytes() == before
        assert not (scan / "report.json").exists()
        assert run(*args, "--force") == 0
        manifest = json.loads((scan / "manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        assert manifest["subject"] == "s42"

    def test_existing_output_is_reported_before_a_bad_setting(
            self, scan_dir, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "pred_relative.csv").write_text("")
        assert run("infer", "--scan", scan_dir, "--out", out) == 2
        assert "pred_relative.csv exists" in capsys.readouterr().err


class TestEntryPoint:
    def test_failures_exit_with_their_code_and_no_traceback(self, tmp_path):
        # the console script runs sys.exit(main()), which run() cannot see
        env = {k: v for k, v in os.environ.items() if k != "FUS3D_DEBUG"}
        env["PYTHONPATH"] = str(Path(fus3d.__file__).parents[1])
        bad = tmp_path / "bad.cfg"
        bad.write_text("frames=abc\n")
        cases = [
            (2, ("simulate", "--config", bad, "--out", "a")),
            (1, ("simulate", "--config", tmp_path / "missing.cfg",
                 "--out", "b")),
            (2, ("simulate", "--frames", 1, "--out", "c")),
            (1, ("infer", "--scan", tmp_path / "no_scan", "--identity-debug",
                 "--out", "d")),
        ]
        for code, argv in cases:
            done = subprocess.run(
                [sys.executable, "-m", "fus3d.cli", *map(str, argv)],
                capture_output=True, text=True, env=env, cwd=tmp_path)
            assert done.returncode == code, argv
            assert "Traceback" not in done.stderr
            assert done.stderr.strip()
        # no failed command leaves its output directory behind
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]
