"""Command-line pipeline: simulate, train, infer, evaluate, compound,
calibrate-baseline.

Every command runs one lifecycle in ``main``:
1. Before any work, refuse outputs that already exist, ``manifest.json``
   among them, unless ``--force`` is given. This check comes before a
   command's own setting checks, so a run with both faults reports the
   existing output.
2. Run the command. It creates the output directory just before its
   first write, so a command that fails leaves no directory behind, and
   returns a one-line message.
3. Only after it succeeds, write the manifest (config plus seeds, no
   timestamps) next to the outputs, so runs can be reproduced exactly,
   and print the message.

``--config`` reads a file of ``key=value`` lines (``#`` starts a
comment); each key must name an option of the subcommand exactly, with
dashes or underscores. Its values are parsed as options placed before
the command line's own (``--key`` for a true flag, ``--key v1 v2`` for
a list written ``v1,v2``, ``--key=value`` otherwise), so they are typed
and checked the same way and the command line wins. Exit codes: 0
success; 2 for a ``ValueError`` or an argparse usage error; 1 for any
other failure. With ``FUS3D_DEBUG=1`` set, a failure prints its
traceback before the ``error:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import traceback
from pathlib import Path

from .baseline import (
    DecorrModel,
    calibrate,
    calibration_pairs_from_scan,
    estimate_step,
)
from .compound import compound, write_volume
from .losses import LossWeights
from .metrics import METRICS_CSV_HEADER, evaluate_trajectories
from .network import (ModelConfig, MotionNetwork, export_attention_scores,
                       load_model)
from .pose import (
    ImageGeometry,
    accumulate,
    pose_to_transform,
    read_pose_csv,
    write_pose_csv,
)
from .simulate import (
    DEFAULT_FRAME_RATE_HZ,
    DEFAULT_PITCH_MM,
    TRAJECTORY_SHAPES,
    PhantomSpec,
    ScanSequence,
    TrajectorySpec,
    make_phantom,
    make_trajectory,
    read_scan,
    slice_phantom,
    write_scan,
)
from .training import (
    ScanDataset,
    TrainConfig,
    train,
    validation_report,
)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_manifest(args: argparse.Namespace) -> None:
    skip = {"func", "config", "outputs"}
    path = args.out / "manifest.json"
    payload = {}
    if path.exists():  # keep container metadata (subject tag etc.)
        payload = json.loads(path.read_text(encoding="utf-8"))
    payload["command"] = args.command
    payload["arguments"] = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip and not callable(v)
    }
    _write_json(path, payload)


def _trajectory_from_csv(path) -> list:
    return [pose_to_transform(p) for p in read_pose_csv(path)]


# -- simulate -------------------------------------------------------------------

def cmd_simulate(args) -> str:
    trajectory_spec = TrajectorySpec(
        shape=args.shape,
        length_mm=args.length_mm,
        n_frames=args.frames,
        lateral_amplitude_mm=args.lateral_amplitude,
        rotation_amplitude_deg=args.rotation_amplitude,
        noise_translation_mm=tuple(args.noise_translation),
        noise_rotation_deg=tuple(args.noise_rotation),
        seed=args.seed,
    )
    geometry = ImageGeometry(
        args.frame_extent, args.frame_extent, args.pitch, args.pitch
    )
    # a pose tilts by at most its three Euler angles' sum (amplitude plus
    # 4 noise sigmas each), twice that relative to the first frame; a tilt
    # of t rad about the frame centre moves a corner t half-diagonals
    tilt = 2.0 * math.radians(sum(abs(args.rotation_amplitude) + 4.0 * s
                                  for s in args.noise_rotation))
    wiggle = (abs(args.lateral_amplitude) + 4.0 * max(args.noise_translation)
              + tilt * args.frame_extent * args.pitch / math.sqrt(2.0))
    phantom_spec = PhantomSpec.for_scan(
        geometry,
        scan_length_mm=args.length_mm,
        margin_mm=args.margin + wiggle,
        voxel_mm=args.voxel,
    )
    phantom = make_phantom(phantom_spec, seed=args.seed + 1_000_003)
    trajectory, _ = make_trajectory(trajectory_spec)
    frames = slice_phantom(phantom, trajectory, geometry)
    scan = ScanSequence(
        frames=frames,
        geometry=geometry,
        frame_rate_hz=DEFAULT_FRAME_RATE_HZ,
        truth=trajectory,
        subject=args.subject,
        meta={"seed": args.seed, "shape": args.shape},
    )
    write_scan(args.out, scan, force=True)
    return f"wrote {scan.n_frames}-frame scan to {args.out}"


# -- train ---------------------------------------------------------------------

def cmd_train(args) -> str:
    # a bad setting fails here, before any scan is read or step is run
    config = TrainConfig(
        steps=args.steps,
        batch_size=args.batch,
        seq_len=args.seq_len,
        learning_rate=args.lr,
        loss_weights=LossWeights(args.alpha_mmae, args.alpha_corr,
                                 args.alpha_triplet, args.epsilon),
        seed=args.seed,
        val_every_epochs=args.val_every,
    )
    out = args.out
    dataset = ScanDataset.from_directory(args.dataset)
    if args.val_dataset:
        train_scans = dataset.scans
        val_scans = ScanDataset.from_directory(args.val_dataset).scans
        # subject tags compared as split_by_subject compares them
        shared = {s.subject for s in train_scans} & {s.subject for s in val_scans}
        if shared:
            raise ValueError(f"--dataset and --val-dataset share subjects "
                             f"{', '.join(map(repr, sorted(shared)))}")
    else:
        train_ds, val_ds = dataset.split_by_subject(args.val_fraction, args.seed)
        train_scans, val_scans = train_ds.scans, val_ds.scans

    shapes = sorted({scan.frames.shape[1:] for scan in train_scans + val_scans})
    if len(shapes) != 1 or shapes[0][0] != shapes[0][1]:
        raise ValueError("training and validation scans must share one square "
                         f"frame extent, got {', '.join(map(str, shapes))}")
    resume_extra = None
    if args.resume:
        # a checkpoint off the scans' extent fails the first validation
        # pass, before the log or any checkpoint is written
        model, resume_extra, _ = load_model(args.resume)
    else:
        model = MotionNetwork(ModelConfig(frame_extent=shapes[0][0]),
                              seed=args.seed)

    result = train(
        model,
        train_scans,
        val_scans,
        config,
        log_path=out / "train_log.csv",
        checkpoint_path=out / "checkpoint.ckpt",
        resume_extra=resume_extra,
    )

    best_path = out / "best_checkpoint.ckpt"
    eval_model = load_model(best_path)[0] if best_path.exists() else model
    report = validation_report(eval_model, val_scans)
    report["init_val_mmae"] = result.init_val_mmae
    report["best_val_mmae"] = result.best_val_mmae
    report["final_val_mmae"] = result.final_val_mmae
    report["steps"] = result.steps_done
    _write_json(out / "val_report.json", report)
    return (f"trained {result.steps_done} steps; validation mmae "
            f"{result.init_val_mmae:.5f} -> best {result.best_val_mmae:.5f}")


# -- infer ---------------------------------------------------------------------

def _write_pose_outputs(out: Path, rel_poses) -> None:
    write_pose_csv(out / "pred_relative.csv", rel_poses)
    trajectory = accumulate([pose_to_transform(p) for p in rel_poses])
    write_pose_csv(out / "pred_absolute.csv", trajectory.poses())


def cmd_infer(args) -> str:
    sources = sum(bool(x) for x in (args.checkpoint, args.baseline,
                                    args.identity_debug))
    if sources != 1:
        raise ValueError(
            "exactly one of --checkpoint, --baseline or --identity-debug "
            "must be given"
        )
    if args.diagnostics and not args.checkpoint:
        raise ValueError("--diagnostics needs --checkpoint: only the network "
                         "has attention scores")
    out = args.out
    scan = read_scan(args.scan)
    if args.identity_debug:
        rel_poses = scan.truth.relative_poses()
    elif args.baseline:
        model = DecorrModel.load_csv(args.baseline)
        pitch = (scan.geometry.pitch_axial_mm, scan.geometry.pitch_lateral_mm)
        rel_poses = [
            estimate_step(scan.frames[i], scan.frames[i + 1], model,
                          pitch_mm=pitch)
            for i in range(scan.n_frames - 1)
        ]
    else:
        model = load_model(args.checkpoint)[0]
        rel_poses, scores = model.infer_scan(scan.frames)
    out.mkdir(parents=True, exist_ok=True)
    if args.diagnostics:
        export_attention_scores(scores, out / "attention")
    _write_pose_outputs(out, rel_poses)
    return (f"wrote {len(rel_poses)} relative and {len(rel_poses) + 1} "
            f"absolute poses to {out}")


# -- evaluate --------------------------------------------------------------------

def cmd_evaluate(args) -> str:
    out = args.out
    truth = _trajectory_from_csv(args.truth)
    pred = _trajectory_from_csv(args.pred)
    scan = read_scan(args.scan)
    report, breakdown = evaluate_trajectories(truth, pred, scan.geometry)
    payload = report.as_json_dict()
    payload["breakdown"] = dataclasses.asdict(breakdown)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", payload)
    with open(out / "report.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(METRICS_CSV_HEADER + "\n")
        handle.write(report.csv_row() + "\n")
    return json.dumps(payload, sort_keys=True)


# -- compound --------------------------------------------------------------------

def cmd_compound(args) -> str:
    out = args.out
    scan = read_scan(args.scan)
    transforms = _trajectory_from_csv(args.poses)
    if len(transforms) != scan.n_frames:
        raise ValueError(
            f"{len(transforms)} poses for {scan.n_frames} frames; pass the "
            "absolute pose CSV"
        )
    volume = compound(scan.frames, transforms, scan.geometry, args.voxel)
    out.mkdir(parents=True, exist_ok=True)
    write_volume(
        out / "volume.fvl",
        volume,
        provenance={"scan": str(args.scan), "source": args.source},
    )
    return f"wrote volume {volume.dims} (occupancy {volume.occupancy:.3f}) to {out}"


# -- calibrate-baseline ------------------------------------------------------------

def cmd_calibrate_baseline(args) -> str:
    out = args.out
    scan = read_scan(args.scan)
    pairs = calibration_pairs_from_scan(scan, lags=tuple(args.lags))
    model = calibrate(pairs)
    out.mkdir(parents=True, exist_ok=True)
    model.save_csv(out / "calibration.csv")
    return (f"calibrated {len(model.gap_mm)} knots "
            f"(gaps {model.gap_mm[0]:.3f}..{model.gap_mm[-1]:.3f} mm)")


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fus3d",
        description="Sensorless freehand 3D ultrasound reconstruction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="key=value file of the options that are not "
                            "required, read before the command line's")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")

    p = sub.add_parser("simulate", help="generate a synthetic speckle scan")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--shape", choices=TRAJECTORY_SHAPES,
                   default=TrajectorySpec.shape)
    p.add_argument("--frames", type=int, default=TrajectorySpec.n_frames)
    p.add_argument("--length-mm", type=float, default=TrajectorySpec.length_mm)
    p.add_argument("--lateral-amplitude", type=float,
                   default=TrajectorySpec.lateral_amplitude_mm)
    p.add_argument("--rotation-amplitude", type=float,
                   default=TrajectorySpec.rotation_amplitude_deg)
    p.add_argument("--noise-translation", type=float, nargs=3,
                   default=TrajectorySpec.noise_translation_mm,
                   metavar=("SX", "SY", "SZ"))
    p.add_argument("--noise-rotation", type=float, nargs=3,
                   default=TrajectorySpec.noise_rotation_deg,
                   metavar=("SX", "SY", "SZ"))
    p.add_argument("--frame-extent", type=int,
                   default=ModelConfig.frame_extent,
                   help="frame side in pixels; the network trains on "
                        "32 * 2**k (32, 64, 128, ...)")
    p.add_argument("--pitch", type=float, default=DEFAULT_PITCH_MM)
    p.add_argument("--voxel", type=float, default=0.10,
                   help="phantom voxel size (mm)")
    p.add_argument("--margin", type=float, default=2.0)
    p.add_argument("--subject", default="s00")
    p.set_defaults(func=cmd_simulate, outputs=("frames.bin",))

    p = sub.add_parser("train", help="train the motion network")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--val-dataset", type=Path, default=None)
    p.add_argument("--val-fraction", type=float, default=0.25)
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size,
                   help="batch size")
    p.add_argument("--seq-len", type=int, default=TrainConfig.seq_len)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--alpha-mmae", type=float, default=LossWeights.alpha_mmae)
    p.add_argument("--alpha-corr", type=float, default=LossWeights.alpha_corr)
    p.add_argument("--alpha-triplet", type=float,
                   default=LossWeights.alpha_triplet)
    p.add_argument("--epsilon", type=float, default=LossWeights.epsilon)
    p.add_argument("--val-every", type=int, default=TrainConfig.val_every_epochs,
                   help="validate every N epochs")
    p.add_argument("--resume", type=Path, default=None)
    p.set_defaults(func=cmd_train,
                   outputs=("checkpoint.ckpt", "train_log.csv"))

    p = sub.add_parser("infer", help="estimate scan motion")
    common(p)
    p.add_argument("--scan", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--baseline", type=Path, default=None,
                   help="decorrelation calibration CSV")
    p.add_argument("--identity-debug", action="store_true",
                   help="pipe ground-truth relatives through the "
                        "accumulate/extract path")
    p.add_argument("--diagnostics", action="store_true",
                   help="export attention-score grids")
    p.set_defaults(func=cmd_infer, outputs=("pred_relative.csv",))

    p = sub.add_parser("evaluate", help="compare predicted and true poses")
    common(p)
    p.add_argument("--truth", type=Path, required=True,
                   help="ground-truth absolute pose CSV")
    p.add_argument("--pred", type=Path, required=True,
                   help="predicted absolute pose CSV")
    p.add_argument("--scan", type=Path, required=True,
                   help="scan directory (for frame geometry)")
    p.set_defaults(func=cmd_evaluate, outputs=("report.json",))

    p = sub.add_parser("compound", help="splat frames into a voxel volume")
    common(p)
    p.add_argument("--scan", type=Path, required=True)
    p.add_argument("--poses", type=Path, required=True,
                   help="absolute pose CSV to compound along")
    p.add_argument("--voxel", type=float, default=DEFAULT_PITCH_MM)
    p.add_argument("--source", choices=["truth", "predicted", "baseline"],
                   default="truth")
    p.set_defaults(func=cmd_compound, outputs=("volume.fvl",))

    p = sub.add_parser("calibrate-baseline",
                       help="fit the NCC-vs-distance lookup from a scan")
    common(p)
    p.add_argument("--scan", type=Path, required=True)
    p.add_argument("--lags", type=int, nargs="+", default=[1, 2, 4, 6, 8, 10])
    p.set_defaults(func=cmd_calibrate_baseline,
                   outputs=("calibration.csv",))

    return parser


def _fail(exc: BaseException, code: int) -> int:
    """Report a failure on stderr, with its traceback first when
    ``FUS3D_DEBUG=1`` is set, and return the exit code."""
    if os.environ.get("FUS3D_DEBUG") == "1":
        traceback.print_exception(exc, file=sys.stderr)
    print(f"error: {exc}", file=sys.stderr)
    return code


def _with_config(parser, argv) -> list:
    """``argv`` with a ``--config`` file's lines inserted after the
    subcommand as the options they name. A probe parse finds the file in
    every spelling argparse accepts; in its namespace a flag's value is a
    bool and a list option's a list. The probe already demands the
    subcommand's required options, so those (``out``, ``dataset``,
    ``scan``, ``truth``, ``pred``, ``poses``) stay on the command line: a
    file that holds one, with the command line lacking it, is a usage
    error."""
    probe, _ = parser.parse_known_args(argv)
    if not probe.config:
        return argv
    known = vars(probe).keys() - {"command", "func", "outputs"}
    options = []
    text = probe.config.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        dest = key.replace("-", "_")
        if not sep or dest not in known:
            raise ValueError(f"{probe.config}:{lineno}: expected key=value "
                             f"with a key naming an option of "
                             f"{probe.command}, got {line!r}")
        option = "--" + dest.replace("_", "-")
        kind = getattr(probe, dest)
        if isinstance(kind, bool):
            options += [option] if value.lower() in ("1", "true", "yes") else []
        elif isinstance(kind, (list, tuple)):
            options += [option, *value.split(",")]
        else:
            options.append(f"{option}={value}")
    at = argv.index(probe.command) + 1
    return argv[:at] + options + argv[at:]


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_with_config(parser, argv))
        for name in ("manifest.json", *args.outputs):
            if (args.out / name).exists() and not args.force:
                raise ValueError(f"{args.out / name} exists; rerun with "
                                 "--force to overwrite")
        message = args.func(args)
        _write_manifest(args)
        print(message)
        return 0
    except ValueError as exc:  # bad settings and input values
        return _fail(exc, 2)
    except Exception as exc:  # runtime failures
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
