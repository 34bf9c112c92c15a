"""Golden digests for every file the command-line pipeline writes.

The recipe runs ``fus3d.cli.main`` in process: three 64 px, 20-frame
``simulate`` runs, a 6-step ``train`` on them, ``infer --diagnostics``
with the trained checkpoint, ``evaluate`` and ``compound`` of its
poses. ``tests/data/pipeline_golden.json`` holds the sha256 of each
written file by its path under the run's root: scans, checkpoints,
training log, validation and evaluation reports, pose CSVs, attention
PGMs, volume and manifests. Manifests and the volume's provenance hold
paths, so they are hashed with the root replaced by ``<root>``. A
change that moves any output fails here, naming each file that moved;
one that moves outputs on purpose regenerates the table with
``PYTHONPATH=src python tests/test_pipeline_golden.py``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from fus3d.cli import main

GOLDEN = Path(__file__).parent / "data" / "pipeline_golden.json"
# files whose bytes hold the root they were written under
WITH_PATHS = ("manifest.json", "volume.fvl.json")


def run_pipeline(root: Path) -> None:
    def run(*argv) -> None:
        assert main([str(a) for a in argv]) == 0, argv

    for k in range(3):
        run("simulate", "--out", root / "data" / f"scan{k}",
            "--frame-extent", 64, "--frames", 20, "--length-mm", 2.85,
            "--noise-translation", 0.02, 0.02, 0.01,
            "--noise-rotation", 0.05, 0.05, 0.05, "--seed", k + 1,
            "--subject", f"s{k:02d}")
    run("train", "--dataset", root / "data", "--out", root / "run",
        "--steps", 6, "--batch", 2, "--seq-len", 3, "--val-every", 1)
    scan = root / "data" / "scan0"
    run("infer", "--scan", scan, "--checkpoint", root / "run" / "checkpoint.ckpt",
        "--out", root / "pred", "--diagnostics")
    run("evaluate", "--truth", scan / "poses.csv",
        "--pred", root / "pred" / "pred_absolute.csv", "--scan", scan,
        "--out", root / "eval")
    run("compound", "--scan", scan, "--poses", root / "pred" / "pred_absolute.csv",
        "--source", "predicted", "--out", root / "volume")


def pipeline_digests(root: Path) -> dict:
    """The sha256 of every file the recipe writes under ``root``."""
    run_pipeline(root)
    table = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        if path.name in WITH_PATHS:
            blob = blob.replace(str(root).encode(), b"<root>")
        table[path.relative_to(root).as_posix()] = hashlib.sha256(blob).hexdigest()
    return table


def test_every_written_file_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    table = pipeline_digests(tmp_path)
    moved = sorted(name for name in golden.keys() | table.keys()
                   if golden.get(name) != table.get(name))
    assert not moved, (f"moved: {', '.join(moved)}\nnew table:\n"
                       + json.dumps(table, indent=2, sort_keys=True))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        table = pipeline_digests(Path(root))
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(table)} files)")
