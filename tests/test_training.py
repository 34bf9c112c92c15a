"""Training-harness tests: dataset splits, sampling determinism, loss
descent on a short run, bit-exact resume, and log format."""

import dataclasses
import gc
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from conftest import simulate_scan

from fus3d import network, training
from fus3d import tensor as T
from fus3d.losses import (
    LossWeights,
    correlation_loss,
    mmae,
    select_triplets,
    total_loss,
    triplet_loss,
)
from fus3d.network import ModelConfig, MotionNetwork, load_model
from fus3d.pose import Trajectory
from fus3d.simulate import ScanSequence, TrajectorySpec
from fus3d.tensor import Tensor
from fus3d.training import (
    ScanDataset,
    TrainConfig,
    _epoch_batches,
    train,
    validation_mmae,
    window_motions,
)


@pytest.fixture(scope="module")
def small_dataset():
    scans = []
    for k in range(4):
        spec = TrajectorySpec(
            shape="linear",
            length_mm=0.18 * 13,
            n_frames=14,
            noise_translation_mm=(0.02, 0.02, 0.01),
            seed=100 + k,
        )
        scans.append(
            simulate_scan(spec, phantom_seed=200 + k, subject=f"s{k:02d}")
        )
    return scans


def quick_config(**overrides):
    base = dict(steps=6, batch_size=2, seq_len=3, learning_rate=1e-3,
                seed=5, val_every_epochs=1)
    base.update(overrides)
    return TrainConfig(**base)


def fit(model, train_scans, val_scans, config, out, **kwargs):
    """``train`` with its log and checkpoint in the directory ``out``."""
    return train(model, train_scans, val_scans, config,
                 log_path=out / "train_log.csv",
                 checkpoint_path=out / "checkpoint.ckpt", **kwargs)


class TestDataset:
    def test_split_is_subject_disjoint(self, small_dataset):
        ds = ScanDataset(small_dataset)
        train_ds, val_ds = ds.split_by_subject(0.25, seed=1)
        assert len(train_ds) + len(val_ds) == len(ds)
        assert not set(train_ds.subjects()) & set(val_ds.subjects())

    def test_split_deterministic(self, small_dataset):
        ds = ScanDataset(small_dataset)
        a = ds.split_by_subject(0.5, seed=3)[1].subjects()
        b = ds.split_by_subject(0.5, seed=3)[1].subjects()
        assert a == b

    def test_directory_round_trip(self, small_dataset, tmp_path):
        from fus3d.simulate import write_scan

        for i, scan in enumerate(small_dataset):
            write_scan(tmp_path / f"scan{i:02d}", scan)
        ds = ScanDataset.from_directory(tmp_path)
        assert len(ds) == len(small_dataset)
        assert ds.subjects() == ["s00", "s01", "s02", "s03"]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no scan"):
            ScanDataset.from_directory(tmp_path)


class TestSampling:
    def test_epoch_batches_deterministic(self, small_dataset):
        cfg = quick_config()
        a = _epoch_batches(small_dataset, cfg, epoch=3)
        b = _epoch_batches(small_dataset, cfg, epoch=3)
        assert a == b
        c = _epoch_batches(small_dataset, cfg, epoch=4)
        assert a != c  # new epoch, new windows (overwhelmingly likely)

    def test_one_window_per_scan_per_epoch(self, small_dataset):
        cfg = quick_config()
        batches = _epoch_batches(small_dataset, cfg, epoch=0)
        drawn = [idx for batch in batches for idx, _ in batch]
        assert sorted(drawn) == list(range(len(small_dataset)))

    def test_window_motions_match_truth(self, small_dataset):
        scan = small_dataset[0]
        motions = window_motions(scan, start=2, pairs=3)
        rel = scan.truth.relative_poses()
        np.testing.assert_array_equal(motions[0], rel[2].as_array())
        np.testing.assert_array_equal(motions[2], rel[4].as_array())


class TestShortScans:
    @staticmethod
    def short_copy(scan, n_frames):
        return ScanSequence(scan.frames[:n_frames], scan.geometry,
                            scan.frame_rate_hz,
                            Trajectory(scan.truth.rotations[:n_frames],
                                       scan.truth.translations[:n_frames]),
                            subject=scan.subject, meta=scan.meta)

    def test_short_scan_skipped_with_one_warning(self, small_dataset, caplog,
                                                 tmp_path):
        cfg = quick_config(steps=3, batch_size=1)
        short = self.short_copy(small_dataset[2], cfg.seq_len + 1)
        plain = fit(MotionNetwork(ModelConfig.toy(), seed=2),
                    small_dataset[:2], small_dataset[3:], cfg, tmp_path)
        with caplog.at_level("WARNING", logger="fus3d.training"):
            mixed = fit(MotionNetwork(ModelConfig.toy(), seed=2),
                        [short, *small_dataset[:2]], small_dataset[3:], cfg,
                        tmp_path)
        warnings = [r for r in caplog.records if r.name == "fus3d.training"]
        assert [r.getMessage() for r in warnings] == [
            "skipping 1 of 3 training scans shorter than a 5-frame window"
        ]
        # the short scan takes no part: the run equals one without it
        assert mixed.log_rows == plain.log_rows
        assert mixed.final_val_mmae == plain.final_val_mmae

    def test_only_short_scans_rejected(self, small_dataset, tmp_path):
        cfg = quick_config()
        short = self.short_copy(small_dataset[0], cfg.seq_len + 1)
        with pytest.raises(ValueError, match="every training scan is shorter"):
            fit(MotionNetwork(ModelConfig.toy(), seed=2), [short],
                small_dataset[3:], cfg, tmp_path)


class TestShortValidationScans:
    short_copy = staticmethod(TestShortScans.short_copy)

    def test_window_minus_one_frames_skipped_with_one_warning(self, small_dataset,
                                                              caplog, tmp_path):
        cfg = quick_config(steps=2, batch_size=1)
        short = self.short_copy(small_dataset[2], cfg.seq_len + 1)
        plain = fit(MotionNetwork(ModelConfig.toy(), seed=2),
                    small_dataset[:2], small_dataset[3:], cfg, tmp_path)
        with caplog.at_level("WARNING", logger="fus3d.training"):
            mixed = fit(MotionNetwork(ModelConfig.toy(), seed=2),
                        small_dataset[:2], [short, small_dataset[3]], cfg,
                        tmp_path)
        warnings = [r for r in caplog.records if r.name == "fus3d.training"]
        assert [r.getMessage() for r in warnings] == [
            "skipping 1 of 2 validation scans shorter than a 5-frame window"
        ]
        assert mixed.init_val_mmae == plain.init_val_mmae
        assert mixed.final_val_mmae == plain.final_val_mmae

    def test_much_shorter_scan_skipped_not_crashing(self, small_dataset, caplog,
                                                    tmp_path):
        cfg = quick_config(steps=1, batch_size=1)
        short = self.short_copy(small_dataset[2], 2)
        model = MotionNetwork(ModelConfig.toy(), seed=2)
        alone = validation_mmae(model, small_dataset[3:], cfg)
        assert validation_mmae(model, [short, small_dataset[3]], cfg) == alone
        with caplog.at_level("WARNING", logger="fus3d.training"):
            result = fit(MotionNetwork(ModelConfig.toy(), seed=2),
                         small_dataset[:2], [small_dataset[3], short], cfg,
                         tmp_path)
        assert result.init_val_mmae == alone
        warnings = [r for r in caplog.records if r.name == "fus3d.training"]
        assert [r.getMessage() for r in warnings] == [
            "skipping 1 of 2 validation scans shorter than a 5-frame window"
        ]

    def test_only_short_scans_rejected_before_step_one(self, small_dataset,
                                                       monkeypatch, tmp_path):
        cfg = quick_config()
        shorts = [self.short_copy(small_dataset[3], n)
                  for n in (cfg.seq_len + 1, 2)]

        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "_train_step", no_step)
        with pytest.raises(ValueError, match="every validation scan is "
                                             "shorter than a 5-frame window"):
            train(MotionNetwork(ModelConfig.toy(), seed=2), small_dataset[:3],
                  shorts, cfg, log_path=tmp_path / "log.csv",
                  checkpoint_path=tmp_path / "checkpoint.ckpt")
        assert not list(tmp_path.iterdir())
        with pytest.raises(ValueError, match="5-frame window"):
            validation_mmae(MotionNetwork(ModelConfig.toy(), seed=2), shorts, cfg)


class TestDegenerateSeriesWarning:
    def test_rotation_free_scans_warn_once_per_run(self, small_dataset, caplog,
                                                   monkeypatch, tmp_path):
        # small_dataset has no rotation: truth components 3-5 are zero in
        # every window, so each correlation loss meets zero-norm series
        cfg = quick_config(steps=3)

        def run():
            caplog.clear()
            with caplog.at_level("WARNING", logger="fus3d.losses"):
                result = fit(MotionNetwork(ModelConfig.toy(), seed=2),
                             small_dataset[:3], small_dataset[3:], cfg,
                             tmp_path)
            return result, [r.getMessage() for r in caplog.records
                            if r.name == "fus3d.losses"]

        counted, messages = run()
        assert len(messages) == 1
        assert messages[0].startswith("correlation loss: zero-norm series in 5 "
                                      "training window(s), component(s) [3, 4, 5]")

        # the same run with a fresh counter per window: each of the 5
        # windows is counted once, nothing is logged, and the counting
        # leaves the log rows unchanged
        real = training.correlation_loss
        per_window = []

        def count_apart(true, pred, degenerate):
            per_window.append(Counter())
            return real(true, pred, per_window[-1])

        monkeypatch.setattr(training, "correlation_loss", count_apart)
        apart, messages = run()
        assert messages == []
        assert sum(sum(c.values()) for c in per_window) == 5
        assert apart.log_rows == counted.log_rows


class TestTrainLoop:
    def test_loss_decreases_on_short_run(self, small_dataset, tmp_path):
        model = MotionNetwork(ModelConfig.toy(), seed=2)
        cfg = quick_config(steps=20, learning_rate=2e-3)
        result = fit(model, small_dataset[:3], small_dataset[3:], cfg, tmp_path)
        assert result.steps_done == 20
        first = np.mean([r[4] for r in result.log_rows[:4]])
        last = np.mean([r[4] for r in result.log_rows[-4:]])
        assert last < first

    def test_log_format(self, small_dataset, tmp_path):
        model = MotionNetwork(ModelConfig.toy(), seed=2)
        cfg = quick_config(steps=3)
        log = tmp_path / "train_log.csv"
        fit(model, small_dataset[:3], small_dataset[3:], cfg, tmp_path)
        lines = log.read_text().splitlines()
        assert lines[0] == "step,mmae,corr,triplet,total,lr"
        assert len(lines) == 4
        fields = lines[1].split(",")
        assert int(fields[0]) == 1
        total = float(fields[4])
        weights = LossWeights()
        reconstructed = (weights.alpha_mmae * float(fields[1])
                         + weights.alpha_corr * float(fields[2])
                         + weights.alpha_triplet * float(fields[3]))
        assert total == pytest.approx(reconstructed, rel=1e-12)
        assert float(fields[5]) == pytest.approx(cfg.learning_rate)

    def test_lr_column_drops_at_decay_epochs(self, small_dataset, monkeypatch,
                                             tmp_path):
        # 2 scans, batch 2 -> 1 step per epoch; decay every 2 epochs (in
        # place of the paper's 100): the logged rate falls by the decay
        # factor at the boundary
        monkeypatch.setattr(training, "DECAY_EVERY", 2)
        model = MotionNetwork(ModelConfig.toy(), seed=2)
        cfg = quick_config(steps=5, batch_size=2)
        result = fit(model, small_dataset[:2], small_dataset[2:], cfg, tmp_path)
        rates = [r[5] for r in result.log_rows]
        assert rates[1] == pytest.approx(cfg.learning_rate)
        assert rates[2] == pytest.approx(cfg.learning_rate * 0.8)
        assert rates[4] == pytest.approx(cfg.learning_rate * 0.64)

    def test_lr_schedule_paper_values(self, small_dataset, monkeypatch,
                                      tmp_path):
        # the paper's 0.8 every 100 epochs, read from the log's rate
        # column; 1 step per epoch, with the steps themselves stubbed out
        monkeypatch.setattr(training, "_train_step",
                            lambda *args: (0.0, 0.0, 0.0, 0.0))
        cfg = quick_config(steps=251, batch_size=2, learning_rate=1e-5,
                           val_every_epochs=1000)
        result = fit(MotionNetwork(ModelConfig.toy(), seed=2),
                     small_dataset[:2], small_dataset[2:], cfg, tmp_path)
        rates = [r[5] for r in result.log_rows]
        assert rates[0] == rates[99] == 1e-5
        assert rates[100] == rates[199] == pytest.approx(8e-6)
        assert rates[250] == pytest.approx(6.4e-6)

    def test_resume_is_bit_exact(self, small_dataset, tmp_path):
        # 3 scans at batch 2: 2 steps per epoch, validated every 2 epochs.
        # Cut mid-epoch (3), at an epoch end (2) and at a validation step
        # (4), then resumed: the log and the parameters equal the
        # straight run's. The cursor records older checkpoints carried
        # beside the step count are ignored.
        cfg = quick_config(steps=8, val_every_epochs=2)

        def fresh():
            return MotionNetwork(ModelConfig.toy(), seed=9)

        straight = fresh()
        fit(straight, small_dataset[:3], small_dataset[3:], cfg,
            tmp_path / "straight")
        for cut in (3, 2, 4):
            for legacy in (False, True):
                out = tmp_path / f"cut{cut}-{legacy}"
                fit(fresh(), small_dataset[:3], small_dataset[3:],
                    dataclasses.replace(cfg, steps=cut), out)
                resumed, extra, _ = load_model(out / "checkpoint.ckpt")
                assert int(extra["_optim.step"]) == cut
                if legacy:
                    epoch, batch = divmod(cut, 2)
                    extra.update({"_optim.epoch": np.array(float(epoch)),
                                  "_train.step": np.array(float(cut)),
                                  "_train.epoch": np.array(float(epoch)),
                                  "_train.batch_idx": np.array(float(batch))})
                result = fit(resumed, small_dataset[:3], small_dataset[3:],
                             cfg, out, resume_extra=extra)
                assert result.steps_done == 8
                assert ((out / "train_log.csv").read_bytes()
                        == (tmp_path / "straight" / "train_log.csv").read_bytes())
                for (_, pa), (_, pb) in zip(straight.named_parameters(),
                                            resumed.named_parameters()):
                    np.testing.assert_array_equal(pa.data, pb.data)

    def test_checkpoint_records(self, small_dataset, tmp_path):
        # beside the parameters, a training checkpoint holds the step
        # count, the Adam moments and the best validation error; the
        # best checkpoint holds the parameters alone
        model = MotionNetwork(ModelConfig.toy(), seed=2)
        fit(model, small_dataset[:3], small_dataset[3:], quick_config(steps=2),
            tmp_path)
        _, extra, _ = load_model(tmp_path / "checkpoint.ckpt")
        names = [name for name, _ in model.named_parameters()]
        assert set(extra) == {"_optim.step", "_train.best_val",
                              *(f"_optim.{moment}.{name}"
                                for moment in "mv" for name in names)}
        assert int(extra["_optim.step"]) == 2
        assert load_model(tmp_path / "best_checkpoint.ckpt")[1] == {}

    def test_resumed_log_has_one_header(self, small_dataset, tmp_path):
        log, ckpt = tmp_path / "train_log.csv", tmp_path / "checkpoint.ckpt"
        train(MotionNetwork(ModelConfig.toy(), seed=9), small_dataset[:3],
              small_dataset[3:], quick_config(steps=2), log_path=log,
              checkpoint_path=ckpt)

        def resume(path):
            model, extra, _ = load_model(ckpt)
            train(model, small_dataset[:3], small_dataset[3:],
                  quick_config(steps=3), log_path=path,
                  checkpoint_path=path.with_suffix(".ckpt"), resume_extra=extra)
            lines = path.read_text().splitlines()
            assert lines[0] == "step,mmae,corr,triplet,total,lr"
            return [line.split(",")[0] for line in lines[1:]]

        # into a new file: the header, then the resumed step
        assert resume(tmp_path / "fresh.csv") == ["3"]
        # onto the existing log: no second header
        assert resume(log) == ["1", "2", "3"]

    def test_resume_after_a_cut_run_logs_each_step_once(self, small_dataset,
                                                        tmp_path, monkeypatch):
        # every validation improves, so 3 scans at batch 2 checkpoint at
        # steps 2 and 4; the cut run logs step 5, then step 6 raises
        cfg = quick_config(steps=6)

        save_model = training.save_model
        logged_at_save = []

        def run(directory, resume_extra=None, model=None):
            directory.mkdir(exist_ok=True)
            model = model or MotionNetwork(ModelConfig.toy(), seed=9)
            values = itertools.count(100.0, -1.0)
            monkeypatch.setattr(training, "validation_mmae",
                                lambda *args: next(values))

            def recording_save(path, model, extra_arrays=None):
                # what a process killed after this save leaves in the log
                if extra_arrays is not None:
                    rows = (directory / "train_log.csv").read_text().splitlines()
                    logged_at_save.append(
                        (int(extra_arrays["_optim.step"]), len(rows) - 1))
                save_model(path, model, extra_arrays=extra_arrays)

            monkeypatch.setattr(training, "save_model", recording_save)
            train(model, small_dataset[:3], small_dataset[3:], cfg,
                  log_path=directory / "train_log.csv",
                  checkpoint_path=directory / "checkpoint.ckpt",
                  resume_extra=resume_extra)
            return model

        straight = run(tmp_path / "straight")

        step_once = training._train_step

        def cut_at_step_six(*args):
            if args[5] == 5:
                raise RuntimeError("cut")
            return step_once(*args)

        monkeypatch.setattr(training, "_train_step", cut_at_step_six)
        with pytest.raises(RuntimeError, match="cut"):
            run(tmp_path / "cut")
        log = tmp_path / "cut" / "train_log.csv"
        assert log.read_text().splitlines()[-1].startswith("5,")
        monkeypatch.setattr(training, "_train_step", step_once)
        model, extra, _ = load_model(tmp_path / "cut" / "checkpoint.ckpt")
        assert int(extra["_optim.step"]) == 4
        resumed = run(tmp_path / "cut", resume_extra=extra, model=model)

        assert log.read_bytes() == (tmp_path / "straight" / "train_log.csv").read_bytes()
        assert all(step == rows for step, rows in logged_at_save)
        for (_, pa), (_, pb) in zip(straight.named_parameters(),
                                    resumed.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_determinism_across_runs(self, small_dataset, tmp_path):
        cfg = quick_config(steps=5)

        def run():
            model = MotionNetwork(ModelConfig.toy(), seed=4)
            return fit(model, small_dataset[:3], small_dataset[3:], cfg,
                       tmp_path)

        assert run().log_rows == run().log_rows

    def test_non_finite_loss_aborts(self, small_dataset, tmp_path):
        model = MotionNetwork(ModelConfig.toy(), seed=2)
        model.head_global.weight.data[:] = np.nan
        cfg = quick_config(steps=2)
        with pytest.raises(FloatingPointError, match="non-finite"):
            fit(model, small_dataset[:3], small_dataset[3:], cfg, tmp_path)

    def test_best_checkpoint_written(self, small_dataset, tmp_path):
        model = MotionNetwork(ModelConfig.toy(), seed=2)
        fit(model, small_dataset[:3], small_dataset[3:], quick_config(steps=4),
            tmp_path)
        assert (tmp_path / "checkpoint.ckpt").exists()
        assert (tmp_path / "best_checkpoint.ckpt").exists()


class TestOverfitOneWindow:
    def test_adam_steps_cut_the_loss_of_one_window(self, tmp_path):
        # a training scan one window long: every step trains on the same
        # 5 frames, so the loss must fall far. Seeded, it fell 15.4x in
        # 60 steps (1.2 s on a 2-CPU host); with the sign of the conv2d
        # weight gradients flipped it fell 1.8x
        def scan(seed, subject):
            spec = TrajectorySpec(
                shape="linear", length_mm=0.15 * 4, n_frames=5,
                noise_translation_mm=(0.02, 0.02, 0.01),
                noise_rotation_deg=(0.05, 0.05, 0.05), seed=seed,
            )
            return simulate_scan(spec, phantom_seed=seed + 1, subject=subject)

        cfg = TrainConfig(steps=60, batch_size=1, seq_len=3,
                          learning_rate=3e-3, seed=1, val_every_epochs=60)
        result = fit(MotionNetwork(ModelConfig.toy(), seed=1),
                     [scan(61, "s00")], [scan(62, "s01")], cfg, tmp_path)
        totals = [row[4] for row in result.log_rows]
        assert len(totals) == 60
        assert totals[-1] < totals[0] / 5.0


class TestCheckpointWrites:
    @pytest.mark.parametrize("vals, expected", [
        # every validation improves: the last best save is the final one
        ([3.0, 2.0, 1.0], [("checkpoint.ckpt", 2), ("best_checkpoint.ckpt", None),
                           ("checkpoint.ckpt", 4), ("best_checkpoint.ckpt", None)]),
        # the last validation does not improve: one final save
        ([3.0, 1.0, 2.0], [("checkpoint.ckpt", 2), ("best_checkpoint.ckpt", None),
                           ("checkpoint.ckpt", 4)]),
    ], ids=["last-improves", "last-worse"])
    def test_each_checkpoint_written_once_per_step(self, small_dataset,
                                                   monkeypatch, tmp_path,
                                                   vals, expected):
        values = iter(vals)
        monkeypatch.setattr(training, "validation_mmae",
                            lambda *args: next(values))
        writes = []

        def counting_save(path, arrays, config=None):
            step = arrays.get("_optim.step")
            writes.append((path.name, None if step is None else int(step)))

        monkeypatch.setattr(network, "save_checkpoint", counting_save)
        # 3 training scans, batch 2: an epoch is 2 steps, validated after each
        fit(MotionNetwork(ModelConfig.toy(), seed=2), small_dataset[:3],
            small_dataset[3:], quick_config(steps=4), tmp_path)
        assert writes == expected


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("val_every_epochs", 0),
        ("seq_len", 1), ("learning_rate", 0.0),
        ("learning_rate", -1e-3), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
    ])
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            quick_config(**{field: value})


class TestHelpers:
    def test_validation_mmae_positive(self, small_dataset):
        model = MotionNetwork(ModelConfig.toy(), seed=2)
        value = validation_mmae(model, small_dataset[3:], quick_config())
        assert value > 0.0


def _tape_nodes(*roots) -> set:
    """Ids of the op nodes on the autodiff tape behind ``roots``."""
    seen, pending = set(), list(roots)
    while pending:
        node = pending.pop()
        if id(node) not in seen and node._vjp is not None:
            seen.add(id(node))
            pending.extend(node._parents)
    return seen


class TestLossGraph:
    def test_loss_graph_does_not_grow_with_the_batch(self, small_dataset,
                                                     monkeypatch):
        # the objective is one graph per batch: a loop over windows or
        # anchor steps would add nodes for every window of the batch
        cfg = quick_config(batch_size=4)
        model = MotionNetwork(ModelConfig.toy(), seed=2)
        forward = model.forward_window
        outputs = []

        def recording_forward(frames):
            outputs.append(forward(frames))
            return outputs[-1]

        monkeypatch.setattr(model, "forward_window", recording_forward)
        counts = []
        for batch in ([(0, 0)], [(0, 0), (1, 3), (2, 5), (3, 1)]):
            loss, _ = training._batch_loss(model, small_dataset, batch, cfg,
                                           Counter())
            network_nodes = _tape_nodes(outputs[-1]["fused"],
                                        outputs[-1]["embeddings"])
            counts.append(len(_tape_nodes(loss) - network_nodes))
        assert counts[0] == counts[1]
        # nor with the anchor steps of a window (26 nodes for the three
        # terms and their weighted sum)
        assert counts[0] < 40


# sha256 of the three-term loss, the fused motions, the triplet
# embeddings and every parameter gradient of a seeded toy step (numpy
# 2.4, scipy-openblas 0.3.31). Unlike the toy-step digest of
# test_kernel_helper.py, it reaches the triplet term and so the global
# average pooling of both attention summaries.
FULL_STEP_SHA256 = "54390e446a98ee6892a3c6a13b543b60a9ca664a44bf3f0525a71ac39b20570b"


def test_full_step_bits_match_the_recorded_digest():
    rng = np.random.default_rng(37)
    frames = rng.random((2, 10, 64, 64))
    truth = rng.normal(0.0, 0.05, (2, 9, 6))
    model = MotionNetwork(ModelConfig.toy(), seed=37)
    out = model.forward_window(frames)
    parts = (mmae(truth, out["fused"], LossWeights().epsilon),
             correlation_loss(truth, out["fused"], Counter()),
             triplet_loss(out["embeddings"], select_triplets(truth)))
    assert parts[2].item() > 0.0  # the triplet hinge is active
    loss = total_loss(parts, LossWeights())
    grads = T.backward(loss, [p for _, p in model.named_parameters()])
    digest = hashlib.sha256(loss.data.tobytes())
    digest.update(out["fused"].data.tobytes())
    digest.update(out["embeddings"].data.tobytes())
    for g in grads:
        digest.update(g.tobytes())
    assert digest.hexdigest() == FULL_STEP_SHA256


class TestStepMemory:
    def test_previous_step_graph_is_released(self, small_dataset, monkeypatch,
                                             tmp_path):
        # live tensors as each step starts building its loss: a step's
        # autodiff graph must be gone once its log row is written
        counts = []
        batch_loss = training._batch_loss

        def counting_batch_loss(*args):
            counts.append(sum(isinstance(o, Tensor) for o in gc.get_objects()))
            return batch_loss(*args)

        monkeypatch.setattr(training, "_batch_loss", counting_batch_loss)
        model = MotionNetwork(ModelConfig.toy(), seed=2)
        fit(model, small_dataset[:3], small_dataset[3:], quick_config(steps=4),
            tmp_path)
        assert len(counts) == 4
        assert max(counts[1:]) <= counts[0]
