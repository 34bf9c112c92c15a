"""Attention-module and motion-network tests, including the full-model
finite-difference gradient check at a minimal configuration."""

import numpy as np
import pytest

from conftest import pgm16_pixels
from gradcheck import check_gradients

import fus3d.tensor as T
from fus3d import network
from fus3d.correlation import CorrConfig, _grid_layout
from fus3d.network import (
    GlaConfig,
    GlobalLocalAttention,
    ModelConfig,
    MotionNetwork,
    export_attention_scores,
    load_model,
    save_model,
)
from fus3d.nn import save_checkpoint
from fus3d.pose import PoseVector
from fus3d.tensor import Tensor, backward


TOY_GLA = GlaConfig(local_channels=16, local_extent=16,
                    global_channels=64, global_extent=4)

@pytest.fixture
def paper_shape(monkeypatch):
    """The published tensor shapes, built untrained to check them: the
    paper's channels and LSTM width stay patched for the test, and the
    chain rule gives the published (2, 2, 8, 2) at 256px."""
    monkeypatch.setattr(network, "ENCODER_CHANNELS", (64, 128, 256, 512))
    monkeypatch.setattr(network, "LSTM_HIDDEN", 128)
    config = ModelConfig(frame_extent=256)
    assert config.downsample == (2, 2, 8, 2)
    return config


@pytest.fixture
def tiny_model_config(monkeypatch):
    """Smallest assembly, for finite-difference checking: 8px frames,
    stage extents 4/4/2/2 (chain (2, 1, 2, 1)), a 2x2 correlation grid of
    3px RoIs with 1px patches, channels 2/2/2/4, an LSTM width of 4 and an
    MLP reduction of 2. The chain rule and the fixed geometry constants
    stay patched for the test, so the config is built under them."""
    monkeypatch.setattr(network, "_downsample_chain", lambda extent: (2, 1, 2, 1))
    monkeypatch.setattr(network, "CORR_ROI", 3)
    monkeypatch.setattr(network, "CORR_PATCH", 1)
    monkeypatch.setattr(network, "MLP_REDUCTION", 2)
    monkeypatch.setattr(network, "ENCODER_CHANNELS", (2, 2, 2, 4))
    monkeypatch.setattr(network, "LSTM_HIDDEN", 4)
    return ModelConfig(frame_extent=8)


class TestGlaConfig:
    def test_block_tiling_invariant(self):
        cfg = TOY_GLA
        assert cfg.n_blocks * cfg.global_extent**2 == cfg.local_extent**2
        assert cfg.n_blocks == 16

    def test_paper_scale_shapes(self, paper_shape):
        cfg = paper_shape.gla_config
        assert cfg.n_blocks == 256
        assert (cfg.local_channels, cfg.global_channels) == (128, 512)
        # MLP bottlenecks: 128 <-> 8 and 512 <-> 32
        gla = GlobalLocalAttention(cfg, np.random.default_rng(0))
        assert gla.local_mlp1.weight.shape == (8, 128)
        assert gla.global_mlp1.weight.shape == (32, 512)

    def test_rejects_bad_tiling(self):
        with pytest.raises(ValueError, match="tile"):
            GlaConfig(local_channels=8, local_extent=10,
                      global_channels=64, global_extent=4)


class TestModelConfig:
    def test_grid_mismatch_quotes_the_checked_extent(self):
        # a 16x16 grid of 9px RoIs on a 64px map: 19 per side at stride 3
        # and 14 at stride 4
        with pytest.raises(ValueError) as info:
            CorrConfig.for_map_extent(64, grid=16, roi_extent=9, patch_extent=5)
        assert str(info.value) == (
            "no RoI stride lays out a 16x16 grid of 9px RoIs on a 64px "
            "map: stride 3 gives 19x19"
        )

    @pytest.mark.parametrize("extent, chain", [
        (32, (2, 2, 1, 2)), (64, (2, 2, 2, 2)), (128, (2, 2, 4, 2)),
        (256, (2, 2, 8, 2)), (512, (2, 2, 16, 2)),
    ])
    def test_stage3_takes_the_extent_over_32(self, extent, chain):
        config = ModelConfig(frame_extent=extent)
        assert config.downsample == chain
        assert (config.stage_extent(2), config.stage_extent(3)) == (8, 4)

    @pytest.mark.parametrize("extent", [96, 6, 16, 48, 0])
    def test_extent_off_the_rule_is_rejected(self, extent):
        with pytest.raises(ValueError) as info:
            ModelConfig(frame_extent=extent)
        assert str(info.value) == (
            f"frame extent must be 32 * 2**k px (stage 3 downsamples by "
            f"extent // 32), got {extent}px")

    @pytest.mark.parametrize("name", ["toy", "paper", "tiny", "32px", "128px",
                                      "512px"])
    def test_correlation_grid_is_the_stage3_extent(self, name, request):
        fixture = {"paper": "paper_shape", "tiny": "tiny_model_config"}.get(name)
        config = (request.getfixturevalue(fixture) if fixture
                  else ModelConfig.toy() if name == "toy"
                  else ModelConfig(frame_extent=int(name[:-2])))
        extent = config.stage_extent(0)
        rows, cols, _, _ = _grid_layout(extent, extent, config.corr_config)
        assert rows == cols == config.stage_extent(2)
        assert config.gla_config.global_extent == config.stage_extent(3)


class TestLocalChannelAttention:
    def setup_method(self):
        self.gla = GlobalLocalAttention(TOY_GLA, np.random.default_rng(0))

    def test_zero_input_scores_half(self):
        scores = self.gla.local_channel_scores(Tensor(np.zeros((2, 16, 16, 16))))
        np.testing.assert_array_equal(scores.data, 0.5)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(1)
        scores = self.gla.local_channel_scores(
            Tensor(rng.standard_normal((3, 16, 16, 16)))
        )
        assert np.all(scores.data > 0) and np.all(scores.data < 1)

    def test_matches_hand_rolled_mlp(self, monkeypatch):
        # 4-channel toy case computed with explicit matrix arithmetic
        monkeypatch.setattr(network, "MLP_REDUCTION", 2)
        cfg = GlaConfig(local_channels=4, local_extent=4,
                        global_channels=8, global_extent=2)
        gla = GlobalLocalAttention(cfg, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        e2 = rng.standard_normal((1, 4, 4, 4))
        pooled = e2.mean(axis=(2, 3))[0]
        w1 = gla.local_mlp1.weight.data
        w2 = gla.local_mlp2.weight.data
        expected = 1.0 / (1.0 + np.exp(-(w2 @ (w1 @ pooled))))
        got = gla.local_channel_scores(Tensor(e2)).data[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        # the engine's own check: the MLP's matmul takes 16 channels
        with pytest.raises(ValueError, match="matmul: shape mismatch"):
            self.gla.local_channel_scores(Tensor(np.zeros((1, 7, 16, 16))))


class TestRecalibrateLocal:
    def setup_method(self):
        self.gla = GlobalLocalAttention(TOY_GLA, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        self.e2 = Tensor(rng.standard_normal((2, 16, 16, 16)))

    def test_unit_scores_reproduce_raw_tiling(self):
        ones = Tensor(np.ones((2, 16)))
        blocks = self.gla.recalibrate_local(self.e2, ones)
        assert blocks.shape == (2, 16, 16, 4, 4)
        # (n, gy * gx, c, e, e) back to (n, c, gy * e, gx * e)
        rebuilt = blocks.data.reshape(2, 4, 4, 16, 4, 4).transpose(0, 3, 1, 4, 2, 5)
        np.testing.assert_array_equal(rebuilt.reshape(2, 16, 16, 16), self.e2.data)

    def test_zero_scores_zero_blocks(self):
        zeros = Tensor(np.zeros((2, 16)))
        blocks = self.gla.recalibrate_local(self.e2, zeros)
        np.testing.assert_array_equal(blocks.data, 0.0)

    def test_score_length_checked(self):
        # the engine's own check: 5 scores do not reshape onto 16 channels
        with pytest.raises(ValueError, match="reshape"):
            self.gla.recalibrate_local(self.e2, Tensor(np.ones((2, 5))))


class TestGlobalAttention:
    def test_zero_weights_give_quarter_scale(self):
        # all-zero score weights make every sigmoid 0.5, so G = 0.25 * E4
        gla = GlobalLocalAttention(TOY_GLA, np.random.default_rng(6))
        gla.global_mlp1.weight.data = np.zeros_like(gla.global_mlp1.weight.data)
        gla.spatial_conv.weight.data = np.zeros_like(gla.spatial_conv.weight.data)
        rng = np.random.default_rng(7)
        e4 = rng.standard_normal((2, 64, 4, 4))
        out = gla.global_attention(Tensor(e4))
        np.testing.assert_allclose(out.data, 0.25 * e4, atol=1e-12)

    def test_bounded_by_input(self):
        gla = GlobalLocalAttention(TOY_GLA, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        e4 = rng.standard_normal((1, 64, 4, 4))
        out = gla.global_attention(Tensor(e4))
        assert np.all(np.abs(out.data) <= np.abs(e4) + 1e-12)

    def test_single_channel_hand_case(self, monkeypatch):
        monkeypatch.setattr(network, "MLP_REDUCTION", 1)
        cfg = GlaConfig(local_channels=1, local_extent=2,
                        global_channels=1, global_extent=2)
        gla = GlobalLocalAttention(cfg, np.random.default_rng(10))
        e4 = np.array([[[[1.0, -2.0], [0.5, 3.0]]]])
        w1 = float(gla.global_mlp1.weight.data[0, 0])
        w2 = float(gla.global_mlp2.weight.data[0, 0])
        ws = gla.spatial_conv.weight.data[0, :, 0, 0]

        def sig(x):
            return 1.0 / (1.0 + np.exp(-x))

        channel = sig(w2 * w1 * e4.mean())
        # single channel: max-pool and avg-pool over channels both equal e4
        spatial = sig(ws[0] * e4[0, 0] + ws[1] * e4[0, 0])
        expected = channel * spatial * e4[0, 0]
        got = gla.global_attention(Tensor(e4)).data[0, 0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_channel_count_checked(self):
        # the engine's own check: the MLP's matmul takes 64 channels
        gla = GlobalLocalAttention(TOY_GLA, np.random.default_rng(8))
        with pytest.raises(ValueError, match="matmul: shape mismatch"):
            gla.global_attention(Tensor(np.zeros((1, 32, 4, 4))))


class TestGlaForward:
    def setup_method(self):
        self.gla = GlobalLocalAttention(TOY_GLA, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        self.e2 = rng.standard_normal((1, 16, 16, 16))
        self.e4 = rng.standard_normal((1, 64, 4, 4))

    def test_output_shapes(self):
        local, global_, scores = self.gla(Tensor(self.e2), Tensor(self.e4))
        assert local.shape == (1, 64, 4, 4)
        assert global_.shape == (1, 64, 4, 4)
        assert scores.shape == (1, 16)
        assert np.all(np.abs(scores.data) <= 1.0 + 1e-12)

    def test_blocks_matching_global_get_unit_weight(self):
        rng = np.random.default_rng(13)
        g_tilde = rng.standard_normal((1, 16, 4, 4))
        blocks = Tensor(np.repeat(2.5 * g_tilde[:, None], 16, axis=1))
        weighted, scores = self.gla._weight_blocks(blocks, Tensor(g_tilde))
        np.testing.assert_allclose(scores.data, 1.0, atol=1e-12)
        np.testing.assert_allclose(weighted.data, blocks.data, atol=1e-12)

    def test_orthogonal_block_contributes_nothing(self):
        g_tilde = np.zeros((1, 16, 4, 4))
        g_tilde[0, 0, 0, 0] = 1.0
        blocks = np.zeros((1, 16, 16, 4, 4))
        blocks[0, 3, 1, 0, 0] = 2.0  # orthogonal to g_tilde
        weighted, scores = self.gla._weight_blocks(Tensor(blocks), Tensor(g_tilde))
        assert scores.data[0, 3] == 0.0
        np.testing.assert_array_equal(weighted.data[0, 3], 0.0)

    def test_cosine_weighting_scale_invariance(self):
        rng = np.random.default_rng(14)
        blocks = Tensor(rng.standard_normal((1, 16, 16, 4, 4)))
        g_tilde = rng.standard_normal((1, 16, 4, 4))
        base, _ = self.gla._weight_blocks(blocks, Tensor(g_tilde))
        for scale in (0.01, 7.0, 3000.0):
            scaled, _ = self.gla._weight_blocks(blocks, Tensor(scale * g_tilde))
            np.testing.assert_allclose(scaled.data, base.data, atol=1e-12)

    def test_gradients_through_module(self, monkeypatch):
        rng = np.random.default_rng(15)
        monkeypatch.setattr(network, "MLP_REDUCTION", 2)
        cfg = GlaConfig(local_channels=2, local_extent=4, global_channels=4,
                        global_extent=2)
        gla = GlobalLocalAttention(cfg, np.random.default_rng(16))

        def op(t):
            local, global_, _ = gla(t[0], t[1])
            return T.concat([T.reshape(local, (1, -1)),
                             T.reshape(global_, (1, -1))], axis=1)

        check_gradients(
            op,
            [rng.uniform(-1, 1, (1, 2, 4, 4)), rng.uniform(-1, 1, (1, 4, 2, 2))],
        )


class TestMotionNetwork:
    @pytest.fixture(scope="class")
    @staticmethod
    def model():
        return MotionNetwork(ModelConfig.toy(), seed=7)

    @pytest.mark.parametrize("s", [0, 4, 9])
    def test_output_count_matches_sequence_length(self, model, s):
        rng = np.random.default_rng(s)
        frames = rng.uniform(0, 1, (s + 2, 64, 64))
        out = model.forward_window(frames[None])
        for key in ("fused", "global6", "local6"):
            assert out[key].shape == (1, s + 1, 6)

    def test_fusion_is_mean_of_branches(self, model):
        rng = np.random.default_rng(20)
        seq = rng.uniform(0, 1, (3, 64, 64))
        out = model.forward_window(seq[None])
        np.testing.assert_allclose(
            out["fused"].data,
            0.5 * (out["global6"].data + out["local6"].data),
            atol=1e-12,
        )

    def test_sequence_reversal_changes_outputs(self, model):
        # the same last step after the earlier frames in reverse order: the
        # LSTM context differs, so the estimate does too
        rng = np.random.default_rng(21)
        seq = rng.uniform(0, 1, (5, 64, 64))
        rev = np.concatenate([seq[2::-1], seq[3:]])
        fwd = model.forward_window(seq[None])["fused"].data
        back = model.forward_window(rev[None])["fused"].data
        assert not np.allclose(fwd[0, -1], back[0, -1])

    def test_non_square_frames_rejected(self, model):
        with pytest.raises(ValueError, match="square"):
            model.forward_window(np.zeros((1, 2, 64, 32)))

    def test_shared_first_stage_is_one_parameter_set(self, model):
        names = [n for n, _ in model.named_parameters()]
        stage1_names = [n for n in names if n.startswith("stage1.")]
        assert len(stage1_names) == len(set(stage1_names))
        # swapping the sequences swaps the per-branch features exactly
        rng = np.random.default_rng(22)
        seq_a = rng.uniform(0, 1, (2, 64, 64))
        seq_b = rng.uniform(0, 1, (2, 64, 64))
        with T.no_grad():
            e_a = model.stage1(Tensor(seq_a[:, None]))
            e_b = model.stage1(Tensor(seq_b[:, None]))
        np.testing.assert_array_equal(
            model.stage1(Tensor(seq_b[:, None])).data, e_b.data
        )
        np.testing.assert_array_equal(
            model.stage1(Tensor(seq_a[:, None])).data, e_a.data
        )

    def test_forward_determinism(self):
        rng = np.random.default_rng(23)
        seq_a = rng.uniform(0, 1, (1, 3, 64, 64))
        seq_b = rng.uniform(0, 1, (1, 3, 64, 64))
        frames = np.concatenate([seq_a, seq_b], axis=1)
        out1 = MotionNetwork(ModelConfig.toy(), seed=3).forward_window(frames)
        out2 = MotionNetwork(ModelConfig.toy(), seed=3).forward_window(frames)
        np.testing.assert_array_equal(out1["fused"].data, out2["fused"].data)

    def test_infer_scan_chunking_invariant(self, model, monkeypatch):
        rng = np.random.default_rng(25)
        frames = rng.uniform(0, 1, (11, 64, 64))
        monkeypatch.setattr(network, "INFER_CHUNK", 3)
        poses_small, _ = model.infer_scan(frames)
        monkeypatch.setattr(network, "INFER_CHUNK", 64)
        poses_big, _ = model.infer_scan(frames)
        assert len(poses_small) == 10
        for p, q in zip(poses_small, poses_big):
            np.testing.assert_allclose(p.as_array(), q.as_array(), atol=1e-12)

    def test_infer_scan_poses_are_the_fused_rows(self, model):
        rng = np.random.default_rng(27)
        frames = rng.uniform(0, 1, (5, 64, 64))
        poses, _ = model.infer_scan(frames)
        with T.no_grad():
            fused = model.forward_window(frames[None])["fused"].data[0]
        want = [PoseVector.from_array(row) for row in fused]
        assert poses == want
        for p, q in zip(poses, want):
            assert p.as_array().tobytes() == q.as_array().tobytes()


class TestFullModelGradients:
    def test_every_parameter_against_finite_differences(self, tiny_model_config):
        # one step, 8x8 frames, minimal channels; rel. error < 1e-3
        model = MotionNetwork(tiny_model_config, seed=1)
        rng = np.random.default_rng(27)
        seq_a = rng.uniform(0.0, 1.0, (1, 1, 8, 8))
        seq_b = rng.uniform(0.0, 1.0, (1, 1, 8, 8))
        frames = np.concatenate([seq_a, seq_b], axis=1)
        weights = rng.standard_normal(6)

        def loss_value():
            out = model.forward_window(frames)
            return T.tensor_sum(T.mul(out["fused"], weights))

        named = model.named_parameters()
        grads = backward(loss_value(), [p for _, p in named])

        h = 1e-5
        for (name, param), analytic in zip(named, grads):
            assert analytic is not None, f"{name} got no gradient"
            flat = param.data.ravel()
            # probe a handful of coordinates per parameter
            idx = np.linspace(0, flat.size - 1, min(4, flat.size)).astype(int)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                f_plus = loss_value().item()
                flat[i] = orig - h
                f_minus = loss_value().item()
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                err = abs(analytic.ravel()[i] - numeric) / (abs(numeric) + 1e-8)
                assert err < 1e-3, f"{name}[{i}]: rel err {err:.2e}"


class TestAttentionExport:
    def test_pgm_grid_export(self, tmp_path):
        model = MotionNetwork(ModelConfig.toy(), seed=9)
        rng = np.random.default_rng(28)
        frames = rng.uniform(0, 1, (4, 64, 64))
        _, scores = model.infer_scan(frames)
        assert scores.shape == (3, 16)
        assert np.all(np.abs(scores) <= 1.0 + 1e-12)
        paths = export_attention_scores(scores, tmp_path)
        assert len(paths) == 3
        # a sqrt(n_blocks) square grid of each step's scores
        for path, row in zip(paths, scores):
            np.testing.assert_array_equal(
                pgm16_pixels(path, 4, 4),
                np.round((row.reshape(4, 4) + 1.0) / 2.0 * 65535.0))

    def test_chunked_scores_equal_one_pass(self):
        # 39 steps run as chunks of 16, 16 and 7 steps
        model = MotionNetwork(ModelConfig.toy(), seed=9)
        rng = np.random.default_rng(29)
        frames = rng.uniform(0, 1, (40, 64, 64))
        _, scores = model.infer_scan(frames)
        with T.no_grad():
            out = model.forward_window(frames[None])
        assert scores.shape == (39, 16)
        np.testing.assert_allclose(scores, out["attention_scores"].data[0],
                                   rtol=0, atol=1e-12)


class TestModelCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        model = MotionNetwork(ModelConfig.toy(), seed=11)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        loaded, extra, config = load_model(path)
        assert loaded.config == model.config
        assert config == model.config.to_text_dict()
        rng = np.random.default_rng(30)
        frames = rng.uniform(0, 1, (1, 3, 64, 64))
        np.testing.assert_array_equal(
            model.forward_window(frames)["fused"].data,
            loaded.forward_window(frames)["fused"].data,
        )

    def test_loads_checkpoints_with_retired_config_keys(self, tmp_path):
        # older checkpoints also carry scale, seq_len, fusion, corr_grid,
        # block_extent and use_gla, which the model config no longer has,
        # and the fixed geometry corr_roi, corr_patch and mlp_reduction;
        # loading ignores the first six and checks the last three
        model = MotionNetwork(ModelConfig.toy(), seed=12)
        path = tmp_path / "old.ckpt"
        retired = {"scale": "toy", "seq_len": "8", "fusion": "mean",
                   "corr_grid": "8", "block_extent": "4", "use_gla": "1",
                   "corr_roi": "9", "corr_patch": "5", "mlp_reduction": "16"}
        save_checkpoint(path, model.state_arrays(),
                        {**model.config.to_text_dict(), **retired})
        loaded, _, config = load_model(path)
        assert {key: config[key] for key in retired} == retired
        assert loaded.config == model.config
        rng = np.random.default_rng(31)
        frames = rng.uniform(0, 1, (1, 4, 64, 64))
        for key in ("fused", "global6", "local6"):
            np.testing.assert_array_equal(
                model.forward_window(frames)[key].data,
                loaded.forward_window(frames)[key].data,
            )

    @pytest.mark.parametrize("retired, message", [
        ({"corr_roi": "11", "corr_patch": "7"},
         "checkpoint records corr_roi=11, but the network fixes corr_roi at 9"),
        ({"corr_roi": "9", "corr_patch": "3"},
         "checkpoint records corr_patch=3, but the network fixes corr_patch at 5"),
        ({"mlp_reduction": "8"},
         "checkpoint records mlp_reduction=8, but the network fixes "
         "mlp_reduction at 16"),
        ({"encoder_channels": "4,8,16,32"},
         "checkpoint records encoder_channels=4,8,16,32, but the network "
         "fixes encoder_channels at 8,16,32,64"),
        ({"lstm_hidden": "16"},
         "checkpoint records lstm_hidden=16, but the network fixes "
         "lstm_hidden at 32"),
        ({"frame_extent": "32", "downsample": "2,2,2,2"},
         "checkpoint records downsample=2,2,2,2, but the network fixes "
         "downsample at 2,2,1,2"),
    ], ids=["roi", "patch", "reduction", "channels", "lstm", "chain"])
    def test_retired_geometry_off_the_constants_fails_to_load(
            self, tmp_path, retired, message):
        # 11px RoIs with 7px patches give the 9/5 geometry's 5x5
        # displacements and parameter shapes, so only the check stops them;
        # a 32px checkpoint recording the chain (2, 2, 2, 2) fails on its
        # chain before any parameter is read
        model = MotionNetwork(ModelConfig.toy(), seed=12)
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, model.state_arrays(),
                        {**model.config.to_text_dict(), **retired})
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == message

    def test_plain_pooling_checkpoint_fails_to_load(self, tmp_path):
        # the retired plain-pooling head stored attention.local_proj.* in
        # place of the attention block's parameters
        model = MotionNetwork(ModelConfig.toy(), seed=12)
        arrays = {name: value for name, value in model.state_arrays().items()
                  if not name.startswith("attention.")}
        arrays["attention.local_proj.weight"] = np.zeros((64, 16, 1, 1))
        arrays["attention.local_proj.bias"] = np.zeros(64)
        path = tmp_path / "plain.ckpt"
        save_checkpoint(path, arrays,
                        {**model.config.to_text_dict(), "use_gla": "0"})
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(
            f"{path}: checkpoint is missing parameter 'attention.")

    def test_toy_config_text_is_the_parents(self):
        # checkpoints of the 64px model stay byte-identical to those
        # written when all four were settable fields
        assert ModelConfig.toy().to_text_dict() == {
            "downsample": "2,2,2,2", "encoder_channels": "8,16,32,64",
            "frame_extent": "64", "lstm_hidden": "32"}

    def test_128px_round_trip(self, tmp_path):
        model = MotionNetwork(ModelConfig(frame_extent=128), seed=13)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        loaded, _, config = load_model(path)
        assert loaded.config == model.config
        assert config["downsample"] == "2,2,4,2"
        frames = np.random.default_rng(32).uniform(0, 1, (1, 3, 128, 128))
        with T.no_grad():
            want = model.forward_window(frames)
            got = loaded.forward_window(frames)
        for key in ("fused", "attention_scores"):
            np.testing.assert_array_equal(got[key].data, want[key].data)
        assert got["attention_scores"].shape == (1, 2, 64)
