"""Loss-term tests: hand-computed values, invariants, gradient behavior."""

from collections import Counter

import numpy as np
import pytest

from fus3d.losses import (
    LossWeights,
    correlation_loss,
    mmae,
    select_triplets,
    total_loss,
    triplet_loss,
)
from fus3d.tensor import Tensor, backward


class TestMmae:
    def test_equal_inputs_give_zero(self):
        rng = np.random.default_rng(0)
        motions = rng.standard_normal((5, 6))
        assert mmae(motions, motions, 0.1).item() == 0.0

    def test_hand_case(self):
        # one step, unit error on one component, eps 0.1:
        # (1/6) * (1 + 0.1) * 1 = 0.1833...
        true = np.array([[1.0, 0, 0, 0, 0, 0]])
        pred = np.zeros((1, 6))
        value = mmae(true, pred, epsilon=0.1).item()
        assert value == pytest.approx(11.0 / 60.0, abs=1e-12)

    def test_weight_grows_with_true_motion(self):
        # doubling the true motion (pred fixed at zero) more than doubles
        # the loss because the weight grows with the motion magnitude
        small = mmae(np.array([[0.5, 0, 0, 0, 0, 0.0]]), np.zeros((1, 6)),
                     0.1).item()
        large = mmae(np.array([[1.0, 0, 0, 0, 0, 0.0]]), np.zeros((1, 6)),
                     0.1).item()
        assert large > 2.0 * small

    def test_positive_unless_equal(self):
        rng = np.random.default_rng(1)
        true = rng.standard_normal((4, 6))
        pred = true.copy()
        pred[2, 3] += 1e-3
        assert mmae(true, pred, 0.1).item() > 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            mmae(np.zeros((3, 6)), np.zeros((2, 6)), 0.1)

    def test_gradient_flows_to_predictions(self):
        rng = np.random.default_rng(2)
        pred = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        (grad,) = backward(mmae(rng.standard_normal((3, 6)), pred, 0.1), [pred])
        assert grad is not None and np.abs(grad).max() > 0


class TestCorrelationLoss:
    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(3)
        true = rng.standard_normal((8, 6))
        for c in (0.1, 1.0, 37.5):
            assert correlation_loss(true, c * true, Counter()).item() < 1e-12

    def test_antiparallel_is_two(self):
        rng = np.random.default_rng(4)
        true = rng.standard_normal((8, 6))
        assert correlation_loss(true, -true, Counter()).item() == pytest.approx(
            2.0, abs=1e-12)

    def test_matches_hand_rolled_cosine(self):
        rng = np.random.default_rng(5)
        true = rng.standard_normal((8, 6))
        pred = rng.standard_normal((8, 6))
        total = 0.0
        for k in range(6):
            a, b = true[:, k], pred[:, k]
            total += 1.0 - float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert correlation_loss(true, pred, Counter()).item() == pytest.approx(
            total / 6.0, abs=1e-12
        )

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = correlation_loss(
                rng.standard_normal((6, 6)), rng.standard_normal((6, 6)), Counter()
            ).item()
            assert 0.0 <= v <= 2.0

    def test_zero_norm_series_contributes_one(self):
        true = np.zeros((4, 6))
        true[:, 0] = [1, 2, 3, 4]  # only one active component
        pred = true.copy()
        degenerate = Counter()
        value = correlation_loss(true, pred, degenerate).item()
        # five dead components contribute 1 each, the live one 0
        assert value == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert degenerate == Counter({(1, 2, 3, 4, 5): 1})

    def test_zero_norm_series_counted_once_per_window(self, caplog):
        rng = np.random.default_rng(13)
        true = rng.standard_normal((3, 4, 6))
        true[0, :, 4] = 0.0
        true[2, :, 1:3] = 0.0
        degenerate = Counter()
        with caplog.at_level("WARNING"):
            correlation_loss(true, true, degenerate)
        assert degenerate == Counter({(4,): 1, (1, 2): 1})
        assert caplog.text == ""
        correlation_loss(true, true, degenerate)
        assert degenerate == Counter({(4,): 2, (1, 2): 2})

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            correlation_loss(np.zeros((1, 6)), np.zeros((1, 6)), Counter())


def _hinge(rows, triple=(0, 1, 2), requires_grad=False):
    """Triplet loss of one (anchor, positive, negative) triple over the
    rows of a one-series embedding matrix."""
    emb = Tensor(np.asarray(rows, dtype=float), requires_grad=requires_grad)
    return emb, triplet_loss(emb, [triple])


class TestTripletLoss:
    def test_positive_equal_to_anchor(self):
        rng = np.random.default_rng(7)
        a, n = rng.standard_normal(10), rng.standard_normal(10)
        assert _hinge([a, n], triple=(0, 0, 1))[1].item() == 0.0

    def test_hinge_arithmetic(self):
        # dist(a, p) = 3, dist(a, n) = 1
        assert _hinge([[0.0], [3.0], [1.0]])[1].item() == pytest.approx(2.0)

    def test_inactive_region_gradient_exactly_zero(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(6)
        emb, loss = _hinge([a, a + 0.01 * rng.standard_normal(6), a + 10.0],
                           requires_grad=True)
        assert loss.item() == 0.0
        np.testing.assert_array_equal(backward(loss, [emb])[0],
                                      np.zeros((3, 6)))

    def test_mean_over_triples(self):
        emb = Tensor(np.array([[0.0], [3.0], [1.0]]))
        # hinges 2 (positive 3 away, negative 1) and 0 (positive 1 away,
        # negative 2 away): the loss is their mean
        assert triplet_loss(emb, [(0, 1, 2), (2, 0, 1)]).item() == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            triplet_loss(Tensor(np.zeros((2, 4, 3))), np.zeros((3, 4, 3), dtype=int))
        with pytest.raises(ValueError, match="shapes differ"):
            triplet_loss(Tensor(np.zeros((4, 3))), np.zeros((4, 2), dtype=int))

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            emb = Tensor(rng.standard_normal((2, 5, 5)))
            triples = rng.integers(0, 5, size=(2, 5, 3))
            assert triplet_loss(emb, triples).item() >= 0.0


class TestSelectTriplets:
    def test_constructed_case(self):
        v = np.array([1.0, 0, 0, 0, 0, 0])
        triples = select_triplets(np.stack([v, v, -v]))
        assert triples.shape == (3, 3)
        assert tuple(triples[0]) == (0, 1, 2)

    def test_ties_break_to_lowest_index(self):
        v = np.array([0, 1.0, 0, 0, 0, 0])
        # indices 1 and 2 tie as positives for anchor 0; 3 and 4 tie as negatives
        motions = np.stack([v, v, v, -v, -v])
        a, p, n = select_triplets(motions)[0]
        assert (p, n) == (1, 3)

    def test_random_batches_positive_at_least_negative(self):
        rng = np.random.default_rng(10)
        motions = rng.standard_normal((20, 9, 6))
        triples = select_triplets(motions)
        assert triples.shape == (20, 9, 3)
        for labels, rows in zip(motions, triples):
            norms = np.linalg.norm(labels, axis=1, keepdims=True)
            cos = (labels @ labels.T) / (norms * norms.T)
            for a, p, n in rows:
                assert p != a and n != a
                assert cos[a, p] >= cos[a, n]

    def test_series_are_selected_independently(self):
        rng = np.random.default_rng(11)
        motions = rng.standard_normal((3, 2, 7, 6))
        triples = select_triplets(motions)
        for idx in np.ndindex(3, 2):
            np.testing.assert_array_equal(triples[idx], select_triplets(motions[idx]))

    def test_needs_three_steps(self):
        with pytest.raises(ValueError, match="at least 3"):
            select_triplets(np.zeros((2, 6)))
        with pytest.raises(ValueError, match="at least 3"):
            select_triplets(np.zeros((4, 2, 6)))


class TestBatchedTerms:
    """Each term over a batch equals the mean of its per-series values,
    and so does its gradient."""

    @staticmethod
    def _value_and_grad(term, batch):
        pred = Tensor(batch.copy(), requires_grad=True)
        loss = term(pred)
        return loss.item(), backward(loss, [pred])[0]

    def test_triplet_matches_a_loop_over_anchors(self):
        rng = np.random.default_rng(14)
        truth = rng.standard_normal((4, 9, 6))
        emb = rng.standard_normal((4, 9, 5))
        triples = select_triplets(truth)
        hinges = [
            max(0.0, np.linalg.norm(e[a] - e[p]) - np.linalg.norm(e[a] - e[n]))
            for e, rows in zip(emb, triples) for a, p, n in rows
        ]
        assert len(hinges) == 36
        assert triplet_loss(Tensor(emb), triples).item() == pytest.approx(
            np.mean(hinges), rel=1e-12)

    @pytest.mark.parametrize("name", ["mmae", "correlation", "triplet"])
    def test_batch_equals_mean_of_windows(self, name):
        rng = np.random.default_rng(12)
        for b, n in ((4, 9), (3, 5), (1, 4)):
            truth = rng.standard_normal((b, n, 6))
            features = rng.standard_normal((b, n, 6))
            if name == "mmae":
                def term(pred, labels):
                    return mmae(labels, pred, 0.1)
            elif name == "correlation":
                def term(pred, labels):
                    return correlation_loss(labels, pred, Counter())
            else:
                def term(pred, labels):
                    return triplet_loss(pred, select_triplets(labels))
            value, grad = self._value_and_grad(lambda p: term(p, truth), features)
            per_window = [
                self._value_and_grad(lambda p: term(p, truth[k]), features[k])
                for k in range(b)
            ]
            expected = np.mean([v for v, _ in per_window])
            assert value == pytest.approx(expected, rel=1e-14, abs=0.0)
            # each window's share of the batch gradient is 1/b of its own
            np.testing.assert_allclose(
                grad, np.stack([g for _, g in per_window]) / b, rtol=1e-14, atol=0.0)


class TestTotalLoss:
    def test_mmae_only(self):
        weights = LossWeights(1.0, 0.0, 0.0)
        parts = (Tensor(0.7), Tensor(1.3), Tensor(2.9))
        assert total_loss(parts, weights).item() == pytest.approx(0.7)

    def test_all_zero_components(self):
        parts = (Tensor(0.0), Tensor(0.0), Tensor(0.0))
        assert total_loss(parts, LossWeights()).item() == 0.0

    def test_weighted_sum_arithmetic(self):
        weights = LossWeights(1.0, 0.5, 0.1)
        parts = (Tensor(0.25), Tensor(1.5), Tensor(3.0))
        expected = 1.0 * 0.25 + 0.5 * 1.5 + 0.1 * 3.0
        assert total_loss(parts, weights).item() == pytest.approx(expected, abs=1e-15)

    def test_linear_in_each_component(self):
        weights = LossWeights(0.3, 0.6, 0.9)
        base = total_loss((Tensor(1.0), Tensor(0.0), Tensor(0.0)), weights).item()
        doubled = total_loss((Tensor(2.0), Tensor(0.0), Tensor(0.0)), weights).item()
        assert doubled == pytest.approx(2 * base)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            LossWeights(-1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["alpha_mmae", "alpha_corr",
                                       "alpha_triplet", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            LossWeights(**{field: value})
