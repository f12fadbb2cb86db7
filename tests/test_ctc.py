import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from helpers import ctc_single
from snrtrain.ctc import LabelAlphabet, best_path_decode, ctc_loss_and_grad
from snrtrain.errors import DataError


def log_softmax(logits):
    logits = np.asarray(logits, dtype=np.float64)
    return logits - np.log(np.sum(np.exp(logits), axis=1, keepdims=True))


def random_log_probs(rng, num_frames, num_outputs, scale=2.0):
    return log_softmax(rng.normal(0.0, scale, size=(num_frames, num_outputs)))


class TestAlphabet:
    def test_blank_is_last(self):
        alphabet = LabelAlphabet(("a", "b", "c"))
        # the symbols take indices 0-2, leaving the last output, 3, to blank
        assert alphabet.encode(("a", "b", "c")) == [0, 1, 2]
        assert alphabet.num_outputs == 4

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(DataError):
            LabelAlphabet(("a", "a"))

    def test_encode_decode(self):
        alphabet = LabelAlphabet(("a", "b"))
        assert alphabet.encode(["b", "a"]) == [1, 0]
        assert alphabet.decode([1, 0]) == ["b", "a"]
        with pytest.raises(DataError):
            alphabet.encode(["z"])


class TestLoss:
    def test_single_frame_single_symbol(self):
        lp = np.log(np.array([[0.6, 0.4]]))
        assert ctc_single(lp, [0])[0] == pytest.approx(0.5108256237659907, abs=1e-12)

    def test_two_frame_enumeration(self):
        # alignments for target "a" over 2 frames: aa, a-, -a
        p = np.array([[0.7, 0.3], [0.2, 0.8]])
        lp = np.log(p)
        expected = -math.log(p[0, 0] * p[1, 0] + p[0, 0] * p[1, 1]
                             + p[0, 1] * p[1, 0])
        assert ctc_single(lp, [0])[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            num_frames = int(rng.integers(1, 7))
            num_outputs = int(rng.integers(2, 5))
            length = int(rng.integers(0, 4))
            labels = [int(v) for v in rng.integers(0, num_outputs - 1, size=length)]
            lp = random_log_probs(rng, num_frames, num_outputs)
            ours, _ = ctc_single(lp, labels)
            reference = helpers.brute_force_ctc_loss(lp, labels)
            if math.isinf(reference):
                assert math.isinf(ours)
            else:
                assert ours == pytest.approx(reference, abs=1e-9)

    def test_infeasible_flagged(self):
        lp = random_log_probs(np.random.default_rng(0), 2, 3)
        loss, grad = ctc_single(lp, [0, 0])  # needs >= 3 frames (repeat)
        assert math.isinf(loss) and np.isnan(grad).all()
        lp = random_log_probs(np.random.default_rng(0), 3, 3)
        assert math.isfinite(ctc_single(lp, [0, 0])[0])

    def test_total_probability_over_all_targets(self):
        rng = np.random.default_rng(5)
        num_outputs = 3
        for num_frames in (1, 2, 3, 4):
            lp = random_log_probs(rng, num_frames, num_outputs)
            total = 0.0
            for length in range(num_frames + 1):
                for labels in itertools.product(range(num_outputs - 1),
                                                repeat=length):
                    loss, _ = ctc_single(lp, list(labels))
                    if math.isfinite(loss):
                        total += math.exp(-loss)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_permutation_covariance_exact(self):
        rng = np.random.default_rng(11)
        lp = random_log_probs(rng, 5, 4)
        labels = [0, 2, 1]
        perm = [2, 0, 1]  # symbol i renamed to perm[i]; blank stays last
        column_order = np.empty(4, dtype=int)
        for old, new in enumerate(perm):
            column_order[new] = old
        column_order[3] = 3
        permuted = lp[:, column_order]
        relabeled = [perm[y] for y in labels]
        assert ctc_single(permuted, relabeled)[0] == ctc_single(lp, labels)[0]

    def test_unnormalized_rows_rejected(self):
        nan_in_valid_frame = np.full((3, 3), -np.log(3.0))
        nan_in_valid_frame[1, 0] = np.nan
        for log_probs in (np.zeros((2, 3)), nan_in_valid_frame):
            with pytest.raises(DataError):
                ctc_single(log_probs, [0])

    def test_tiny_probabilities_stay_finite(self):
        p = np.full((6, 3), 1e-30)
        p[:, 2] = 1.0 - 2e-30
        lp = np.log(p) - np.log(np.sum(p, axis=1, keepdims=True))
        loss, grad = ctc_single(lp, [0, 1])
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grad))


class TestGrad:
    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(2)
        lp = random_log_probs(rng, 7, 5)
        _, grad = ctc_single(lp, [0, 3, 1])
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-9)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        step = 1e-5
        worst = 0.0
        for _ in range(12):
            num_frames, num_outputs = 5, 4
            labels = [int(v) for v in rng.integers(0, num_outputs - 1, size=2)]
            logits = rng.normal(0.0, 1.0, size=(num_frames, num_outputs))
            _, grad = ctc_single(log_softmax(logits), labels)
            for t in range(num_frames):
                for k in range(num_outputs):
                    up = logits.copy()
                    up[t, k] += step
                    down = logits.copy()
                    down[t, k] -= step
                    fd = (ctc_single(log_softmax(up), labels)[0]
                          - ctc_single(log_softmax(down), labels)[0]) / (2 * step)
                    rel = abs(fd - grad[t, k]) / max(abs(fd), abs(grad[t, k]), 1e-6)
                    worst = max(worst, rel)
        assert worst <= 1e-4

    def test_posterior_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            num_frames = int(rng.integers(1, 6))
            num_outputs = int(rng.integers(2, 5))
            length = int(rng.integers(0, 3))
            labels = [int(v) for v in rng.integers(0, num_outputs - 1, size=length)]
            lp = random_log_probs(rng, num_frames, num_outputs)
            if math.isinf(helpers.brute_force_ctc_loss(lp, labels)):
                continue
            gamma = np.exp(lp) - ctc_single(lp, labels)[1]
            reference = helpers.brute_force_ctc_posterior(lp, labels)
            np.testing.assert_allclose(gamma, reference, atol=1e-9)

    def test_gradient_vanishes_at_posterior_fixed_point(self):
        # setting the model output to its own alignment posterior shrinks the
        # gradient; iterating converges toward a fixed point with zero grad
        rng = np.random.default_rng(4)
        lp = random_log_probs(rng, 4, 3)
        labels = [0, 1]
        before = float(np.abs(ctc_single(lp, labels)[1]).max())
        for _ in range(200):
            gamma = np.exp(lp) - ctc_single(lp, labels)[1]
            lp = np.log(np.maximum(gamma, 1e-300))
            lp -= np.logaddexp.reduce(lp, axis=1, keepdims=True)
        after = float(np.abs(ctc_single(lp, labels)[1]).max())
        assert after < before
        assert after < 1e-3

    def test_infeasible_gives_no_gradient(self):
        lp = random_log_probs(np.random.default_rng(0), 1, 3)
        loss, grad = ctc_single(lp, [0, 1])
        assert loss == math.inf and np.isnan(grad).all()

    def test_uniform_rows_symmetric_target(self):
        lp = log_softmax(np.zeros((4, 3)))
        _, g01 = ctc_single(lp, [0, 1])
        _, g10 = ctc_single(lp, [1, 0])
        np.testing.assert_allclose(g01[:, [1, 0, 2]], g10, atol=1e-12)


def ragged_batch(rng, batch, num_outputs, max_t):
    """Padded (T, B, K) log-probs whose padded frames hold arbitrary,
    unnormalised values (nan and +/-inf among them), with ragged lengths and
    random label lists."""
    lengths = rng.integers(1, max_t + 1, size=batch)
    lengths[rng.integers(batch)] = max_t
    log_probs = rng.normal(0.0, 30.0, size=(max_t, batch, num_outputs))
    log_probs.flat[rng.integers(log_probs.size, size=3)] = [np.nan, np.inf, -np.inf]
    for i, n in enumerate(lengths):
        log_probs[:n, i] = random_log_probs(rng, n, num_outputs)
    labels = [[int(v) for v in rng.integers(0, num_outputs - 1,
                                            size=int(rng.integers(0, 4)))]
              for _ in range(batch)]
    labels[0] = []
    labels[-1] = [0, 0]
    if batch >= 3:
        # one label per frame plus one cannot align: infeasible mid-batch
        middle = batch // 2
        labels[middle] = [k % (num_outputs - 1)
                          for k in range(int(lengths[middle]) + 1)]
    return log_probs, lengths, labels


class TestBatch:
    def test_items_equal_single_calls_and_enumeration(self):
        rng = np.random.default_rng(17)
        for batch in range(1, 17):
            num_outputs = int(rng.integers(2, 5))
            max_t = int(rng.integers(1, 7))
            log_probs, lengths, labels = ragged_batch(rng, batch, num_outputs,
                                                      max_t)
            losses, grads = ctc_loss_and_grad(log_probs, lengths, labels)
            assert losses.shape == (batch,) and grads.shape == log_probs.shape
            for i, (n, y) in enumerate(zip(lengths, labels)):
                alone = log_probs[:n, i]
                one_loss, one_grad = ctc_loss_and_grad(alone[:, None], [n], [y])
                assert losses[i] == one_loss[0]
                reference = helpers.brute_force_ctc_loss(alone, y)
                if math.isinf(reference):
                    assert math.isinf(losses[i])
                    assert np.isnan(grads[:, i]).all() and np.isnan(one_grad).all()
                    continue
                assert np.array_equal(grads[:n, i], one_grad[:, 0])
                assert losses[i] == pytest.approx(reference, abs=1e-9)
                gamma = helpers.brute_force_ctc_posterior(alone, y)
                np.testing.assert_allclose(grads[:n, i], np.exp(alone) - gamma,
                                           atol=1e-9)

    def test_long_items_equal_scalar_loops(self):
        rng = np.random.default_rng(19)
        for batch in (2, 7, 16):
            log_probs, lengths, labels = ragged_batch(rng, batch, 6, 40)
            losses, grads = ctc_loss_and_grad(log_probs, lengths, labels)
            for i, (n, y) in enumerate(zip(lengths, labels)):
                loss, grad = helpers.loop_ctc_loss_and_grad(log_probs[:n, i], y)
                assert losses[i] == loss
                assert np.isnan(grads[:, i]).all() == (grad is None)
                if grad is not None:
                    assert np.array_equal(grads[:n, i], grad)

    def test_padded_frames_give_zero_rows_and_infeasible_items_nan(self):
        rng = np.random.default_rng(23)
        infeasible = 0
        for batch in (1, 3, 8, 16):
            log_probs, lengths, labels = ragged_batch(rng, batch, 5, 30)
            # exp(1e3) overflows: reading a padded value would warn
            padding = np.arange(len(log_probs))[:, None] >= lengths
            log_probs[padding] = np.resize([np.nan, np.inf, -np.inf, 1e3],
                                           log_probs[padding].shape)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                losses, grads = ctc_loss_and_grad(log_probs, lengths, labels)
            assert grads.shape == log_probs.shape
            for i, (n, y) in enumerate(zip(lengths, labels)):
                loss, grad = helpers.loop_ctc_loss_and_grad(log_probs[:n, i], y)
                assert losses[i] == loss
                if grad is None:
                    infeasible += 1
                    assert np.isnan(grads[:, i]).all()
                else:
                    assert np.array_equal(grads[:n, i], grad)
                    assert np.all(grads[n:, i] == 0.0)
        assert infeasible >= 3

    def test_normalisation_checked_on_valid_frames_only(self):
        rng = np.random.default_rng(31)
        lengths = [5, 2, 4, 3]
        log_probs = rng.normal(0.0, 30.0, size=(5, 4, 3))
        for i, n in enumerate(lengths):
            log_probs[:n, i] = random_log_probs(rng, n, 3)
        labels = [[0], [1], [0, 1], []]
        losses, _ = ctc_loss_and_grad(log_probs, lengths, labels)
        assert np.all(np.isfinite(losses))
        for item, frame in ((0, 0), (1, 1), (2, 3), (3, 2)):
            bad = log_probs.copy()
            bad[frame, item, 0] += 1e-3
            with pytest.raises(DataError, match="normalize"):
                ctc_loss_and_grad(bad, lengths, labels)

    def test_malformed_batch_rejected(self):
        lp = random_log_probs(np.random.default_rng(0), 3, 3)[:, None]
        for lengths, labels in (([0], [[0]]), ([4], [[0]]), ([3, 3], [[0]]),
                                ([3], [[0], [1]]), ([3], [[2]])):
            with pytest.raises(DataError):
                ctc_loss_and_grad(lp, lengths, labels)
        with pytest.raises(DataError):
            ctc_loss_and_grad(lp[:, 0], [3], [[0]])


class TestDecode:
    def test_collapse_rule(self):
        # argmax path: a a - b b  -> "ab"
        lp = np.log(np.array([
            [0.8, 0.1, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.1, 0.8],
            [0.1, 0.8, 0.1],
            [0.1, 0.8, 0.1],
        ]))
        assert best_path_decode(lp) == [0, 1]

    def test_all_blank_decodes_empty(self):
        lp = np.log(np.full((4, 3), [0.1, 0.1, 0.8]))
        assert best_path_decode(lp) == []

    def test_blank_separates_repeats(self):
        lp = np.log(np.array([
            [0.8, 0.1, 0.1],
            [0.1, 0.1, 0.8],
            [0.8, 0.1, 0.1],
        ]))
        assert best_path_decode(lp) == [0, 0]

    def test_ties_break_low_index(self):
        lp = log_softmax(np.zeros((3, 4)))
        assert best_path_decode(lp) == [0]

    @given(st.integers(0, 2_000))
    def test_matches_two_pass_oracle(self, seed):
        rng = np.random.default_rng(seed)
        lp = random_log_probs(rng, 8, 4)
        path = np.argmax(lp, axis=1)
        expected = list(helpers.collapse_two_pass(path.tolist(), 3))
        assert best_path_decode(lp) == expected
