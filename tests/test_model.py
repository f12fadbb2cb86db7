import math
import struct

import numpy as np
import pytest

from helpers import ctc_single
from snrtrain.ctc import ctc_loss_and_grad
from snrtrain.errors import DataError
from snrtrain.model import (ModelConfig, RecurrentCtcModel, adam_init,
                            adam_step, load_checkpoint)


def small_model(dropout=0.0, seed=1, outputs=5):
    return RecurrentCtcModel(ModelConfig(num_outputs=outputs, input_dim=7,
                                         hidden_size=6, dropout=dropout,
                                         init_seed=seed))


def forward(model, feats, **kwargs):
    return model.forward_batch([feats], **kwargs)[0][:, 0]


class TestForward:
    def test_zero_weights_give_uniform_rows(self):
        model = small_model()
        for k in model.params:
            model.params[k][...] = 0.0
        lp = forward(model, np.random.default_rng(0).normal(size=(4, 7)))
        np.testing.assert_allclose(lp, math.log(1.0 / 5.0), atol=1e-12)

    def test_rows_normalize_for_random_weights(self):
        model = small_model(seed=3)
        lp = forward(model, np.random.default_rng(1).normal(size=(9, 7)))
        np.testing.assert_allclose(np.logaddexp.reduce(lp, axis=1), 0.0,
                                   atol=1e-9)

    def test_batched_equals_single(self):
        model = small_model(seed=4)
        rng = np.random.default_rng(2)
        feats = [rng.normal(size=(n, 7)) for n in (5, 9, 3)]
        batched, _ = model.forward_batch(feats)
        for i, f in enumerate(feats):
            np.testing.assert_allclose(batched[: len(f), i], forward(model, f),
                                       atol=1e-12)

    def test_dropout_needs_rng_and_changes_output(self):
        model = small_model(dropout=0.4)
        feats = np.random.default_rng(5).normal(size=(6, 7))
        with pytest.raises(DataError):
            forward(model, feats, train=True)
        eval_out = forward(model, feats)
        train_out = forward(model, feats, train=True,
                            rng=np.random.default_rng(0))
        assert not np.allclose(eval_out, train_out)
        # eval mode ignores dropout entirely
        np.testing.assert_array_equal(eval_out, forward(model, feats))


class TestBackward:
    def test_end_to_end_gradient_check(self):
        model = small_model(seed=1)
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(9, 7))
        labels = [0, 2, 1]

        def loss_now():
            return ctc_single(forward(model, feats), labels)[0]

        outputs, cache = model.forward_batch([feats])
        grads = model.backward_batch(
            cache, ctc_single(outputs[:, 0], labels)[1][:, None])
        step = 1e-5
        worst = 0.0
        for name in model.params:
            flat = model.params[name].reshape(-1)
            for _ in range(10):
                i = int(rng.integers(0, flat.size))
                keep = flat[i]
                flat[i] = keep + step
                up = loss_now()
                flat[i] = keep - step
                down = loss_now()
                flat[i] = keep
                fd = (up - down) / (2 * step)
                an = float(grads[name].reshape(-1)[i])
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
        assert worst <= 1e-3

    def test_batched_gradients_add_up(self):
        model = small_model(seed=2)
        rng = np.random.default_rng(3)
        feats = [rng.normal(size=(6, 7)), rng.normal(size=(4, 7))]
        targets = [[0, 1], [2]]
        separate = {}
        for f, y in zip(feats, targets):
            outs, cache = model.forward_batch([f])
            grads = model.backward_batch(cache, ctc_single(outs[:, 0], y)[1][:, None])
            for k, v in grads.items():
                separate[k] = separate.get(k, 0.0) + v
        outs, cache = model.forward_batch(feats)
        _, dlogits = ctc_loss_and_grad(outs, [len(f) for f in feats], targets)
        together = model.backward_batch(cache, dlogits)
        for k in together:
            np.testing.assert_allclose(together[k], separate[k], atol=1e-12)

    def test_float32_features_equal_float64_copies(self):
        # the epoch's features are float32; padding converts them exactly
        model = small_model(dropout=0.3, seed=6)
        rng = np.random.default_rng(8)
        feats = [rng.normal(size=(n, 7)).astype(np.float32) for n in (7, 3, 5)]
        targets = [[0, 1], [2], [3, 3]]
        steps = []
        for batch in (feats, [f.astype(np.float64) for f in feats]):
            log_probs, cache = model.forward_batch(
                batch, train=True, rng=np.random.default_rng(9))
            losses, dlogits = ctc_loss_and_grad(
                log_probs, [len(f) for f in batch], targets)
            steps.append((log_probs, losses, model.backward_batch(cache, dlogits)))
        (lp32, loss32, grads32), (lp64, loss64, grads64) = steps
        assert np.array_equal(lp32, lp64) and np.array_equal(loss32, loss64)
        assert np.all(np.isfinite(loss32))
        for k in grads64:
            assert np.array_equal(grads32[k], grads64[k])


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_magnitude_is_learning_rate(self):
        params = {"w": np.zeros(3)}
        state = adam_init(params)
        adam_step(params, {"w": np.full(3, 0.7)}, state, learning_rate=1e-3)
        np.testing.assert_allclose(np.abs(params["w"]), 1e-3, rtol=1e-6)

    def test_quadratic_bowl_converges(self):
        params = {"x": np.array([5.0, -3.0, 2.0])}
        state = adam_init(params)
        for _ in range(2000):
            adam_step(params, {"x": 2.0 * params["x"]}, state,
                      learning_rate=1e-2)
        assert float(np.abs(params["x"]).max()) < 1e-3

    def test_deterministic(self):
        def run():
            params = {"w": np.array([0.5])}
            state = adam_init(params)
            for g in (0.3, -0.2, 0.8):
                adam_step(params, {"w": np.array([g])}, state)
            return params["w"][0]

        assert run() == run()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = small_model(seed=6)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, epoch=17)
        loaded, epoch = load_checkpoint(path, dropout=0.0)
        assert epoch == 17
        assert loaded.config.hidden_size == model.config.hidden_size
        for k in model.params:
            np.testing.assert_allclose(loaded.params[k], model.params[k],
                                       atol=1e-7)

    def test_param_hash_tracks_values(self):
        model = small_model(seed=7)
        before = model.param_hash()
        assert before == small_model(seed=7).param_hash()
        model.params["w_in"][0, 0] += 1e-9
        assert model.param_hash() != before

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"nope")
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("outputs,count,message", [
        (2**31 - 1, None, "param_count 119, but"),
        (5, 10**9, "param_count 1000000000, but"),
        # a count that agrees with the huge dims: the payload is too short
        (2**31 - 1, (7 + 6 + 1) * 6 + 7 * (2**31 - 1), "payload of 476 bytes"),
    ])
    def test_header_counts_checked_before_allocating(self, tmp_path, outputs,
                                                     count, message):
        path = tmp_path / "huge.ckpt"
        small_model(seed=6).save_checkpoint(path, epoch=3)
        raw = bytearray(path.read_bytes())
        # after the magic: version u16, input_dim u32, hidden u32, outputs u32,
        # init_seed u64, epoch u32, param_count u64
        struct.pack_into("<I", raw, 14, outputs)
        if count is not None:
            struct.pack_into("<Q", raw, 30, count)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"huge.ckpt: {message}"):
            load_checkpoint(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        small_model(seed=6).save_checkpoint(path, epoch=3)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(DataError, match="short.ckpt: truncated checkpoint header"):
            load_checkpoint(path)
