import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import mel_filter_centers_hz
from snrtrain.audio import Waveform
from snrtrain.errors import DataError
from snrtrain.features import (ENERGY_FLOOR, FEATURE_DIM, NUM_STATIC,
                               NormStats, append_deltas,
                               featurize_waveform, fit_norm_stats,
                               frame_signal, inject_gaussian,
                               log_mel_energies,
                               normalize, normalize_per_utterance, num_frames,
                               read_feature_file, read_norm_stats,
                               write_feature_file, write_norm_stats)


def tone(freq, n=4000, rate=16000, amplitude=0.4):
    t = np.arange(n) / rate
    return Waveform(amplitude * np.sin(2 * np.pi * freq * t), rate)


class TestFraming:
    def test_exactly_one_frame(self):
        frames = frame_signal(Waveform(np.ones(400), 16000))
        assert frames.shape == (1, 400)

    def test_two_frames_at_560(self):
        frames = frame_signal(Waveform(np.ones(560), 16000))
        assert frames.shape[0] == 2

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            frame_signal(Waveform(np.ones(399), 16000))

    @given(st.integers(400, 50_000))
    def test_count_matches_closed_form(self, n):
        frames = frame_signal(Waveform(np.zeros(n), 16000))
        assert frames.shape[0] == 1 + (n - 400) // 160
        assert frames.shape[0] == num_frames(n, 16000)


class TestLogMel:
    def test_zero_frame_hits_floor(self):
        out = log_mel_energies(np.zeros((3, 400)), 16000)
        np.testing.assert_allclose(out, math.log(ENERGY_FLOOR), atol=1e-12)

    def test_pure_tone_dominates_its_filter(self):
        centers = mel_filter_centers_hz(16000)
        for j in (5, 15, 30):
            frames = frame_signal(tone(centers[j]))
            out = log_mel_energies(frames, 16000)
            mel_cols = out[:, :40].mean(axis=0)
            assert mel_cols[j] > mel_cols[j - 1]
            assert mel_cols[j] > mel_cols[j + 1]
            assert np.argmax(mel_cols) in (j - 1, j, j + 1)

    def test_amplitude_doubling_raises_energy_by_log4(self):
        quiet = log_mel_energies(frame_signal(tone(500.0, amplitude=0.2)), 16000)
        loud = log_mel_energies(frame_signal(tone(500.0, amplitude=0.4)), 16000)
        np.testing.assert_allclose(loud[:, 40] - quiet[:, 40], math.log(4.0),
                                   atol=1e-9)


class TestDeltas:
    def test_constant_input_gives_zero_deltas(self):
        static = np.tile(np.linspace(-1, 1, NUM_STATIC), (7, 1))
        out = append_deltas(static)
        assert out.shape == (7, FEATURE_DIM)
        np.testing.assert_allclose(out[:, NUM_STATIC:], 0.0, atol=1e-15)

    def test_linear_ramp_interior_delta_equals_slope(self):
        slope = 0.37
        static = slope * np.arange(9)[:, None] * np.ones((1, NUM_STATIC))
        out = append_deltas(static)
        # frames 2..6 are unaffected by edge replication
        np.testing.assert_allclose(out[2:-2, NUM_STATIC:2 * NUM_STATIC], slope,
                                   atol=1e-12)
        np.testing.assert_allclose(out[4, 2 * NUM_STATIC:], 0.0, atol=1e-12)

    def test_single_frame_deltas_are_zero(self):
        out = append_deltas(np.ones((1, NUM_STATIC)))
        np.testing.assert_allclose(out[:, NUM_STATIC:], 0.0, atol=1e-15)

    @given(st.integers(0, 1000))
    def test_delta_operator_is_linear(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, NUM_STATIC))
        y = rng.normal(size=(6, NUM_STATIC))
        a, b = 1.7, -0.3
        combined = append_deltas(a * x + b * y)
        separate = a * append_deltas(x) + b * append_deltas(y)
        np.testing.assert_allclose(combined, separate, atol=1e-9)

    def test_wrong_width_rejected(self):
        with pytest.raises(DataError):
            append_deltas(np.ones((4, 40)))


class TestNormStats:
    def test_two_value_population_convention(self):
        a = np.zeros((1, FEATURE_DIM))
        b = np.full((1, FEATURE_DIM), 2.0)
        stats = fit_norm_stats([a, b])
        np.testing.assert_allclose(stats.mean, 1.0)
        np.testing.assert_allclose(stats.std, 1.0)

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(17)
        mats = [rng.normal(2.0, 3.0, size=(rng.integers(5, 30), FEATURE_DIM))
                for _ in range(6)]
        stats = fit_norm_stats(mats)
        stacked = np.concatenate(mats, axis=0)
        for dim in (0, 40, 41, 122):
            column = stacked[:, dim]
            mean = math.fsum(column) / len(column)
            var = math.fsum((v - mean) ** 2 for v in column) / len(column)
            assert stats.mean[dim] == pytest.approx(mean, abs=1e-9)
            assert stats.std[dim] == pytest.approx(math.sqrt(var), abs=1e-9)

    def test_refit_of_normalized_data_is_standard(self):
        rng = np.random.default_rng(3)
        mats = [rng.normal(size=(50, FEATURE_DIM)) for _ in range(3)]
        stats = fit_norm_stats(mats)
        normalized = [normalize(m, stats) for m in mats]
        refit = fit_norm_stats(normalized)
        np.testing.assert_allclose(refit.mean, 0.0, atol=1e-9)
        np.testing.assert_allclose(refit.std, 1.0, atol=1e-6)

    def test_too_few_frames_rejected(self):
        with pytest.raises(DataError):
            fit_norm_stats([np.ones((1, FEATURE_DIM))])

    def test_identity_stats(self):
        stats = NormStats(np.zeros(FEATURE_DIM), np.ones(FEATURE_DIM))
        x = np.random.default_rng(0).normal(size=(4, FEATURE_DIM))
        np.testing.assert_array_equal(normalize(x, stats), x)

    @pytest.mark.parametrize("field,value", [("mean", np.inf), ("std", np.nan)])
    def test_non_finite_stats_rejected(self, field, value):
        arrays = {"mean": np.zeros(FEATURE_DIM), "std": np.ones(FEATURE_DIM)}
        arrays[field][3] = value
        with pytest.raises(DataError, match="non-finite"):
            NormStats(arrays["mean"], arrays["std"])

    def test_per_utterance_mode(self):
        x = np.random.default_rng(1).normal(3.0, 2.0, size=(40, FEATURE_DIM))
        out = normalize_per_utterance(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-6)


class TestInjection:
    def test_sigma_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=(5, FEATURE_DIM))
        out = inject_gaussian(x, 0.0, np.random.default_rng(1))
        assert np.array_equal(out, x)
        assert out is not x

    def test_empirical_sigma(self):
        frames = 1_000_000 // FEATURE_DIM + 1
        x = np.zeros((frames, FEATURE_DIM))
        out = inject_gaussian(x, 0.6, np.random.default_rng(99))
        assert float(np.std(out - x)) == pytest.approx(0.6, abs=0.01)

    def test_reproducible_under_seed(self):
        x = np.zeros((10, FEATURE_DIM))
        a = inject_gaussian(x, 0.6, np.random.default_rng(5))
        b = inject_gaussian(x, 0.6, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DataError):
            inject_gaussian(np.zeros((2, FEATURE_DIM)), -0.1,
                            np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_non_finite_or_negative_sigma_rejected(self, sigma):
        with pytest.raises(DataError, match="finite and >= 0"):
            inject_gaussian(np.zeros((2, FEATURE_DIM)), sigma,
                            np.random.default_rng(0))


class TestFeatureFile:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(17, FEATURE_DIM)).astype(np.float32).astype(np.float64)
        path = tmp_path / "utt.feat"
        write_feature_file(path, x)
        back = read_feature_file(path)
        np.testing.assert_array_equal(back, x)
        # header: magic, version, frames, dim
        raw = path.read_bytes()
        assert raw[:4] == b"FEAT"
        assert int(np.frombuffer(raw[4:6], "<u2")[0]) == 1
        assert int(np.frombuffer(raw[6:10], "<u4")[0]) == 17
        assert int(np.frombuffer(raw[10:14], "<u4")[0]) == FEATURE_DIM
        assert len(raw) == 14 + 17 * FEATURE_DIM * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.feat"
        path.write_bytes(b"JUNKxxxxxxxxxxxxx")
        with pytest.raises(DataError, match="magic"):
            read_feature_file(path)

    def test_payload_cut_mid_float_rejected(self, tmp_path):
        path = tmp_path / "cut.feat"
        write_feature_file(path, np.zeros((3, FEATURE_DIM)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataError, match="cut.feat: payload of 1473 bytes, "
                                            "header implies 1476"):
            read_feature_file(path)

    def test_stats_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        stats = NormStats(rng.normal(size=FEATURE_DIM),
                          rng.uniform(0.5, 2.0, size=FEATURE_DIM))
        path = tmp_path / "stats.feat"
        write_norm_stats(path, stats)
        back = read_norm_stats(path)
        np.testing.assert_allclose(back.mean, stats.mean, atol=1e-6)
        np.testing.assert_allclose(back.std, stats.std, rtol=1e-6)

    def test_non_finite_stats_file_names_the_file(self, tmp_path):
        rows = np.stack([np.zeros(FEATURE_DIM), np.ones(FEATURE_DIM)])
        rows[0, 3], rows[1, 5] = np.inf, np.nan
        path = tmp_path / "stats.feat"
        write_feature_file(path, rows)
        with pytest.raises(DataError, match="stats.feat: .*non-finite"):
            read_norm_stats(path)


def test_featurize_dimension_contract():
    w = tone(440.0, n=8000)
    feats = featurize_waveform(w)
    assert feats.shape == (num_frames(8000, 16000), FEATURE_DIM)
    assert np.all(np.isfinite(feats))


# blake2b-128 of featurize_waveform's float64 bytes for seeded noise (seed
# None: silence, all energies floored) at 16 kHz, recorded before framing
# moved to strided windows, the Hamming window was cached and delta padding
# became an index clip; 400 and 560 samples are one and two frames
@pytest.mark.parametrize("samples,seed,digest", [
    (400, 1, "4d70711fe7f9dd8c24e0d950f6635b5b"),
    (560, 2, "b3f689087fa3c96e9f772b7f81cf3bbd"),
    (560, None, "0645f0ef9d5be07406e39efc8dbb81c2"),
    (1234, 3, "5f29b3cd6a923b68a2f1eff4113d757a"),
    (8000, 4, "5823a99bab518f0cd4505b3be939354c"),
], ids=["400-1", "560-2", "560-silence", "1234-3", "8000-4"])
def test_featurize_bytes_are_pinned(samples, seed, digest):
    values = (np.zeros(samples) if seed is None
              else 0.3 * np.random.default_rng(seed).standard_normal(samples))
    feats = featurize_waveform(Waveform(values, 16000))
    assert hashlib.blake2b(np.ascontiguousarray(feats, dtype="<f8").tobytes(),
                           digest_size=16).hexdigest() == digest
