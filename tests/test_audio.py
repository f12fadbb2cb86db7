import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.io import wavfile
from scipy.stats import chisquare

import helpers
from snrtrain.audio import (CLEAN, NoisePool, Waveform, measure_snr_db,
                            mix_at_snr, mixing_gain, read_wav, rms,
                            sample_segment_offset, segment_at, write_wav)
from snrtrain.errors import DataError


def wave(samples, rate=16000):
    return Waveform(np.asarray(samples, dtype=np.float64), rate)


def seeded_noise_wave(seed, n=4000, rate=16000):
    rng = np.random.default_rng(seed)
    return Waveform(rng.normal(0.0, 0.25, size=n), rate)


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(DataError):
            Waveform(np.zeros(4), 0)

    def test_rejects_stereo(self):
        with pytest.raises(DataError):
            Waveform(np.zeros((4, 2)), 16000)


class TestRms:
    def test_constant(self):
        assert rms(wave(np.full(173, 0.5))) == pytest.approx(0.5, abs=1e-15)

    def test_full_scale_sine(self):
        # 10 whole periods of a 100 Hz tone at 16 kHz
        t = np.arange(1600) / 16000.0
        value = rms(wave(np.sin(2 * np.pi * 100.0 * t)))
        assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)

    def test_seeded_uniform_matches_fsum_oracle(self):
        rng = np.random.default_rng(2024)
        samples = rng.uniform(-1.0, 1.0, size=1000)
        # frozen from helpers.fsum_rms on this exact draw
        assert helpers.fsum_rms(samples) == pytest.approx(0.5859556530695598, abs=1e-12)
        assert rms(wave(samples)) == pytest.approx(0.5859556530695598, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty signal"):
            rms(wave([]))

    def test_self_concatenation_invariant(self):
        w = seeded_noise_wave(5)
        doubled = wave(np.concatenate([w.samples, w.samples]))
        assert rms(doubled) == pytest.approx(rms(w), abs=1e-12)


class TestMixingGain:
    def test_equal_power_at_zero_db(self):
        s, n = wave(np.full(100, 0.4)), wave(np.full(100, -0.4))
        assert mixing_gain(s, n, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_twenty_db(self):
        s, n = wave(np.full(100, 0.4)), wave(np.full(100, -0.4))
        assert mixing_gain(s, n, 20.0) == pytest.approx(0.1, abs=1e-12)

    def test_unequal_rms_example(self):
        s, n = wave(np.full(64, 0.3)), wave(np.full(64, 0.6))
        gain = mixing_gain(s, n, 5.0)
        assert gain == pytest.approx(0.28117066259517454, abs=1e-12)
        scaled = wave(gain * n.samples)
        assert measure_snr_db(s, scaled) == pytest.approx(5.0, abs=1e-6)

    def test_silent_signal_rejected(self):
        with pytest.raises(DataError, match="degenerate energy"):
            mixing_gain(wave(np.zeros(10)), wave(np.ones(10)), 0.0)
        with pytest.raises(DataError, match="degenerate energy"):
            mixing_gain(wave(np.ones(10)), wave(np.zeros(10)), 0.0)


class TestMixAtSnr:
    def test_clean_sentinel_is_identity(self):
        s = seeded_noise_wave(1)
        out = mix_at_snr(s, seeded_noise_wave(2), CLEAN)
        assert np.array_equal(out.samples, s.samples)
        assert out.samples is not s.samples

    def test_equal_rms_zero_db_is_plain_sum(self):
        s = wave(np.full(50, 0.2))
        n = wave(np.tile([0.2, -0.2], 25))
        out = mix_at_snr(s, n, 0.0)
        np.testing.assert_allclose(out.samples, s.samples + n.samples, atol=1e-15)

    def test_component_snr_remeasured(self):
        s, n = seeded_noise_wave(10), seeded_noise_wave(11)
        gain = mixing_gain(s, n, 10.0)
        measured = 10.0 * np.log10(rms(s) ** 2 / rms(wave(gain * n.samples)) ** 2)
        assert measured == pytest.approx(10.0, abs=1e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length mismatch"):
            mix_at_snr(seeded_noise_wave(1, n=100), seeded_noise_wave(2, n=99), 0.0)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(DataError, match="rate mismatch"):
            mix_at_snr(seeded_noise_wave(1, rate=16000),
                       seeded_noise_wave(2, rate=8000), 0.0)

    @given(st.integers(0, 10_000), st.integers(-20, 50))
    def test_component_snr_exact_property(self, seed, target):
        s = seeded_noise_wave(seed)
        n = seeded_noise_wave(seed + 77_000)
        gain = mixing_gain(s, n, float(target))
        scaled = wave(gain * n.samples)
        assert measure_snr_db(s, scaled) == pytest.approx(float(target), abs=1e-6)

    @given(st.integers(0, 5_000))
    def test_linear_in_noise_argument(self, seed):
        s = seeded_noise_wave(seed)
        n = seeded_noise_wave(seed + 31_000)
        target = 7.0
        gain = mixing_gain(s, n, target)
        direct = mix_at_snr(s, n, target)
        prescaled = mix_at_snr(s, wave(gain * n.samples), target)
        np.testing.assert_allclose(direct.samples, prescaled.samples, atol=1e-12)
        np.testing.assert_allclose(direct.samples, s.samples + gain * n.samples,
                                   atol=1e-15)


class TestSegmentSampling:
    def test_whole_pool_forces_offset_zero(self):
        pool = NoisePool(seeded_noise_wave(3, n=500))
        rng = np.random.default_rng(0)
        assert sample_segment_offset(pool, 500, rng) == 0
        seg = segment_at(pool, 0, 500)
        assert np.array_equal(seg.samples, pool.noise.samples)

    def test_deterministic_under_seed(self):
        pool = NoisePool(seeded_noise_wave(3, n=5000))
        offset_a = sample_segment_offset(pool, 400, np.random.default_rng(9))
        offset_b = sample_segment_offset(pool, 400, np.random.default_rng(9))
        assert offset_a == offset_b
        assert np.array_equal(segment_at(pool, offset_a, 400).samples,
                              segment_at(pool, offset_b, 400).samples)

    def test_too_long_segment_rejected(self):
        pool = NoisePool(seeded_noise_wave(3, n=100))
        with pytest.raises(DataError, match="longer than pool"):
            sample_segment_offset(pool, 101, np.random.default_rng(0))

    def test_offsets_uniform_chi2(self):
        segment = 1000
        pool = NoisePool(seeded_noise_wave(3, n=10 * segment))
        rng = np.random.default_rng(42)
        limit = len(pool) - segment  # inclusive upper bound
        offsets = np.array([sample_segment_offset(pool, segment, rng)
                            for _ in range(10_000)])
        counts, _ = np.histogram(offsets, bins=10, range=(0, limit + 1))
        _, p_value = chisquare(counts)
        assert p_value > 0.01

    def test_segment_at_bounds(self):
        pool = NoisePool(seeded_noise_wave(3, n=100))
        with pytest.raises(DataError):
            segment_at(pool, 60, 50)


class TestWavIo:
    def test_float32_round_trip(self, tmp_path):
        w = seeded_noise_wave(8, n=333)
        path = tmp_path / "f32.wav"
        write_wav(path, w, "float32")
        back = read_wav(path)
        assert back.sample_rate_hz == w.sample_rate_hz
        np.testing.assert_allclose(back.samples, w.samples, atol=1e-7)

    def test_int16_round_trip_quantized(self, tmp_path):
        w = seeded_noise_wave(9, n=333)
        path = tmp_path / "i16.wav"
        write_wav(path, w, "int16")
        back = read_wav(path)
        np.testing.assert_allclose(back.samples, w.samples, atol=1.0 / 32768.0)

    @pytest.mark.parametrize("edit", sorted(helpers.WAV_HEADER_EDITS))
    def test_malformed_header_raises_data_error_naming_path(self, tmp_path, edit):
        path = tmp_path / "bad.wav"
        write_wav(path, seeded_noise_wave(8, n=333), "float32")
        helpers.edit_byte(path, *helpers.WAV_HEADER_EDITS[edit])
        with pytest.raises(DataError, match=f"{path}: not a readable WAV file"):
            read_wav(path)

    @pytest.mark.parametrize("sample_format", ["float32", "int16"])
    def test_truncated_data_raises_data_error_naming_path(self, tmp_path,
                                                          sample_format):
        path = tmp_path / "cut.wav"
        write_wav(path, seeded_noise_wave(8, n=333), sample_format)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2 + 1])  # inside the data chunk
        with pytest.raises(DataError, match=f"{path}: not a readable WAV file: "
                                            "WavFileWarning: Reached EOF"):
            read_wav(path)

    @pytest.mark.parametrize("sample_format", ["float32", "int16"])
    def test_bytes_match_scipy_direct_write(self, tmp_path, sample_format):
        w = seeded_noise_wave(5, n=333)
        write_wav(tmp_path / "ours.wav", w, sample_format)
        data = (w.samples.astype(np.float32) if sample_format == "float32"
                else np.clip(np.rint(w.samples * 32768.0), -32768, 32767).astype(np.int16))
        wavfile.write(tmp_path / "scipy.wav", w.sample_rate_hz, data)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_wav(tmp_path / "x.wav", seeded_noise_wave(1), "mp3")
