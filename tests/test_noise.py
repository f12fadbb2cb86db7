import hashlib
import tracemalloc

import numpy as np
import pytest

import helpers
from snrtrain.audio import rms
from snrtrain.errors import DataError
from snrtrain.noise import (NoiseSpec, generate_noise, generate_pink, generate_white,
                            pink_pool_waveform)


def test_spec_validation():
    with pytest.raises(DataError):
        NoiseSpec("brown", 100, 16000)
    with pytest.raises(DataError):
        NoiseSpec("pink", 0, 16000)
    with pytest.raises(DataError):
        NoiseSpec("pink", 100, 16000, target_rms=0.0)
    with pytest.raises(DataError, match="noise seed must be >= 0, got -5"):
        NoiseSpec("pink", 100, 16000, seed=-5)


def test_kind_mismatch_rejected():
    with pytest.raises(DataError):
        generate_pink(NoiseSpec("white", 100, 16000))
    with pytest.raises(DataError):
        generate_white(NoiseSpec("pink", 100, 16000))


def test_pink_needs_two_samples():
    with pytest.raises(DataError, match="at least 2 samples"):
        generate_pink(NoiseSpec("pink", 1, 16000))
    with pytest.raises(DataError, match="at least 2 samples"):
        pink_pool_waveform(1 / 16000, 16000, 5)
    assert len(generate_pink(NoiseSpec("pink", 2, 16000))) == 2


@pytest.mark.parametrize("kind", ["pink", "white"])
def test_deterministic_under_seed(kind):
    spec = NoiseSpec(kind, 4096, 16000, seed=123)
    a = generate_noise(spec)
    b = generate_noise(spec)
    assert np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("kind", ["pink", "white"])
@pytest.mark.parametrize("target", [1.0, 0.05])
def test_rms_normalization(kind, target):
    out = generate_noise(NoiseSpec(kind, 50_000, 16000, target_rms=target, seed=3))
    assert rms(out) == pytest.approx(target, abs=1e-6)


def test_pink_octave_slope():
    pink = generate_pink(NoiseSpec("pink", 2**18, 16000, seed=11))
    slope = helpers.octave_band_slope(pink)
    assert slope == pytest.approx(-3.0, abs=1.0)


def test_white_octave_slope():
    white = generate_white(NoiseSpec("white", 2**18, 16000, seed=11))
    slope = helpers.octave_band_slope(white)
    assert slope == pytest.approx(0.0, abs=0.5)


def test_octave_power_halves_per_octave():
    pink = generate_pink(NoiseSpec("pink", 2**18, 16000, seed=4))
    psd = np.abs(np.fft.rfft(pink.samples)) ** 2
    freqs = np.fft.rfftfreq(len(pink.samples), d=1.0 / 16000)
    for fc in (250.0, 500.0, 1000.0, 2000.0):
        lo = np.mean(psd[(freqs >= fc / np.sqrt(2)) & (freqs < fc * np.sqrt(2))])
        hi = np.mean(psd[(freqs >= fc * np.sqrt(2)) & (freqs < 2 * fc * np.sqrt(2))])
        ratio_db = 10.0 * np.log10(hi / lo)
        assert ratio_db == pytest.approx(-3.0, abs=1.0)


@pytest.mark.parametrize("kind", ["pink", "white"])
def test_mean_vanishes(kind):
    n = 200_000
    out = generate_noise(NoiseSpec(kind, n, 16000, seed=8))
    assert abs(float(np.mean(out.samples))) < 5.0 * rms(out) / np.sqrt(n)


def test_pink_pool_bytes_are_pinned():
    pool = pink_pool_waveform(60.0, 16000, 5)
    digest = hashlib.blake2b(pool.samples.tobytes(), digest_size=16).hexdigest()
    assert digest == "b0b181d83cc97b861e28cf0019653b1a"


def test_pink_pool_peak_memory_is_about_two_pools():
    tracemalloc.start()
    try:
        pool = pink_pool_waveform(60.0, 16000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * pool.samples.nbytes


@pytest.mark.parametrize("seconds", [float("inf"), float("-inf"), float("nan"),
                                     0.0, -1.0])
def test_pool_seconds_must_be_finite_and_positive(seconds):
    with pytest.raises(DataError, match="'seconds' must be finite and > 0"):
        pink_pool_waveform(seconds, 16000, 5)
