"""Seeded pink and white noise generators.

Pink noise is shaped in the frequency domain: white Gaussian noise is
transformed with an FFT, every bin above DC is scaled by 1/sqrt(f), the DC
bin is zeroed, and the result is inverse-transformed and RMS-normalized.
The power spectral density then falls at ~3 dB per octave. White noise is
i.i.d. Gaussian, RMS-normalized, flat under the same estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Waveform
from .errors import DataError

KINDS = ("pink", "white")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    length: int
    sample_rate_hz: int
    target_rms: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown noise kind {self.kind!r}, expected one of {KINDS}")
        if self.length <= 0:
            raise DataError(f"noise length must be positive, got {self.length}")
        if self.target_rms <= 0:
            raise DataError(f"target RMS must be positive, got {self.target_rms}")
        if self.seed < 0:
            raise DataError(f"noise seed must be >= 0, got {self.seed}")


def generate_white(spec: NoiseSpec) -> Waveform:
    if spec.kind != "white":
        raise DataError(f"spec kind is {spec.kind!r}, expected 'white'")
    rng = np.random.default_rng(spec.seed)
    samples = rng.standard_normal(spec.length)
    samples *= spec.target_rms / float(np.sqrt(np.mean(np.square(samples))))
    return Waveform(samples, spec.sample_rate_hz)


def generate_pink(spec: NoiseSpec) -> Waveform:
    """Pink noise of spec.length samples. At most about two arrays of the
    pool's size are alive at once: the white noise is freed once its
    spectrum exists, the 1/sqrt(f) scale is formed in place, and the
    spectrum is freed before the RMS step."""
    if spec.kind != "pink":
        raise DataError(f"spec kind is {spec.kind!r}, expected 'pink'")
    if spec.length < 2:
        # one sample has only the DC bin, which pink shaping zeroes
        raise DataError(f"pink noise needs at least 2 samples, got {spec.length}")
    rng = np.random.default_rng(spec.seed)
    spectrum = np.fft.rfft(rng.standard_normal(spec.length))
    scale = np.fft.rfftfreq(spec.length, d=1.0 / spec.sample_rate_hz)
    np.sqrt(scale, out=scale)
    spectrum[0] = 0.0
    spectrum[1:] /= scale[1:]
    del scale
    samples = np.fft.irfft(spectrum, n=spec.length)
    del spectrum
    samples *= spec.target_rms / float(np.sqrt(np.mean(np.square(samples))))
    return Waveform(samples, spec.sample_rate_hz)


def generate_noise(spec: NoiseSpec) -> Waveform:
    """Dispatch on spec.kind; output RMS equals spec.target_rms."""
    if spec.kind == "pink":
        return generate_pink(spec)
    return generate_white(spec)


def pink_pool_waveform(seconds: float, sample_rate_hz: int, seed: int) -> Waveform:
    """Convenience constructor for noise pools a few tens of seconds long.
    `seconds` must be finite and positive, else DataError."""
    if not (np.isfinite(seconds) and seconds > 0):
        raise DataError(f"pool 'seconds' must be finite and > 0, got {seconds}")
    length = int(round(seconds * sample_rate_hz))
    return generate_pink(NoiseSpec("pink", length, sample_rate_hz, seed=seed))


__all__ = [
    "NoiseSpec",
    "generate_noise",
    "generate_pink",
    "generate_white",
    "pink_pool_waveform",
]
