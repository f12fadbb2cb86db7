"""Waveform container, energy/SNR arithmetic, and exact-SNR mixing.

SNR is defined over full-utterance RMS. Mixing adds a scaled noise segment
to the signal; no clipping or renormalization is applied afterwards, so
amplitudes may leave [-1, 1] and the achieved component SNR stays exact.

An SNR condition is a finite dB value or CLEAN, which orders above every
dB value; condition_key parses one for grids, manifests, transcript tags
and `mix --snr` alike, and format_condition prints it.

WAV I/O goes through scipy's wavfile, imported on first use inside
read_wav and write_wav: nothing else in the package needs scipy, so
importing snrtrain does not load it. A WAV cut short of its header's size
raises DataError, and write_wav writes atomically.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, write_atomic

# Sentinel for the unmixed condition. A string rather than +inf dB keeps
# manifests, schedules and reports trivially serializable.
CLEAN = "clean"

INT16_SCALE = 32768.0


def condition_key(condition):
    """Canonical condition key: the CLEAN sentinel or a float dB value."""
    if condition == CLEAN:
        return CLEAN
    try:
        value = float(condition)
    except (TypeError, ValueError):
        raise DataError(f"unknown condition {condition!r}: expected a dB value "
                        f"or {CLEAN!r}") from None
    if not math.isfinite(value):
        raise DataError(f"condition {condition!r} is not a finite SNR in dB")
    return value


def condition_order(condition) -> float:
    """Sort key of a condition key: its dB value, with CLEAN above them all."""
    return math.inf if condition == CLEAN else float(condition)


def format_condition(condition) -> str:
    return CLEAN if condition == CLEAN else f"{float(condition):g}"


@dataclass(frozen=True)
class Waveform:
    """Mono audio: real amplitudes (nominally [-1, 1], not clamped) at a fixed rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise DataError(f"waveform must be mono 1-D, got shape {samples.shape}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise DataError("waveform contains non-finite samples")
        if int(self.sample_rate_hz) <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.shape[0]


def rms(w: Waveform) -> float:
    """Root-mean-square amplitude of the whole waveform."""
    if len(w) == 0:
        raise DataError("empty signal")
    return float(np.sqrt(np.mean(np.square(w.samples))))


def measure_snr_db(signal: Waveform, noise: Waveform) -> float:
    """Component SNR in dB between two already-separated components."""
    rs, rn = rms(signal), rms(noise)
    if rs <= 0.0 or rn <= 0.0:
        raise DataError("degenerate energy: silent component, SNR undefined")
    return 20.0 * np.log10(rs / rn)


def mixing_gain(signal: Waveform, noise: Waveform, target_snr_db: float) -> float:
    """Gain g such that signal + g*noise has component SNR target_snr_db.

    g = (rms(signal) / rms(noise)) * 10**(-target/20).
    """
    rs, rn = rms(signal), rms(noise)
    if rs <= 0.0:
        raise DataError("degenerate energy: silent signal, SNR undefined")
    if rn <= 0.0:
        raise DataError("degenerate energy: silent noise, SNR undefined")
    return float(rs / rn * 10.0 ** (-float(target_snr_db) / 20.0))


def mix_at_snr(signal: Waveform, noise_segment: Waveform, target_snr_db) -> Waveform:
    """Add a noise segment to the signal at an exact component SNR.

    target_snr_db may be the CLEAN sentinel, in which case the signal is
    returned unchanged (no noise drawn into the output).
    """
    if target_snr_db == CLEAN:
        return Waveform(signal.samples.copy(), signal.sample_rate_hz)
    if len(noise_segment) != len(signal):
        raise DataError(
            f"length mismatch: signal has {len(signal)} samples, "
            f"noise segment has {len(noise_segment)}"
        )
    if noise_segment.sample_rate_hz != signal.sample_rate_hz:
        raise DataError(
            f"sample-rate mismatch: {signal.sample_rate_hz} vs "
            f"{noise_segment.sample_rate_hz}"
        )
    gain = mixing_gain(signal, noise_segment, target_snr_db)
    return Waveform(signal.samples + gain * noise_segment.samples, signal.sample_rate_hz)


@dataclass(frozen=True)
class NoisePool:
    """A long noise recording from which random segments are cut for mixing."""

    noise: Waveform
    pool_id: str = "pool"

    def __len__(self) -> int:
        return len(self.noise)


def sample_segment_offset(pool: NoisePool, length: int, rng: np.random.Generator) -> int:
    """Uniform segment start in [0, pool_len - length], inclusive."""
    if length <= 0:
        raise DataError(f"segment length must be positive, got {length}")
    if length > len(pool):
        raise DataError(
            f"segment of {length} samples longer than pool of {len(pool)}"
        )
    return int(rng.integers(0, len(pool) - length, endpoint=True))


def segment_at(pool: NoisePool, offset: int, length: int) -> Waveform:
    if offset < 0 or offset + length > len(pool):
        raise DataError(f"segment [{offset}, {offset + length}) outside pool of {len(pool)}")
    return Waveform(pool.noise.samples[offset : offset + length].copy(),
                    pool.noise.sample_rate_hz)


def read_wav(path) -> Waveform:
    """Read a mono WAV file (16-bit PCM or 32-bit float) to normalized reals.
    A file that is not a well-formed WAV raises DataError naming the path."""
    from scipy.io import wavfile
    try:
        with warnings.catch_warnings():  # scipy only warns on data cut short
            warnings.filterwarnings("error", "Reached EOF", wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except OSError:
        raise  # missing, a directory or not permitted: not a format fault
    except Exception as err:  # scipy raises many kinds on a malformed file
        raise DataError(f"{path}: not a readable WAV file: "
                        f"{type(err).__name__}: {err}") from None
    if data.ndim != 1:
        raise DataError(f"{path}: only mono WAV is supported, got {data.ndim} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / INT16_SCALE
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise DataError(
            f"{path}: unsupported WAV sample format {data.dtype}; "
            "use 16-bit PCM or 32-bit float"
        )
    return Waveform(samples, int(rate))


def write_wav(path, w: Waveform, sample_format: str = "float32") -> None:
    """Write a mono WAV file as 32-bit float (default) or 16-bit PCM."""
    from scipy.io import wavfile
    if sample_format == "float32":
        data = w.samples.astype(np.float32)
    elif sample_format == "int16":
        data = np.clip(np.rint(w.samples * INT16_SCALE), -32768, 32767).astype(np.int16)
    else:
        raise DataError(f"unknown WAV sample format {sample_format!r}")
    buffer = io.BytesIO()
    wavfile.write(buffer, w.sample_rate_hz, data)
    write_atomic((path, buffer.getvalue()))
