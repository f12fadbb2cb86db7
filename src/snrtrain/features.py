"""123-dimensional filterbank features.

Pipeline: 25 ms Hamming frames at a 10 ms hop -> 40 triangular mel filters
over [20 Hz, Nyquist] plus one log frame-energy term -> first and second
order regression deltas (window +/-2, edge replication). Static 41 dims
become 123 after deltas. Normalization is per-dimension zero-mean /
unit-variance; Gaussian injection is applied to normalized features.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import Waveform
from .errors import DataError, read_payload, write_atomic

FRAME_LENGTH_MS = 25.0
FRAME_SHIFT_MS = 10.0
NUM_FILTERS = 40
NUM_STATIC = NUM_FILTERS + 1
FEATURE_DIM = 3 * NUM_STATIC  # 123
LOW_FREQ_HZ = 20.0
ENERGY_FLOOR = 1e-10
STD_FLOOR = 1e-5
DELTA_WINDOW = 2

FILE_MAGIC = b"FEAT"
FILE_VERSION = 1


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def frame_sizes(sample_rate_hz: int) -> tuple[int, int]:
    win = int(round(sample_rate_hz * FRAME_LENGTH_MS / 1000.0))
    hop = int(round(sample_rate_hz * FRAME_SHIFT_MS / 1000.0))
    return win, hop


def num_frames(num_samples: int, sample_rate_hz: int) -> int:
    """Frames cut from num_samples samples; 0 if shorter than one."""
    win, hop = frame_sizes(sample_rate_hz)
    return max(0, 1 + (num_samples - win) // hop)


@lru_cache(maxsize=8)
def _hamming(window_samples: int) -> np.ndarray:
    window = np.hamming(window_samples)
    window.flags.writeable = False  # shared by every caller
    return window


def frame_signal(w: Waveform) -> np.ndarray:
    """Cut into Hamming-windowed frames, shape (num_frames, window_samples)."""
    win, hop = frame_sizes(w.sample_rate_hz)
    count = num_frames(len(w), w.sample_rate_hz)
    if count == 0:
        raise DataError(f"signal of {len(w)} samples shorter than one {win}-sample frame")
    windows = np.lib.stride_tricks.sliding_window_view(w.samples, win)
    return windows[: hop * count : hop] * _hamming(win)


@lru_cache(maxsize=8)
def _mel_filterbank(sample_rate_hz: int, nfft: int) -> np.ndarray:
    """Triangular mel weights, shape (NUM_FILTERS, nfft // 2 + 1)."""
    low = hz_to_mel(LOW_FREQ_HZ)
    high = hz_to_mel(sample_rate_hz / 2.0)
    points = np.linspace(low, high, NUM_FILTERS + 2)
    bin_mel = hz_to_mel(np.fft.rfftfreq(nfft, d=1.0 / sample_rate_hz))
    fbank = np.zeros((NUM_FILTERS, bin_mel.size))
    for j in range(NUM_FILTERS):
        left, center, right = points[j], points[j + 1], points[j + 2]
        rising = (bin_mel - left) / (center - left)
        falling = (right - bin_mel) / (right - center)
        fbank[j] = np.maximum(0.0, np.minimum(rising, falling))
    return fbank


def _fft_size(window_samples: int) -> int:
    nfft = 1
    while nfft < window_samples:
        nfft *= 2
    return nfft


def log_mel_energies(frames: np.ndarray, sample_rate_hz: int) -> np.ndarray:
    """Static features: 40 mel log-energies plus the log frame energy.

    Energies are floored at ENERGY_FLOOR before the natural log, so silence
    yields log(ENERGY_FLOOR) in every column.
    """
    frames = np.asarray(frames, dtype=np.float64)
    nfft = _fft_size(frames.shape[1])
    power = np.abs(np.fft.rfft(frames, n=nfft, axis=1)) ** 2
    fbank = _mel_filterbank(sample_rate_hz, nfft)
    mel = np.log(np.maximum(power @ fbank.T, ENERGY_FLOOR))
    energy = np.log(np.maximum(np.sum(frames**2, axis=1), ENERGY_FLOOR))
    return np.concatenate([mel, energy[:, None]], axis=1)


def _deltas(x: np.ndarray) -> np.ndarray:
    # regression deltas, window +/-2, denominator 2*(1^2+2^2)=10
    n = x.shape[0]
    padded = x[np.clip(np.arange(-DELTA_WINDOW, n + DELTA_WINDOW), 0, n - 1)]
    return (padded[3:-1] - padded[1:-3] + 2.0 * (padded[4:] - padded[:-4])) / 10.0


def append_deltas(static: np.ndarray) -> np.ndarray:
    """Stack static, delta and delta-delta columns into the 123-dim layout."""
    static = np.asarray(static, dtype=np.float64)
    if static.ndim != 2 or static.shape[1] != NUM_STATIC:
        raise DataError(
            f"static features must be (frames, {NUM_STATIC}), got {static.shape}"
        )
    if static.shape[0] < 1:
        raise DataError("need at least one frame")
    d1 = _deltas(static)
    d2 = _deltas(d1)
    return np.concatenate([static, d1, d2], axis=1)


def featurize_waveform(w: Waveform) -> np.ndarray:
    """Full static+delta extraction; shape (frames, 123)."""
    return append_deltas(log_mel_energies(frame_signal(w), w.sample_rate_hz))


@dataclass(frozen=True)
class NormStats:
    """Per-dimension mean and (floored) standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != (FEATURE_DIM,) or std.shape != (FEATURE_DIM,):
            raise DataError(
                f"stats must have {FEATURE_DIM} dims, got {mean.shape} / {std.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise DataError("stats hold a non-finite mean or standard deviation")
        if np.any(std <= 0):
            raise DataError("standard deviations must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def _check_dim(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != FEATURE_DIM:
        raise DataError(f"features must be (frames, {FEATURE_DIM}), got {values.shape}")
    return values


def fit_norm_stats(matrices) -> NormStats:
    """Population mean/std over all frames of all utterances (two-pass)."""
    matrices = [_check_dim(m) for m in matrices]
    total = sum(m.shape[0] for m in matrices)
    if total < 2:
        raise DataError(f"need at least 2 frames to fit stats, got {total}")
    mean = np.zeros(FEATURE_DIM)
    for m in matrices:
        mean += np.sum(m, axis=0)
    mean /= total
    var = np.zeros(FEATURE_DIM)
    for m in matrices:
        var += np.sum((m - mean) ** 2, axis=0)
    var /= total
    std = np.maximum(np.sqrt(var), STD_FLOOR)
    return NormStats(mean, std)


def normalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    return (_check_dim(values) - stats.mean) / stats.std


def normalize_per_utterance(values: np.ndarray) -> np.ndarray:
    """Normalize one utterance by its own frame statistics."""
    values = _check_dim(values)
    if values.shape[0] < 2:
        raise DataError("per-utterance normalization needs at least 2 frames")
    mean = values.mean(axis=0)
    std = np.maximum(values.std(axis=0), STD_FLOOR)
    return (values - mean) / std


def inject_gaussian(values: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise to every entry. sigma=0 is identity."""
    values = _check_dim(values)
    if not 0.0 <= sigma < np.inf:
        raise DataError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0.0:
        return values.copy()
    return values + rng.normal(0.0, sigma, size=values.shape)


# --- binary feature-file format ------------------------------------------
#
# magic "FEAT" | version u16 LE | frames u32 LE | dim u32 LE (=123)
# followed by frames*dim row-major little-endian float32.
# Stats files reuse the layout with two rows: mean then std.

_HEADER = struct.Struct("<HII")  # version, frames, dim


def write_feature_file(path, values: np.ndarray) -> None:
    values = _check_dim(values)
    header = FILE_MAGIC + _HEADER.pack(FILE_VERSION, *values.shape)
    write_atomic((path, header + np.ascontiguousarray(values, dtype="<f4").tobytes()))


def read_feature_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FILE_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {FILE_MAGIC!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DataError(f"{path}: truncated header")
        version, frames, dim = _HEADER.unpack(header)
        if version != FILE_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        if dim != FEATURE_DIM:
            raise DataError(f"{path}: dim {dim}, expected {FEATURE_DIM}")
        data = np.frombuffer(read_payload(fh, frames * dim * 4, path), dtype="<f4")
    return data.reshape(frames, dim).astype(np.float64)


def write_norm_stats(path, stats: NormStats) -> None:
    write_feature_file(path, np.stack([stats.mean, stats.std]))


def read_norm_stats(path) -> NormStats:
    rows = read_feature_file(path)
    if rows.shape[0] != 2:
        raise DataError(f"{path}: stats file must have 2 rows, got {rows.shape[0]}")
    try:
        return NormStats(rows[0], np.maximum(rows[1], STD_FLOOR))
    except DataError as err:
        raise DataError(f"{path}: {err}") from None
