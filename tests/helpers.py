"""Independent oracles used by the tests.

Everything here is deliberately written by a different route than the
library code it checks: brute-force enumeration, fsum two-pass statistics,
memoized recursion, periodogram regression, linear programming. Four
helpers are not oracles: `ctc_single` scores one sequence through the
library's batched CTC so that the oracles can be compared with it,
`file_digests` fingerprints a run directory so that two runs can be compared
file by file, `watch_generation` records every epoch a run generates, and
`parse_report_values` reads every key=value line of a score report.
"""

import hashlib
import itertools
import math
import weakref
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from snrtrain import pem
from snrtrain.ctc import ctc_loss_and_grad


def fsum_rms(samples) -> float:
    """Two-pass mean-of-squares RMS with compensated summation."""
    samples = list(float(s) for s in samples)
    mean_sq = math.fsum(s * s for s in samples) / len(samples)
    return math.sqrt(mean_sq)


def octave_band_slope(waveform, f_lo=125.0, f_hi=4000.0) -> float:
    """dB-per-octave slope of mean periodogram power across octave bands."""
    psd = np.abs(np.fft.rfft(waveform.samples)) ** 2
    freqs = np.fft.rfftfreq(len(waveform.samples), d=1.0 / waveform.sample_rate_hz)
    centers = []
    fc = f_lo
    while fc <= f_hi * 1.0001:
        centers.append(fc)
        fc *= 2.0
    band_db = []
    for fc in centers:
        sel = (freqs >= fc / np.sqrt(2.0)) & (freqs < fc * np.sqrt(2.0))
        band_db.append(10.0 * np.log10(np.mean(psd[sel])))
    octaves = np.log2(np.asarray(centers) / centers[0])
    return float(np.polyfit(octaves, band_db, 1)[0])


def mel(f_hz):
    """O'Shaughnessy's mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def mel_filter_centers_hz(sample_rate_hz, num_filters=40, low_hz=20.0) -> np.ndarray:
    """Center frequencies of the triangular filters: num_filters points
    equally spaced in mel strictly between low_hz and Nyquist."""
    points = np.linspace(mel(low_hz), mel(sample_rate_hz / 2.0), num_filters + 2)
    return 700.0 * (10.0 ** (points[1:-1] / 2595.0) - 1.0)


def collapse_two_pass(path, blank) -> tuple:
    """Reference collapse: drop adjacent repeats first, then blanks."""
    deduped = []
    previous = object()
    for s in path:
        if s != previous:
            deduped.append(s)
        previous = s
    return tuple(s for s in deduped if s != blank)


def brute_force_ctc_loss(log_probs, labels) -> float:
    """-log sum over all full paths that collapse to the target."""
    num_frames, num_outputs = log_probs.shape
    blank = num_outputs - 1
    target = tuple(int(y) for y in labels)
    masses = []
    for path in itertools.product(range(num_outputs), repeat=num_frames):
        if collapse_two_pass(path, blank) == target:
            masses.append(math.exp(sum(log_probs[t, s] for t, s in enumerate(path))))
    if not masses:
        return math.inf
    return -math.log(math.fsum(masses))


def brute_force_ctc_posterior(log_probs, labels) -> np.ndarray:
    """Per-frame symbol occupancy by explicit path enumeration."""
    num_frames, num_outputs = log_probs.shape
    blank = num_outputs - 1
    target = tuple(int(y) for y in labels)
    gamma = np.zeros_like(log_probs)
    total = 0.0
    for path in itertools.product(range(num_outputs), repeat=num_frames):
        if collapse_two_pass(path, blank) != target:
            continue
        mass = math.exp(sum(log_probs[t, s] for t, s in enumerate(path)))
        total += mass
        for t, s in enumerate(path):
            gamma[t, s] += mass
    return gamma / total


def ctc_single(log_probs, labels):
    """Loss and (T, K) logit gradient of one (T, K) sequence:
    `ctc_loss_and_grad` with B = 1. The gradient is all NaN when no
    alignment exists; the state posterior is exp(log_probs) - gradient."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    losses, grads = ctc_loss_and_grad(log_probs[:, None], [len(log_probs)], [labels])
    return float(losses[0]), grads[:, 0]


def file_digests(root) -> dict:
    """blake2b digest of every file under root, by its path relative to root."""
    root = Path(root)
    return {path.relative_to(root).as_posix(): hashlib.blake2b(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


# one-byte edits (offset, new value) of a float32 WAV header on which scipy's
# wavfile.read raises something other than ValueError: a fmt chunk size of
# 0xff (UnboundLocalError), 0 channels (ZeroDivisionError) and 1-bit
# samples (TypeError)
WAV_HEADER_EDITS = {"fmt_size": (16, 0xFF), "no_channels": (22, 0x00),
                    "one_bit": (32, 0x01)}


def edit_byte(path, offset: int, value: int) -> None:
    raw = bytearray(Path(path).read_bytes())
    raw[offset] = value
    Path(path).write_bytes(bytes(raw))


def watch_generation(patch) -> list:
    """Wrap pem.generate_epoch; returns the list of (EpochConfig, weakref to
    the EpochData) it fills, one per call. Each call asserts that every
    earlier epoch is already freed."""
    generate = pem.generate_epoch
    made = []

    def watching_generate(cfg, corpus, pool, stats=None, out=None):
        assert all(ref() is None for _, ref in made), cfg.epoch_index
        data = generate(cfg, corpus, pool, stats, out)
        made.append((cfg, weakref.ref(data)))
        return data

    patch.setattr(pem, "generate_epoch", watching_generate)
    return made


def loop_ctc_loss_and_grad(log_probs, labels):
    """Loss and logit gradient of one sequence by scalar loops over frames
    and extended-target states; the gradient is None when no alignment
    exists. Each value goes through the same floating-point operations as
    the vectorized recursion, so the two agree bit for bit."""
    num_frames, num_outputs = log_probs.shape
    blank = num_outputs - 1
    z = [blank]
    for y in labels:
        z += [int(y), blank]
    ext = len(z)
    emit = log_probs[:, z]

    def skip_into(s):
        return s >= 2 and z[s] != blank and z[s] != z[s - 2]

    alpha = np.full((num_frames, ext), -np.inf)
    alpha[0, :2] = emit[0, :2]
    for t in range(1, num_frames):
        for s in range(ext):
            acc = np.logaddexp(alpha[t - 1, s],
                               alpha[t - 1, s - 1] if s >= 1 else -np.inf)
            if skip_into(s):
                acc = np.logaddexp(acc, alpha[t - 1, s - 2])
            alpha[t, s] = emit[t, s] + acc
    total = alpha[-1, -1]
    if ext > 1:
        total = np.logaddexp(total, alpha[-1, -2])
    if total == -np.inf:
        return math.inf, None

    beta = np.full((num_frames, ext), -np.inf)
    beta[-1, -2:] = emit[-1, -2:]
    for t in range(num_frames - 2, -1, -1):
        for s in range(ext):
            acc = np.logaddexp(beta[t + 1, s],
                               beta[t + 1, s + 1] if s + 1 < ext else -np.inf)
            if s + 2 < ext and skip_into(s + 2):
                acc = np.logaddexp(acc, beta[t + 1, s + 2])
            beta[t, s] = emit[t, s] + acc
    occupancy = np.exp(alpha + beta - emit - total)
    gamma = np.zeros_like(log_probs)
    for s in range(ext):
        gamma[:, z[s]] += occupancy[:, s]
    return float(-total), np.exp(log_probs) - gamma


def recursive_edit_distance(a, b) -> int:
    """Memoized top-down Levenshtein, unit costs."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def simulate_patience_controller(wer_trace, patience, num_stages, max_epochs):
    """Plain-loop reference for the stage automaton.

    Returns the list of decisions, one per epoch of the trace.
    """
    decisions = []
    stage = 0
    best = math.inf
    bad = 0
    for epoch, wer in enumerate(wer_trace, start=1):
        if wer < best:
            best = wer
            bad = 0
        else:
            bad += 1
        if epoch >= max_epochs:
            decisions.append("terminate")
            break
        if bad == patience:
            if stage == num_stages - 1:
                decisions.append("terminate")
                break
            decisions.append("switch_stage")
            stage += 1
            best = math.inf
            bad = 0
        else:
            decisions.append("continue")
    return decisions


def rounding_consistent_slack(rounded, published, linear_map, half_unit=0.05):
    """Smallest t such that some table x with |x_i - rounded_i| <= half_unit
    has every entry of linear_map @ x within t of published.

    Solved as a linear program over (x, t): minimize t subject to
    +/-(linear_map @ x - published) <= t and the box around the rounded
    entries. When the rounded entries and the published values are both
    roundings of one unrounded table, that table is feasible, so t is at
    most the rounding half-unit of the published values.
    """
    r = np.asarray(rounded, dtype=float)
    p = np.asarray(published, dtype=float)
    a = np.asarray(linear_map, dtype=float)
    rows, cols = a.shape
    ones = np.ones((rows, 1))
    a_ub = np.vstack([np.hstack([a, -ones]), np.hstack([-a, -ones])])
    b_ub = np.concatenate([p, -p])
    cost = np.zeros(cols + 1)
    cost[-1] = 1.0
    bounds = [(v - half_unit, v + half_unit) for v in r] + [(0.0, None)]
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise RuntimeError(f"linear program failed: {result.message}")
    return float(result.x[-1])


def parse_report_values(text: str) -> dict:
    """Key=value lines of a report, e.g. {'full': 34.09, 'wer[clean]': 13.6};
    a line whose value is not a number is skipped."""
    values: dict = {}
    for line in text.splitlines():
        if "=" not in line:
            continue
        key, _, raw = line.partition("=")
        try:
            values[key.strip()] = float(raw)
        except ValueError:
            continue
    return values
