"""Synthetic tone-sequence recognition task.

Each alphabet symbol maps to a pure tone; an utterance is a concatenation
of Hann-windowed tone segments with jittered durations and phases, peak
normalized to 0.5. The task's settings are constants: four symbols on
tones at least two mel filter spacings apart, so each symbol excites a
distinct filterbank region. The task stands in for a speech corpus so the
waveform-level mixing and the full training loop can run at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Waveform
from .errors import DataError


class SyntheticTask:
    symbols = ("a", "b", "c", "d")
    tone_hz = (440.0, 880.0, 1760.0, 3520.0)
    min_symbols = 2
    max_symbols = 5
    segment_ms = (120.0, 200.0)
    sample_rate_hz = 16000
    peak = 0.5

    def tone_for(self, symbol: str) -> float:
        try:
            return self.tone_hz[self.symbols.index(symbol)]
        except ValueError:
            raise DataError(f"symbol {symbol!r} not in task alphabet") from None


def synth_utterance(labels, task: SyntheticTask, rng: np.random.Generator) -> Waveform:
    """Render a label sequence as concatenated windowed tone segments."""
    labels = list(labels)
    if not labels:
        raise DataError("empty label sequence")
    rate = task.sample_rate_hz
    lo_ms, hi_ms = task.segment_ms
    pieces = []
    for symbol in labels:
        freq = task.tone_for(symbol)
        duration_ms = rng.uniform(lo_ms, hi_ms)
        n = int(round(duration_ms * rate / 1000.0))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(n) / rate
        pieces.append(np.sin(2.0 * np.pi * freq * t + phase) * np.hanning(n))
    samples = np.concatenate(pieces)
    samples *= task.peak / float(np.max(np.abs(samples)))
    return Waveform(samples, rate)


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    waveform: Waveform
    words: tuple


def make_corpus(task: SyntheticTask, count: int, seed: int,
                id_prefix: str = "utt") -> tuple:
    """Seeded corpus of tone utterances with transcripts."""
    if count < 1:
        raise DataError(f"corpus size must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    utterances = []
    for i in range(count):
        k = int(rng.integers(task.min_symbols, task.max_symbols, endpoint=True))
        indices = rng.integers(0, len(task.symbols), size=k)
        words = tuple(task.symbols[j] for j in indices)
        waveform = synth_utterance(words, task, rng)
        utterances.append(Utterance(f"{id_prefix}{i:04d}", waveform, words))
    return tuple(utterances)
