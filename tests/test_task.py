import numpy as np
import pytest

from helpers import mel, mel_filter_centers_hz
from snrtrain.errors import DataError
from snrtrain.features import frame_signal, log_mel_energies
from snrtrain.task import SyntheticTask, make_corpus, synth_utterance


def test_tone_count_must_match_symbols():
    task = SyntheticTask()
    assert len(set(task.symbols)) == len(task.symbols) == len(task.tone_hz)
    assert 1 <= task.min_symbols <= task.max_symbols
    assert all(0.0 < f < task.sample_rate_hz / 2.0 for f in task.tone_hz)


def test_tones_must_stay_separated_on_mel_scale():
    task = SyntheticTask()
    spacing = np.diff(mel(mel_filter_centers_hz(task.sample_rate_hz)))
    gaps = np.diff(np.sort(mel(task.tone_hz)))
    assert gaps.min() >= 2.0 * spacing.max()


def test_single_symbol_excites_matching_filter():
    task = SyntheticTask()
    rng = np.random.default_rng(0)
    centers = mel_filter_centers_hz(task.sample_rate_hz)
    for symbol, freq in zip(task.symbols, task.tone_hz):
        w = synth_utterance([symbol] * 3, task, rng)
        mel = log_mel_energies(frame_signal(w), task.sample_rate_hz)[:, :40]
        dominant = int(np.argmax(mel.mean(axis=0)))
        expected = int(np.argmin(np.abs(centers - freq)))
        assert abs(dominant - expected) <= 1


def test_same_seed_same_waveform():
    task = SyntheticTask()
    a = synth_utterance(["a", "c"], task, np.random.default_rng(5))
    b = synth_utterance(["a", "c"], task, np.random.default_rng(5))
    assert np.array_equal(a.samples, b.samples)


def test_duration_bounds():
    task = SyntheticTask()
    rng = np.random.default_rng(1)
    for n in (1, 3, 5):
        w = synth_utterance(["b"] * n, task, rng)
        assert n * 0.120 <= len(w) / w.sample_rate_hz <= n * 0.200


def test_peak_normalized():
    w = synth_utterance(["a", "b"], SyntheticTask(), np.random.default_rng(2))
    assert float(np.max(np.abs(w.samples))) == pytest.approx(0.5, abs=1e-12)


def test_empty_labels_rejected():
    with pytest.raises(DataError, match="empty label"):
        synth_utterance([], SyntheticTask(), np.random.default_rng(0))


def test_unknown_symbol_rejected():
    with pytest.raises(DataError):
        synth_utterance(["z"], SyntheticTask(), np.random.default_rng(0))


def test_make_corpus_deterministic():
    task = SyntheticTask()
    a = make_corpus(task, 5, seed=9)
    b = make_corpus(task, 5, seed=9)
    assert [u.utt_id for u in a] == [u.utt_id for u in b]
    assert all(x.words == y.words for x, y in zip(a, b))
    assert all(np.array_equal(x.waveform.samples, y.waveform.samples)
               for x, y in zip(a, b))
    assert all(task.min_symbols <= len(u.words) <= task.max_symbols for u in a)
