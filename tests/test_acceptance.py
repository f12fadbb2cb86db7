"""Acceptance gate: one test per release criterion.

Each criterion prints an `ACCEPTANCE <name>: PASS ...` line (visible with
pytest -s) before asserting, with measured values and runtime.

The range-table criterion checks aggregate_ranges against the published
range means under their rounding model: the published means were computed
from unrounded per-SNR WERs and rounded to 0.1, and the per-SNR entries of
tests/reference_wer_tables.py are those WERs rounded to 0.1. So the
unrounded table lies within 0.05 of every entry, and its range means lie
within 0.05 of the published ones. Each row asserts that some table within
0.05 of the entries has all four range means, as computed by the linear map
that aggregate_ranges defines, within 0.05 of the published values. The
raw deviation of the rounded entries' means is printed alongside; it may
reach 0.10 through rounding on both sides.
"""


import math
import time

import numpy as np
import pytest

import helpers
import reference_wer_tables as tables
from snrtrain.audio import NoisePool, Waveform, measure_snr_db, mixing_gain
from snrtrain.curriculum import (DEFAULT_SNR_GRID, Decision, Schedule,
                                 StageController, build_stages)
from snrtrain.errors import DataError
from snrtrain.experiments import ComparisonSpec, run_comparison
from snrtrain.features import FEATURE_DIM, fit_norm_stats, inject_gaussian, normalize
from snrtrain.noise import NoiseSpec, generate_pink, generate_white, pink_pool_waveform
from snrtrain.pem import generate_epoch, EpochConfig
from snrtrain.task import SyntheticTask, make_corpus
from snrtrain.trainer import TrainConfig, train
from snrtrain.wer import aggregate_ranges, relative_improvement

FP_SLACK = 1e-9  # decimal tolerances compared in binary floating point


def report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")


# --- criterion 1: range-table reproduction ---------------------------------


def range_map():
    """The 4x16 matrix of aggregate_ranges, read off its unit tables."""
    columns = []
    for j in range(len(tables.CONDITIONS)):
        unit = [1.0 if i == j else 0.0 for i in range(len(tables.CONDITIONS))]
        agg = aggregate_ranges(dict(zip(tables.CONDITIONS, unit)))
        columns.append((agg.full, agg.high, agg.low, agg.roi))
    return np.array(columns).T


@pytest.mark.parametrize("method", tables.METHODS)
@pytest.mark.parametrize("noise", ["pink", "babble"])
def test_table_reproduction(noise, method):
    start = time.time()
    by_snr = tables.PINK_BY_SNR if noise == "pink" else tables.BABBLE_BY_SNR
    ranges = tables.PINK_RANGES if noise == "pink" else tables.BABBLE_RANGES
    rounded = by_snr[method]
    agg = aggregate_ranges(tables.points_for(by_snr, method))
    published = ranges[method]
    got = (agg.full, agg.high, agg.low, agg.roi)
    matrix = range_map()
    assert np.allclose(got, matrix @ rounded, rtol=0.0, atol=FP_SLACK), (
        f"aggregate_ranges is not the linear map of its unit tables: "
        f"{got} vs {tuple(matrix @ rounded)}")
    raw = max(abs(a - b) for a, b in zip(got, published))
    slack = helpers.rounding_consistent_slack(rounded, published, matrix)
    passed = slack <= 0.05 + FP_SLACK
    report(f"table-reproduction[{noise}/{method}]", passed,
           f"raw dev {raw:.4f}, rounding-consistent dev {slack:.4f}, "
           f"{time.time() - start:.3f}s")
    assert passed, (
        f"{noise}/{method}: no table within 0.05 of the rounded entries "
        f"{rounded} has range means within 0.05 of published {published}; "
        f"best reachable deviation {slack:.4f} (raw {raw:.4f})")
    assert time.time() - start < 1.0


# --- criterion 2: claimed relative improvements -----------------------------


def test_claimed_improvements():
    start = time.time()
    pink = relative_improvement(tables.PINK_RANGES["noisy_baseline"][3],
                                tables.PINK_RANGES["gauss_pem"][3])
    babble = relative_improvement(tables.BABBLE_RANGES["noisy_baseline"][3],
                                  tables.BABBLE_RANGES["accan"][3])
    passed = abs(pink - 28.0) <= 0.2 and abs(babble - 31.3) <= 0.2
    report("claimed-improvements", passed,
           f"pink roi {pink:.2f}% (want 28.0+/-0.2), "
           f"babble roi {babble:.2f}% (want 31.3+/-0.2), "
           f"{time.time() - start:.3f}s")
    assert abs(pink - 28.0) <= 0.2
    assert abs(babble - 31.3) <= 0.2


# --- criterion 3: SNR exactness ---------------------------------------------


def test_snr_exactness():
    start = time.time()
    rng = np.random.default_rng(12345)
    grid = DEFAULT_SNR_GRID
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2000, 20_000))
        signal = Waveform(rng.normal(0.0, 0.3, size=n), 16000)
        noise = Waveform(rng.normal(0.0, 0.2, size=n), 16000)
        target = float(grid[trial % len(grid)])
        gain = mixing_gain(signal, noise, target)
        achieved = measure_snr_db(signal, Waveform(gain * noise.samples, 16000))
        worst = max(worst, abs(achieved - target))
    elapsed = time.time() - start
    passed = worst <= 1e-6 and elapsed < 5.0
    report("snr-exactness", passed,
           f"worst |achieved-target| {worst:.2e} dB over 100 triples, "
           f"{elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 5.0


# --- criterion 4: noise spectra ----------------------------------------------


def test_pink_noise_spectrum():
    start = time.time()
    pink = generate_pink(NoiseSpec("pink", 2**20, 16000, seed=31))
    white = generate_white(NoiseSpec("white", 2**20, 16000, seed=31))
    pink_slope = helpers.octave_band_slope(pink)
    white_slope = helpers.octave_band_slope(white)
    elapsed = time.time() - start
    passed = abs(pink_slope + 3.0) <= 1.0 and abs(white_slope) <= 0.5 \
        and elapsed < 10.0
    report("pink-noise-spectrum", passed,
           f"pink {pink_slope:.2f} dB/oct (want -3+/-1), "
           f"white {white_slope:.2f} (want 0+/-0.5), {elapsed:.2f}s")
    assert abs(pink_slope + 3.0) <= 1.0
    assert abs(white_slope) <= 0.5
    assert elapsed < 10.0


# --- criterion 5: CTC against brute force ------------------------------------


def test_ctc_oracle():
    start = time.time()
    rng = np.random.default_rng(99)
    worst_loss = 0.0
    checked = 0
    for _ in range(200):
        num_frames = int(rng.integers(1, 7))
        num_outputs = int(rng.integers(2, 5))
        length = int(rng.integers(0, 4))
        labels = [int(v) for v in rng.integers(0, num_outputs - 1, size=length)]
        logits = rng.normal(0.0, 2.0, size=(num_frames, num_outputs))
        lp = logits - np.log(np.sum(np.exp(logits), axis=1, keepdims=True))
        ours, _ = helpers.ctc_single(lp, labels)
        reference = helpers.brute_force_ctc_loss(lp, labels)
        if math.isinf(reference):
            assert math.isinf(ours)
            continue
        worst_loss = max(worst_loss, abs(ours - reference))
        checked += 1

    worst_grad = 0.0
    step = 1e-5
    for _ in range(8):
        labels = [int(v) for v in rng.integers(0, 3, size=2)]
        logits = rng.normal(0.0, 1.0, size=(5, 4))

        def loss_at(z):
            lp = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
            return helpers.ctc_single(lp, labels)[0]

        lp = logits - np.log(np.sum(np.exp(logits), axis=1, keepdims=True))
        _, grad = helpers.ctc_single(lp, labels)
        for t in range(5):
            for k in range(4):
                up = logits.copy()
                up[t, k] += step
                down = logits.copy()
                down[t, k] -= step
                fd = (loss_at(up) - loss_at(down)) / (2 * step)
                rel = abs(fd - grad[t, k]) / max(abs(fd), abs(grad[t, k]), 1e-6)
                worst_grad = max(worst_grad, rel)
    elapsed = time.time() - start
    passed = worst_loss <= 1e-9 and worst_grad <= 1e-4 and elapsed < 30.0
    report("ctc-oracle", passed,
           f"loss dev {worst_loss:.2e} over {checked} enumerations, "
           f"grad rel dev {worst_grad:.2e}, {elapsed:.2f}s")
    assert worst_loss <= 1e-9
    assert worst_grad <= 1e-4
    assert elapsed < 30.0


# --- criterion 6: curriculum automaton ----------------------------------------


def test_curriculum_automaton():
    start = time.time()
    stages = build_stages(Schedule("accan"))
    expected = [tuple(float(v) for v in range(0, 5 * (i + 1), 5))
                for i in range(11)]
    assert stages == expected
    assert len(stages) == 11
    for small, big in zip(stages, stages[1:]):
        assert set(small) < set(big)
    reversed_stages = build_stages(Schedule("accan_reversed"))
    assert reversed_stages[0] == (50.0,)
    assert reversed_stages[1] == (50.0, 45.0)

    # scripted dev-WER trace, patience 5, against an independent simulation
    trace = [40, 30, 30, 29, 29, 29, 29, 29, 29, 20, 20, 20, 20, 20, 20]
    schedule = Schedule("accan", patience=5)
    controller = StageController(schedule)
    got = [controller.advance(w).value for w in trace]
    expected_decisions = helpers.simulate_patience_controller(
        trace, patience=5, num_stages=11,
        max_epochs=schedule.max_epochs)
    assert got == expected_decisions
    switch_epochs = [i + 1 for i, d in enumerate(got) if d == "switch_stage"]
    assert switch_epochs == [9, 15]

    # a real training run restores the stage-best weights on every switch
    task = SyntheticTask()
    result = train(
        make_corpus(task, 12, seed=21),
        make_corpus(task, 4, seed=22, id_prefix="dev"),
        Schedule("accan", patience=1, max_epochs=12),
        NoisePool(pink_pool_waveform(30.0, task.sample_rate_hz, seed=5)),
        TrainConfig(master_seed=404, learning_rate=2e-3, batch_size=8,
                    hidden_size=24, gauss_sigma=0.6),
    )
    restores = [r for r in result.records if r.decision is not Decision.CONTINUE]
    assert restores
    # train checks every restore's hash against the stage best's (a mismatch
    # raises ComputeError); the last restore left the final weights
    hashes_match = result.model.param_hash() == result.best_hash
    elapsed = time.time() - start
    report("curriculum-automaton", hashes_match,
           f"11 nested stages, switches at {switch_epochs}, "
           f"{len(restores)} checkpoint restores hash-verified, "
           f"{elapsed:.2f}s")
    assert hashes_match


# --- criterion 7: PEM determinism, freshness, rerun, buffer bound -----------


def test_pem_determinism_and_freshness():
    start = time.time()
    task = SyntheticTask()
    corpus = make_corpus(task, 30, seed=51)
    pool = NoisePool(pink_pool_waveform(60.0, task.sample_rate_hz, seed=52),
                     pool_id="pool60")

    def config_for(epoch):
        return EpochConfig(epoch, DEFAULT_SNR_GRID, master_seed=7,
                           gauss_sigma=0.6, noise_pool_id="pool60",
                           corpus_id="acceptance")

    stats = generate_epoch(config_for(0), corpus, pool).stats
    once = generate_epoch(config_for(3), corpus, pool, stats)
    twice = generate_epoch(config_for(3), corpus, pool, stats)
    deterministic = once.manifest == twice.manifest and all(
        np.array_equal(once.features[u], twice.features[u])
        for u in once.features)

    pairs = {}
    for epoch in range(20):
        data = generate_epoch(config_for(epoch), corpus, pool, stats)
        for record in data.manifest.records:
            pairs.setdefault(record.utt_id, []).append(
                (record.noise_offset, record.snr))
        del data
    total = sum(len(v) for v in pairs.values())
    unique = sum(len(set(v)) for v in pairs.values())
    freshness = unique / total

    # two identical full training runs
    train_corpus = make_corpus(task, 12, seed=21)
    dev_corpus = make_corpus(task, 4, seed=22, id_prefix="dev")
    small_pool = NoisePool(pink_pool_waveform(30.0, task.sample_rate_hz, seed=5))
    schedule = Schedule("accan", patience=1, max_epochs=8)
    runs = [train(train_corpus, dev_corpus, schedule, small_pool,
                  TrainConfig(master_seed=404, learning_rate=2e-3, batch_size=8,
                              hidden_size=24, gauss_sigma=0.6))
            for _ in range(2)]
    identical = (runs[0].log_lines == runs[1].log_lines
                 and [m.records for m in runs[0].manifests]
                 == [m.records for m in runs[1].manifests])
    max_live = max(run.max_live_epochs for run in runs)

    elapsed = time.time() - start
    passed = deterministic and freshness >= 0.99 and identical and max_live <= 2
    report("pem-determinism-freshness", passed,
           f"deterministic={deterministic}, freshness {freshness:.4f}, "
           f"rerun==rerun={identical}, max live epochs {max_live}, "
           f"{elapsed:.2f}s")
    assert deterministic
    assert freshness >= 0.99
    assert identical
    assert max_live <= 2


# --- criterion 8: feature contract --------------------------------------------


def test_feature_contract():
    start = time.time()
    rng = np.random.default_rng(60)
    mats = [rng.normal(3.0, 2.5, size=(200, FEATURE_DIM)) for _ in range(5)]
    stats = fit_norm_stats(mats)
    normalized = np.concatenate([normalize(m, stats) for m in mats])
    mean_dev = float(np.abs(normalized.mean(axis=0)).max())
    var_dev = float(np.abs(normalized.var(axis=0) - 1.0).max())

    frames = 1_000_000 // FEATURE_DIM + 1
    base = np.zeros((frames, FEATURE_DIM))
    injected = inject_gaussian(base, 0.6, np.random.default_rng(61))
    sigma = float(np.std(injected - base))

    dim_ok = normalized.shape[1] == FEATURE_DIM == 123
    with pytest.raises(DataError):
        normalize(np.zeros((4, 122)), stats)

    elapsed = time.time() - start
    passed = (dim_ok and mean_dev <= 1e-9 and var_dev <= 1e-6
              and abs(sigma - 0.6) <= 0.01)
    report("feature-contract", passed,
           f"dim 123, |mean| {mean_dev:.1e}, |var-1| {var_dev:.1e}, "
           f"sigma {sigma:.4f} (want 0.6+/-0.01), {elapsed:.2f}s")
    assert dim_ok
    assert mean_dev <= 1e-9
    assert var_dev <= 1e-6
    assert abs(sigma - 0.6) <= 0.01


# --- criterion 9: directional end-to-end --------------------------------------


def test_directional_end_to_end(tmp_path):
    start = time.time()
    result = run_comparison(ComparisonSpec(), tmp_path)
    accan_low = result.low_snr_mean("accan")
    mc_low = result.low_snr_mean("multicondition")
    clean_at_0 = result.outcomes["clean_only"].mean_wer(0.0)
    accan_at_0 = result.outcomes["accan"].mean_wer(0.0)
    mc_at_0 = result.outcomes["multicondition"].mean_wer(0.0)
    elapsed = time.time() - start

    parity = accan_low <= mc_low + 2.0
    accan_beats_clean = accan_at_0 <= clean_at_0 - 10.0
    mc_beats_clean = mc_at_0 <= clean_at_0 - 10.0
    passed = parity and accan_beats_clean and mc_beats_clean and elapsed < 1800
    report("directional-end-to-end", passed,
           f"low-SNR mean: curriculum {accan_low:.2f} vs multicondition "
           f"{mc_low:.2f} (slack +2), clean-only at 0 dB {clean_at_0:.2f} vs "
           f"{accan_at_0:.2f}/{mc_at_0:.2f} (margin 10), {elapsed:.0f}s")
    for line in result.summary_lines():
        print("  " + line)
    assert parity, f"curriculum {accan_low:.2f} > multicondition {mc_low:.2f} + 2"
    assert accan_beats_clean
    assert mc_beats_clean
    assert elapsed < 1800
