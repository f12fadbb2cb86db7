import builtins
import gc
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import file_digests, watch_generation
from snrtrain import features, model, pem, trainer, wer, workers
from snrtrain.audio import CLEAN, NoisePool, Waveform
from snrtrain.curriculum import Decision, Schedule
from snrtrain.errors import ComputeError, DataError
from snrtrain.noise import pink_pool_waveform
from snrtrain.task import SyntheticTask, Utterance, make_corpus, synth_utterance
from snrtrain.trainer import (TrainConfig, alphabet_from_corpora,
                              corpus_fingerprint, evaluate_condition_wer, train)

TASK = SyntheticTask()


@pytest.fixture(scope="module")
def tiny_setup():
    train_corpus = make_corpus(TASK, 16, seed=21)
    dev_corpus = make_corpus(TASK, 6, seed=22, id_prefix="dev")
    pool = NoisePool(pink_pool_waveform(30.0, TASK.sample_rate_hz, seed=5),
                     pool_id="pool30")
    return train_corpus, dev_corpus, pool


def tiny_config(**overrides):
    defaults = dict(master_seed=404, learning_rate=2e-3, batch_size=8,
                    hidden_size=24, gauss_sigma=0.6)
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_model(tiny_setup):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("multicondition", patience=2, max_epochs=3)
    return train(train_corpus, dev_corpus, schedule, pool, tiny_config())


def restore_epochs(result) -> list:
    """The epochs after which the run restored its stage-best weights: each
    switch and the termination."""
    return [r.epoch for r in result.records if r.decision is not Decision.CONTINUE]


def two_cpus(monkeypatch, cpus=2):
    """Make train and evaluate_condition_wer see `cpus` CPUs, whatever the
    machine has: with one, they take the serial path."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def test_alphabet_is_sorted_and_shared():
    corpus = make_corpus(TASK, 4, seed=0)
    alphabet = alphabet_from_corpora(corpus)
    assert alphabet.symbols == tuple(sorted(alphabet.symbols))
    assert alphabet.num_outputs == len(alphabet.symbols) + 1


def test_pool_must_cover_longest_utterance(tiny_setup):
    train_corpus, dev_corpus, _ = tiny_setup
    short_pool = NoisePool(pink_pool_waveform(0.1, TASK.sample_rate_hz, seed=1))
    with pytest.raises(DataError, match="pool"):
        train(train_corpus, dev_corpus, Schedule("multicondition", patience=1),
              short_pool, tiny_config())


def test_training_log_is_reproducible(tiny_setup):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("multicondition", patience=2, max_epochs=4)
    a = train(train_corpus, dev_corpus, schedule, pool, tiny_config())
    b = train(train_corpus, dev_corpus, schedule, pool, tiny_config())
    assert a.log_lines == b.log_lines
    assert a.model.param_hash() == b.model.param_hash()
    assert [m.records for m in a.manifests] == [m.records for m in b.manifests]


# train_log lines and best_hash of the tiny runs, recorded with the earlier
# per-utterance CTC recursion: a change to the arithmetic of training (CTC,
# model, Adam, data generation) shows up here as a changed line or hash
GOLDEN_RUNS = {
    ("multicondition", 2, 4): ("b0b51fd88901a4fa", (
        "1\t0\t71.753189\t582.6087\tcontinue",
        "2\t0\t65.766454\t426.0870\tcontinue",
        "3\t0\t56.994253\t282.6087\tcontinue",
        "4\t0\t59.140693\t226.0870\tterminate",
    )),
    ("accan", 1, 8): ("23cebf29325cef8f", (
        "1\t0\t71.617372\t604.3478\tcontinue",
        "2\t0\t69.734195\t578.2609\tcontinue",
        "3\t0\t68.348842\t569.5652\tcontinue",
        "4\t0\t64.455818\t552.1739\tcontinue",
        "5\t0\t62.477648\t530.4348\tcontinue",
        "6\t0\t59.119083\t504.3478\tcontinue",
        "7\t0\t59.267919\t504.3478\tswitch_stage",
        "8\t1\t57.100659\t500.0000\tterminate",
    )),
}


@pytest.mark.parametrize("kind,patience,max_epochs", sorted(GOLDEN_RUNS))
def test_tiny_run_matches_golden(tiny_setup, kind, patience, max_epochs):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule(kind, patience=patience, max_epochs=max_epochs)
    result = train(train_corpus, dev_corpus, schedule, pool, tiny_config())
    best_hash, log_lines = GOLDEN_RUNS[kind, patience, max_epochs]
    assert tuple(result.log_lines) == log_lines
    assert result.best_hash == best_hash


# resume fingerprint of tiny_config() under the golden multicondition
# schedule and the tiny pool, recorded when the fingerprint came to cover
# the pool's id, length and sample rate
TINY_FINGERPRINT = "11e5ec1c8da44dc0"


def test_fingerprint_is_pinned_and_covers_every_field(tiny_setup):
    schedule = Schedule("multicondition", patience=2, max_epochs=4)
    corpus_id = corpus_fingerprint(tiny_setup[0])
    pool = tiny_setup[2]
    config = tiny_config()
    assert config.fingerprint(schedule, corpus_id, pool) == TINY_FINGERPRINT
    for f in fields(TrainConfig):
        changed = replace(config, **{f.name: getattr(config, f.name) + 1})
        assert changed.fingerprint(schedule, corpus_id, pool) != TINY_FINGERPRINT, f.name


def test_fingerprint_covers_the_adam_constants(tiny_setup, monkeypatch):
    schedule = Schedule("multicondition", patience=2, max_epochs=4)
    corpus_id = corpus_fingerprint(tiny_setup[0])
    for name in ("ADAM_BETA1", "ADAM_BETA2", "ADAM_EPS"):
        with monkeypatch.context() as patch:
            patch.setattr(model, name, getattr(model, name) / 2)
            assert tiny_config().fingerprint(schedule, corpus_id, tiny_setup[2]) \
                != TINY_FINGERPRINT, name


def test_dev_wers_are_exact_and_logs_round_them(tiny_setup, tmp_path):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("accan", patience=1, max_epochs=8)
    result = train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                   out_dir=tmp_path)
    with np.load(tmp_path / "state.npz") as arrays:
        meta = json.loads(arrays["meta"].tobytes())
    assert result.dev_wers == [wer for _, _, _, wer, _ in meta["epochs"]]
    train_log = (tmp_path / "train_log.tsv").read_text().splitlines()
    stage_log = (tmp_path / "stage_log.tsv").read_text().splitlines()
    assert train_log == result.log_lines
    for wer, train_line, stage_line in zip(result.dev_wers, train_log, stage_log,
                                           strict=True):
        assert train_line.split("\t")[3] == f"{wer:.4f}"
        assert stage_line.split("\t")[2] == f"{wer:.4f}"
    assert any(float(f"{wer:.4f}") != wer for wer in result.dev_wers)


def test_stage_switch_restores_stage_best_weights(tiny_setup):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("accan", patience=1, max_epochs=10)
    result = train(train_corpus, dev_corpus, schedule, pool, tiny_config())
    # train checks each restore's hash against the stage best's
    assert any(r.decision is Decision.SWITCH_STAGE for r in result.records)
    # the terminating epoch restores the last stage's best weights too
    assert result.model.param_hash() == result.best_hash
    assert restore_epochs(result)[-1] == result.epochs_run


def test_restore_that_misses_the_stage_best_is_a_compute_error(tiny_setup,
                                                               monkeypatch):
    train_corpus, dev_corpus, pool = tiny_setup
    set_params = model.RecurrentCtcModel.set_params

    def perturbing_set_params(self, params):
        set_params(self, params)
        self.params["b_out"][0] += 1.0

    monkeypatch.setattr(model.RecurrentCtcModel, "set_params", perturbing_set_params)
    schedule = Schedule("accan", patience=1, max_epochs=5)
    with pytest.raises(ComputeError, match="epoch 2: restored weights"):
        train(train_corpus, dev_corpus, schedule, pool, tiny_config(master_seed=5))


def test_dev_wer_positive_and_logged(tiny_setup):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("multicondition", patience=2, max_epochs=3)
    result = train(train_corpus, dev_corpus, schedule, pool, tiny_config())
    assert len(result.log_lines) == result.epochs_run
    for line in result.log_lines:
        epoch, stage, loss, wer, decision = line.split("\t")
        assert float(loss) > 0
        assert float(wer) >= 0


def test_clean_only_toy_run_converges():
    # spec-scale oracle: 200 clean utterances reach < 10% dev WER fast
    train_corpus = make_corpus(TASK, 200, seed=31)
    dev_corpus = make_corpus(TASK, 50, seed=32, id_prefix="dev")
    pool = NoisePool(pink_pool_waveform(30.0, TASK.sample_rate_hz, seed=6))
    schedule = Schedule("multicondition", grid=(CLEAN,), patience=3,
                        max_epochs=60)
    result = train(train_corpus, dev_corpus, schedule, pool,
                   tiny_config(master_seed=777, hidden_size=64,
                               gauss_sigma=0.0))
    assert result.epochs_run <= 60
    assert min(result.dev_wers) < 10.0


def test_resume_matches_uninterrupted_run(tiny_setup, tmp_path):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("multicondition", patience=2, max_epochs=6)

    full_dir = tmp_path / "full"
    full = train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                 out_dir=full_dir)

    resumed_dir = tmp_path / "resumed"
    first = train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                  out_dir=resumed_dir, stop_after=2)
    assert first.status == "stopped"
    second = train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                   out_dir=resumed_dir)
    assert second.status == "terminated"
    assert second.log_lines == full.log_lines
    assert second.model.param_hash() == full.model.param_hash()
    assert (resumed_dir / "train_log.tsv").read_text() == \
        (full_dir / "train_log.tsv").read_text()
    manifests = sorted(p.name for p in (resumed_dir / "manifests").iterdir())
    assert manifests == [f"epoch_{i:04d}.manifest" for i in range(full.epochs_run)]


def test_crashed_run_resumes_from_its_last_epoch(tiny_setup, tmp_path,
                                                 monkeypatch):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("accan", patience=1, max_epochs=10)
    full_dir = tmp_path / "full"
    full = train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                 out_dir=full_dir)
    # the resumed part restores stage-best weights at a switch and at the stop
    assert full.epochs_run == 10 and len(restore_epochs(full)) == 2

    crashed_dir = tmp_path / "crashed"
    calls = []
    corpus_wer = trainer.corpus_wer

    def failing_wer(refs, hyps):
        calls.append(None)
        if len(calls) == 5:
            raise RuntimeError("injected failure")
        return corpus_wer(refs, hyps)

    with monkeypatch.context() as patch:
        patch.setattr(trainer, "corpus_wer", failing_wer)
        with pytest.raises(RuntimeError, match="injected failure"):
            train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                  out_dir=crashed_dir)
    resumed = train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                    out_dir=crashed_dir)
    assert resumed.epochs_run == 6  # epochs 1-4 were saved before the crash
    assert resumed.log_lines == full.log_lines
    assert file_digests(crashed_dir) == file_digests(full_dir)
    assert not list(crashed_dir.rglob("*.tmp"))


class InjectedCrash(Exception):
    pass


def crash_at_write(patch, run_dir, n) -> list:
    """Make the n-th write-mode open or os.replace of a path under run_dir
    raise InjectedCrash; returns the list of those paths seen so far."""
    calls = []
    prefix = os.path.join(str(run_dir), "")
    open_file, replace_file = builtins.open, os.replace

    def count(path):
        if isinstance(path, (str, os.PathLike)) and os.fspath(path).startswith(prefix):
            calls.append(os.fspath(path))
            if len(calls) == n:
                raise InjectedCrash(path)

    def crashing_open(file, mode="r", *args, **kwargs):
        if any(flag in mode for flag in "wax+"):
            count(file)
        return open_file(file, mode, *args, **kwargs)

    def crashing_replace(src, dst, **kwargs):
        count(dst)
        replace_file(src, dst, **kwargs)

    patch.setattr(builtins, "open", crashing_open)
    patch.setattr(os, "replace", crashing_replace)
    return calls


def sweep_crashes(run, tmp_path, monkeypatch, full_dir, full, stopped_first):
    """Crash run (a train call into the directory it is given) at each of its
    writes in turn and resume it; each resumed directory must equal full_dir.
    With stopped_first, each crashed call resumes a run stopped after 2
    epochs."""
    start_dir = tmp_path / "start"
    if stopped_first:
        assert run(start_dir, stop_after=2).status == "stopped"

    crash_point = 0
    while True:
        crash_point += 1
        run_dir = tmp_path / f"crash{crash_point}"
        if stopped_first:
            shutil.copytree(start_dir, run_dir)
        with monkeypatch.context() as patch:
            calls = crash_at_write(patch, run_dir, crash_point)
            try:
                run(run_dir)
            except InjectedCrash:
                pass
            else:
                break
        resumed = run(run_dir)
        assert file_digests(run_dir) == file_digests(full_dir), calls[-1]
        assert resumed.log_lines == full.log_lines
        assert resumed.best_hash == full.best_hash
        assert not list(run_dir.rglob("*.tmp")), calls[-1]
        shutil.rmtree(run_dir)

    # the untouched last call reached every kind of write
    assert len(calls) == crash_point - 1
    written = {os.path.basename(path).removesuffix(".tmp") for path in calls}
    assert written >= {"stats.feat", "train_log.tsv", "stage_log.tsv",
                       "final.ckpt", "state.npz", "epoch_0004.manifest"}


def crash_sweep_run(tiny_setup):
    """The run the crash sweeps crash: accan at patience 1, which switches
    at epochs 2 and 5, into the directory it is given."""
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("accan", patience=1, max_epochs=5)

    def run(out_dir, **kwargs):
        return train(train_corpus, dev_corpus, schedule, pool,
                     tiny_config(master_seed=5), out_dir=out_dir, **kwargs)

    return run


@pytest.mark.parametrize("stopped_first", [False, True])
def test_crash_at_every_write_resumes_into_the_uninterrupted_files(
        tiny_setup, tmp_path, monkeypatch, stopped_first):
    run = crash_sweep_run(tiny_setup)
    full_dir = tmp_path / "full"
    full = run(full_dir)
    assert restore_epochs(full) == [2, 5]
    sweep_crashes(run, tmp_path, monkeypatch, full_dir, full, stopped_first)


def test_records_round_trip_exactly_through_the_state(tiny_setup, tmp_path):
    run = crash_sweep_run(tiny_setup)
    full = run(tmp_path)
    assert restore_epochs(full) == [2, 5]
    with np.load(tmp_path / "state.npz") as arrays:
        meta = json.loads(arrays["meta"].tobytes())
    assert meta["epochs"] == [[r.epoch, r.stage, r.train_loss, r.dev_wer,
                               r.decision.value] for r in full.records]
    # the run is terminated, so a rerun only restores its records
    rerun = run(tmp_path)
    assert rerun.epochs_run == 0 and rerun.records == full.records
    # the logs round both values; the records keep them exact
    assert any(float(f"{r.train_loss:.6f}") != r.train_loss for r in full.records)
    assert any(float(f"{r.dev_wer:.4f}") != r.dev_wer for r in full.records)


def test_record_after_the_termination_is_refused(tiny_setup, tmp_path):
    run = crash_sweep_run(tiny_setup)
    full = run(tmp_path)
    assert full.status == "terminated"
    state_path = tmp_path / "state.npz"
    with np.load(state_path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    meta = json.loads(arrays["meta"].tobytes())
    # at the epoch cap every further epoch replays as a termination too
    meta["epochs"].append([6] + meta["epochs"][-1][1:])
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(state_path, **arrays)
    with pytest.raises(DataError, match="state.npz: epoch 6 of the saved records"):
        run(tmp_path)


def test_resume_rejects_changed_config(tiny_setup, tmp_path):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("multicondition", patience=2, max_epochs=4)
    out_dir = tmp_path / "run"
    train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
          out_dir=out_dir, stop_after=1)
    shorter = Waveform(pool.noise.samples[:-1], pool.noise.sample_rate_hz)
    for changed_pool, config in [(pool, tiny_config(learning_rate=5e-3)),
                                 (NoisePool(pool.noise, pool_id="pool31"), tiny_config()),
                                 (NoisePool(shorter, pool_id=pool.pool_id), tiny_config())]:
        with pytest.raises(DataError, match="fingerprint"):
            train(train_corpus, dev_corpus, schedule, changed_pool, config,
                  out_dir=out_dir)


def test_flipped_state_byte_restores_the_same_state_or_is_refused(tiny_setup, tmp_path):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("multicondition", patience=2, max_epochs=1)
    run_dir = tmp_path / "run"

    def run():  # the run is terminated, so a rerun only restores and rewrites
        return train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                     out_dir=run_dir)

    def outputs():
        digests = file_digests(run_dir)
        del digests["state.npz"]
        return digests

    untouched = run()
    expected = outputs()
    state_path = run_dir / "state.npz"
    state = state_path.read_bytes()
    # the shape digits of the first member, param:w_in: unless the CRC is
    # checked, numpy loads an array of the shape they say
    shape = state.index(b"'shape': (") + len(b"'shape': (")
    digits = [i for i in range(shape, state.index(b")", shape))
              if chr(state[i]).isdigit()]
    rng = np.random.default_rng(18)
    flips = [(i, 0x01) for i in digits] + list(zip(
        rng.integers(len(state), size=1000).tolist(),
        rng.integers(1, 256, size=1000).tolist()))
    refused = set()
    for offset, mask in flips:
        damaged = bytearray(state)
        damaged[offset] ^= mask
        state_path.write_bytes(bytes(damaged))
        try:
            result = run()
        except DataError as err:
            assert "state.npz" in str(err), (offset, mask)
            refused.add(offset)
            continue
        assert outputs() == expected, (offset, mask)
        assert (result.best_hash, result.records) == \
            (untouched.best_hash, untouched.records), (offset, mask)
    assert refused >= set(digits)


def test_infeasible_utterance_aborts_with_context(tiny_setup):
    _, dev_corpus, pool = tiny_setup
    rng = np.random.default_rng(0)
    # one frame of audio cannot align five labels
    stub = Utterance("bad0000",
                     Waveform(synth_utterance(["a"], TASK, rng).samples[:480],
                              TASK.sample_rate_hz),
                     ("a", "b", "a", "b", "a"))
    corpus = make_corpus(TASK, 4, seed=41) + (stub,)
    schedule = Schedule("multicondition", patience=1, max_epochs=2)
    with pytest.raises(ComputeError, match="bad0000"):
        train(corpus, dev_corpus, schedule, pool, tiny_config())


def test_evaluate_condition_wer_runs_clean_and_noisy(tiny_setup, tiny_model):
    _, dev_corpus, pool = tiny_setup
    result = tiny_model
    clean_wer = evaluate_condition_wer(result.model, result.alphabet,
                                       result.stats, dev_corpus, pool, CLEAN,
                                       eval_seed=1)
    noisy_wer = evaluate_condition_wer(result.model, result.alphabet,
                                       result.stats, dev_corpus, pool, -10.0,
                                       eval_seed=1)
    assert clean_wer >= 0.0
    assert noisy_wer >= 0.0
    repeat = evaluate_condition_wer(result.model, result.alphabet, result.stats,
                                    dev_corpus, pool, -10.0, eval_seed=1)
    assert repeat == noisy_wer


# WERs of the tiny model, recorded before clean evaluation went through the
# mixer and evaluation through pem.render
PINNED_CONDITION_WERS = {CLEAN: 543.4782608695652, -10.0: 78.26086956521739}


@pytest.mark.parametrize("condition", [CLEAN, -10.0])
def test_evaluate_condition_wer_is_pinned(tiny_setup, tiny_model, condition):
    _, dev_corpus, pool = tiny_setup
    assert evaluate_condition_wer(
        tiny_model.model, tiny_model.alphabet, tiny_model.stats, dev_corpus,
        pool, condition, eval_seed=1) == PINNED_CONDITION_WERS[condition]


def test_fresh_run_renders_each_trained_epoch_once(tiny_setup, monkeypatch,
                                                   tmp_path):
    two_cpus(monkeypatch, cpus=1)  # the serial path: every render is counted here
    train_corpus, dev_corpus, pool = tiny_setup
    calls = []
    featurize = features.featurize_waveform

    def counting_featurize(waveform):
        calls.append(len(waveform))
        return featurize(waveform)

    monkeypatch.setattr(features, "featurize_waveform", counting_featurize)
    schedule = Schedule("multicondition", patience=3, max_epochs=3)
    result = train(train_corpus, dev_corpus, schedule, pool, tiny_config())
    assert result.epochs_run == 3
    # the stats render is epoch 0, and nothing is prefetched past epoch 2
    assert len(calls) == 3 * len(train_corpus) + len(dev_corpus)

    # a resumed run renders the epochs it trains, and its dev set, and
    # fits no stats: they come from the saved state
    out_dir = tmp_path / "run"
    train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
          out_dir=out_dir, stop_after=1)
    fits = []
    monkeypatch.setattr(features, "fit_norm_stats", fits.append)
    calls.clear()
    resumed = train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                    out_dir=out_dir)
    assert resumed.epochs_run == 2
    assert len(calls) == 2 * len(train_corpus) + len(dev_corpus)
    assert fits == []
    assert resumed.log_lines == result.log_lines


def test_only_the_current_stage_dev_set_is_kept(tiny_setup, monkeypatch):
    train_corpus, dev_corpus, pool = tiny_setup
    decode = trainer.decode_utterances
    stages = []  # weakrefs to the dev matrices of each stage entered
    alive_at_entry = []  # earlier stages' matrices alive as each is entered

    def watching_decode(model, alphabet, pairs, batch_size=16):
        if not stages or stages[-1][0]() is not pairs[0][1]:
            alive_at_entry.append(sum(ref() is not None
                                      for refs in stages for ref in refs))
            stages.append([weakref.ref(feats) for _, feats in pairs])
        return decode(model, alphabet, pairs, batch_size)

    monkeypatch.setattr(trainer, "decode_utterances", watching_decode)
    schedule = Schedule("accan", patience=1, max_epochs=5)
    result = train(train_corpus, dev_corpus, schedule, pool,
                   tiny_config(master_seed=5))
    assert restore_epochs(result) == [2, 5]
    assert [len(refs) for refs in stages] == [len(dev_corpus)] * 2
    assert alive_at_entry == [0, 0]


def test_each_epoch_is_freed_before_the_next_is_generated(tiny_setup, monkeypatch,
                                                          tmp_path):
    two_cpus(monkeypatch, cpus=1)
    train_corpus, dev_corpus, pool = tiny_setup
    made = watch_generation(monkeypatch)
    schedule = Schedule("accan", patience=1, max_epochs=5)
    out_dir = tmp_path / "run"
    result = train(train_corpus, dev_corpus, schedule, pool,
                   tiny_config(master_seed=5), out_dir=out_dir)
    assert restore_epochs(result) == [2, 5]
    assert [cfg.epoch_index for cfg, _ in made] == [0, 1, 2, 3, 4]
    assert result.max_live_epochs == 1
    # resuming the terminated run generates no epoch
    resumed = train(train_corpus, dev_corpus, schedule, pool,
                    tiny_config(master_seed=5), out_dir=out_dir)
    assert resumed.epochs_run == 0 and resumed.max_live_epochs == 0
    assert len(made) == 5


def test_epoch_after_a_switch_draws_from_the_wider_stage(tiny_setup, monkeypatch):
    two_cpus(monkeypatch, cpus=1)
    train_corpus, dev_corpus, pool = tiny_setup
    made = watch_generation(monkeypatch)
    schedule = Schedule("accan", patience=1, max_epochs=5)
    result = train(train_corpus, dev_corpus, schedule, pool,
                   tiny_config(master_seed=5))
    assert restore_epochs(result)[0] == 2  # epoch 2 opens stage 1
    stages = [set(cfg.stage_snr_set) for cfg, _ in made]
    drawn = [{r.snr for r in m.records} for m in result.manifests]
    assert stages[0] == stages[1] < stages[2]
    assert all(d <= stage for d, stage in zip(drawn, stages))
    assert not drawn[2] <= stages[1]


def test_stop_after_generates_exactly_that_many_epochs(tiny_setup, monkeypatch):
    two_cpus(monkeypatch, cpus=1)
    train_corpus, dev_corpus, pool = tiny_setup
    made = watch_generation(monkeypatch)
    schedule = Schedule("multicondition", patience=10, max_epochs=8)
    result = train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                   stop_after=3)
    assert result.status == "stopped" and result.epochs_run == 3
    assert [cfg.epoch_index for cfg, _ in made] == [0, 1, 2]


def test_generation_failure_resumes_into_the_uninterrupted_files(
        tiny_setup, tmp_path, monkeypatch):
    two_cpus(monkeypatch, cpus=1)
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("multicondition", patience=2, max_epochs=3)
    full_dir = tmp_path / "full"
    train(train_corpus, dev_corpus, schedule, pool, tiny_config(), out_dir=full_dir)

    generate = pem.generate_epoch

    def failing_generate(cfg, corpus, pool, stats=None, out=None):
        if cfg.epoch_index == 1:
            raise DataError("injected failure")
        return generate(cfg, corpus, pool, stats, out)

    crashed_dir = tmp_path / "crashed"
    with monkeypatch.context() as patch:
        patch.setattr(pem, "generate_epoch", failing_generate)
        with pytest.raises(DataError, match="injected failure"):
            train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                  out_dir=crashed_dir)
    # epoch 0 trained and was saved before the failure
    assert [p.name for p in (crashed_dir / "manifests").iterdir()] == \
        ["epoch_0000.manifest"]
    resumed = train(train_corpus, dev_corpus, schedule, pool, tiny_config(),
                    out_dir=crashed_dir)
    assert resumed.epochs_run == 2
    assert file_digests(crashed_dir) == file_digests(full_dir)


SHORT_DEV = Utterance("devshort", Waveform(0.1 * np.ones(100), TASK.sample_rate_hz),
                      ("a",))


def test_dev_render_error_names_the_utterance(tiny_setup):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("multicondition", patience=2, max_epochs=2)
    with pytest.raises(DataError, match="'devshort'.*shorter than one"):
        train(train_corpus, dev_corpus + (SHORT_DEV,), schedule, pool,
              tiny_config())


@pytest.mark.parametrize("condition", [CLEAN, -10.0])
def test_evaluation_render_error_names_the_utterance(tiny_setup, tiny_model,
                                                     condition):
    _, dev_corpus, pool = tiny_setup
    with pytest.raises(DataError, match="'devshort'.*shorter than one"):
        evaluate_condition_wer(tiny_model.model, tiny_model.alphabet,
                               tiny_model.stats, dev_corpus + (SHORT_DEV,),
                               pool, condition, eval_seed=1)


# --- decode workers -------------------------------------------------------


def worker_pids() -> set:
    return {p.pid for p in multiprocessing.active_children()}


def running(pid: int) -> bool:
    """Whether pid is a live process (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def no_workers():
    workers.stop()
    yield
    workers.stop()


@pytest.fixture(scope="module")
def test_corpus():
    return make_corpus(TASK, 33, seed=23, id_prefix="test")


@pytest.mark.parametrize("batch_size", [1, 7, 16])
@pytest.mark.parametrize("size", [1, 16, 17, 33])
def test_worker_table_equals_serial(tiny_setup, tiny_model, test_corpus,
                                    monkeypatch, no_workers, size, batch_size):
    pool = tiny_setup[2]
    corpus = test_corpus[:size]

    def table():
        return [evaluate_condition_wer(tiny_model.model, tiny_model.alphabet,
                                       tiny_model.stats, corpus, pool, c,
                                       eval_seed=3, batch_size=batch_size)
                for c in wer.CONDITIONS]

    two_cpus(monkeypatch, cpus=1)
    serial = table()
    assert not worker_pids()
    two_cpus(monkeypatch)
    assert table() == serial
    assert len(worker_pids()) == (1 if size > batch_size else 0)


def test_render_error_in_the_second_worker_names_the_utterance(
        tiny_setup, tiny_model, monkeypatch, no_workers):
    _, dev_corpus, pool = tiny_setup
    two_cpus(monkeypatch)
    # 7 utterances in batches of 2: the parent takes items 0-3, the worker 4-6
    with pytest.raises(DataError, match="'devshort'.*shorter than one"):
        evaluate_condition_wer(tiny_model.model, tiny_model.alphabet,
                               tiny_model.stats, dev_corpus + (SHORT_DEV,),
                               pool, -10.0, eval_seed=1, batch_size=2)
    assert len(worker_pids()) == 1


@pytest.mark.parametrize("case", ["one_cpu", "one_batch", "no_blas_setter",
                                  "in_a_worker"])
def test_serial_fallbacks_start_no_process(tiny_setup, tiny_model, monkeypatch,
                                           no_workers, case):
    _, dev_corpus, pool = tiny_setup
    batch_size = 16 if case == "one_batch" else 2
    two_cpus(monkeypatch, cpus=1 if case == "one_cpu" else 2)
    if case == "no_blas_setter":
        monkeypatch.setattr(workers, "_openblas", lambda: None)

    def evaluate():
        return evaluate_condition_wer(tiny_model.model, tiny_model.alphabet,
                                      tiny_model.stats, dev_corpus, pool, -10.0,
                                      eval_seed=1, batch_size=batch_size)

    if case != "in_a_worker":
        assert evaluate() == PINNED_CONDITION_WERS[-10.0]
        assert workers._forked is None and not worker_pids()
        return
    reader, writer = multiprocessing.Pipe(duplex=False)

    def child():
        writer.send((evaluate(), workers._forked is None, worker_pids()))

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    assert reader.poll(60)
    result = reader.recv()
    process.join(60)
    assert not process.is_alive()
    assert result == (PINNED_CONDITION_WERS[-10.0], True, set())


def test_slot_views_have_the_featurized_shape():
    win, hop = features.frame_sizes(TASK.sample_rate_hz)
    rng = np.random.default_rng(3)
    corpus = tuple(Utterance(f"len{n}", Waveform(rng.normal(0.0, 0.1, n),
                                                 TASK.sample_rate_hz), ("a",))
                   for n in (win, win + hop - 1, win + hop))
    views = workers._EpochSlots(corpus).features(0)
    for u in corpus:
        assert views[u.utt_id].shape == features.featurize_waveform(u.waveform).shape


def test_workers_are_kept_for_the_same_corpus_and_pool(tiny_setup, tiny_model,
                                                       monkeypatch, no_workers):
    _, dev_corpus, pool = tiny_setup
    two_cpus(monkeypatch)

    def evaluate(pool):
        return evaluate_condition_wer(tiny_model.model, tiny_model.alphabet,
                                      tiny_model.stats, dev_corpus, pool, -10.0,
                                      eval_seed=1, batch_size=2)

    assert evaluate(pool) == PINNED_CONDITION_WERS[-10.0]
    first = worker_pids()
    assert len(first) == 1
    assert evaluate(pool) == PINNED_CONDITION_WERS[-10.0]
    assert worker_pids() == first
    assert evaluate(NoisePool(pool.noise, pool.pool_id)) == PINNED_CONDITION_WERS[-10.0]
    second = worker_pids()
    assert len(second) == 1 and not second & first


def test_dead_worker_is_a_compute_error_and_the_next_call_starts_afresh(
        tiny_setup, tiny_model, monkeypatch, no_workers):
    _, dev_corpus, pool = tiny_setup
    two_cpus(monkeypatch)

    def evaluate():
        return evaluate_condition_wer(tiny_model.model, tiny_model.alphabet,
                                      tiny_model.stats, dev_corpus, pool, -10.0,
                                      eval_seed=1, batch_size=2)

    evaluate()
    first = worker_pids()
    victim = min(first)
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while running(victim) and time.monotonic() < deadline:
        time.sleep(0.01)
    with pytest.raises(ComputeError, match="a worker died .*condition -10"):
        evaluate()
    assert workers._forked is None
    assert evaluate() == PINNED_CONDITION_WERS[-10.0]
    assert len(worker_pids()) == 1 and not worker_pids() & first


# One evaluation on the parent and one worker; "forever" repeats it until
# killed.
WORKER_SCRIPT = """
import multiprocessing, os, sys
import numpy as np
from snrtrain import trainer
from snrtrain.audio import NoisePool
from snrtrain.features import NormStats
from snrtrain.model import ModelConfig, RecurrentCtcModel
from snrtrain.noise import pink_pool_waveform
from snrtrain.task import SyntheticTask, make_corpus

os.sched_getaffinity = lambda pid: {0, 1}
task = SyntheticTask()
corpus = make_corpus(task, 4, seed=1)
alphabet = trainer.alphabet_from_corpora(corpus)
model = RecurrentCtcModel(ModelConfig(alphabet.num_outputs, hidden_size=8))
stats = NormStats(np.zeros(123), np.ones(123))
pool = NoisePool(pink_pool_waveform(2.0, task.sample_rate_hz, seed=1))
evaluate = lambda: trainer.evaluate_condition_wer(
    model, alphabet, stats, corpus, pool, -5.0, 1, batch_size=2)
evaluate()
print(*sorted(p.pid for p in multiprocessing.active_children()), flush=True)
while sys.argv[1] == "forever":
    evaluate()
"""


def test_workers_end_with_a_normal_exit():
    proc = subprocess.run([sys.executable, "-c", WORKER_SCRIPT, "once"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) == 1
    assert not any(running(pid) for pid in pids)


def test_workers_end_when_the_parent_is_killed():
    proc = subprocess.Popen([sys.executable, "-c", WORKER_SCRIPT, "forever"],
                            stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert len(pids) == 1
    deadline = time.monotonic() + 5.0
    while any(running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(running(pid) for pid in pids)


# --- training epochs rendered on the workers --------------------------------


def blas_threads() -> int:
    return workers._openblas()[0]()


def no_task_pending() -> bool:
    return not workers._forked.executor._pending_work_items


def log_renders(patch, path) -> None:
    """Wrap pem.generate_epoch so that each call, in this process or in a
    worker forked after this, appends "<pid> <epoch index> <stage size>" to
    path."""
    generate = pem.generate_epoch

    def logging_generate(cfg, corpus, pool, stats=None, out=None):
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()} {cfg.epoch_index} {len(cfg.stage_snr_set)}\n")
        return generate(cfg, corpus, pool, stats, out)

    patch.setattr(pem, "generate_epoch", logging_generate)


def renders(path) -> list:
    """(pid, epoch index, stage size) of each logged render, in order."""
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("case", ["multicondition", "accan", "stop_and_resume",
                                  "worker_data_error"])
def test_worker_path_equals_serial(tiny_setup, tmp_path, monkeypatch, no_workers,
                                   case):
    train_corpus, dev_corpus, pool = tiny_setup
    # accan at patience 1 switches at epochs 2 and 5, so a speculated epoch
    # is discarded
    schedule = Schedule("accan", patience=1, max_epochs=5) if case == "accan" \
        else Schedule("multicondition", patience=2, max_epochs=4)
    generate = pem.generate_epoch

    def failing_generate(cfg, corpus, pool, stats=None, out=None):
        if cfg.epoch_index == 1:
            raise DataError(f"injected failure in {os.getpid()}")
        return generate(cfg, corpus, pool, stats, out)

    def run(out_dir, **kwargs):
        return train(train_corpus, dev_corpus, schedule, pool,
                     tiny_config(master_seed=5), out_dir=out_dir, **kwargs)

    def outcome(cpus):
        two_cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"cpus{cpus}"
        if case == "stop_and_resume":
            assert run(out_dir, stop_after=2).status == "stopped"
        elif case == "worker_data_error":
            with monkeypatch.context() as patch:
                patch.setattr(pem, "generate_epoch", failing_generate)
                with pytest.raises(DataError, match="injected failure") as err:
                    run(out_dir)
            in_a_worker = str(err.value) != f"injected failure in {os.getpid()}"
            assert in_a_worker == (cpus == 2)
            # its workers were forked with the failing generate_epoch
            workers.stop()
            assert [p.name for p in (out_dir / "manifests").iterdir()] == \
                ["epoch_0000.manifest"]
        result = run(out_dir)
        assert (workers._forked is not None) == (cpus == 2)
        if cpus == 2:
            assert no_task_pending()
        return (result.log_lines, result.best_hash,
                [m.to_text() for m in result.manifests], file_digests(out_dir))

    threads = blas_threads()
    serial = outcome(1)
    assert workers._forked is None and blas_threads() == threads
    assert outcome(2) == serial
    assert len(worker_pids()) == 1 and blas_threads() == 1
    workers.stop()
    assert blas_threads() == threads


def test_dead_render_worker_is_a_compute_error_and_the_rerun_resumes(
        tiny_setup, tmp_path, monkeypatch, no_workers):
    train_corpus, dev_corpus, pool = tiny_setup
    schedule = Schedule("multicondition", patience=2, max_epochs=4)
    two_cpus(monkeypatch)

    def run(out_dir):
        return train(train_corpus, dev_corpus, schedule, pool,
                     tiny_config(master_seed=5), out_dir=out_dir)

    full_dir = tmp_path / "full"
    run(full_dir)
    workers.stop()
    threads = blas_threads()
    parent = os.getpid()
    generate = pem.generate_epoch

    def dying_generate(cfg, corpus, pool, stats=None, out=None):
        if cfg.epoch_index == 2 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return generate(cfg, corpus, pool, stats, out)

    crashed_dir = tmp_path / "crashed"
    with monkeypatch.context() as patch:
        patch.setattr(pem, "generate_epoch", dying_generate)
        with pytest.raises(ComputeError, match="a worker died rendering epoch 2"):
            run(crashed_dir)
    assert workers._forked is None and blas_threads() == threads
    assert sorted(p.name for p in (crashed_dir / "manifests").iterdir()) == \
        ["epoch_0000.manifest", "epoch_0001.manifest"]
    assert run(crashed_dir).epochs_run == 2
    assert file_digests(crashed_dir) == file_digests(full_dir)


@pytest.mark.parametrize("stopped_first", [False, True])
def test_worker_crash_at_every_write_resumes_into_the_serial_files(
        tiny_setup, tmp_path, monkeypatch, stopped_first):
    run = crash_sweep_run(tiny_setup)
    two_cpus(monkeypatch, cpus=1)
    serial_dir = tmp_path / "serial"
    serial = run(serial_dir)
    two_cpus(monkeypatch)

    def checked_run(out_dir, **kwargs):
        try:
            return run(out_dir, **kwargs)
        finally:
            assert no_task_pending()

    sweep_crashes(checked_run, tmp_path, monkeypatch, serial_dir, serial,
                  stopped_first)


def test_workers_render_each_trained_epoch_once_and_none_past_the_end(
        tiny_setup, tmp_path, monkeypatch, no_workers):
    train_corpus, dev_corpus, pool = tiny_setup
    two_cpus(monkeypatch)
    log = tmp_path / "renders"
    log_renders(monkeypatch, log)

    def run(schedule, **kwargs):
        log.write_text("")
        result = train(train_corpus, dev_corpus, schedule, pool,
                       tiny_config(master_seed=5), **kwargs)
        assert no_task_pending()
        made = renders(log)
        assert os.getpid() not in {pid for pid, _, _ in made}
        return result, [(epoch, size) for _, epoch, size in made]

    # the workers render every epoch; epoch 2, made in stage 0 before the
    # switch to stage 1, is rendered again; epoch 4 is the last (max_epochs 5)
    accan = Schedule("accan", patience=1, max_epochs=5)
    result, made = run(accan)
    assert restore_epochs(result) == [2, 5]
    assert result.max_live_epochs == 1
    stage0, stage1 = made[0][1], made[-1][1]
    assert stage0 < stage1
    assert sorted(made) == sorted([(0, stage0), (1, stage0), (2, stage0),
                                   (2, stage1), (3, stage1), (4, stage1)])

    multicondition = Schedule("multicondition", patience=10, max_epochs=8)
    result, made = run(multicondition, stop_after=3)
    assert result.status == "stopped" and result.max_live_epochs == 1
    assert sorted(epoch for epoch, _ in made) == [0, 1, 2]

    # a resumed run renders the epochs it trains and nothing past them
    out_dir = tmp_path / "run"
    train(train_corpus, dev_corpus, Schedule("multicondition", patience=3,
                                             max_epochs=3),
          pool, tiny_config(master_seed=5), out_dir=out_dir, stop_after=1)
    result, made = run(Schedule("multicondition", patience=3, max_epochs=3),
                       out_dir=out_dir)
    assert result.epochs_run == 2 and result.max_live_epochs == 1
    assert sorted(epoch for epoch, _ in made) == [1, 2]


@pytest.mark.parametrize("case", ["one_cpu", "no_blas_setter", "in_a_worker"])
def test_training_serial_fallbacks_start_no_process(tiny_setup, monkeypatch,
                                                    no_workers, case):
    train_corpus, dev_corpus, pool = tiny_setup
    two_cpus(monkeypatch, cpus=1 if case == "one_cpu" else 2)
    if case == "no_blas_setter":
        monkeypatch.setattr(workers, "_openblas", lambda: None)
    made = watch_generation(monkeypatch)
    schedule = Schedule("multicondition", patience=2, max_epochs=4)

    def run():
        result = train(train_corpus, dev_corpus, schedule, pool, tiny_config())
        return (tuple(result.log_lines), result.best_hash, len(made),
                workers._forked is None, worker_pids())

    # the parent renders all 4 epochs itself
    expected = (GOLDEN_RUNS["multicondition", 2, 4][1],
                GOLDEN_RUNS["multicondition", 2, 4][0], 4, True, set())
    if case != "in_a_worker":
        assert run() == expected
        return
    reader, writer = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.get_context("fork").Process(
        target=lambda: writer.send(run()))
    process.start()
    assert reader.poll(120)
    result = reader.recv()
    process.join(60)
    assert not process.is_alive()
    assert result == expected


def test_workers_do_not_keep_the_corpus_and_pool_alive(tiny_setup, tiny_model,
                                                       monkeypatch, no_workers):
    two_cpus(monkeypatch)
    corpus = make_corpus(TASK, 6, seed=22, id_prefix="dev")
    pool = NoisePool(tiny_setup[2].noise, pool_id="pool30")
    refs = [weakref.ref(pool), weakref.ref(corpus[0])]
    assert evaluate_condition_wer(
        tiny_model.model, tiny_model.alphabet, tiny_model.stats, corpus, pool,
        -10.0, eval_seed=1, batch_size=2) == PINNED_CONDITION_WERS[-10.0]
    pids = worker_pids()
    del corpus, pool
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(pids) == 1 and all(running(pid) for pid in pids)


def test_evaluation_of_an_empty_corpus_is_a_data_error(tiny_setup, tiny_model):
    with pytest.raises(DataError, match="no reference utterances"):
        evaluate_condition_wer(tiny_model.model, tiny_model.alphabet,
                               tiny_model.stats, (), tiny_setup[2], -10.0,
                               eval_seed=1)
