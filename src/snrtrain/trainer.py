"""Training loop: per-epoch data regeneration, CTC/Adam updates, dev-WER
monitoring, patience-driven stage switching, and resumable state.

train runs one plain loop over epochs: generate the epoch with
pem.generate_epoch, train its batches, decode the dev set, advance the
stage controller and save the state. Each epoch's data is freed before the
next epoch is generated. Every source of randomness (segment offsets, SNR
draws, feature injection, batch shuffling, dropout masks, dev-set mixing)
is derived from the master seed by hashing, so reruns and resumed runs
reproduce training logs bit for bit. evaluate_condition_wer decodes a test
condition on forked worker processes where that pays (see _decode_workers).
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import io
import json
import math
import os
import weakref
import zipfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import pem
from .audio import NoisePool
from .ctc import LabelAlphabet, best_path_decode, ctc_loss_and_grad
from .curriculum import Decision, Schedule, StageController
from .errors import ComputeError, DataError, write_atomic
from .features import NormStats, normalize, write_norm_stats
from .model import AdamState, ModelConfig, RecurrentCtcModel, adam_init, adam_step
from .seeding import derive_seed, derived_rng
from .wer import corpus_wer, format_condition

STATE_FILE = "state.npz"


@dataclass(frozen=True)
class TrainConfig:
    master_seed: int
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 16
    dropout: float = 0.3
    hidden_size: int = 64
    gauss_sigma: float = 0.6

    def __post_init__(self):
        for name in ("batch_size", "hidden_size"):
            if getattr(self, name) < 1:
                raise DataError(f"{name!r} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DataError(f"'learning_rate' must be finite and > 0, "
                            f"got {self.learning_rate}")
        if not (math.isfinite(self.gauss_sigma) and self.gauss_sigma >= 0):
            raise DataError(f"'gauss_sigma' must be finite and >= 0, "
                            f"got {self.gauss_sigma}")

    def fingerprint(self, schedule: Schedule, corpus_id: str, pool: NoisePool) -> str:
        payload = json.dumps(
            {
                "config": {f.name: getattr(self, f.name) for f in fields(self)},
                "schedule": [schedule.kind, [str(v) for v in schedule.grid],
                             schedule.patience, schedule.resolved_max_epochs],
                "corpus": corpus_id,
                "pool": [pool.pool_id, len(pool), pool.noise.sample_rate_hz],
            },
            sort_keys=True,
        )
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


@dataclass(frozen=True)
class SwitchRecord:
    epoch: int
    best_hash: str
    restored_hash: str


@dataclass
class RunState:
    """What a run saves at every epoch boundary and restores on resume."""

    model: RecurrentCtcModel
    adam: AdamState
    controller: StageController
    stats: NormStats | None = None
    train_losses: list = field(default_factory=list)
    switch_records: list = field(default_factory=list)


@dataclass
class TrainResult:
    status: str
    epochs_run: int
    log_lines: list
    dev_wers: list
    switch_records: list
    stage_entry_count: int
    model: RecurrentCtcModel
    stats: NormStats
    best_hash: str
    alphabet: LabelAlphabet
    manifests: list = field(default_factory=list)
    # the most generated epochs alive at once, counted at each generation
    max_live_epochs: int = 0


def corpus_fingerprint(corpus) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for u in corpus:
        digest.update(f"{u.utt_id}:{' '.join(u.words)}\n".encode())
    return digest.hexdigest()


def alphabet_from_corpora(*corpora) -> LabelAlphabet:
    symbols = sorted({w for corpus in corpora for u in corpus for w in u.words})
    return LabelAlphabet(tuple(symbols))


def decode_utterances(model: RecurrentCtcModel, alphabet: LabelAlphabet,
                      pairs, batch_size: int = 16) -> dict:
    """Best-path transcripts for (utterance, features) pairs, eval mode."""
    hyps = {}
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start : start + batch_size]
        log_probs, _ = model.forward_batch([feats for _, feats in chunk])
        for i, (utterance, feats) in enumerate(chunk):
            hyps[utterance.utt_id] = tuple(
                alphabet.decode(best_path_decode(log_probs[: len(feats), i])))
    return hyps


def _mixed_pairs(corpus, pool: NoisePool, stats: NormStats, stage_set,
                *seed_parts) -> list:
    """(utterance, normalized features) pairs, each drawn from stage_set and
    rendered by pem.draw_and_render under seed_parts (no injection)."""
    pairs = []
    for u in corpus:
        _, _, raw = pem.draw_and_render(u, pool, stage_set, *seed_parts)
        pairs.append((u, normalize(raw, stats)))
    return pairs


def evaluate_condition_wer(model, alphabet, stats, corpus, pool, condition,
                           eval_seed: int, batch_size: int = 16) -> float:
    """Pooled WER of a model on one test condition with seeded mixing.

    Where _decode_workers gives worker processes, each renders and decodes
    one contiguous run of whole decode batches and sends back only its
    hypotheses, so every batch and every WER is the serial path's."""
    seed_parts = (eval_seed, "eval", str(condition))
    batches = -(-len(corpus) // batch_size)
    workers = _decode_workers(corpus, pool, batches)
    if workers is None:
        hyps = _decode_part(model, alphabet, stats, corpus, pool, condition,
                            seed_parts, batch_size)
    else:
        from concurrent.futures import wait
        from concurrent.futures.process import BrokenProcessPool
        executor, parts = workers[:2]
        bounds = [min(len(corpus), batches * k // parts * batch_size)
                  for k in range(parts + 1)]
        hyps = {}
        try:
            futures = [executor.submit(
                _worker_decode, model.config, model.params, alphabet, stats,
                condition, seed_parts, batch_size, start, stop)
                for start, stop in zip(bounds, bounds[1:])]
            wait(futures)  # no part is left running when one raises
            for future in futures:
                hyps.update(future.result())
        except BrokenProcessPool:
            _stop_decode_workers()
            raise ComputeError(f"a decode worker died evaluating condition "
                               f"{format_condition(condition)}") from None
    refs = {u.utt_id: u.words for u in corpus}
    return corpus_wer(refs, hyps)


def _decode_part(model, alphabet, stats, corpus, pool, condition, seed_parts,
                 batch_size) -> dict:
    pairs = _mixed_pairs(corpus, pool, stats, (condition,), *seed_parts)
    return decode_utterances(model, alphabet, pairs, batch_size)


_workers = None  # see _decode_workers
_worker_data = None  # (corpus, pool), in a decode worker


@functools.cache
def _blas_thread_setter():
    """The set_num_threads function of numpy's bundled OpenBLAS, or None."""
    import ctypes
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for suffix in ("64_", ""):
            setter = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


def _decode_workers(corpus, pool, batches: int):
    """The live (executor, worker count, corpus, pool): a fork-context pool
    of min(CPUs, batches) decode workers holding corpus and pool, kept for
    later calls with the same two objects. None where the serial path runs
    instead: one CPU, fewer than 2 batches, no OpenBLAS thread setter
    (unpinned workers are slower than serial), or a call made inside a
    worker process."""
    global _workers
    count = min(len(os.sched_getaffinity(0)), batches)
    if count < 2 or _blas_thread_setter() is None:
        return None
    import multiprocessing
    if multiprocessing.parent_process() is not None:
        return None
    if _workers is not None and _workers[1] == count \
            and _workers[2] is corpus and _workers[3] is pool:
        return _workers
    _stop_decode_workers()
    from concurrent.futures import ProcessPoolExecutor
    executor = ProcessPoolExecutor(count, multiprocessing.get_context("fork"),
                                   initializer=_start_worker,
                                   initargs=(corpus, pool))
    _workers = (executor, count, corpus, pool)
    return _workers


def _stop_decode_workers() -> None:
    global _workers
    if _workers is not None:
        _workers[0].shutdown()
        _workers = None


# an executor still alive at interpreter teardown prints an ignored exception
atexit.register(_stop_decode_workers)


def _start_worker(corpus, pool) -> None:
    """Keep the forked corpus and pool, pin OpenBLAS to one thread and exit
    when the parent process ends, however it ends."""
    import multiprocessing
    import threading
    from multiprocessing.connection import wait

    global _worker_data
    _worker_data = (corpus, pool)
    _blas_thread_setter()(1)

    def exit_with_parent():
        wait([multiprocessing.parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _worker_decode(model_config, params, alphabet, stats, condition,
                   seed_parts, batch_size, start, stop) -> dict:
    corpus, pool = _worker_data
    model = RecurrentCtcModel(model_config)
    model.set_params(params)
    return _decode_part(model, alphabet, stats, corpus[start:stop], pool,
                        condition, seed_parts, batch_size)


def train(train_corpus, dev_corpus, schedule: Schedule, pool: NoisePool,
          config: TrainConfig, out_dir=None, stop_after: int | None = None) -> TrainResult:
    """Run (or resume) a full curriculum training experiment. With out_dir,
    the state is saved after every epoch and a rerun resumes from there (a
    terminated run trains 0 epochs); every call then rewrites stats.feat,
    both logs and final.ckpt from the state, as an uninterrupted run has them."""
    if stop_after is not None and stop_after < 1:
        raise DataError(f"stop_after must be >= 1, got {stop_after}")
    if not train_corpus or not dev_corpus:
        raise DataError("train and dev corpora must be nonempty")
    longest = max(len(u.waveform) for u in list(train_corpus) + list(dev_corpus))
    if len(pool) < longest:
        raise DataError(
            f"noise pool of {len(pool)} samples shorter than longest utterance "
            f"({longest} samples)"
        )

    alphabet = alphabet_from_corpora(train_corpus, dev_corpus)
    encoded = {u.utt_id: alphabet.encode(u.words) for u in train_corpus}
    dev_refs = {u.utt_id: u.words for u in dev_corpus}
    corpus_id = corpus_fingerprint(train_corpus)
    fingerprint = config.fingerprint(schedule, corpus_id, pool)

    def epoch_config(epoch_index, stage_set):
        return pem.EpochConfig(
            epoch_index=epoch_index,
            stage_snr_set=stage_set,
            master_seed=config.master_seed,
            gauss_sigma=config.gauss_sigma,
            noise_pool_id=pool.pool_id,
            corpus_id=corpus_id,
        )

    model = RecurrentCtcModel(ModelConfig(
        num_outputs=alphabet.num_outputs,
        hidden_size=config.hidden_size,
        dropout=config.dropout,
        init_seed=derive_seed(config.master_seed, "init"),
    ))
    state = RunState(model, adam_init(model.params), StageController(schedule))
    controller = state.controller
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)
        if os.path.exists(os.path.join(out_dir, STATE_FILE)):
            _load_state(out_dir, fingerprint, state)

    dev = (None, [])  # (stage index, its dev pairs); stages only move forward
    manifests: list = []
    epoch_refs: list = []  # a weakref to each epoch generated
    max_live = 0
    epochs_run = 0

    def terminated():
        return bool(controller.records) and \
            controller.records[-1].decision is Decision.TERMINATE

    while not terminated() and epochs_run != stop_after:
        epoch_index = controller.epoch_counter
        # a fresh run has no stats yet: its epoch 0 fits them
        data = pem.generate_epoch(epoch_config(epoch_index, controller.stage_set),
                                  train_corpus, pool, state.stats)
        epoch_refs.append(weakref.ref(data))
        max_live = max(max_live, sum(ref() is not None for ref in epoch_refs))
        state.stats = data.stats
        state.train_losses.append(_train_epoch(
            model, state.adam, config, train_corpus, encoded, epoch_index,
            data.features))
        manifests.append(data.manifest)
        del data  # freed before the dev decode and the next epoch

        stage_index = controller.stage_index
        if dev[0] != stage_index:
            dev = (stage_index, _mixed_pairs(
                dev_corpus, pool, state.stats, controller.stage_set,
                config.master_seed, "dev", stage_index))
        hyps = decode_utterances(model, alphabet, dev[1], config.batch_size)
        decision = controller.advance(corpus_wer(dev_refs, hyps),
                                      (model.copy_params(), model.param_hash()))
        if decision is not Decision.CONTINUE:
            params, best_hash = controller.best_checkpoint
            model.set_params(params)
            state.switch_records.append(SwitchRecord(
                controller.epoch_counter, best_hash, model.param_hash()))

        if out_dir is not None:
            manifests[-1].write(os.path.join(
                out_dir, "manifests", f"epoch_{epoch_index:04d}.manifest"))
            _save_state(out_dir, fingerprint, state)
        epochs_run += 1

    records = controller.records
    log_lines = [f"{r.epoch}\t{r.stage}\t{loss:.6f}\t{r.dev_wer:.4f}\t{r.decision.value}"
                 for r, loss in zip(records, state.train_losses)]

    if out_dir is not None:
        write_norm_stats(os.path.join(out_dir, "stats.feat"), state.stats)
        write_atomic(
            (os.path.join(out_dir, "train_log.tsv"), ("\n".join(log_lines) + "\n").encode()),
            (os.path.join(out_dir, "stage_log.tsv"), "".join(
                f"{r.epoch}\t{r.stage}\t{r.dev_wer:.4f}\t{r.decision.value}\n"
                for r in records).encode()))
        model.save_checkpoint(os.path.join(out_dir, "final.ckpt"),
                              controller.epoch_counter)

    return TrainResult(
        status="terminated" if terminated() else "stopped",
        epochs_run=epochs_run,
        log_lines=log_lines,
        dev_wers=[r.dev_wer for r in records],
        switch_records=state.switch_records,
        stage_entry_count=1 + sum(r.decision is Decision.SWITCH_STAGE
                                  for r in records),
        model=model,
        stats=state.stats,
        best_hash=controller.best_checkpoint[1],
        alphabet=alphabet,
        manifests=manifests,
        max_live_epochs=max_live,
    )


def _train_epoch(model, adam: AdamState, config: TrainConfig, train_corpus,
                 encoded: dict, epoch_index: int, epoch_features: dict) -> float:
    """One pass of CTC/Adam updates over the epoch's shuffled batches; the
    mean CTC loss per utterance."""
    order = derived_rng(config.master_seed, "shuffle", epoch_index).permutation(
        len(train_corpus))
    drop_rng = derived_rng(config.master_seed, "dropout", epoch_index)
    total_loss = 0.0
    for start in range(0, len(order), config.batch_size):
        batch_ids = [train_corpus[i].utt_id for i in order[start : start + config.batch_size]]
        feats = [epoch_features[utt_id] for utt_id in batch_ids]
        log_probs, cache = model.forward_batch(feats, train=True, rng=drop_rng)
        losses, dlogits = ctc_loss_and_grad(
            log_probs, [len(f) for f in feats],
            [encoded[utt_id] for utt_id in batch_ids])
        for utt_id, loss in zip(batch_ids, losses.tolist()):
            if not math.isfinite(loss):
                raise ComputeError(
                    f"non-finite CTC loss at epoch {epoch_index}, "
                    f"utterance {utt_id!r}")
            total_loss += loss
        grads = model.backward_batch(cache, dlogits / len(batch_ids))
        adam_step(model.params, grads, adam,
                  learning_rate=config.learning_rate, beta1=config.beta1,
                  beta2=config.beta2, eps=config.adam_eps)
    return total_loss / len(train_corpus)


def _save_state(out_dir, fingerprint, state: RunState) -> None:
    """Save the run state as one state.npz in one write_atomic call: the
    arrays, and a `meta` member holding the rest as UTF-8 JSON bytes, so each
    dev WER is kept exact."""
    controller = state.controller
    arrays = {}
    for k, v in state.model.params.items():
        arrays[f"param:{k}"] = v
    for k, v in state.adam.m.items():
        arrays[f"adam_m:{k}"] = v
    for k, v in state.adam.v.items():
        arrays[f"adam_v:{k}"] = v
    for k, v in controller.best_checkpoint[0].items():
        arrays[f"best:{k}"] = v
    arrays["stats:mean"] = state.stats.mean
    arrays["stats:std"] = state.stats.std
    meta = {
        "fingerprint": fingerprint,
        "adam_step": state.adam.step,
        "stats_count": state.stats.sample_count,
        "controller": controller.to_state(),
        "best_hash": controller.best_checkpoint[1],
        "train_losses": state.train_losses,
        "switch_records": [[r.epoch, r.best_hash, r.restored_hash]
                           for r in state.switch_records],
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    write_atomic((os.path.join(out_dir, STATE_FILE), buffer.getvalue()))


def _load_state(out_dir, fingerprint, state: RunState) -> None:
    """Restore state from out_dir's state.npz. Every member's CRC-32 is
    checked before any is used: numpy reads a member only as far as its npy
    header says, so it skips the CRC check of a member whose header was
    damaged. A damaged state, or one saved under another configuration,
    raises DataError naming the file."""
    path = os.path.join(out_dir, STATE_FILE)
    with open(path, "rb") as fh:
        payload = fh.read()
    try:
        with zipfile.ZipFile(io.BytesIO(payload)) as archive:
            damaged = archive.testzip()
        if damaged is not None:
            raise DataError(f"{path}: member {damaged} fails its CRC-32 check; "
                            "refusing to resume")
        with np.load(io.BytesIO(payload)) as arrays:
            meta = json.loads(arrays["meta"].tobytes())
            if meta["fingerprint"] != fingerprint:
                raise DataError(
                    f"{out_dir}: saved run has fingerprint {meta['fingerprint']}, "
                    f"current configuration has {fingerprint}; refusing to resume")
            _restore(meta, arrays, state)
    except DataError:
        raise
    except Exception as err:  # zipfile, zlib, numpy and json each raise their own types
        raise DataError(f"{path} is damaged ({type(err).__name__}: {err}); "
                        "refusing to resume") from None


def _restore(meta: dict, arrays, state: RunState) -> None:
    model, adam = state.model, state.adam
    for k in model.params:
        model.params[k] = arrays[f"param:{k}"].copy()
        adam.m[k] = arrays[f"adam_m:{k}"].copy()
        adam.v[k] = arrays[f"adam_v:{k}"].copy()
    best = ({k: arrays[f"best:{k}"].copy() for k in model.params},
            meta["best_hash"])
    state.stats = NormStats(arrays["stats:mean"].copy(),
                            arrays["stats:std"].copy(), int(meta["stats_count"]))
    adam.step = int(meta["adam_step"])
    state.controller.restore_state(meta["controller"], best_checkpoint=best)
    state.train_losses.extend(meta["train_losses"])
    state.switch_records.extend(SwitchRecord(e, b, r)
                                for e, b, r in meta["switch_records"])
