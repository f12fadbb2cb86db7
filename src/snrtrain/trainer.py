"""Training loop: per-epoch data regeneration, CTC/Adam updates, dev-WER
monitoring, patience-driven stage switching, and resumable state.

Every source of randomness (segment offsets, SNR draws, feature injection,
batch shuffling, dropout masks, dev-set mixing) is derived from the master
seed by hashing, so reruns and resumed runs reproduce training logs bit for
bit, and overlapped generation matches sequential execution exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import pem
from .audio import NoisePool
from .ctc import LabelAlphabet, best_path_decode, ctc_loss_and_grad
from .curriculum import Decision, Schedule, StageController
from .errors import ComputeError, DataError
from .features import NormStats, normalize, write_norm_stats
from .model import ModelConfig, RecurrentCtcModel, adam_init, adam_step
from .seeding import derive_seed, derived_rng
from .wer import corpus_wer

STATE_ARRAYS = "state.npz"
STATE_META = "state.json"


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
    # overlapped generation matches sequential bit for bit, so a resumed run
    # may switch it: the one field left out of the fingerprint
    overlap_generation: bool = field(default=True,
                                     metadata={"fingerprint": False})

    def fingerprint(self, schedule: Schedule, corpus_id: str) -> str:
        payload = json.dumps(
            {
                "config": {f.name: getattr(self, f.name)
                           for f in fields(self)
                           if f.metadata.get("fingerprint", True)},
                "schedule": [schedule.kind, [str(v) for v in schedule.grid],
                             schedule.patience, schedule.resolved_max_epochs],
                "corpus": corpus_id,
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
    max_live_epochs: int
    alphabet: LabelAlphabet
    manifests: list = field(default_factory=list)


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
        outputs, _ = model.forward_batch([feats for _, feats in chunk])
        for (utterance, _), log_probs in zip(chunk, outputs):
            hyps[utterance.utt_id] = tuple(
                alphabet.decode(best_path_decode(log_probs)))
    return hyps


def _mixed_pairs(corpus, pool: NoisePool, stats: NormStats, stage_set,
                *seed_parts) -> list:
    """(utterance, normalized features) pairs, each mixed at a draw from
    stage_set with the rng derived from seed_parts and its id (no injection)."""
    pairs = []
    for u in corpus:
        offset, snr = pem.draw_choice(derived_rng(*seed_parts, u.utt_id), pool,
                                      len(u.waveform), stage_set)
        pairs.append((u, normalize(pem.render(u, pool, offset, snr), stats)))
    return pairs


def evaluate_condition_wer(model, alphabet, stats, corpus, pool, condition,
                           eval_seed: int, batch_size: int = 16) -> float:
    """Pooled WER of a model on one test condition with seeded mixing."""
    pairs = _mixed_pairs(corpus, pool, stats, (condition,),
                        eval_seed, "eval", str(condition))
    hyps = decode_utterances(model, alphabet, pairs, batch_size)
    refs = {u.utt_id: u.words for u in corpus}
    return corpus_wer(refs, hyps)


def train(train_corpus, dev_corpus, schedule: Schedule, pool: NoisePool,
          config: TrainConfig, out_dir=None, stop_after: int | None = None) -> TrainResult:
    """Run (or resume) a full curriculum training experiment."""
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
    fingerprint = config.fingerprint(schedule, corpus_id)
    controller = StageController(schedule)

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
    adam = adam_init(model.params)
    train_losses: list = []
    switch_records: list = []
    start_epoch = 0
    stats = None

    already_done = False
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)
        meta_path = os.path.join(out_dir, STATE_META)
        if os.path.exists(meta_path):
            start_epoch, stats, already_done = _load_state(
                out_dir, fingerprint, model, adam, controller, train_losses,
                switch_records)

    first = None
    if stats is None:
        # a fresh run: epoch 0 is built from the renders the stats are fit on
        cfg0 = epoch_config(0, controller.stage_set)
        renders: dict = {}
        stats = pem.fit_epoch_stats(cfg0, train_corpus, pool, renders)
        first = pem.epoch_from_renders(cfg0, train_corpus, renders, stats)
        if out_dir is not None:
            write_norm_stats(os.path.join(out_dir, "stats.feat"), stats)

    dev_cache: dict = {}

    def dev_pairs():
        stage_index = controller.stage_index
        if stage_index not in dev_cache:
            dev_cache[stage_index] = _mixed_pairs(
                dev_corpus, pool, stats, controller.stage_set,
                config.master_seed, "dev", stage_index)
        return dev_cache[stage_index]

    def generate(epoch_index, stage_set):
        return pem.generate_epoch(epoch_config(epoch_index, stage_set),
                                  train_corpus, pool, stats)

    manifests: list = []

    def consume(epoch_index, data):
        order = derived_rng(config.master_seed, "shuffle", epoch_index).permutation(
            len(train_corpus))
        drop_rng = derived_rng(config.master_seed, "dropout", epoch_index)
        total_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch_ids = [train_corpus[i].utt_id for i in order[start : start + config.batch_size]]
            feats = [data.features_for(utt_id).astype(np.float64) for utt_id in batch_ids]
            outputs, cache = model.forward_batch(feats, train=True, rng=drop_rng)
            lengths = [len(o) for o in outputs]
            log_probs = np.zeros((max(lengths), len(outputs), outputs[0].shape[1]))
            for i, o in enumerate(outputs):
                log_probs[: lengths[i], i] = o
            losses, dlogits = ctc_loss_and_grad(
                log_probs, lengths, [encoded[utt_id] for utt_id in batch_ids])
            for utt_id, loss in zip(batch_ids, losses.tolist()):
                if not math.isfinite(loss):
                    raise ComputeError(
                        f"non-finite CTC loss at epoch {epoch_index}, "
                        f"utterance {utt_id!r}")
                total_loss += loss
            grads = model.backward_batch(
                cache, [g / len(batch_ids) for g in dlogits])
            adam_step(model.params, grads, adam,
                      learning_rate=config.learning_rate, beta1=config.beta1,
                      beta2=config.beta2, eps=config.adam_eps)
        train_losses.append(total_loss / len(train_corpus))

        hyps = decode_utterances(model, alphabet, dev_pairs(), config.batch_size)
        dev_wer = corpus_wer(dev_refs, hyps)

        if out_dir is not None:
            data.manifest.write(os.path.join(
                out_dir, "manifests", f"epoch_{epoch_index:04d}.manifest"))
        manifests.append(data.manifest)
        return dev_wer

    def checkpoint_provider():
        return (model.copy_params(), model.param_hash())

    def on_restore(checkpoint):
        params, best_hash = checkpoint
        model.set_params(params)
        switch_records.append(SwitchRecord(controller.epoch_counter, best_hash,
                                           model.param_hash()))

    if already_done:
        # the saved run already terminated; report it without training more
        result = pem.PipelineResult("terminated", 0, 0)
    else:
        result = pem.pipeline_run(
            controller, generate, consume,
            checkpoint_provider=checkpoint_provider,
            on_restore=on_restore,
            overlap=config.overlap_generation,
            start_epoch=start_epoch,
            stop_after_epochs=stop_after,
            first=first,
        )

    records = controller.records
    log_lines = [f"{r.epoch}\t{r.stage}\t{loss:.6f}\t{r.dev_wer:.4f}\t{r.decision.value}"
                 for r, loss in zip(records, train_losses)]
    best_hash = (controller.best_checkpoint[1]
                 if controller.best_checkpoint is not None else model.param_hash())

    if out_dir is not None and not already_done:
        _save_state(out_dir, fingerprint, model, adam, controller, stats,
                    start_epoch + result.epochs_completed, train_losses,
                    switch_records, result.status)
        with open(os.path.join(out_dir, "train_log.tsv"), "w") as fh:
            fh.write("\n".join(log_lines) + "\n")
        with open(os.path.join(out_dir, "stage_log.tsv"), "w") as fh:
            fh.writelines(f"{r.epoch}\t{r.stage}\t{r.dev_wer:.4f}\t{r.decision.value}\n"
                          for r in records)
        model.save_checkpoint(os.path.join(out_dir, "final.ckpt"),
                              controller.epoch_counter)

    return TrainResult(
        status=result.status,
        epochs_run=result.epochs_completed,
        log_lines=log_lines,
        dev_wers=[r.dev_wer for r in records],
        switch_records=switch_records,
        stage_entry_count=1 + sum(r.decision is Decision.SWITCH_STAGE
                                  for r in records),
        model=model,
        stats=stats,
        best_hash=best_hash,
        max_live_epochs=result.max_live_epochs,
        alphabet=alphabet,
        manifests=manifests,
    )


def _save_state(out_dir, fingerprint, model, adam, controller, stats,
                epochs_done, train_losses, switch_records, status) -> None:
    arrays = {}
    for k, v in model.params.items():
        arrays[f"param:{k}"] = v
    for k, v in adam.m.items():
        arrays[f"adam_m:{k}"] = v
    for k, v in adam.v.items():
        arrays[f"adam_v:{k}"] = v
    if controller.best_checkpoint is not None:
        for k, v in controller.best_checkpoint[0].items():
            arrays[f"best:{k}"] = v
    arrays["stats:mean"] = stats.mean
    arrays["stats:std"] = stats.std
    np.savez(os.path.join(out_dir, STATE_ARRAYS), **arrays)
    meta = {
        "fingerprint": fingerprint,
        "epochs_done": epochs_done,
        "adam_step": adam.step,
        "stats_count": stats.sample_count,
        "controller": controller.to_state(),
        "best_hash": (controller.best_checkpoint[1]
                      if controller.best_checkpoint is not None else None),
        "train_losses": train_losses,
        "switch_records": [[r.epoch, r.best_hash, r.restored_hash]
                           for r in switch_records],
        "status": status,
    }
    with open(os.path.join(out_dir, STATE_META), "w") as fh:
        json.dump(meta, fh, indent=2)


def _load_state(out_dir, fingerprint, model, adam, controller, train_losses,
                switch_records):
    with open(os.path.join(out_dir, STATE_META)) as fh:
        meta = json.load(fh)
    if meta["fingerprint"] != fingerprint:
        raise DataError(
            f"{out_dir}: saved run has fingerprint {meta['fingerprint']}, "
            f"current configuration has {fingerprint}; refusing to resume")
    with np.load(os.path.join(out_dir, STATE_ARRAYS)) as arrays:
        for k in model.params:
            model.params[k] = arrays[f"param:{k}"].copy()
            adam.m[k] = arrays[f"adam_m:{k}"].copy()
            adam.v[k] = arrays[f"adam_v:{k}"].copy()
        best = None
        if meta["best_hash"] is not None:
            best_params = {k: arrays[f"best:{k}"].copy() for k in model.params}
            best = (best_params, meta["best_hash"])
        stats = NormStats(arrays["stats:mean"].copy(), arrays["stats:std"].copy(),
                          int(meta["stats_count"]))
    adam.step = int(meta["adam_step"])
    controller.restore_state(meta["controller"], best_checkpoint=best)
    train_losses.extend(meta["train_losses"])
    switch_records.extend(SwitchRecord(e, b, r)
                          for e, b, r in meta["switch_records"])
    return int(meta["epochs_done"]), stats, meta["status"] == "terminated"
