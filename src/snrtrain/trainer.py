"""Training loop: per-epoch data regeneration, CTC/Adam updates, dev-WER
monitoring, patience-driven stage switching, and resumable state.

train runs one loop over epochs: take the epoch pem.generate_epoch rendered
into a shared slot, train its batches, free it, decode the dev set, advance
the stage controller, append the epoch's EpochRecord and save the state. The
EpochRecord list is the run's only per-epoch record: train_log.tsv and
stage_log.tsv are its two line formats, state.npz stores it and TrainResult
carries it; a resumed run replays it through a fresh stage controller and
refuses a record the schedule would not produce. Renders are tasks of workers.runner: a worker renders epoch N+1
in epoch N's stage while the parent trains epoch N (with no worker, the
parent renders it when taken), and a stage switch in between has it
rendered again in the new stage. The parent holds one epoch at a time.
Every source of randomness is derived from the master seed by hashing, so
reruns, resumed runs and any number of workers give the same logs bit for
bit. evaluate_condition_wer decodes a test condition in parts: the parent's
and one per worker.
"""

from __future__ import annotations

import io
import json
import math
import os
import weakref
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import model as model_mod, pem, workers
from .audio import NoisePool, format_condition
from .ctc import LabelAlphabet, best_path_decode, ctc_loss_and_grad
from .curriculum import Decision, Schedule, StageController
from .errors import ComputeError, DataError, write_atomic
from .features import NormStats, normalize, write_norm_stats
from .model import AdamState, ModelConfig, RecurrentCtcModel, adam_init, adam_step
from .seeding import derive_seed, derived_rng, digest
from .wer import corpus_wer

STATE_FILE = "state.npz"


@dataclass(frozen=True)
class TrainConfig:
    master_seed: int
    learning_rate: float = 1e-3
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
                # the Adam constants under their old TrainConfig keys, so
                # that runs saved with those fields still resume
                "config": {f.name: getattr(self, f.name) for f in fields(self)}
                | {"beta1": model_mod.ADAM_BETA1, "beta2": model_mod.ADAM_BETA2,
                   "adam_eps": model_mod.ADAM_EPS},
                "schedule": [schedule.kind, [str(v) for v in schedule.grid],
                             schedule.patience, schedule.max_epochs],
                "corpus": corpus_id,
                "pool": [pool.pool_id, len(pool), pool.noise.sample_rate_hz],
            },
            sort_keys=True,
        )
        return digest(payload.encode()).hex()


@dataclass(frozen=True)
class EpochRecord:
    """One trained epoch: its number (from 1), the stage it trained in, its
    mean CTC loss per utterance, its exact dev WER and the controller's
    decision after it."""

    epoch: int
    stage: int
    train_loss: float
    dev_wer: float
    decision: Decision


def _terminated(records) -> bool:
    return bool(records) and records[-1].decision is Decision.TERMINATE


@dataclass
class RunState:
    """What a run saves at every epoch boundary and restores on resume."""

    model: RecurrentCtcModel
    adam: AdamState
    controller: StageController
    stats: NormStats | None = None
    records: list = field(default_factory=list)  # an EpochRecord per epoch


@dataclass
class TrainResult:
    records: list  # an EpochRecord per epoch of the run, resumed ones too
    epochs_run: int
    model: RecurrentCtcModel
    stats: NormStats
    best_hash: str
    alphabet: LabelAlphabet
    manifests: list
    # the most generated epochs alive at once, counted at each generation
    max_live_epochs: int

    @property
    def status(self) -> str:
        return "terminated" if _terminated(self.records) else "stopped"

    @property
    def log_lines(self) -> list:
        """The lines of train_log.tsv."""
        return [f"{r.epoch}\t{r.stage}\t{r.train_loss:.6f}\t{r.dev_wer:.4f}\t"
                f"{r.decision.value}" for r in self.records]

    @property
    def dev_wers(self) -> list:
        return [r.dev_wer for r in self.records]


def corpus_fingerprint(corpus) -> str:
    return digest("".join(f"{u.utt_id}:{' '.join(u.words)}\n"
                          for u in corpus).encode()).hex()


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
    return [(u, normalize(pem.draw_and_render(u, pool, stage_set, *seed_parts)[2],
                          stats)) for u in corpus]


def evaluate_condition_wer(model, alphabet, stats, corpus, pool, condition,
                           eval_seed: int, batch_size: int = 16) -> float:
    """Pooled WER of a model on one test condition with seeded mixing.

    The corpus is split into workers.runner(corpus, pool, batches).count
    contiguous runs of whole decode batches. The parent renders and decodes
    the first while each worker does another and sends back only its
    hypotheses, so every batch and every WER is the serial path's."""
    seed_parts = (eval_seed, "eval", str(condition))
    batches = -(-len(corpus) // batch_size)
    runner = workers.runner(corpus, pool, batches)
    bounds = [min(len(corpus), batches * k // runner.count * batch_size)
              for k in range(runner.count + 1)]
    args = (model, alphabet, stats, condition, seed_parts, batch_size)
    tasks = [runner.submit(f"evaluating condition {format_condition(condition)}",
                           _decode, *args, start, stop)
             for start, stop in zip(bounds[1:], bounds[2:])]
    try:
        hyps = _decode(corpus, pool, runner.slots, *args, 0, bounds[1])
        for task in tasks:
            hyps.update(task.result())
    finally:
        for task in tasks:  # no part is left running when one raises
            task.discard()
    return corpus_wer({u.utt_id: u.words for u in corpus}, hyps)


def _decode(corpus, pool, slots, model, alphabet, stats, condition, seed_parts,
            batch_size, start, stop) -> dict:
    """Hypotheses for corpus[start:stop] mixed at condition."""
    pairs = _mixed_pairs(corpus[start:stop], pool, stats, (condition,),
                         *seed_parts)
    return decode_utterances(model, alphabet, pairs, batch_size)


def _render(corpus, pool, slots, cfg: pem.EpochConfig, stats: NormStats | None):
    """Render cfg's epoch into slot epoch_index % 2, so two epochs in a row
    use two slots; returns only its manifest and stats."""
    data = pem.generate_epoch(cfg, corpus, pool, stats,
                              slots.features(cfg.epoch_index % 2, writeable=True))
    return data.manifest, data.stats


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
        return pem.EpochConfig(epoch_index, stage_set, config.master_seed,
                               config.gauss_sigma, pool.pool_id, corpus_id)

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
    # two parts: one worker renders the next epoch while the parent trains
    runner = workers.runner(train_corpus, pool, 2)
    end = schedule.max_epochs  # no epoch from end on is rendered
    if stop_after is not None:
        end = min(end, controller.epoch_counter + stop_after)
    pending = None  # (EpochConfig, task) of the next epoch's render

    def submit(cfg):
        return cfg, runner.submit(f"rendering epoch {cfg.epoch_index}",
                                  _render, cfg, state.stats)

    try:
        while not _terminated(state.records) and epochs_run != stop_after:
            epoch_index = controller.epoch_counter
            cfg = epoch_config(epoch_index, controller.stage_set)
            if pending is not None and pending[0] != cfg:
                # made before a stage switch: it ends before the next submit,
                # so two tasks never write one slot
                pending[1].discard()
                pending = None
            # a fresh run has no stats yet: its epoch 0 fits them
            manifest, state.stats = (pending or submit(cfg))[1].result()
            pending = None
            data = pem.EpochData(manifest, runner.slots.features(epoch_index % 2),
                                 state.stats)
            epoch_refs.append(weakref.ref(data))
            max_live = max(max_live, sum(ref() is not None for ref in epoch_refs))
            if epoch_index + 1 < end:
                # the next epoch in this stage, rendered by a worker meanwhile
                # (with none, when it is taken); the stats never change once fit
                pending = submit(epoch_config(epoch_index + 1, controller.stage_set))
            loss = _train_epoch(model, state.adam, config, train_corpus, encoded,
                                epoch_index, data.features)
            manifests.append(data.manifest)
            del data  # freed before the dev decode and the next epoch
            runner.slots.release(epoch_index % 2)

            stage_index = controller.stage_index
            if dev[0] != stage_index:
                dev = (stage_index, _mixed_pairs(
                    dev_corpus, pool, state.stats, controller.stage_set,
                    config.master_seed, "dev", stage_index))
            hyps = decode_utterances(model, alphabet, dev[1], config.batch_size)
            dev_wer = corpus_wer(dev_refs, hyps)
            decision = controller.advance(dev_wer,
                                          (model.copy_params(), model.param_hash()))
            if decision is not Decision.CONTINUE:
                params, best_hash = controller.best_checkpoint
                model.set_params(params)
                restored_hash = model.param_hash()
                if restored_hash != best_hash:
                    raise ComputeError(
                        f"epoch {controller.epoch_counter}: restored weights hash "
                        f"to {restored_hash}, the stage best to {best_hash}")
            state.records.append(EpochRecord(controller.epoch_counter, stage_index,
                                             loss, dev_wer, decision))

            if out_dir is not None:
                manifests[-1].write(os.path.join(
                    out_dir, "manifests", f"epoch_{epoch_index:04d}.manifest"))
                _save_state(out_dir, fingerprint, state)
            epochs_run += 1
    finally:
        if pending is not None:  # no task outlives the call
            pending[1].discard()

    result = TrainResult(state.records, epochs_run, model, state.stats,
                         controller.best_checkpoint[1], alphabet, manifests, max_live)
    if out_dir is not None:
        write_norm_stats(os.path.join(out_dir, "stats.feat"), state.stats)
        write_atomic(
            (os.path.join(out_dir, "train_log.tsv"),
             ("\n".join(result.log_lines) + "\n").encode()),
            (os.path.join(out_dir, "stage_log.tsv"), "".join(
                f"{r.epoch}\t{r.stage}\t{r.dev_wer:.4f}\t{r.decision.value}\n"
                for r in state.records).encode()))
        model.save_checkpoint(os.path.join(out_dir, "final.ckpt"),
                              controller.epoch_counter)
    return result


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
        adam_step(model.params, grads, adam, learning_rate=config.learning_rate)
    return total_loss / len(train_corpus)


def _save_state(out_dir, fingerprint, state: RunState) -> None:
    """Save the run state as one state.npz in one write_atomic call: the
    arrays, and a `meta` member holding the rest as UTF-8 JSON bytes, so each
    record's training loss and dev WER are kept exact."""
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
        "best_hash": controller.best_checkpoint[1],
        "epochs": [[r.epoch, r.stage, r.train_loss, r.dev_wer, r.decision.value]
                   for r in state.records],
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    write_atomic((os.path.join(out_dir, STATE_FILE), buffer.getvalue()))


def _load_state(out_dir, fingerprint, state: RunState) -> None:
    """Restore state from out_dir's state.npz. Every member's CRC-32 is
    checked before any is used: numpy reads a member only as far as its npy
    header says, so it skips the CRC check of a member whose header was
    damaged. A damaged state, one saved under another configuration, or one
    in an earlier layout (no epoch records) raises DataError naming the file."""
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
            if "epochs" not in meta:
                raise DataError(f"{path} has no epoch records (an older state "
                                "format); start a new run")
            _restore(meta, arrays, state, path)
    except DataError:
        raise
    except Exception as err:  # zipfile, zlib, numpy and json each raise their own types
        raise DataError(f"{path} is damaged ({type(err).__name__}: {err}); "
                        "refusing to resume") from None


def _restore(meta: dict, arrays, state: RunState, path) -> None:
    """Load the arrays and records into state, replaying each record's dev WER
    through its fresh controller. A record whose epoch, stage or decision the
    replay does not reproduce raises DataError naming path and the epoch."""
    model, adam = state.model, state.adam
    for k in model.params:
        model.params[k] = arrays[f"param:{k}"].copy()
        adam.m[k] = arrays[f"adam_m:{k}"].copy()
        adam.v[k] = arrays[f"adam_v:{k}"].copy()
    state.stats = NormStats(arrays["stats:mean"].copy(), arrays["stats:std"].copy())
    adam.step = int(meta["adam_step"])
    controller = state.controller
    for e, s, loss, w, d in meta["epochs"]:
        record = EpochRecord(int(e), int(s), float(loss), float(w), Decision(d))
        if (_terminated(state.records) or record.epoch != controller.epoch_counter + 1
                or record.stage != controller.stage_index or not record.dev_wer >= 0
                or controller.advance(record.dev_wer) is not record.decision):
            raise DataError(f"{path}: epoch {len(state.records) + 1} of the saved records "
                            "does not replay under this schedule; refusing to resume")
        state.records.append(record)
    controller.best_checkpoint = (
        {k: arrays[f"best:{k}"].copy() for k in model.params}, meta["best_hash"])
