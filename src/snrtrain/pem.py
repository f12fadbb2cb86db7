"""Per-epoch noise mixing: fresh training data every epoch.

Every epoch regenerates the whole training set: each utterance gets a new
noise segment and a new SNR from the current stage set, is featurized,
normalized with frozen stats, and optionally perturbed with feature-level
Gaussian noise. All draws derive from a per-item seed
blake2b(master_seed, epoch_index, utterance_id), so any item regenerates
independently of scheduling, and a manifest records every choice. Epochs
are generated and trained in turn, and each epoch's data is discarded after
training to a footprint of just the manifest, so no epoch is generated that
is not trained on, and a run whose controller already terminated generates
none. generate_epoch makes every epoch; given no stats (a fresh run's
epoch 0), it fits them on the epoch's own raw features, so that epoch too
is rendered once.

draw_choice and render are the one mix -> featurize path: epoch items,
the trainer's dev set and test-condition evaluation all go through them.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import audio, curriculum, features
from .audio import NoisePool, mix_at_snr, segment_at
from .curriculum import Decision, StageController
from .errors import ComputeError, DataError, write_atomic
from .seeding import derive_seed
from .wer import condition_key, format_condition

MANIFEST_HEADER = "# pem-manifest v1"


@dataclass(frozen=True)
class EpochConfig:
    epoch_index: int
    stage_snr_set: tuple
    master_seed: int
    gauss_sigma: float = 0.0
    noise_pool_id: str = "pool"
    corpus_id: str = "corpus"

    def __post_init__(self):
        if self.epoch_index < 0:
            raise DataError(f"epoch index must be >= 0, got {self.epoch_index}")
        object.__setattr__(self, "stage_snr_set", tuple(self.stage_snr_set))

    def config_hash(self) -> str:
        payload = json.dumps(
            {
                "stage": [str(v) for v in self.stage_snr_set],
                "master_seed": self.master_seed,
                "gauss_sigma": self.gauss_sigma,
                "pool": self.noise_pool_id,
                "corpus": self.corpus_id,
            },
            sort_keys=True,
        )
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def item_seed(master_seed: int, epoch_index: int, utt_id: str) -> int:
    return derive_seed(master_seed, "epoch", epoch_index, "utt", utt_id)


def injection_seed(master_seed: int, epoch_index: int, utt_id: str) -> int:
    return derive_seed(master_seed, "epoch", epoch_index, "inject", utt_id)


def feature_checksum(values: np.ndarray) -> str:
    """64-bit hash over the canonical float32 little-endian feature bytes."""
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


@dataclass(frozen=True)
class ManifestRecord:
    utt_id: str
    noise_offset: int
    snr: object  # float dB or the CLEAN sentinel
    inject_seed: int
    checksum: str

    def to_line(self) -> str:
        return (f"{self.utt_id}\t{self.noise_offset}\t{format_condition(self.snr)}"
                f"\t{self.inject_seed}\t{self.checksum}")

    @staticmethod
    def from_line(line: str) -> "ManifestRecord":
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 5:
            raise DataError(f"manifest record needs 5 tab-separated fields: {line!r}")
        return ManifestRecord(parts[0], int(parts[1]), condition_key(parts[2]),
                              int(parts[3]), parts[4])


@dataclass(frozen=True)
class EpochManifest:
    epoch_index: int
    config_hash: str
    records: tuple

    def to_text(self) -> str:
        lines = [
            MANIFEST_HEADER,
            f"# epoch={self.epoch_index}",
            f"# config={self.config_hash}",
        ]
        lines += [r.to_line() for r in self.records]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "EpochManifest":
        lines = text.splitlines()
        if not lines or lines[0] != MANIFEST_HEADER:
            raise DataError("not a pem manifest")
        meta = {}
        records = []
        for line in lines[1:]:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif line.strip():
                records.append(ManifestRecord.from_line(line))
        return EpochManifest(int(meta["epoch"]), meta["config"], tuple(records))

    def write(self, path) -> None:
        write_atomic((path, self.to_text().encode("utf-8")))

    @staticmethod
    def read(path) -> "EpochManifest":
        with open(path, "r", encoding="utf-8") as fh:
            return EpochManifest.from_text(fh.read())


class EpochData:
    """Training data for one epoch, held in memory; discardable, manifest kept.
    stats are the normalization stats the features were normalized with."""

    def __init__(self, manifest: EpochManifest, feature_map: dict,
                 stats: features.NormStats):
        self.manifest = manifest
        self._features = feature_map
        self.stats = stats
        self.discarded = False

    def features_for(self, utt_id: str) -> np.ndarray:
        if self.discarded:
            raise DataError(f"epoch {self.manifest.epoch_index} already discarded")
        return self._features[utt_id]

    def utt_ids(self):
        return list(self._features)

    def discard(self) -> None:
        """Free all feature storage; keeps the manifest. Idempotent."""
        self._features = {}
        self.discarded = True


def draw_choice(rng: np.random.Generator, pool: NoisePool, length: int,
                stage_set) -> tuple:
    """(noise offset, SNR) for one item: the offset is drawn first."""
    offset = audio.sample_segment_offset(pool, length, rng)
    return offset, curriculum.sample_snr(stage_set, rng)


def render(utterance, pool: NoisePool, offset: int, snr) -> np.ndarray:
    """Raw (unnormalized) features of the utterance mixed at snr with the
    pool segment at offset; at CLEAN the signal is featurized as it is."""
    segment = segment_at(pool, offset, len(utterance.waveform))
    return features.featurize_waveform(mix_at_snr(utterance.waveform, segment, snr))


def _raw_item(cfg: EpochConfig, utterance, pool: NoisePool) -> tuple:
    """(offset, snr, raw features) of one item under the epoch's seeded draw;
    a DataError names the utterance."""
    rng = np.random.default_rng(item_seed(cfg.master_seed, cfg.epoch_index,
                                          utterance.utt_id))
    try:
        offset, snr = draw_choice(rng, pool, len(utterance.waveform),
                                  cfg.stage_snr_set)
        return offset, snr, render(utterance, pool, offset, snr)
    except DataError as err:
        raise DataError(f"utterance {utterance.utt_id!r}: {err}") from err


def _epoch_item(cfg: EpochConfig, utterance, stats, offset, snr, raw):
    feats = features.normalize(raw, stats)
    seed = injection_seed(cfg.master_seed, cfg.epoch_index, utterance.utt_id)
    if cfg.gauss_sigma > 0.0:
        feats = features.inject_gaussian(feats, cfg.gauss_sigma,
                                         np.random.default_rng(seed))
    rendered = np.ascontiguousarray(feats, dtype=np.float32)
    record = ManifestRecord(utterance.utt_id, offset, snr, seed,
                            feature_checksum(rendered))
    return rendered, record


def generate_epoch(cfg: EpochConfig, corpus, pool: NoisePool,
                   stats: features.NormStats | None = None) -> EpochData:
    """Mix, featurize, normalize and (optionally) inject one whole epoch.

    Without stats (a fresh run's epoch 0), every item is rendered first and
    the normalization stats are fit on those raw features in corpus order;
    each raw matrix is released once it is normalized. The stats used are
    returned on the EpochData. Fully deterministic in (master_seed,
    epoch_index, utterance id); a render error names the utterance.
    """
    raw_items = deque()
    if stats is None:
        raw_items.extend(_raw_item(cfg, u, pool) for u in corpus)
        stats = features.fit_norm_stats([raw for _, _, raw in raw_items])
    feature_map = {}
    records = []
    for utterance in corpus:
        feats, record = _epoch_item(cfg, utterance, stats, *(
            raw_items.popleft() if raw_items else _raw_item(cfg, utterance, pool)))
        feature_map[utterance.utt_id] = feats
        records.append(record)
    return EpochData(EpochManifest(cfg.epoch_index, cfg.config_hash(),
                                   tuple(records)), feature_map, stats)


def regenerate_item(manifest_record: ManifestRecord, cfg: EpochConfig, utterance,
                    pool: NoisePool, stats) -> np.ndarray:
    """Rebuild one utterance's features from its manifest record."""
    offset, snr = manifest_record.noise_offset, manifest_record.snr
    rendered, record = _epoch_item(cfg, utterance, stats, offset, snr,
                                   render(utterance, pool, offset, snr))
    if record.checksum != manifest_record.checksum:
        raise ComputeError(
            f"regeneration mismatch for {utterance.utt_id!r}: "
            f"{record.checksum} != {manifest_record.checksum}"
        )
    return rendered


@dataclass
class PipelineResult:
    status: str  # "terminated" | "stopped"
    epochs_completed: int


def pipeline_run(controller: StageController, generate, consume, *,
                 stop_after_epochs: int | None = None) -> PipelineResult:
    """Generate and train epochs in turn, from controller.epoch_counter on.

    generate(epoch_index, stage_set) returns the epoch's EpochData;
    consume(epoch_index, EpochData) trains on it and advances the
    controller. Each epoch is generated under the stage set in force once
    the previous one is consumed, and discarded before the next is
    generated, so one epoch's features at most are live.
    The run ends once the controller's last record is TERMINATE, before any
    epoch when it already is, or after stop_after_epochs epochs.
    """
    epochs_this_run = 0
    while not (controller.records
               and controller.records[-1].decision is Decision.TERMINATE):
        if stop_after_epochs is not None and epochs_this_run >= stop_after_epochs:
            return PipelineResult("stopped", epochs_this_run)
        epoch = controller.epoch_counter
        data = generate(epoch, controller.stage_set)
        consume(epoch, data)
        data.discard()
        epochs_this_run += 1
    return PipelineResult("terminated", epochs_this_run)
