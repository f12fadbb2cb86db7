"""Per-epoch noise mixing: fresh training data every epoch.

Every epoch regenerates the whole training set: each utterance gets a new
noise segment and a new SNR from the current stage set, is featurized,
normalized with frozen stats, and optionally perturbed with feature-level
Gaussian noise. All draws derive from a per-item seed
blake2b(master_seed, "epoch", epoch_index, "utt", utterance_id), so any item
regenerates independently of scheduling, and a manifest records every
choice. generate_epoch makes every epoch; given no stats (a fresh run's
epoch 0), it fits them on the epoch's own raw features, so that epoch too
is rendered once; the trainer has it write straight into a shared slot
(see snrtrain.workers). The trainer frees each epoch's EpochData before it
takes the next, so it holds one epoch's features at a time.

draw_and_render is the one draw -> mix -> featurize path: epoch items,
the trainer's dev set and test-condition evaluation all go through it,
each with its own seed parts.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import audio, curriculum, features
from .audio import NoisePool, condition_key, format_condition, mix_at_snr, segment_at
from .errors import ComputeError, DataError, field_value, read_text, write_atomic
from .seeding import derive_seed, derived_rng, digest

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
        if not 0.0 <= self.gauss_sigma < float("inf"):
            raise DataError(f"'gauss_sigma' must be finite and >= 0, "
                            f"got {self.gauss_sigma}")
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
        return digest(payload.encode()).hex()


def injection_seed(master_seed: int, epoch_index: int, utt_id: str) -> int:
    return derive_seed(master_seed, "epoch", epoch_index, "inject", utt_id)


def feature_checksum(values: np.ndarray) -> str:
    """64-bit hash over the canonical float32 little-endian feature bytes."""
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    return digest(payload).hex()


# slots: a run keeps every record, and records unpickled from a worker
# would otherwise each carry a full instance dict
@dataclass(frozen=True, slots=True)
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
        numbers = {"noise_offset": parts[1], "inject_seed": parts[3]}
        where = f"manifest record {line!r}"
        return ManifestRecord(parts[0], field_value(numbers, "noise_offset", int, where),
                              condition_key(parts[2]),
                              field_value(numbers, "inject_seed", int, where), parts[4])


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
        return EpochManifest(field_value(meta, "epoch", int, "the manifest header"),
                             field_value(meta, "config", str, "the manifest header"),
                             tuple(records))

    def write(self, path) -> None:
        write_atomic((path, self.to_text().encode("utf-8")))

    @staticmethod
    def read(path) -> "EpochManifest":
        return EpochManifest.from_text(read_text(path))


@dataclass(frozen=True)
class EpochData:
    """Training data for one epoch: the manifest, each utterance id's
    features, and the normalization stats the features were normalized with."""

    manifest: EpochManifest
    features: dict
    stats: features.NormStats


def render(utterance, pool: NoisePool, offset: int, snr) -> np.ndarray:
    """Raw (unnormalized) features of the utterance mixed at snr with the
    pool segment at offset; at CLEAN the signal is featurized as it is."""
    segment = segment_at(pool, offset, len(utterance.waveform))
    return features.featurize_waveform(mix_at_snr(utterance.waveform, segment, snr))


def draw_and_render(utterance, pool: NoisePool, stage_set, *seed_parts) -> tuple:
    """(noise offset, SNR, raw features) of one utterance: the offset, then
    the SNR from stage_set, are drawn from derived_rng(*seed_parts, utt_id),
    then rendered. A DataError names the utterance."""
    rng = derived_rng(*seed_parts, utterance.utt_id)
    try:
        offset = audio.sample_segment_offset(pool, len(utterance.waveform), rng)
        snr = curriculum.sample_snr(stage_set, rng)
        return offset, snr, render(utterance, pool, offset, snr)
    except DataError as err:
        raise DataError(f"utterance {utterance.utt_id!r}: {err}") from err


def _epoch_item(cfg: EpochConfig, utterance, stats, offset, snr, raw, out=None):
    feats = features.normalize(raw, stats)
    seed = injection_seed(cfg.master_seed, cfg.epoch_index, utterance.utt_id)
    if cfg.gauss_sigma > 0.0:
        feats = features.inject_gaussian(feats, cfg.gauss_sigma,
                                         np.random.default_rng(seed))
    out = np.empty(feats.shape, np.float32) if out is None else out
    out[...] = feats
    record = ManifestRecord(utterance.utt_id, offset, snr, seed,
                            feature_checksum(out))
    return out, record


def generate_epoch(cfg: EpochConfig, corpus, pool: NoisePool,
                   stats: features.NormStats | None = None,
                   out: dict | None = None) -> EpochData:
    """Mix, featurize, normalize and (optionally) inject one whole epoch.

    Without stats (a fresh run's epoch 0), every item is rendered first and
    the normalization stats are fit on those raw features in corpus order;
    each raw matrix is released once it is normalized. The stats used are
    returned on the EpochData. Given out, each float32 matrix is written
    into out[utt_id], a view of its shape. Fully deterministic in
    (master_seed, epoch_index, utterance id); a render error names the
    utterance.
    """
    def draw(utterance):
        return draw_and_render(utterance, pool, cfg.stage_snr_set,
                               cfg.master_seed, "epoch", cfg.epoch_index, "utt")

    raw_items = deque()
    if stats is None:
        raw_items.extend(draw(u) for u in corpus)
        stats = features.fit_norm_stats([raw for _, _, raw in raw_items])
    feature_map = {}
    records = []
    for utterance in corpus:
        feats, record = _epoch_item(cfg, utterance, stats, *(
            raw_items.popleft() if raw_items else draw(utterance)),
            None if out is None else out[utterance.utt_id])
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
