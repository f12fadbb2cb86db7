"""Experiment configs, and the directional comparison built from them.

run_experiment trains the experiment file that `snrtrain train --config`
names, resuming a run saved in its run directory. run_comparison trains
curriculum, multi-condition and clean-only models per seed on the
synthetic tone task: it writes each job's experiment file to
<out_dir>/<method>-s<seed>/experiment.json, trains it from that file
through run_experiment, and scores the models at low test SNRs in pink
noise. The expected ordering at 0 and -5 dB is curriculum <=
multi-condition (within a small slack) and both far better than the
clean-only baseline.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from . import trainer, wer
from .audio import CLEAN, NoisePool, format_condition, read_wav
from .curriculum import parse_schedule_file, schedule_from_fields
from .errors import DataError, check_keys, field_value, read_text, write_atomic
from .noise import pink_pool_waveform
from .seeding import derive_seed
from .task import SyntheticTask, Utterance, make_corpus

METHODS = ("accan", "multicondition", "clean_only")

# Mixing seeds for test-set noise are shared by every method and every
# training seed, so models are compared on identical test mixtures.
TEST_MIX_SEED = 271828


_CORPUS_KEYS = {
    "synthetic": ("kind", "seed", "num_train", "num_dev"),
    "wav-dir": ("kind", "train", "dev"),
}


def _corpus_from_config(section: dict, base_dir: str):
    where = "the 'corpus' section"
    kind = field_value(section, "kind", str, where, "synthetic")
    if kind not in _CORPUS_KEYS:
        raise DataError(f"unknown corpus kind {kind!r}")
    check_keys(section, _CORPUS_KEYS[kind], where)
    if kind == "wav-dir":
        train_dir = field_value(section, "train", str, where)
        dev_dir = field_value(section, "dev", str, where)
        return (_load_wav_dir(os.path.join(base_dir, train_dir)),
                _load_wav_dir(os.path.join(base_dir, dev_dir)))
    task = SyntheticTask()
    seed = field_value(section, "seed", int, where)
    train_corpus = make_corpus(task, field_value(section, "num_train", int, where),
                               derive_seed(seed, "train"))
    dev_corpus = make_corpus(task, field_value(section, "num_dev", int, where),
                             derive_seed(seed, "dev"), id_prefix="dev")
    return train_corpus, dev_corpus


def _load_wav_dir(path):
    transcripts = wer.read_transcripts(os.path.join(path, "transcripts.tsv"))
    return tuple(Utterance(utt_id, read_wav(os.path.join(path, f"{utt_id}.wav")), words)
                 for utt_id, words in transcripts.items())


def _pool_from_config(section: dict, base_dir: str, sample_rate_hz: int) -> NoisePool:
    where = "the 'noise' section"
    kind = field_value(section, "kind", str, where)
    if kind == "pink":
        check_keys(section, ("kind", "seconds", "seed"), where)
        seed = field_value(section, "seed", int, where)
        waveform = pink_pool_waveform(field_value(section, "seconds", float, where, 60.0),
                                      sample_rate_hz, seed)
        return NoisePool(waveform, pool_id=f"pink:{seed}")
    if kind == "wav":
        check_keys(section, ("kind", "path"), where)
        path = os.path.join(base_dir, field_value(section, "path", str, where))
        return NoisePool(read_wav(path), pool_id=os.path.basename(path))
    raise DataError(f"unknown noise kind {kind!r}; use 'pink' or 'wav'")


def _load_run_config(path) -> dict:
    """The experiment config in a JSON file, its sections checked, or
    DataError naming the file; a missing file raises FileNotFoundError."""
    try:
        config = json.loads(read_text(path))
    except json.JSONDecodeError as err:
        raise DataError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(config, dict):
        raise DataError(f"{path}: expected a JSON object")
    check_keys(config, ("master_seed", "out_dir", "corpus", "noise", "schedule",
                        "features", "trainer"), path)
    for key in ("master_seed", "out_dir", "corpus", "noise", "schedule"):
        if key not in config:
            raise DataError(f"{path}: missing required key {key!r}")
    for key in ("corpus", "noise", "features", "trainer"):
        if not isinstance(config.get(key, {}), dict):
            raise DataError(f"{path}: {key!r} must be a JSON object")
    if not isinstance(config["schedule"], (dict, str)):
        raise DataError(f"{path}: 'schedule' must be a JSON object or a file path")
    return config


# the TrainConfig fields an experiment file may set, by section; the rest
# keep TrainConfig's defaults
_CONFIG_KEYS = {
    "trainer": {"learning_rate": float, "batch_size": int, "dropout": float,
                "hidden_size": int},
    "features": {"gauss_sigma": float},
}


def _train_config(config: dict, path) -> trainer.TrainConfig:
    settings = {}
    for section, keys in _CONFIG_KEYS.items():
        fields = config.get(section, {})
        where = f"the {section!r} section"
        check_keys(fields, keys, where)
        for key in fields:
            settings[key] = field_value(fields, key, keys[key], where)
    return trainer.TrainConfig(
        master_seed=field_value(config, "master_seed", int, path), **settings)


def run_experiment(path, stop_after: int | None = None):
    """Train (or resume) the experiment in the JSON file `path`; its
    relative paths resolve against the file's directory. Returns
    (TrainResult, noise pool, resolved out_dir)."""
    config = _load_run_config(path)
    train_config = _train_config(config, path)
    base_dir = os.path.dirname(os.path.abspath(path))
    train_corpus, dev_corpus = _corpus_from_config(config["corpus"], base_dir)
    sample_rate = train_corpus[0].waveform.sample_rate_hz
    pool = _pool_from_config(config["noise"], base_dir, sample_rate)
    section = config["schedule"]  # its fields, or the path of a schedule file
    schedule = (parse_schedule_file(os.path.join(base_dir, section))
                if isinstance(section, str)
                else schedule_from_fields(section, "the 'schedule' section"))
    out_dir = os.path.join(base_dir, field_value(config, "out_dir", str, path))
    # looked up on the module at each call, so that a wrapper installed
    # there (perfbench's accan_resume records what train returns) sees it
    result = trainer.train(train_corpus, dev_corpus, schedule, pool, train_config,
                           out_dir=out_dir, stop_after=stop_after)
    return result, pool, out_dir


@dataclass(frozen=True)
class ComparisonSpec:
    num_train: int = 200
    num_dev: int = 50
    num_test: int = 50
    hidden_size: int = 64
    seeds: tuple = (1, 2, 3)
    test_snrs: tuple = (0.0, -5.0)
    patience: int = 3
    curriculum_max_epochs: int = 140
    multicondition_max_epochs: int = 60
    clean_max_epochs: int = 45
    learning_rate: float = 2e-3
    corpus_seed: int = 0
    pool_seconds: float = 60.0
    pool_seed: int = 77


def _condition_label(condition) -> str:
    """A test condition as '0dB', '-5dB' or 'clean'."""
    return format_condition(condition) + ("" if condition == CLEAN else "dB")


@dataclass
class MethodOutcome:
    method: str
    wer_by_seed: dict = field(default_factory=dict)  # seed -> {condition: wer}
    epochs_by_seed: dict = field(default_factory=dict)

    def mean_wer(self, condition) -> float:
        values = [w[condition] for w in self.wer_by_seed.values()]
        return sum(values) / len(values)


@dataclass
class ComparisonResult:
    spec: ComparisonSpec
    outcomes: dict  # method -> MethodOutcome

    def low_snr_mean(self, method: str) -> float:
        conditions = self.spec.test_snrs
        return sum(self.outcomes[method].mean_wer(c) for c in conditions) / len(conditions)

    def summary_lines(self) -> list:
        lines = ["method            " + "".join(
            f"{_condition_label(c):>10s}" for c in self.spec.test_snrs) + f"{'mean':>10s}"]
        for method in METHODS:
            outcome = self.outcomes[method]
            row = f"{method:<18s}"
            for c in self.spec.test_snrs:
                row += f"{outcome.mean_wer(c):10.2f}"
            row += f"{self.low_snr_mean(method):10.2f}"
            lines.append(row)
        return lines


def _job_config(spec: ComparisonSpec, seed: int, method: str) -> dict:
    """The experiment config of one comparison job, which trains into the
    directory that holds it. Clean-only is multi-condition training on the
    clean grid without feature injection."""
    schedule = {"kind": "accan" if method == "accan" else "multicondition",
                "patience": spec.patience,
                "max_epochs": {"accan": spec.curriculum_max_epochs,
                               "multicondition": spec.multicondition_max_epochs,
                               "clean_only": spec.clean_max_epochs}[method]}
    if method == "clean_only":
        schedule["grid"] = CLEAN
    return {
        "master_seed": derive_seed(seed, method),
        "out_dir": ".",
        "corpus": {"kind": "synthetic", "seed": spec.corpus_seed,
                   "num_train": spec.num_train, "num_dev": spec.num_dev},
        "noise": {"kind": "pink", "seconds": spec.pool_seconds, "seed": spec.pool_seed},
        "schedule": schedule,
        "features": {"gauss_sigma": 0.0} if method == "clean_only" else {},
        "trainer": {"learning_rate": spec.learning_rate, "hidden_size": spec.hidden_size},
    }


def run_comparison(spec: ComparisonSpec, out_dir, progress=None) -> ComparisonResult:
    """Train every (seed, method) job of spec under out_dir, resuming any
    job saved there (a job directory holding another experiment raises
    DataError), and score each on spec.test_snrs. `progress`, if given,
    is called with one line after each job."""
    test_corpus = make_corpus(SyntheticTask(), spec.num_test,
                              derive_seed(spec.corpus_seed, "test"), id_prefix="test")
    outcomes = {method: MethodOutcome(method) for method in METHODS}
    for seed in spec.seeds:
        for method in METHODS:
            config = _job_config(spec, seed, method)
            job_dir = os.path.join(out_dir, f"{method}-s{seed}")
            os.makedirs(job_dir, exist_ok=True)
            path = os.path.join(job_dir, "experiment.json")
            text = json.dumps(config, indent=2) + "\n"
            # refused before the file is overwritten; the saved state's
            # fingerprint would refuse the changed job only after
            if os.path.exists(path) and read_text(path) != text:
                raise DataError(f"{path} holds another experiment; refusing to resume")
            write_atomic((path, text.encode()))
            result, pool, _ = run_experiment(path)
            wers = {
                condition: trainer.evaluate_condition_wer(
                    result.model, result.alphabet, result.stats, test_corpus,
                    pool, condition, TEST_MIX_SEED)
                for condition in spec.test_snrs
            }
            epochs = len(result.records)
            outcomes[method].wer_by_seed[seed] = wers
            outcomes[method].epochs_by_seed[seed] = epochs
            if progress is not None:
                summary = ", ".join(f"{_condition_label(c)}={w:.1f}"
                                    for c, w in wers.items())
                progress(f"seed {seed} {method}: {epochs} epochs, {summary}")

    return ComparisonResult(spec, outcomes)
