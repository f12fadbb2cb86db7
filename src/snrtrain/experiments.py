"""Directional comparison: SNR-curriculum vs multi-condition vs clean-only.

Trains three models per seed on the synthetic tone task and scores them on
pink-noise test conditions at low SNR. The expected ordering at 0 and
-5 dB is curriculum <= multi-condition (within a small slack) and both far
better than the clean-only baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .audio import CLEAN, NoisePool
from .curriculum import DEFAULT_SNR_GRID, Schedule
from .noise import pink_pool_waveform
from .seeding import derive_seed
from .task import SyntheticTask, make_corpus
from .trainer import TrainConfig, evaluate_condition_wer, train
from .wer import format_condition

METHODS = ("accan", "multicondition", "clean_only")

# Mixing seeds for test-set noise are shared by every method and every
# training seed, so models are compared on identical test mixtures.
TEST_MIX_SEED = 271828


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
    label = format_condition(condition)
    return label if condition == CLEAN else f"{label}dB"


@dataclass
class MethodOutcome:
    method: str
    wer_by_seed: dict = field(default_factory=dict)  # seed -> {condition: wer}
    epochs_by_seed: dict = field(default_factory=dict)

    def mean_wer(self, condition) -> float:
        values = [w[condition] for w in self.wer_by_seed.values()]
        return sum(values) / len(values)

    def mean_over_conditions(self, conditions) -> float:
        return sum(self.mean_wer(c) for c in conditions) / len(conditions)


@dataclass
class ComparisonResult:
    spec: ComparisonSpec
    outcomes: dict  # method -> MethodOutcome

    def low_snr_mean(self, method: str) -> float:
        return self.outcomes[method].mean_over_conditions(self.spec.test_snrs)

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


def _schedule_for(method: str, spec: ComparisonSpec) -> Schedule:
    if method == "accan":
        return Schedule("accan", DEFAULT_SNR_GRID, patience=spec.patience,
                        max_epochs=spec.curriculum_max_epochs)
    if method == "multicondition":
        return Schedule("multicondition", DEFAULT_SNR_GRID, patience=spec.patience,
                        max_epochs=spec.multicondition_max_epochs)
    return Schedule("multicondition", (CLEAN,), patience=spec.patience,
                    max_epochs=spec.clean_max_epochs)


def run_comparison(spec: ComparisonSpec = ComparisonSpec(),
                   progress=None) -> ComparisonResult:
    task = SyntheticTask()
    train_corpus = make_corpus(task, spec.num_train, derive_seed(spec.corpus_seed, "train"))
    dev_corpus = make_corpus(task, spec.num_dev, derive_seed(spec.corpus_seed, "dev"),
                             id_prefix="dev")
    test_corpus = make_corpus(task, spec.num_test, derive_seed(spec.corpus_seed, "test"),
                              id_prefix="test")
    pool = NoisePool(pink_pool_waveform(spec.pool_seconds, task.sample_rate_hz,
                                        spec.pool_seed), pool_id="pink-pool")

    outcomes = {method: MethodOutcome(method) for method in METHODS}
    for seed in spec.seeds:
        for method in METHODS:
            schedule = _schedule_for(method, spec)
            overrides = {"gauss_sigma": 0.0} if method == "clean_only" else {}
            config = TrainConfig(
                master_seed=derive_seed(seed, method),
                learning_rate=spec.learning_rate,
                hidden_size=spec.hidden_size,
                **overrides,
            )
            result = train(train_corpus, dev_corpus, schedule, pool, config)
            wers = {
                condition: evaluate_condition_wer(
                    result.model, result.alphabet, result.stats, test_corpus,
                    pool, condition, TEST_MIX_SEED, config.batch_size)
                for condition in spec.test_snrs
            }
            outcomes[method].wer_by_seed[seed] = wers
            outcomes[method].epochs_by_seed[seed] = result.epochs_run
            if progress is not None:
                summary = ", ".join(f"{_condition_label(c)}={w:.1f}"
                                    for c, w in wers.items())
                progress(f"seed {seed} {method}: {result.epochs_run} epochs, {summary}")

    return ComparisonResult(spec, outcomes)
