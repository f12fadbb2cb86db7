"""The benchmark's workloads, why each exists, and the checks on its outputs.

Every workload is built from the --seed argument alone: the seed derives the
corpus seeds, the noise-pool seed and the master seed handed to snrtrain.
One repetition ("rep") is a fixed unit of work; the benchmark repeats it for
the measured time and reports medians.

mc_train
    Multicondition training at ComparisonSpec scale (200 train / 50 dev
    utterances, H=64, B=16, sigma=0.6) for a fixed number of epochs, with
    patience equal to the epoch count so the run never stops early, in
    memory, with the default TrainConfig (one-deep prefetch on).
    Why: this is the steady-state PEM epoch. CTC, RNN forward/backward and
    Adam run on the main thread while generation runs on the prefetch
    thread. Any CTC, model or trainer change shows here.
    Bypasses: run-directory I/O (manifests, state, checkpoint) and stage
    switches.

accan_resume
    An accan curriculum run through snrtrain.cli.main(["train", "--config",
    ...]) into a run directory, patience 1, stopped with --stop-after halfway
    and resumed with the same command.
    Why: it uses pem and trainer differently from mc_train. Speculative
    epochs are thrown away at each stage switch, the dev set is re-rendered
    for each stage and best weights are restored. Manifests, state and
    checkpoint are written to disk and read back on resume. Crash-safe saves
    and run telemetry would cost time here and nowhere else.
    Bypasses: nothing of the training path; it is the only workload that
    writes and reads a run directory.

eval_sweep
    Decode a held-out test corpus, three times the dev set, under all 16
    wer.CONDITIONS with trainer.evaluate_condition_wer. The model is trained
    for a few epochs during set-up.
    Why: this is the bypass workload. It makes no CTC loss or grad calls, no
    backward pass and no PEM calls; featurization is most of the run.
    Feature and mixing changes show here; CTC, PEM and trainer changes
    should leave it unchanged.
    Bypasses: ctc loss/grad, model backward, Adam, pem, curriculum.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import ClassVar

from snrtrain import cli, pem, trainer, wer
from snrtrain.audio import (CLEAN, NoisePool, Waveform, measure_snr_db, mix_at_snr,
                            sample_segment_offset, segment_at)
from snrtrain.curriculum import (DEFAULT_SNR_GRID, Schedule, build_stages,
                                 grid_from_endpoints)
from snrtrain.errors import ComputeError
from snrtrain.noise import NoiseSpec, generate_pink
from snrtrain.seeding import derive_seed, derived_rng
from snrtrain.task import SyntheticTask, make_corpus

POOL_SECONDS = 60.0
LEARNING_RATE = 2e-3  # ComparisonSpec's rate
GAUSS_SIGMA = 0.6
HIDDEN = 64
BATCH = 16
SAMPLED_RECORDS = 4  # manifest records rebuilt per epoch
SNR_TOLERANCE_DB = 1e-6


class Checks:
    """Output checks, counted; a failing check records what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Rep:
    utterances: int  # utterance passes done by the rep
    digest: str
    outputs: dict = field(default_factory=dict)
    wall: float = 0.0  # seconds, set by the benchmark


def digest_text(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def train_digest(log_lines, best_hash: str) -> str:
    return digest_text("\n".join(log_lines) + "\n" + best_hash)


def condition_table_digest(table: dict) -> str:
    return digest_text("".join(f"{wer.format_condition(c)}\t{table[c]!r}\n"
                               for c in wer.CONDITIONS))


def sweep(model, alphabet, stats, corpus, pool, eval_seed) -> dict:
    """The 16-condition WER table of a model on a test corpus."""
    return {c: trainer.evaluate_condition_wer(model, alphabet, stats, corpus, pool,
                                              c, eval_seed, BATCH)
            for c in wer.CONDITIONS}


def pink_pool(seed: int, sample_rate_hz: int) -> NoisePool:
    """The pool the CLI builds from {"kind": "pink", "seed": seed}."""
    length = int(round(POOL_SECONDS * sample_rate_hz))
    return NoisePool(generate_pink(NoiseSpec("pink", length, sample_rate_hz, seed=seed)),
                     pool_id=f"pink:{seed}")


def corpora(seed: int, num_train: int, num_dev: int, num_test: int):
    task = SyntheticTask()
    return (make_corpus(task, num_train, derive_seed(seed, "train")),
            make_corpus(task, num_dev, derive_seed(seed, "dev"), id_prefix="dev"),
            make_corpus(task, num_test, derive_seed(seed, "test"), id_prefix="test"))


def check_training(result, checks: Checks, label: str) -> None:
    """Finite CTC losses (the log's loss column) and max_live_epochs <= 2."""
    for line in result.log_lines:
        loss = float(line.split("\t")[2])
        checks.expect(math.isfinite(loss), f"{label}: non-finite loss in {line!r}")
    checks.expect(result.max_live_epochs <= 2,
                  f"{label}: {result.max_live_epochs} epochs live at once")


def check_manifests(manifests, stage_sets, master_seed, train_corpus, pool, stats,
                    check_seed, checks: Checks) -> None:
    """A seeded sample of each epoch's records rebuilds to its checksum."""
    by_id = {u.utt_id: u for u in train_corpus}
    corpus_id = trainer.corpus_fingerprint(train_corpus)
    for manifest in manifests:
        cfg = pem.EpochConfig(epoch_index=manifest.epoch_index,
                              stage_snr_set=stage_sets[manifest.epoch_index],
                              master_seed=master_seed, gauss_sigma=GAUSS_SIGMA,
                              noise_pool_id=pool.pool_id, corpus_id=corpus_id)
        checks.expect(cfg.config_hash() == manifest.config_hash,
                      f"epoch {manifest.epoch_index}: manifest config hash differs")
        rng = derived_rng(check_seed, "manifest-sample", manifest.epoch_index)
        picks = rng.choice(len(manifest.records),
                           size=min(SAMPLED_RECORDS, len(manifest.records)),
                           replace=False)
        for i in sorted(picks):
            record = manifest.records[i]
            try:
                pem.regenerate_item(record, cfg, by_id[record.utt_id], pool, stats)
                ok = True
            except ComputeError:
                ok = False
            checks.expect(ok, f"epoch {manifest.epoch_index}: {record.utt_id} "
                              "does not rebuild to its checksum")


@dataclass(frozen=True)
class McTrain:
    """Multicondition training in memory; see the module docstring."""

    num_train: int = 200
    num_dev: int = 50
    num_test: int = 50
    epochs: int = 4
    name: ClassVar[str] = "mc_train"

    def setup(self, seed: int, workdir: str) -> dict:
        train_corpus, dev_corpus, test_corpus = corpora(
            seed, self.num_train, self.num_dev, self.num_test)
        rate = train_corpus[0].waveform.sample_rate_hz
        return {
            "seed": seed,
            "train": train_corpus, "dev": dev_corpus, "test": test_corpus,
            "pool": pink_pool(derive_seed(seed, "pool"), rate),
            "schedule": Schedule("multicondition", DEFAULT_SNR_GRID,
                                 patience=self.epochs, max_epochs=self.epochs),
            "config": trainer.TrainConfig(
                master_seed=derive_seed(seed, "master"),
                learning_rate=LEARNING_RATE, batch_size=BATCH,
                hidden_size=HIDDEN, gauss_sigma=GAUSS_SIGMA),
        }

    def run(self, state: dict) -> Rep:
        result = trainer.train(state["train"], state["dev"], state["schedule"],
                               state["pool"], state["config"])
        return Rep(len(state["train"]) * result.epochs_run,
                   train_digest(result.log_lines, result.best_hash),
                   {"result": result})

    def check(self, state: dict, rep: Rep, checks: Checks) -> dict:
        result = rep.outputs["result"]
        checks.expect(result.epochs_run == self.epochs,
                      f"ran {result.epochs_run} epochs, expected {self.epochs}")
        check_training(result, checks, self.name)
        stage_sets = [build_stages(state["schedule"])[0]] * self.epochs
        check_manifests(result.manifests, stage_sets, state["config"].master_seed,
                        state["train"], state["pool"], result.stats,
                        state["seed"], checks)
        return quality(result, state)


def quality(result, state: dict) -> dict:
    table = sweep(result.model, result.alphabet, result.stats, state["test"],
                  state["pool"], derive_seed(state["seed"], "eval"))
    return {"dev_wer_best": min(result.dev_wers),
            "test_wer_full": wer.aggregate_ranges(table).full}


@contextlib.contextmanager
def capture_train(results: list):
    """Record what trainer.train returns while the CLI calls it."""
    original = trainer.train

    def train(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    trainer.train = train
    try:
        yield
    finally:
        trainer.train = original


@dataclass(frozen=True)
class AccanResume:
    """CLI accan run, stopped halfway and resumed; see the module docstring."""

    num_train: int = 96
    num_dev: int = 32
    num_test: int = 50
    max_epochs: int = 16
    stop_after: int = 8
    patience: int = 1
    name: ClassVar[str] = "accan_resume"

    def setup(self, seed: int, workdir: str) -> dict:
        corpus_seed = derive_seed(seed, "corpus")
        pool_seed = derive_seed(seed, "pool")
        config = {
            "master_seed": derive_seed(seed, "master"),
            "out_dir": "run",
            "corpus": {"kind": "synthetic", "seed": corpus_seed,
                       "num_train": self.num_train, "num_dev": self.num_dev},
            "noise": {"kind": "pink", "seconds": POOL_SECONDS, "seed": pool_seed},
            "schedule": {"kind": "accan", "snr_min": 0, "snr_max": 50,
                         "snr_step": 5, "patience": self.patience,
                         "max_epochs": self.max_epochs},
            "features": {"gauss_sigma": GAUSS_SIGMA},
            "trainer": {"hidden_size": HIDDEN, "learning_rate": LEARNING_RATE,
                        "batch_size": BATCH, "dropout": 0.3},
        }
        # The same corpus and pool the CLI builds, for the checks.
        train_corpus, _, test_corpus = corpora(corpus_seed, self.num_train,
                                               self.num_dev, self.num_test)
        rate = train_corpus[0].waveform.sample_rate_hz
        return {
            "seed": seed, "config": config, "workdir": workdir,
            "train": train_corpus, "test": test_corpus,
            "pool": pink_pool(pool_seed, rate),
            "schedule": Schedule("accan", grid_from_endpoints(0.0, 50.0, 5.0),
                                 patience=self.patience, max_epochs=self.max_epochs),
        }

    def run(self, state: dict) -> Rep:
        run_dir = tempfile.mkdtemp(prefix="accan-", dir=state["workdir"])
        path = os.path.join(run_dir, "experiment.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state["config"], fh)
        results: list = []
        with capture_train(results), contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["train", "--config", path,
                               "--stop-after", str(self.stop_after)]),
                     cli.main(["train", "--config", path])]
        final = results[-1]
        return Rep(self.num_train * sum(r.epochs_run for r in results),
                   train_digest(final.log_lines, final.best_hash),
                   {"results": results, "codes": codes, "run_dir": run_dir})

    def check(self, state: dict, rep: Rep, checks: Checks) -> dict:
        out = rep.outputs
        checks.expect(out["codes"] == [0, 0], f"CLI exit codes {out['codes']}")
        checks.expect([r.status for r in out["results"]] == ["stopped", "terminated"],
                      f"statuses {[r.status for r in out['results']]}")
        for i, result in enumerate(out["results"]):
            check_training(result, checks, f"{self.name} invocation {i + 1}")
        final = out["results"][-1]
        run_dir = os.path.join(out["run_dir"], "run")
        with open(os.path.join(run_dir, "train_log.tsv"), encoding="utf-8") as fh:
            on_disk = fh.read()
        checks.expect(on_disk == "\n".join(final.log_lines) + "\n",
                      "train_log.tsv differs from the returned log")

        stages = build_stages(state["schedule"])
        stage_sets = [stages[int(line.split("\t")[1])] for line in final.log_lines]
        manifest_dir = os.path.join(run_dir, "manifests")
        manifests = [pem.EpochManifest.read(os.path.join(manifest_dir, name))
                     for name in sorted(os.listdir(manifest_dir))]
        checks.expect(len(manifests) == len(final.log_lines),
                      f"{len(manifests)} manifests for {len(final.log_lines)} epochs")
        check_manifests(manifests, stage_sets, state["config"]["master_seed"],
                        state["train"], state["pool"], final.stats,
                        state["seed"], checks)
        return quality(final, state)


@dataclass(frozen=True)
class EvalSweep:
    """16-condition decode of a held-out corpus; see the module docstring."""

    num_train: int = 200
    num_dev: int = 50
    num_test: int = 150
    train_epochs: int = 3
    name: ClassVar[str] = "eval_sweep"

    def setup(self, seed: int, workdir: str) -> dict:
        state = McTrain(self.num_train, self.num_dev, self.num_test,
                        self.train_epochs).setup(seed, workdir)
        state["trained"] = trainer.train(state["train"], state["dev"],
                                         state["schedule"], state["pool"],
                                         state["config"])
        state["eval_seed"] = derive_seed(seed, "eval")
        return state

    def run(self, state: dict) -> Rep:
        trained = state["trained"]
        table = sweep(trained.model, trained.alphabet, trained.stats,
                      state["test"], state["pool"], state["eval_seed"])
        return Rep(len(wer.CONDITIONS) * len(state["test"]),
                   condition_table_digest(table), {"table": table})

    def check(self, state: dict, rep: Rep, checks: Checks) -> dict:
        check_training(state["trained"], checks, f"{self.name} set-up")
        pool = state["pool"]
        for condition in wer.CONDITIONS:
            if condition == CLEAN:
                continue
            for u in state["test"]:
                # the seeded choice evaluate_condition_wer makes for this mix
                rng = derived_rng(state["eval_seed"], "eval", str(condition), u.utt_id)
                segment = segment_at(pool, sample_segment_offset(pool, len(u.waveform), rng),
                                     len(u.waveform))
                mixed = mix_at_snr(u.waveform, segment, condition)
                noise = Waveform(mixed.samples - u.waveform.samples, u.waveform.sample_rate_hz)
                error = abs(measure_snr_db(u.waveform, noise) - condition)
                checks.expect(error <= SNR_TOLERANCE_DB,
                              f"{u.utt_id} at {condition:g} dB: off by {error:.3g} dB")
        return {"dev_wer_best": min(state["trained"].dev_wers),
                "test_wer_full": wer.aggregate_ranges(rep.outputs["table"]).full}


WORKLOADS = {w.name: w for w in (McTrain(), AccanResume(), EvalSweep())}
