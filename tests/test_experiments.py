import dataclasses
import json
import os

import pytest

from helpers import file_digests, watch_generation
from snrtrain import cli, trainer
from snrtrain.audio import CLEAN
from snrtrain.errors import DataError
from snrtrain.experiments import METHODS, ComparisonSpec, run_comparison

# one seed and one epoch per method: enough to exercise the reporting
TINY_SPEC = ComparisonSpec(num_train=8, num_dev=4, num_test=4, hidden_size=8,
                           seeds=(1,), test_snrs=(CLEAN, 0.0),
                           curriculum_max_epochs=1, multicondition_max_epochs=1,
                           clean_max_epochs=1, pool_seconds=10.0)

# two seeds of jobs that stop on patience or on their epoch cap
SMALL_SPEC = ComparisonSpec(num_train=8, num_dev=4, num_test=4, hidden_size=8,
                            seeds=(1, 2), test_snrs=(CLEAN, 0.0), patience=1,
                            curriculum_max_epochs=4, multicondition_max_epochs=3,
                            clean_max_epochs=2, pool_seconds=10.0)


def outcomes(result) -> dict:
    return {method: (o.wer_by_seed, o.epochs_by_seed)
            for method, o in result.outcomes.items()}


def test_comparison_reports_a_clean_test_condition(tmp_path):
    progress = []
    result = run_comparison(TINY_SPEC, tmp_path, progress=progress.append)
    assert [line.split(":")[0] for line in progress] == \
        [f"seed 1 {method}" for method in METHODS]
    assert all(", clean=" in line and ", 0dB=" in line for line in progress)
    lines = result.summary_lines()
    assert lines[0].split() == ["method", "clean", "0dB", "mean"]
    assert [line.split()[0] for line in lines[1:]] == list(METHODS)
    # the values that training each job in memory gave before the jobs were
    # written as experiment configs
    assert outcomes(result) == {
        "accan": ({1: {CLEAN: 69.23076923076923, 0.0: 692.3076923076923}}, {1: 1}),
        "multicondition": ({1: {CLEAN: 353.84615384615387, 0.0: 423.0769230769231}},
                           {1: 1}),
        "clean_only": ({1: {CLEAN: 723.0769230769231, 0.0: 69.23076923076923}},
                       {1: 1}),
    }


def test_jobs_are_run_directories(tmp_path, monkeypatch):
    # jobs call train through the trainer module, where perfbench wraps it
    calls = []
    train = trainer.train

    def recording_train(*args, **kwargs):
        calls.append(kwargs["out_dir"])
        return train(*args, **kwargs)

    monkeypatch.setattr(trainer, "train", recording_train)
    run_comparison(TINY_SPEC, tmp_path)
    assert [os.path.basename(os.path.normpath(d)) for d in calls] == \
        [f"{method}-s1" for method in METHODS]
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(f"{method}-s1" for method in METHODS)
    for method in METHODS:
        job = tmp_path / f"{method}-s1"
        assert {p.name for p in job.iterdir()} == {
            "experiment.json", "train_log.tsv", "stage_log.tsv", "stats.feat",
            "final.ckpt", "state.npz", "manifests"}
    schedule = json.loads((tmp_path / "clean_only-s1" / "experiment.json")
                          .read_text())["schedule"]
    assert schedule["grid"] == CLEAN


def test_rerun_trains_nothing_and_gives_equal_outcomes(tmp_path, monkeypatch):
    first = run_comparison(SMALL_SPEC, tmp_path)
    digests = file_digests(tmp_path)
    generated = watch_generation(monkeypatch)
    again = run_comparison(SMALL_SPEC, tmp_path)
    assert generated == []  # every job is finished and trains 0 epochs
    assert outcomes(again) == outcomes(first)
    assert file_digests(tmp_path) == digests


@pytest.mark.parametrize("change", [{"pool_seed": 78}, {"learning_rate": 1e-3}])
def test_rerun_with_another_spec_is_refused(tmp_path, change):
    run_comparison(TINY_SPEC, tmp_path)
    digests = file_digests(tmp_path)
    with pytest.raises(DataError, match="accan-s1/experiment.json holds another"):
        run_comparison(dataclasses.replace(TINY_SPEC, **change), tmp_path)
    assert file_digests(tmp_path) == digests


class Interrupt(Exception):
    pass


@pytest.mark.parametrize("jobs_done", [1, 4])
def test_interrupted_comparison_resumes_to_uninterrupted(tmp_path, jobs_done):
    whole = run_comparison(SMALL_SPEC, tmp_path / "whole")

    def stop_after_jobs(line):
        done.append(line)
        if len(done) == jobs_done:
            raise Interrupt

    done = []
    with pytest.raises(Interrupt):
        run_comparison(SMALL_SPEC, tmp_path / "part", progress=stop_after_jobs)
    assert len(list((tmp_path / "part").iterdir())) == jobs_done
    resumed = run_comparison(SMALL_SPEC, tmp_path / "part")
    assert outcomes(resumed) == outcomes(whole)
    assert file_digests(tmp_path / "part") == file_digests(tmp_path / "whole")


def test_train_command_reproduces_every_job(tmp_path, capsys):
    run_comparison(SMALL_SPEC, tmp_path / "cmp")
    for job in sorted((tmp_path / "cmp").iterdir()):
        config = json.loads((job / "experiment.json").read_text())
        fresh = tmp_path / "fresh" / job.name
        config["out_dir"] = str(fresh)
        path = tmp_path / f"{job.name}.json"
        path.write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(path)]) == 0
        assert f"out_dir={fresh}" in capsys.readouterr().out
        assert (fresh / "train_log.tsv").read_bytes() == \
            (job / "train_log.tsv").read_bytes(), job.name
