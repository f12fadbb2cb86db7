"""The input contract: a mutated input file either parses or raises DataError.

Each case writes one valid input, then feeds a reader, or a CLI command,
the seeded mutations of its bytes that `mutations` yields: byte flips, byte
sets, cuts, insertions, digit swaps and sign swaps, unfiltered, so the test
sees the same inputs on every run. Anything but a parse or DataError (for a
command: exit 0 or 2) fails and names the mutation.
"""

import json
import shutil

import numpy as np
import pytest

from snrtrain import cli, experiments, trainer
from snrtrain.audio import Waveform, read_wav, write_wav
from snrtrain.curriculum import parse_schedule_file
from snrtrain.errors import DataError
from snrtrain.features import read_feature_file, read_norm_stats
from snrtrain.model import load_checkpoint
from snrtrain.pem import EpochManifest
from snrtrain.wer import read_baseline, read_transcripts

KINDS = ("flip", "set", "cut", "insert", "digit", "sign")
PER_CASE = 100

TINY_RUN = {
    "master_seed": 3, "out_dir": "run",
    "corpus": {"kind": "synthetic", "seed": 21, "num_train": 2, "num_dev": 1},
    "noise": {"kind": "pink", "seconds": 2.0, "seed": 5},
    "schedule": {"kind": "multicondition", "patience": 1, "max_epochs": 1},
    "trainer": {"hidden_size": 4, "batch_size": 2},
}
SCHEDULE = "kind = accan\nsnr_min = -5\nsnr_max = 20\nsnr_step = 5\npatience = 2\n"
TRANSCRIPTS = "u1@0 a b c\nu2@-5 d a\nu1@clean b\n"
REPORT = ("condition      wer[%]\nclean           13.60\n\nwer[clean]=13.6000\n"
          "full=34.0900\nhigh=20.5000\nlow=-0.7000\nroi=50.1000\n")


def mutations(data: bytes, count: int, seed: int):
    """(label, bytes) of `count` mutations of `data`, one kind after another.
    A digit swap rewrites an ASCII digit and a sign swap turns '-' into '+'
    or puts '-' before a digit; either leaves data without one unchanged."""
    rng = np.random.default_rng(seed)
    digits = [i for i, b in enumerate(data) if 0x30 <= b <= 0x39]
    minuses = [i for i, b in enumerate(data) if b == 0x2D]
    for n in range(count):
        kind = KINDS[n % len(KINDS)]
        out = bytearray(data)
        at = int(rng.integers(len(data)))
        if kind == "flip":
            out[at] ^= int(rng.integers(1, 256))
        elif kind == "set":
            out[at] = int(rng.integers(256))
        elif kind == "cut":
            del out[at:]
        elif kind == "insert":
            out.insert(at, int(rng.integers(256)))
        elif kind == "digit" and digits:
            at = digits[int(rng.integers(len(digits)))]
            out[at] = 0x30 + int(rng.integers(10))
        elif kind == "sign" and minuses and rng.integers(2):
            at = minuses[int(rng.integers(len(minuses)))]
            out[at] = 0x2B
        elif kind == "sign" and digits:
            at = digits[int(rng.integers(len(digits)))]
            out.insert(at, 0x2D)
        yield f"{kind} at {at}", bytes(out)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A finished one-epoch run: its config path and run directory."""
    root = tmp_path_factory.mktemp("tiny")
    config = root / "run.json"
    config.write_text(json.dumps(TINY_RUN))
    assert cli.main(["train", "--config", str(config)]) == 0
    return config, root / "run"


def run_file(name):
    def case(tmp_path, tiny_run, monkeypatch):
        path = tmp_path / name.replace("/", "_")
        shutil.copyfile(tiny_run[1] / name, path)
        read = {"stats.feat": read_norm_stats, "final.ckpt": load_checkpoint,
                "manifests/epoch_0000.manifest": EpochManifest.read}[name]
        return path, lambda: read(path)
    return case


def text_file(text, read):
    def case(tmp_path, tiny_run, monkeypatch):
        path = tmp_path / "input.txt"
        path.write_text(text)
        return path, lambda: read(path)
    return case


def wav(sample_format, command=None):
    def case(tmp_path, tiny_run, monkeypatch):
        path = tmp_path / "in.wav"
        rng = np.random.default_rng(4)
        write_wav(path, Waveform(rng.normal(0.0, 0.2, 640), 16000), sample_format)
        if command is None:
            return path, lambda: read_wav(path)
        args = {"mix": ["mix", "--noise", "pink", "--snr", "-5", "--seed", "1"],
                "featurize": ["featurize"]}[command]
        args += ["--in", str(path), "--out", str(tmp_path / "out")]
        return path, lambda: cli_exit(args)
    return case


def feat(tmp_path, tiny_run, monkeypatch):
    path = tmp_path / "x.feat"
    shutil.copyfile(tiny_run[1] / "stats.feat", path)
    return path, lambda: read_feature_file(path)


def experiment(tmp_path, tiny_run, monkeypatch):
    # everything run_experiment reads, up to the call that would train
    monkeypatch.setattr(trainer, "train", lambda *args, **kwargs: None)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(TINY_RUN))
    return path, lambda: experiments.run_experiment(path)


def state(tmp_path, tiny_run, monkeypatch, command=False):
    config, run_dir = tiny_run
    copy = tmp_path / "tiny"
    shutil.copytree(config.parent, copy)
    if command:
        return copy / "run" / "state.npz", lambda: cli_exit(
            ["train", "--config", str(copy / config.name)])
    return copy / "run" / "state.npz", lambda: experiments.run_experiment(
        copy / config.name)


def score(tmp_path, tiny_run, monkeypatch):
    ref = tmp_path / "ref.txt"
    ref.write_text(TRANSCRIPTS)
    return ref, lambda: cli_exit(["score", "--ref", str(ref), "--hyp", str(ref)])


def cli_exit(args):
    code = cli.main(args)
    assert code in (0, 2), code


CASES = {
    "feat": feat,
    "stats": run_file("stats.feat"),
    "checkpoint": run_file("final.ckpt"),
    "manifest": run_file("manifests/epoch_0000.manifest"),
    "wav_float32": wav("float32"),
    "wav_int16": wav("int16"),
    "transcripts": text_file(TRANSCRIPTS, read_transcripts),
    "schedule": text_file(SCHEDULE, parse_schedule_file),
    "experiment": experiment,
    "baseline": text_file(REPORT, read_baseline),
    "state": state,
    "cli_mix": wav("float32", "mix"),
    "cli_featurize": wav("int16", "featurize"),
    "cli_score": score,
    "cli_train": lambda *args: state(*args, command=True),
}


@pytest.mark.parametrize("case", CASES)
def test_mutated_input_parses_or_raises_data_error(case, tmp_path, tiny_run,
                                                   monkeypatch):
    path, read = CASES[case](tmp_path, tiny_run, monkeypatch)
    read()  # the unmutated input parses
    valid = path.read_bytes()
    seed = list(CASES).index(case)
    for label, data in mutations(valid, PER_CASE, seed):
        path.write_bytes(data)
        try:
            read()
        except DataError:
            pass
        except Exception as err:
            pytest.fail(f"{case}, {label}: {type(err).__name__}: {err}")
