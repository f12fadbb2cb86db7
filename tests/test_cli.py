import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import helpers
import reference_wer_tables as tables
import snrtrain
from snrtrain import cli, experiments
from snrtrain.audio import Waveform, read_wav, write_wav
from snrtrain.curriculum import Schedule, StageController
from snrtrain.errors import DataError
from snrtrain.experiments import METHODS, ComparisonSpec, run_comparison
from snrtrain.features import FEATURE_DIM, read_feature_file, write_feature_file
from snrtrain.model import RecurrentCtcModel
from snrtrain.task import SyntheticTask, make_corpus


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "snrtrain", *args],
                          capture_output=True, text=True, cwd=cwd)


def write_tone(path, seed=0, n=8000, amplitude=0.3):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 16000.0
    samples = amplitude * np.sin(2 * np.pi * 523.0 * t) + \
        0.05 * rng.normal(size=n)
    write_wav(path, Waveform(samples, 16000), "float32")


class TestMix:
    def test_equal_rms_zero_db_reports_unit_gain(self, tmp_path):
        sig = tmp_path / "sig.wav"
        noise = tmp_path / "noise.wav"
        write_wav(sig, Waveform(np.full(4000, 0.25), 16000))
        write_wav(noise, Waveform(np.tile([0.25, -0.25], 2000), 16000))
        out = tmp_path / "mix.wav"
        proc = run_cli("mix", "--in", str(sig), "--noise", str(noise),
                       "--snr", "0", "--seed", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        values = dict(kv.split("=") for kv in proc.stdout.split())
        assert float(values["gain"]) == pytest.approx(1.0, abs=1e-9)
        assert float(values["achieved_snr_db"]) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("target", ["0", "15", "-5"])
    def test_round_trip_snr(self, tmp_path, target):
        sig = tmp_path / "sig.wav"
        write_tone(sig, seed=3)
        out = tmp_path / "mix.wav"
        proc = run_cli("mix", "--in", str(sig), "--noise", "pink",
                       "--snr", target, "--seed", "7", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        values = dict(kv.split("=") for kv in proc.stdout.split())
        assert float(values["achieved_snr_db"]) == pytest.approx(float(target),
                                                                 abs=1e-6)
        assert read_wav(out).sample_rate_hz == 16000

    def test_clean_sentinel_returns_signal(self, tmp_path):
        sig = tmp_path / "sig.wav"
        write_tone(sig, seed=4)
        out = tmp_path / "clean.wav"
        proc = run_cli("mix", "--in", str(sig), "--noise", "pink",
                       "--snr", "clean", "--seed", "1", "--out", str(out))
        assert proc.returncode == 0
        np.testing.assert_allclose(read_wav(out).samples,
                                   read_wav(sig).samples, atol=1e-7)

    @pytest.mark.parametrize("sample_format", ["float32", "int16"])
    def test_truncated_input_exit_2(self, tmp_path, capsys, sample_format):
        sig = tmp_path / "sig.wav"
        write_wav(sig, Waveform(np.full(7403, 0.25), 16000), sample_format)
        sig.write_bytes(sig.read_bytes()[:7403 * 2])  # inside the data chunk
        out = tmp_path / "mix.wav"
        assert cli.main(["mix", "--in", str(sig), "--noise", "pink", "--snr", "0",
                         "--seed", "1", "--out", str(out)]) == 2
        assert f"error: {sig}: not a readable WAV file" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_leaves_existing_out_unchanged(self, tmp_path,
                                                        monkeypatch):
        sig = tmp_path / "sig.wav"
        write_tone(sig, seed=3)
        out = tmp_path / "mix.wav"
        out.write_bytes(b"previous output")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["mix", "--in", str(sig), "--noise", "pink", "--snr", "0",
                      "--seed", "1", "--out", str(out)])
        assert out.read_bytes() == b"previous output"

    def test_missing_file_exit_2_names_path(self, tmp_path):
        proc = run_cli("mix", "--in", str(tmp_path / "absent.wav"),
                       "--noise", "pink", "--snr", "0", "--seed", "1",
                       "--out", str(tmp_path / "out.wav"))
        assert proc.returncode == 2
        assert "absent.wav" in proc.stderr

    @pytest.mark.parametrize("edit", sorted(helpers.WAV_HEADER_EDITS))
    def test_malformed_wav_exit_2_names_path(self, tmp_path, capsys, edit):
        sig = tmp_path / "sig.wav"
        write_tone(sig, seed=6)
        helpers.edit_byte(sig, *helpers.WAV_HEADER_EDITS[edit])
        out = tmp_path / "out.wav"
        assert cli.main(["mix", "--in", str(sig), "--noise", "pink", "--snr", "0",
                         "--seed", "1", "--out", str(out)]) == 2
        assert f"error: {sig}: not a readable WAV file" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_wav_prints_one_error_line(self, tmp_path):
        # scipy's warning on the chunk it cannot read is not passed on
        sig = tmp_path / "sig.wav"
        write_tone(sig, seed=6)
        helpers.edit_byte(sig, *helpers.WAV_HEADER_EDITS["fmt_size"])
        proc = run_cli("mix", "--in", str(sig), "--noise", "pink", "--snr", "0",
                       "--seed", "1", "--out", str(tmp_path / "out.wav"))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {sig}: not a readable WAV file")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("rate,sample,reason", [
        (16000, np.nan, "waveform contains non-finite samples"),
        (0, 0.1, "sample rate must be positive, got 0")])
    def test_invalid_wav_content_exit_2_names_path(self, tmp_path, capsys,
                                                    rate, sample, reason):
        sig = tmp_path / "sig.wav"
        wavfile.write(sig, rate, np.full(800, sample, dtype=np.float32))
        assert cli.main(["mix", "--in", str(sig), "--noise", "pink", "--snr", "0",
                         "--seed", "1", "--out", str(tmp_path / "out.wav")]) == 2
        assert capsys.readouterr().err == f"error: {sig}: {reason}\n"

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_snr_exit_2_names_value(self, tmp_path, target):
        sig = tmp_path / "sig.wav"
        write_tone(sig, seed=5)
        proc = run_cli("mix", "--in", str(sig), "--noise", "pink",
                       f"--snr={target}", "--seed", "1",
                       "--out", str(tmp_path / "out.wav"))
        assert proc.returncode == 2
        assert f"'{target}'" in proc.stderr
        assert "finite" in proc.stderr

    def test_degenerate_energy_exit_2(self, tmp_path):
        sig = tmp_path / "silent.wav"
        write_wav(sig, Waveform(np.zeros(4000), 16000))
        proc = run_cli("mix", "--in", str(sig), "--noise", "pink",
                       "--snr", "0", "--seed", "1",
                       "--out", str(tmp_path / "out.wav"))
        assert proc.returncode == 2
        assert "degenerate" in proc.stderr


class TestFeaturize:
    def test_dimension_contract(self, tmp_path):
        wav = tmp_path / "in.wav"
        write_tone(wav)
        out = tmp_path / "out.feat"
        proc = run_cli("featurize", "--in", str(wav), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert f"dim={FEATURE_DIM}" in proc.stdout
        assert read_feature_file(out).shape[1] == FEATURE_DIM

    def test_sigma_zero_reruns_are_idempotent(self, tmp_path):
        wav = tmp_path / "in.wav"
        write_tone(wav)
        out1, out2 = tmp_path / "a.feat", tmp_path / "b.feat"
        first = run_cli("featurize", "--in", str(wav), "--out", str(out1))
        second = run_cli("featurize", "--in", str(wav), "--out", str(out2))
        assert first.stdout == second.stdout
        assert out1.read_bytes() == out2.read_bytes()

    def test_injection_checksum_reproducible(self, tmp_path):
        wav = tmp_path / "in.wav"
        write_tone(wav)
        runs = [run_cli("featurize", "--in", str(wav), "--sigma", "0.6",
                        "--seed", "11", "--out", str(tmp_path / f"{i}.feat"))
                for i in range(2)]
        assert runs[0].stdout == runs[1].stdout
        noseed = run_cli("featurize", "--in", str(wav), "--sigma", "0.6",
                         "--out", str(tmp_path / "x.feat"))
        assert noseed.returncode == 2

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_bad_sigma_exit_2(self, tmp_path, sigma):
        wav = tmp_path / "in.wav"
        write_tone(wav)
        out = tmp_path / "out.feat"
        proc = run_cli("featurize", "--in", str(wav), "--sigma", sigma,
                       "--seed", "11", "--out", str(out))
        assert proc.returncode == 2
        assert "--sigma" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["not_a_wav", "cut_wav", "short_stats",
                                        "cut_stats"])
    def test_malformed_input_file_exit_2_names_file(self, tmp_path, damage):
        wav = tmp_path / "in.wav"
        write_tone(wav)
        out = tmp_path / "out.feat"
        args = ["featurize", "--in", str(wav), "--out", str(out)]
        if damage == "not_a_wav":
            bad = tmp_path / "x.feat"
            write_feature_file(bad, np.zeros((3, FEATURE_DIM)))
            args[2] = str(bad)
        elif damage == "cut_wav":
            bad = tmp_path / "cut.wav"
            bad.write_bytes(wav.read_bytes()[:30])
            args[2] = str(bad)
        else:
            bad = tmp_path / "stats.feat"
            if damage == "short_stats":
                bad.write_bytes(b"FEAT\x01")
            else:  # cut mid-float
                write_feature_file(bad, np.ones((2, FEATURE_DIM)))
                bad.write_bytes(bad.read_bytes()[:-3])
            args += ["--stats", str(bad)]
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert f"error: {bad}:" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_stats_and_per_utt_stats_exclusive(self, tmp_path):
        from snrtrain.features import NormStats, write_norm_stats
        wav = tmp_path / "in.wav"
        write_tone(wav)
        stats_path = tmp_path / "stats.feat"
        write_norm_stats(stats_path, NormStats(np.zeros(FEATURE_DIM),
                                               np.ones(FEATURE_DIM)))
        out = tmp_path / "out.feat"
        proc = run_cli("featurize", "--in", str(wav), "--stats", str(stats_path),
                       "--per-utt-stats", "--out", str(out))
        assert proc.returncode == 2
        assert "--stats" in proc.stderr and "--per-utt-stats" in proc.stderr
        assert not out.exists()

    def test_per_utt_stats_normalizes(self, tmp_path):
        wav = tmp_path / "in.wav"
        write_tone(wav)
        out = tmp_path / "norm.feat"
        proc = run_cli("featurize", "--in", str(wav), "--per-utt-stats",
                       "--out", str(out))
        assert proc.returncode == 0
        feats = read_feature_file(out)
        np.testing.assert_allclose(feats.mean(axis=0), 0.0, atol=1e-4)

    def test_stats_file_applied(self, tmp_path):
        from snrtrain.features import NormStats, write_norm_stats
        wav = tmp_path / "in.wav"
        write_tone(wav)
        raw_out = tmp_path / "raw.feat"
        assert run_cli("featurize", "--in", str(wav),
                       "--out", str(raw_out)).returncode == 0
        raw = read_feature_file(raw_out)
        stats_path = tmp_path / "stats.feat"
        write_norm_stats(stats_path,
                         NormStats(np.full(FEATURE_DIM, 2.0),
                                   np.full(FEATURE_DIM, 4.0)))
        norm_out = tmp_path / "norm.feat"
        assert run_cli("featurize", "--in", str(wav), "--stats",
                       str(stats_path), "--out", str(norm_out)).returncode == 0
        normalized = read_feature_file(norm_out)
        np.testing.assert_allclose(normalized, (raw - 2.0) / 4.0, atol=1e-5)

    def test_non_finite_stats_file_exit_2(self, tmp_path):
        wav = tmp_path / "in.wav"
        write_tone(wav)
        rows = np.stack([np.zeros(FEATURE_DIM), np.ones(FEATURE_DIM)])
        rows[0, 3], rows[1, 5] = np.inf, np.nan
        stats_path = tmp_path / "stats.feat"
        write_feature_file(stats_path, rows)
        out = tmp_path / "norm.feat"
        proc = run_cli("featurize", "--in", str(wav), "--stats",
                       str(stats_path), "--out", str(out))
        assert proc.returncode == 2
        assert f"error: {stats_path}: " in proc.stderr
        assert "non-finite" in proc.stderr
        assert not out.exists()


def build_condition_fixture(tmp_path, by_snr, method, utts_per_condition=100,
                            words_per_utt=10):
    """Transcript pair whose pooled per-condition WER equals the table row."""
    ref_lines, hyp_lines = [], []
    for condition, target in zip(tables.CONDITIONS, by_snr[method]):
        tag = condition if condition == "clean" else f"{condition:g}"
        edits_total = round(target * utts_per_condition * words_per_utt / 100.0)
        base, extra = divmod(edits_total, utts_per_condition)
        for i in range(utts_per_condition):
            utt_id = f"u{i:03d}@{tag}"
            ref = [f"w{j}" for j in range(words_per_utt)]
            edits = base + (1 if i < extra else 0)
            if edits <= words_per_utt:
                hyp = ["x"] * edits + ref[edits:]
            else:
                hyp = ["x"] * edits
            ref_lines.append(f"{utt_id} {' '.join(ref)}")
            hyp_lines.append(f"{utt_id} {' '.join(hyp)}")
    ref_path = tmp_path / f"{method}.ref"
    hyp_path = tmp_path / f"{method}.hyp"
    ref_path.write_text("\n".join(ref_lines) + "\n")
    hyp_path.write_text("\n".join(hyp_lines) + "\n")
    return ref_path, hyp_path


class TestScore:
    def test_identical_files_score_zero(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("u1 a b c\nu2 d a\n")
        proc = run_cli("score", "--ref", str(ref), "--hyp", str(ref))
        assert proc.returncode == 0
        assert "wer=0.0000" in proc.stdout

    def test_reference_row_reproduces_range_means(self, tmp_path):
        ref, hyp = build_condition_fixture(tmp_path, tables.PINK_BY_SNR,
                                           "gauss_pem")
        proc = run_cli("score", "--ref", str(ref), "--hyp", str(hyp),
                       "--by-condition")
        assert proc.returncode == 0, proc.stderr
        values = helpers.parse_report_values(proc.stdout)
        full, high, low, roi = tables.PINK_RANGES["gauss_pem"]
        assert values["full"] == pytest.approx(full, abs=0.05)
        assert values["high"] == pytest.approx(high, abs=0.05)
        assert values["low"] == pytest.approx(low, abs=0.05)
        assert values["roi"] == pytest.approx(roi, abs=0.05)
        assert values["wer[clean]"] == pytest.approx(13.6, abs=1e-6)
        assert values["wer[-20]"] == pytest.approx(96.8, abs=1e-6)

    def test_improvement_against_baseline_report(self, tmp_path):
        base_ref, base_hyp = build_condition_fixture(tmp_path,
                                                     tables.PINK_BY_SNR,
                                                     "noisy_baseline")
        baseline_report = tmp_path / "baseline.txt"
        proc = run_cli("score", "--ref", str(base_ref), "--hyp", str(base_hyp),
                       "--by-condition", "--out", str(baseline_report))
        assert proc.returncode == 0
        ref, hyp = build_condition_fixture(tmp_path, tables.PINK_BY_SNR,
                                           "gauss_pem")
        proc = run_cli("score", "--ref", str(ref), "--hyp", str(hyp),
                       "--by-condition", "--baseline", str(baseline_report))
        assert proc.returncode == 0, proc.stderr
        values = helpers.parse_report_values(proc.stdout)
        assert values["improvement[roi]"] == pytest.approx(28.0, abs=0.2)

    def test_zero_baseline_range_has_no_improvement_line(self, tmp_path):
        # the baseline is perfect on 50 to 0 dB, so its `high` mean is 0
        row = [5.0] + [0.0 if c >= 0 else 20.0 for c in tables.CONDITIONS[1:]]
        base_ref, base_hyp = build_condition_fixture(tmp_path, {"base": row}, "base")
        baseline_report = tmp_path / "a.report"
        assert run_cli("score", "--ref", str(base_ref), "--hyp", str(base_hyp),
                       "--by-condition", "--out",
                       str(baseline_report)).returncode == 0
        ref, hyp = build_condition_fixture(tmp_path, tables.PINK_BY_SNR,
                                           "gauss_pem")
        out = tmp_path / "b.report"
        proc = run_cli("score", "--ref", str(ref), "--hyp", str(hyp),
                       "--by-condition", "--baseline", str(baseline_report),
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == proc.stdout
        values = helpers.parse_report_values(proc.stdout)
        assert values["high"] > 0.0
        assert "improvement[high]" not in values
        assert {"improvement[full]", "improvement[low]",
                "improvement[roi]"} <= values.keys()

    @pytest.mark.parametrize("line", ["full=nan", "high=inf"])
    def test_non_finite_baseline_exit_2(self, tmp_path, line):
        ref, _ = build_condition_fixture(tmp_path, tables.PINK_BY_SNR,
                                         "gauss_pem")
        baseline = tmp_path / "baseline.txt"
        means = {"full": "30", "high": "20", "low": "90", "roi": "50"}
        means.update([line.split("=")])
        baseline.write_text("".join(f"{k}={v}\n" for k, v in means.items()))
        proc = run_cli("score", "--ref", str(ref), "--hyp", str(ref),
                       "--by-condition", "--baseline", str(baseline))
        assert proc.returncode == 2
        value = line.split("=")[1]
        assert f"baseline WER must be finite and > 0, got {value}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "improvement" not in proc.stdout

    @pytest.mark.parametrize("damage,key", [("transcripts", "full"),
                                            ("full=abc", "full"),
                                            ("no roi", "roi")])
    def test_baseline_without_a_range_mean_exit_2(self, tmp_path, capsys,
                                                  damage, key):
        ref, hyp = build_condition_fixture(tmp_path, tables.PINK_BY_SNR,
                                           "gauss_pem")
        baseline = tmp_path / "baseline.txt"
        assert cli.main(["score", "--ref", str(ref), "--hyp", str(hyp),
                         "--by-condition", "--out", str(baseline)]) == 0
        lines = baseline.read_text().splitlines(keepends=True)
        if damage == "transcripts":
            baseline.write_bytes(ref.read_bytes())
        elif damage == "full=abc":
            baseline.write_text("".join("full=abc\n" if l.startswith("full=") else l
                                        for l in lines))
        else:
            baseline.write_text("".join(l for l in lines if not l.startswith("roi=")))
        capsys.readouterr()
        assert cli.main(["score", "--ref", str(ref), "--hyp", str(hyp),
                         "--by-condition", "--baseline", str(baseline)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the baseline report {baseline}" in captured.err
        assert repr(key) in captured.err

    def test_out_without_by_condition_writes_the_report(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("u1 a b c\nu2 d a\n")
        hyp.write_text("u1 a b\nu2 d a\n")
        out = tmp_path / "report.txt"
        assert cli.main(["score", "--ref", str(ref), "--hyp", str(hyp),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text() == "wer=20.0000\n"

    @pytest.mark.parametrize("flag", [["--baseline", "nonexistent.txt"],
                                      ["--prose-full"]])
    def test_condition_flag_without_by_condition_exit_2(self, tmp_path, capsys,
                                                        flag):
        ref = tmp_path / "ref.txt"
        ref.write_text("u1 a b c\n")
        out = tmp_path / "report.txt"
        assert cli.main(["score", "--ref", str(ref), "--hyp", str(ref),
                         "--out", str(out), *flag]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag[0]} needs --by-condition\n"
        assert captured.out == "" and not out.exists()

    def test_missing_condition_named(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("u1@0 a b\nu1@clean a b\n")
        proc = run_cli("score", "--ref", str(ref), "--hyp", str(ref),
                       "--by-condition")
        assert proc.returncode == 2
        assert "missing conditions" in proc.stderr
        assert "-20" in proc.stderr


def write_train_config(tmp_path, out_name="run", kind="accan", patience=1,
                       max_epochs=80, num_train=12, num_dev=4, seed=404):
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = {
        "master_seed": seed,
        "out_dir": out_name,
        "corpus": {"kind": "synthetic", "seed": 21, "num_train": num_train,
                   "num_dev": num_dev},
        "noise": {"kind": "pink", "seconds": 30.0, "seed": 5},
        "schedule": {"kind": kind, "patience": patience,
                     "max_epochs": max_epochs},
        "features": {"gauss_sigma": 0.6},
        "trainer": {"hidden_size": 24, "learning_rate": 0.002,
                    "batch_size": 8},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def state_members(run_dir) -> dict:
    """Every member of run_dir/state.npz, by name."""
    with np.load(run_dir / "state.npz") as npz:
        return {name: npz[name] for name in npz.files}


def write_wav_dir_config(tmp_path, duplicate=False):
    """A multicondition experiment on 4 train and 4 dev WAVs in train/ and
    dev/, each with its transcripts.tsv; the train one repeats its first
    line when `duplicate`."""
    task = SyntheticTask()
    for name, seed in (("train", 31), ("dev", 32)):
        corpus_dir = tmp_path / name
        corpus_dir.mkdir()
        corpus = make_corpus(task, 4, seed=seed, id_prefix=name)
        for u in corpus:
            write_wav(corpus_dir / f"{u.utt_id}.wav", u.waveform)
        lines = [f"{u.utt_id} {' '.join(u.words)}\n" for u in corpus]
        if duplicate and name == "train":
            lines.append(lines[0])
        (corpus_dir / "transcripts.tsv").write_text("".join(lines))
    config_path = write_train_config(tmp_path, kind="multicondition",
                                     patience=1, max_epochs=3)
    config = json.loads(config_path.read_text())
    config["corpus"] = {"kind": "wav-dir", "train": "train", "dev": "dev"}
    config_path.write_text(json.dumps(config))
    return config_path


class TestTrainCommand:
    def test_accan_run_enters_all_eleven_stages(self, tmp_path):
        config = write_train_config(tmp_path)
        proc = run_cli("train", "--config", str(config))
        assert proc.returncode == 0, proc.stderr
        assert "stages_entered=11" in proc.stdout
        run_dir = tmp_path / "run"
        assert (run_dir / "train_log.tsv").exists()
        assert (run_dir / "stage_log.tsv").exists()
        assert (run_dir / "final.ckpt").exists()
        assert sorted((run_dir / "manifests").glob("*.manifest"))

    def test_reruns_are_deterministic(self, tmp_path):
        config_a = write_train_config(tmp_path / "a", kind="multicondition",
                                      patience=2, max_epochs=4)
        config_b = write_train_config(tmp_path / "b", kind="multicondition",
                                      patience=2, max_epochs=4)
        a = run_cli("train", "--config", str(config_a))
        b = run_cli("train", "--config", str(config_b))
        assert a.returncode == b.returncode == 0
        log_a = (tmp_path / "a" / "run" / "train_log.tsv").read_text()
        log_b = (tmp_path / "b" / "run" / "train_log.tsv").read_text()
        assert log_a == log_b

    def test_stop_and_resume_matches_uninterrupted(self, tmp_path):
        full_cfg = write_train_config(tmp_path / "full", kind="multicondition",
                                      patience=2, max_epochs=6)
        assert run_cli("train", "--config", str(full_cfg)).returncode == 0

        part_cfg = write_train_config(tmp_path / "part", kind="multicondition",
                                      patience=2, max_epochs=6)
        first = run_cli("train", "--config", str(part_cfg), "--stop-after", "2")
        assert first.returncode == 0
        assert "status=stopped" in first.stdout
        second = run_cli("train", "--config", str(part_cfg))
        assert second.returncode == 0
        full_log = (tmp_path / "full" / "run" / "train_log.tsv").read_text()
        part_log = (tmp_path / "part" / "run" / "train_log.tsv").read_text()
        assert full_log == part_log

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("train", "--config", str(path))
        assert proc.returncode == 2
        assert "invalid JSON" in proc.stderr

    def test_missing_config_keys_exit_2(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"master_seed": 1}))
        proc = run_cli("train", "--config", str(path))
        assert proc.returncode == 2
        assert "out_dir" in proc.stderr

    @pytest.mark.parametrize("section,key", [("trainer", "learning_rat"),
                                             ("trainer", "workers"),
                                             ("trainer", "overlap_generation"),
                                             ("features", "gauss_sigm"),
                                             ("schedule", "patiense"),
                                             (None, "trainr")])
    def test_unknown_config_key_exit_2(self, tmp_path, section, key):
        path = write_train_config(tmp_path)
        config = json.loads(path.read_text())
        if section is None:
            config[key] = {"learning_rate": 0.5}
        else:
            config[section][key] = 0.01
        path.write_text(json.dumps(config))
        proc = run_cli("train", "--config", str(path))
        assert proc.returncode == 2
        assert repr(key) in proc.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("schedule", "patience", "x"),
        ("schedule file", "patience", "x"),
        ("trainer", "learning_rate", "fast"),
        ("trainer", "batch_size", 0),
        ("trainer", "batch_size", True),
        ("trainer", "hidden_size", 0),
        ("trainer", "learning_rate", -0.5),
        ("features", "gauss_sigma", -1),
        ("corpus", "seed", None),
        ("noise", "seed", None),
        ("noise", "seconds", float("inf")),
        ("schedule", "snr_max", float("inf")),
        ("schedule", "snr_min", float("-inf")),
        ("schedule file", "snr_step", "nan"),
        ("schedule file", "snr_max", "inf"),
        ("schedule file", "snr_min", "-inf"),
    ])
    def test_malformed_or_missing_value_exit_2(self, tmp_path, section, key, value):
        path = write_train_config(tmp_path)
        config = json.loads(path.read_text())
        if section == "schedule file":
            (tmp_path / "schedule.txt").write_text(f"kind = accan\n{key} = {value}\n")
            config["schedule"] = "schedule.txt"
        elif value is None:
            del config[section][key]
        else:
            config[section][key] = value
        path.write_text(json.dumps(config))
        proc = run_cli("train", "--config", str(path))
        assert proc.returncode == 2
        assert repr(key) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("stop_after", ["0", "-2"])
    def test_stop_after_below_one_exit_2(self, tmp_path, stop_after):
        path = write_train_config(tmp_path)
        proc = run_cli("train", "--config", str(path), f"--stop-after={stop_after}")
        assert proc.returncode == 2
        assert "stop_after" in proc.stderr
        assert not (tmp_path / "run").exists()

    def test_demo_config_trains(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_run.py"
        made = subprocess.run([sys.executable, str(script), str(tmp_path)],
                              capture_output=True, text=True)
        assert made.returncode == 0, made.stderr
        proc = run_cli("train", "--config", str(tmp_path / "experiment.json"),
                       "--stop-after", "1")
        assert proc.returncode == 0, proc.stderr
        assert "status=stopped" in proc.stdout

    @pytest.mark.parametrize("flag,value", [("--seconds", "0"), ("--seconds", "nan"),
                                            ("--seconds", "inf"), ("--rms", "-1"),
                                            ("--seed", "-1")])
    def test_noise_script_refusal_exit_2(self, tmp_path, flag, value):
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_noise_wav.py"
        out = tmp_path / "pool.wav"
        proc = subprocess.run([sys.executable, str(script), str(out), "--seed", "1",
                               f"{flag}={value}"], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("layout", ["controller_log_lines",
                                        "three_lists"])
    def test_state_in_line_format_exit_2(self, tmp_path, layout):
        path = write_train_config(tmp_path, kind="multicondition", patience=2,
                                  max_epochs=4)
        assert run_cli("train", "--config", str(path),
                       "--stop-after", "1").returncode == 0
        arrays = state_members(tmp_path / "run")
        meta = json.loads(arrays["meta"].tobytes())
        epochs = meta.pop("epochs")
        controller = meta.setdefault("controller", {})
        if layout == "controller_log_lines":
            # the controller held its log as formatted lines
            controller["log_lines"] = [
                f"{e}\t{s}\t{w:.4f}\t{d}" for e, s, _, w, d in epochs]
        else:
            # the controller's records, the training losses and the switch
            # records, zipped back together by position
            controller["records"] = [[e, s, w, d] for e, s, _, w, d in epochs]
            meta["train_losses"] = [loss for _, _, loss, _, _ in epochs]
            meta["switch_records"] = []
            meta["stats_count"] = 1
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(tmp_path / "run" / "state.npz", **arrays)
        proc = run_cli("train", "--config", str(path))
        assert proc.returncode == 2
        assert "state.npz has no epoch records" in proc.stderr
        assert "start a new run" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("edit", ["flipped_decision", "changed_stage",
                                      "changed_epoch", "dropped_record"])
    def test_record_that_does_not_replay_exit_2(self, tmp_path, edit):
        path = write_train_config(tmp_path, max_epochs=8)
        assert run_cli("train", "--config", str(path),
                       "--stop-after", "4").returncode == 0
        arrays = state_members(tmp_path / "run")
        meta = json.loads(arrays["meta"].tobytes())
        second = meta["epochs"][1]  # each edit is first seen at epoch 2
        if edit == "flipped_decision":
            second[4] = "switch_stage" if second[4] == "continue" else "continue"
        elif edit == "changed_stage":
            second[1] += 1
        elif edit == "changed_epoch":
            second[0] = 5
        else:
            del meta["epochs"][1]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(tmp_path / "run" / "state.npz", **arrays)  # with valid CRCs
        proc = run_cli("train", "--config", str(path))
        assert proc.returncode == 2
        assert "state.npz: epoch 2 of the saved records does not replay" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_state_with_the_controller_counters_resumes(self, tmp_path):
        full_cfg = write_train_config(tmp_path / "full", max_epochs=6)
        assert run_cli("train", "--config", str(full_cfg)).returncode == 0
        part_cfg = write_train_config(tmp_path / "part", max_epochs=6)
        assert run_cli("train", "--config", str(part_cfg),
                       "--stop-after", "2").returncode == 0
        run_dir = tmp_path / "part" / "run"
        arrays = state_members(run_dir)
        meta = json.loads(arrays["meta"].tobytes())
        assert list(meta) == ["fingerprint", "adam_step", "best_hash", "epochs"]
        # the layout that also saved the stage controller's four counters
        controller = StageController(Schedule("accan", patience=1, max_epochs=6))
        for _, _, _, wer, _ in meta["epochs"]:
            controller.advance(wer)
        meta["controller"] = {
            "stage_index": controller.stage_index,
            "best_metric": controller.best_metric,
            "epochs_since_improvement": controller.epochs_since_improvement,
            "epoch_counter": controller.epoch_counter}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(run_dir / "state.npz", **arrays)
        assert run_cli("train", "--config", str(part_cfg)).returncode == 0
        assert helpers.file_digests(run_dir) == \
            helpers.file_digests(tmp_path / "full" / "run")

    def test_schedule_grid_over_the_bound_exit_2(self, tmp_path):
        config_path = write_train_config(tmp_path)
        (tmp_path / "schedule.txt").write_text("kind = accan\nsnr_step = 1e-9\n")
        config = json.loads(config_path.read_text())
        config["schedule"] = "schedule.txt"
        config_path.write_text(json.dumps(config))
        proc = run_cli("train", "--config", str(config_path))
        assert proc.returncode == 2
        assert "snr_step 1e-09" in proc.stderr and "1001" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("damage", ["flipped_byte", "truncated_json",
                                        "no_adam_step", "top_level_list",
                                        "no_meta"])
    def test_state_arrays_not_matching_digest_exit_2(self, tmp_path, damage):
        path = write_train_config(tmp_path, kind="multicondition", patience=2,
                                  max_epochs=4)
        assert run_cli("train", "--config", str(path),
                       "--stop-after", "1").returncode == 0
        run_dir = tmp_path / "run"
        state_path = run_dir / "state.npz"
        arrays = state_members(run_dir)
        meta = json.loads(arrays["meta"].tobytes())
        if damage == "flipped_byte":
            raw = bytearray(state_path.read_bytes())
            raw[len(raw) // 2] ^= 0x01
            state_path.write_bytes(bytes(raw))
        else:
            if damage == "no_meta":
                # the layout written before the meta moved from state.json
                # into state.npz
                del arrays["meta"]
                (run_dir / "state.json").write_text(json.dumps(meta, indent=2))
            else:
                text = {"truncated_json": json.dumps(meta)[:100],
                        "no_adam_step": json.dumps({k: v for k, v in meta.items()
                                                    if k != "adam_step"}),
                        "top_level_list": json.dumps([meta])}[damage]
                arrays["meta"] = np.frombuffer(text.encode(), dtype=np.uint8)
            np.savez(state_path, **arrays)
        proc = run_cli("train", "--config", str(path))
        assert proc.returncode == 2
        assert "state.npz" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_wav_dir_corpus(self, tmp_path, duplicate):
        config_path = write_wav_dir_config(tmp_path, duplicate)
        proc = run_cli("train", "--config", str(config_path), "--stop-after", "1")
        if duplicate:
            assert proc.returncode == 2
            assert "transcripts.tsv:5: duplicate utterance id 'train0000'" in proc.stderr
            assert "Traceback" not in proc.stderr
        else:
            assert proc.returncode == 0, proc.stderr
            assert "status=stopped epochs=1" in proc.stdout

    @pytest.mark.parametrize("absent", ["dev/transcripts.tsv", "train/train0001.wav",
                                        "schedule.txt"])
    def test_missing_file_named_by_config_exit_2(self, tmp_path, capsys, absent):
        config_path = write_wav_dir_config(tmp_path)
        config = json.loads(config_path.read_text())
        config["schedule"] = "schedule.txt"
        config_path.write_text(json.dumps(config))
        (tmp_path / "schedule.txt").write_text("kind = accan\n")
        (tmp_path / absent).unlink()
        assert cli.main(["train", "--config", str(config_path)]) == 2
        assert f"error: file not found: {tmp_path / absent}" in capsys.readouterr().err

    def test_schedule_file_reference(self, tmp_path):
        config_path = write_train_config(tmp_path, kind="multicondition",
                                         patience=1, max_epochs=2)
        (tmp_path / "schedule.txt").write_text(
            "kind = multicondition\nsnr_min = 0\nsnr_max = 50\n"
            "snr_step = 5\npatience = 1\nmax_epochs = 2\n")
        config = json.loads(config_path.read_text())
        config["schedule"] = "schedule.txt"
        config_path.write_text(json.dumps(config))
        proc = run_cli("train", "--config", str(config_path))
        assert proc.returncode == 0, proc.stderr
        assert "status=terminated" in proc.stdout


def write_compare_config(tmp_path, **fields):
    """A one-seed comparison of tiny jobs into tmp_path/cmp; `fields` replace
    or add keys."""
    config = {"out_dir": "cmp", "seeds": [1], "num_train": 8, "num_dev": 4,
              "num_test": 4, "hidden_size": 8, "patience": 1, **fields}
    path = tmp_path / "compare.json"
    path.write_text(json.dumps(config))
    return path


class TestCompareCommand:
    def test_prints_the_comparison_and_trains_its_jobs(self, tmp_path, capsys,
                                                        monkeypatch):
        config = write_compare_config(tmp_path)
        assert cli.main(["compare", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == \
            [f"seed 1 {method}" for method in METHODS]
        assert lines[4].split() == ["method", "0dB", "-5dB", "mean"]
        assert [line.split()[0] for line in lines[5:8]] == list(METHODS)
        assert lines[9].startswith("curriculum vs multicondition at low SNR: ")
        assert lines[10].startswith("clean-only at 0 dB: ")
        assert lines[11:] == [f"out_dir={tmp_path / 'cmp'}"]
        spec = ComparisonSpec(num_train=8, num_dev=4, num_test=4, hidden_size=8,
                              seeds=(1,), patience=1)
        run_comparison(spec, tmp_path / "direct")
        digests = helpers.file_digests(tmp_path / "cmp")
        assert digests == helpers.file_digests(tmp_path / "direct")

        generated = helpers.watch_generation(monkeypatch)
        assert cli.main(["compare", "--config", str(config)]) == 0
        assert generated == []  # every job is finished and trains 0 epochs
        assert capsys.readouterr().out == out
        assert helpers.file_digests(tmp_path / "cmp") == digests

    def test_absent_keys_keep_the_spec_defaults(self, tmp_path):
        path = tmp_path / "compare.json"
        path.write_text(json.dumps({"out_dir": "../cmp"}))
        assert experiments.read_comparison(path) == \
            (ComparisonSpec(), os.path.join(str(tmp_path), "../cmp"))

    @pytest.mark.parametrize("text,message", [
        ('{"out_dir": "cmp", "seed": 1}',
         "unknown key 'seed' in {path}; expected one of out_dir, seeds, "
         "num_train, num_dev, num_test, hidden_size, patience, learning_rate"),
        ('{"seeds": [1]}', "{path} needs the key 'out_dir'"),
        ('{"out_dir": "cmp", "seeds": "1,2"}',
         "{path}: 'seeds' must be a nonempty JSON list, got '1,2'"),
        ('{"out_dir": "cmp", "seeds": []}',
         "{path}: 'seeds' must be a nonempty JSON list, got []"),
        ('{"out_dir": "cmp", "seeds": [1, "x"]}',
         "'seeds' in {path} must be an integer, got 'x'"),
        ('{"out_dir": "cmp", "seeds": [1]', "{path}: invalid JSON: "),
        ('{"out_dir": "cmp", "num_train": 0}', "{path}: 'num_train' must be >= 1, got 0"),
        ('{"out_dir": "cmp", "num_dev": 0}', "{path}: 'num_dev' must be >= 1, got 0"),
        ('{"out_dir": "cmp", "num_test": 0}', "{path}: 'num_test' must be >= 1, got 0"),
        ('{"out_dir": "cmp", "hidden_size": 0}',
         "{path}: 'hidden_size' must be >= 1, got 0"),
        ('{"out_dir": "cmp", "patience": 0}', "{path}: patience must be >= 1, got 0"),
        ('{"out_dir": "cmp", "learning_rate": -1}',
         "{path}: 'learning_rate' must be finite and > 0, got -1.0"),
    ])
    def test_bad_config_exit_2_writes_nothing(self, tmp_path, capsys, text, message):
        path = tmp_path / "compare.json"
        path.write_text(text)
        assert cli.main(["compare", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(path=path))
        assert err.count("\n") == 1
        assert not (tmp_path / "cmp").exists()

    def test_refused_job_leaves_the_directory_usable(self, tmp_path):
        # the job's experiment file is written before its training finds the
        # noise pool shorter than an utterance
        spec = ComparisonSpec(num_train=8, num_dev=4, num_test=4, hidden_size=8,
                              seeds=(1,), patience=1)
        with pytest.raises(DataError, match="shorter than longest utterance"):
            run_comparison(dataclasses.replace(spec, pool_seconds=0.1), tmp_path)
        assert (tmp_path / "accan-s1" / "experiment.json").exists()
        run_comparison(spec, tmp_path)


UNDECODABLE = b"\x00\xff\xfe"


def command_args(command, path, tmp_path):
    """Arguments of `command` that read `path` as their input file."""
    return {
        "mix": ["mix", "--in", path, "--noise", "pink", "--snr", "0",
                "--seed", "1", "--out", str(tmp_path / "out.wav")],
        "featurize": ["featurize", "--in", path, "--out", str(tmp_path / "x.feat")],
        "score": ["score", "--ref", path, "--hyp", path],
        "train": ["train", "--config", path],
        "compare": ["compare", "--config", path],
    }[command]


@pytest.mark.parametrize("command", ["mix", "featurize", "score", "train", "compare"])
def test_directory_input_exit_2_names_path(tmp_path, capsys, command):
    adir = tmp_path / "adir"
    adir.mkdir()
    assert cli.main(command_args(command, str(adir), tmp_path)) == 2
    assert f"error: Is a directory: {adir}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mix", "featurize", "score", "train", "compare"])
def test_missing_input_keeps_file_not_found_message(tmp_path, capsys, command):
    absent = tmp_path / "absent"
    assert cli.main(command_args(command, str(absent), tmp_path)) == 2
    assert f"error: file not found: {absent}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--ref", "--hyp", "--baseline"])
def test_score_undecodable_input_exit_2_names_file(tmp_path, capsys, flag):
    ref, hyp = build_condition_fixture(tmp_path, tables.PINK_BY_SNR, "gauss_pem")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(UNDECODABLE)
    paths = {"--ref": ref, "--hyp": hyp, "--baseline": bad}
    paths[flag] = bad
    args = ["score", "--by-condition"]
    for name, path in paths.items():
        args += [name, str(path)]
    assert cli.main(args) == 2
    assert f"error: {bad} is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("schedule_file", [False, True])
def test_train_undecodable_input_exit_2_names_file(tmp_path, capsys, schedule_file):
    config_path = write_train_config(tmp_path)
    bad = config_path
    if schedule_file:
        bad = tmp_path / "schedule.txt"
        config = json.loads(config_path.read_text())
        config["schedule"] = bad.name
        config_path.write_text(json.dumps(config))
    bad.write_bytes(UNDECODABLE)
    assert cli.main(["train", "--config", str(config_path)]) == 2
    assert f"error: {bad} is not UTF-8 text" in capsys.readouterr().err


def test_restore_that_misses_the_stage_best_exit_1(tmp_path, capsys, monkeypatch):
    config_path = write_train_config(tmp_path, max_epochs=3)
    set_params = RecurrentCtcModel.set_params

    def perturbing_set_params(self, params):
        set_params(self, params)
        self.params["b_out"][0] += 1.0

    monkeypatch.setattr(RecurrentCtcModel, "set_params", perturbing_set_params)
    assert cli.main(["train", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: epoch ") and "restored weights" in err
    assert "Traceback" not in err


def test_help_documents_the_clean_grid(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert (
        "  schedule    declarative text, \"key = value\" per line, '#' comments; keys:\n"
        "              kind, snr_min, snr_max, snr_step (or \"grid = clean\" for the\n"
        "              clean-only grid), patience, max_epochs.\n"
    ) in capsys.readouterr().out


def test_help_documents_the_comparison_format(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    assert "compare" in out.split("file formats")[0]
    assert (
        "  comparison  JSON with key out_dir and optional keys seeds (a nonempty list\n"
        "              of integers), num_train, num_dev, num_test, hidden_size,\n"
        "              patience, learning_rate;"
    ) in out


def test_usage_error_exit_2():
    proc = run_cli("mix", "--in", "x.wav")  # missing required flags
    assert proc.returncode == 2


def test_import_loads_no_process_pool():
    # snrtrain.workers imports both on first use
    code = ("import sys, snrtrain, snrtrain.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def source_trees():
    """(file name, parsed module) of every src/snrtrain file."""
    for path in Path(snrtrain.__file__).parent.glob("*.py"):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def importers(modules) -> set:
    """The src/snrtrain files that import any of the top-level `modules`;
    a relative import names a module of the package itself, as in
    `from .wer import x` or `from . import wer`."""
    found = set()
    for name, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ([node.module] if node.module
                         else [alias.name for alias in node.names])
            else:
                continue
            if any(module.split(".")[0] in modules for module in names):
                found.add(name)
    return found


def test_only_workers_imports_process_machinery():
    assert importers({"multiprocessing", "concurrent", "mmap", "ctypes"}) == \
        {"workers.py"}


def test_only_seeding_imports_hashlib():
    assert importers({"hashlib"}) == {"seeding.py"}


def test_snr_conditions_are_defined_once_in_audio():
    defined = [(name, node.name) for name, tree in source_trees()
               for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and node.name in {"condition_key", "format_condition",
                                 "condition_order"}]
    assert sorted(defined) == [("audio.py", "condition_key"),
                               ("audio.py", "condition_order"),
                               ("audio.py", "format_condition")]
    assert not {"pem.py", "curriculum.py"} & importers({"wer"})


def test_import_loads_no_scipy():
    # scipy is imported on first WAV read or write; a fresh interpreter is
    # needed because the test helpers import scipy into this one
    code = ("import sys, snrtrain, snrtrain.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
