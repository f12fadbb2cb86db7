import os

import numpy as np
import pytest

from helpers import watch_generation
from snrtrain.audio import CLEAN, NoisePool, Waveform
from snrtrain.errors import ComputeError, DataError
from snrtrain.noise import pink_pool_waveform
from snrtrain.pem import (EpochConfig, EpochManifest, draw_and_render,
                          generate_epoch, regenerate_item)
from snrtrain.curriculum import Schedule
from snrtrain.task import SyntheticTask, Utterance, make_corpus
from snrtrain.trainer import TrainConfig, train


@pytest.fixture(scope="module")
def small_setup():
    task = SyntheticTask()
    corpus = make_corpus(task, 12, seed=3)
    pool = NoisePool(pink_pool_waveform(60.0, task.sample_rate_hz, seed=7),
                     pool_id="pink60")
    cfg0 = EpochConfig(0, (0.0, 10.0, 20.0), master_seed=99, gauss_sigma=0.6,
                       noise_pool_id=pool.pool_id, corpus_id="toy")
    stats = generate_epoch(cfg0, corpus, pool).stats
    return task, corpus, pool, stats


def config_for(epoch, stage=(0.0, 10.0, 20.0), sigma=0.6, seed=99):
    return EpochConfig(epoch, stage, master_seed=seed, gauss_sigma=sigma,
                       noise_pool_id="pink60", corpus_id="toy")


class TestGenerateEpoch:
    def test_bit_identical_manifests(self, small_setup):
        _, corpus, pool, stats = small_setup
        a = generate_epoch(config_for(4), corpus, pool, stats)
        b = generate_epoch(config_for(4), corpus, pool, stats)
        assert a.manifest == b.manifest
        for utt_id in a.features:
            np.testing.assert_array_equal(a.features[utt_id],
                                          b.features[utt_id])

    def test_epochs_differ(self, small_setup):
        _, corpus, pool, stats = small_setup
        a = generate_epoch(config_for(0), corpus, pool, stats)
        b = generate_epoch(config_for(1), corpus, pool, stats)
        assert a.manifest.records != b.manifest.records

    def test_singleton_stage_pins_snr(self, small_setup):
        _, corpus, pool, stats = small_setup
        data = generate_epoch(config_for(5, stage=(0.0,)), corpus, pool, stats)
        assert all(r.snr == 0.0 for r in data.manifest.records)

    def test_clean_stage_supported(self, small_setup):
        _, corpus, pool, stats = small_setup
        data = generate_epoch(config_for(5, stage=(CLEAN,), sigma=0.0),
                              corpus, pool, stats)
        assert all(r.snr == CLEAN for r in data.manifest.records)

    def test_snr_draws_stay_in_stage_set(self, small_setup):
        _, corpus, pool, stats = small_setup
        stage = (0.0, 25.0, 50.0)
        for epoch in range(6):
            data = generate_epoch(config_for(epoch, stage=stage),
                                  corpus, pool, stats)
            assert {r.snr for r in data.manifest.records} <= set(stage)

    def test_one_record_per_utterance(self, small_setup):
        _, corpus, pool, stats = small_setup
        data = generate_epoch(config_for(3), corpus, pool, stats)
        assert [r.utt_id for r in data.manifest.records] == \
            [u.utt_id for u in corpus]

    def test_freshness_over_twenty_epochs(self, small_setup):
        _, corpus, pool, stats = small_setup
        pairs = {}
        for epoch in range(20):
            data = generate_epoch(config_for(epoch), corpus, pool, stats)
            for r in data.manifest.records:
                pairs.setdefault(r.utt_id, []).append((r.noise_offset, r.snr))
        total = sum(len(v) for v in pairs.values())
        unique = sum(len(set(v)) for v in pairs.values())
        assert unique / total >= 0.99


class TestDiscard:
    """An epoch's features, once freed, rebuild from its manifest."""

    def test_regeneration_from_manifest_matches_checksums(self, small_setup):
        _, corpus, pool, stats = small_setup
        cfg = config_for(6)
        data = generate_epoch(cfg, corpus, pool, stats)
        for utterance, record in zip(corpus, data.manifest.records):
            feats = regenerate_item(record, cfg, utterance, pool, stats)
            np.testing.assert_array_equal(feats, data.features[utterance.utt_id])

    def test_regeneration_detects_corruption(self, small_setup):
        _, corpus, pool, stats = small_setup
        cfg = config_for(6)
        data = generate_epoch(cfg, corpus, pool, stats)
        record = data.manifest.records[0]
        tampered = type(record)(record.utt_id, record.noise_offset + 1,
                                record.snr, record.inject_seed, record.checksum)
        with pytest.raises(ComputeError, match="mismatch"):
            regenerate_item(tampered, cfg, corpus[0], pool, stats)


class TestManifestFile:
    def test_round_trip(self, small_setup, tmp_path):
        _, corpus, pool, stats = small_setup
        data = generate_epoch(config_for(2), corpus, pool, stats)
        path = tmp_path / "epoch_0002.manifest"
        data.manifest.write(path)
        back = EpochManifest.read(path)
        assert back == data.manifest

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "epoch_0000.manifest"
        path.write_bytes(b"\x00\xff\xfe")
        with pytest.raises(DataError, match="epoch_0000.manifest is not UTF-8"):
            EpochManifest.read(path)

    @pytest.mark.parametrize("lines,message", [
        ("# config=0123456789abcdef\n", "needs the key 'epoch'"),
        ("# epoch=3\n", "needs the key 'config'"),
        ("# epoch=\n# config=0123456789abcdef\n", "'epoch' in the manifest header"),
        ("# epoch=3\n# config=0123456789abcdef\nu\tx\tclean\t1\tab\n",
         "'noise_offset' in manifest record 'u\\\\tx.*must be an integer, got 'x'"),
    ])
    def test_missing_or_empty_header_line_rejected(self, tmp_path, lines, message):
        # lines: what comes between the version line and a valid record
        path = tmp_path / "epoch_0003.manifest"
        path.write_text(f"# pem-manifest v1\n{lines}u0\t12\tclean\t7\t"
                        "0123456789abcdef\n")
        with pytest.raises(DataError, match=message):
            EpochManifest.read(path)

    def test_layout_is_tab_separated(self, small_setup):
        _, corpus, pool, stats = small_setup
        data = generate_epoch(config_for(2, stage=(CLEAN,), sigma=0.0),
                              corpus, pool, stats)
        lines = data.manifest.to_text().splitlines()
        assert lines[0] == "# pem-manifest v1"
        assert lines[1] == "# epoch=2"
        assert lines[2].startswith("# config=")
        fields = lines[3].split("\t")
        assert len(fields) == 5
        assert fields[2] == CLEAN


class TestFirstEpoch:
    def test_stats_renders_build_the_generated_epoch(self, small_setup):
        _, corpus, pool, _ = small_setup
        cfg0 = config_for(0)
        fitted = generate_epoch(cfg0, corpus, pool)
        generated = generate_epoch(cfg0, corpus, pool, fitted.stats)
        assert generated.stats is fitted.stats
        assert fitted.manifest == generated.manifest
        assert list(fitted.features) == list(generated.features)
        for utt_id in generated.features:
            np.testing.assert_array_equal(fitted.features[utt_id],
                                          generated.features[utt_id])

    @pytest.mark.parametrize("stats_given", [False, True])
    def test_render_error_names_the_utterance(self, small_setup, stats_given):
        task, corpus, pool, stats = small_setup
        short = Utterance("short7", Waveform(0.1 * np.ones(100), task.sample_rate_hz),
                          ("a",))
        with pytest.raises(DataError, match="'short7'.*shorter than one"):
            generate_epoch(config_for(0), corpus + (short,), pool,
                           stats if stats_given else None)


class TestDrawAndRender:
    def test_epoch_seed_parts_give_the_manifest_draws(self, small_setup):
        _, corpus, pool, stats = small_setup
        stage = (0.0, 10.0, 20.0)
        data = generate_epoch(config_for(4, stage=stage), corpus, pool, stats)
        for utterance, record in zip(corpus, data.manifest.records):
            offset, snr, _ = draw_and_render(utterance, pool, stage,
                                             99, "epoch", 4, "utt")
            assert (offset, snr) == (record.noise_offset, record.snr)


class TestPipelineRun:
    """A run of max_epochs=1, driven through trainer.train, ends after its
    one epoch and generates no epoch past it."""

    @pytest.fixture(scope="class")
    def single_epoch_run(self, small_setup):
        task, corpus, pool, _ = small_setup
        dev_corpus = make_corpus(task, 4, seed=4, id_prefix="dev")
        patch = pytest.MonkeyPatch()
        try:
            # one CPU: the serial path, where the generation is watched
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            made = watch_generation(patch)
            result = train(corpus, dev_corpus,
                           Schedule("multicondition", patience=2, max_epochs=1),
                           pool, TrainConfig(master_seed=404, learning_rate=2e-3,
                                             batch_size=8, hidden_size=24,
                                             gauss_sigma=0.6))
        finally:
            patch.undo()
        return result, [cfg.epoch_index for cfg, _ in made]

    def test_single_epoch_degenerates(self, single_epoch_run):
        result, _ = single_epoch_run
        assert result.status == "terminated" and result.epochs_run == 1
        assert [m.epoch_index for m in result.manifests] == [0]

    def test_no_prefetch_past_the_last_epoch(self, single_epoch_run):
        result, generated = single_epoch_run
        assert generated == [0]
        assert result.max_live_epochs == 1


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_epoch_config_rejects_bad_gauss_sigma(sigma):
    with pytest.raises(DataError, match="gauss_sigma"):
        EpochConfig(0, (0.0,), 1, gauss_sigma=sigma)
