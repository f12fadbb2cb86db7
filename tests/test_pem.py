import numpy as np
import pytest

from snrtrain.audio import CLEAN, NoisePool, Waveform
from snrtrain.curriculum import Decision, Schedule, StageController
from snrtrain.errors import ComputeError, DataError
from snrtrain.noise import pink_pool_waveform
from snrtrain.pem import (EpochConfig, EpochManifest, generate_epoch,
                          pipeline_run, regenerate_item)
from snrtrain.task import SyntheticTask, Utterance, make_corpus


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
        for utt_id in a.utt_ids():
            np.testing.assert_array_equal(a.features_for(utt_id),
                                          b.features_for(utt_id))

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
    def test_discard_leaves_only_manifest(self, small_setup):
        _, corpus, pool, stats = small_setup
        data = generate_epoch(config_for(1), corpus, pool, stats)
        assert len(data.utt_ids()) == len(corpus)
        manifest_before = data.manifest
        data.discard()
        assert data.utt_ids() == []
        assert data.manifest == manifest_before
        with pytest.raises(DataError):
            data.features_for(corpus[0].utt_id)

    def test_double_discard_is_noop(self, small_setup):
        _, corpus, pool, stats = small_setup
        data = generate_epoch(config_for(1), corpus, pool, stats)
        data.discard()
        data.discard()
        assert data.discarded

    def test_regeneration_from_manifest_matches_checksums(self, small_setup):
        _, corpus, pool, stats = small_setup
        cfg = config_for(6)
        data = generate_epoch(cfg, corpus, pool, stats)
        manifest = data.manifest
        originals = {u: data.features_for(u).copy() for u in data.utt_ids()}
        data.discard()
        for utterance, record in zip(corpus, manifest.records):
            feats = regenerate_item(record, cfg, utterance, pool, stats)
            np.testing.assert_array_equal(feats, originals[utterance.utt_id])

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
        assert fitted.utt_ids() == generated.utt_ids()
        for utt_id in generated.utt_ids():
            np.testing.assert_array_equal(fitted.features_for(utt_id),
                                          generated.features_for(utt_id))

    @pytest.mark.parametrize("stats_given", [False, True])
    def test_render_error_names_the_utterance(self, small_setup, stats_given):
        task, corpus, pool, stats = small_setup
        short = Utterance("short7", Waveform(0.1 * np.ones(100), task.sample_rate_hz),
                          ("a",))
        with pytest.raises(DataError, match="'short7'.*shorter than one"):
            generate_epoch(config_for(0), corpus + (short,), pool,
                           stats if stats_given else None)


def scripted_metrics(controller, values):
    """A consume callback that advances controller by the next of values."""
    values = iter(values)

    def consume(epoch_index, data):
        assert not data.discarded
        return controller.advance(next(values))

    return consume


def counting(generate):
    """generate, and the list of epoch indices it is called with."""
    calls = []

    def wrapped(epoch_index, stage_set):
        calls.append(epoch_index)
        return generate(epoch_index, stage_set)

    return wrapped, calls


class TestPipelineRun:
    def make_parts(self, small_setup, kind="accan", patience=2, max_epochs=30):
        _, corpus, pool, stats = small_setup
        schedule = Schedule(kind, patience=patience, max_epochs=max_epochs)
        controller = StageController(schedule)

        def generate(epoch_index, stage_set):
            return generate_epoch(config_for(epoch_index, stage=stage_set),
                                  corpus, pool, stats)

        return controller, generate

    def test_each_epoch_is_discarded_before_the_next_is_generated(self,
                                                                  small_setup):
        controller, generate = self.make_parts(small_setup, patience=1,
                                               max_epochs=8)
        made = []

        def checked_generate(epoch_index, stage_set):
            assert all(data.discarded for data in made)
            made.append(generate(epoch_index, stage_set))
            return made[-1]

        # never improves after epoch 0 -> a stage switch at every patience
        result = pipeline_run(controller, checked_generate,
                              scripted_metrics(controller, [10.0] * 8))
        assert result.epochs_completed == 8
        assert any(r.decision is Decision.SWITCH_STAGE for r in controller.records)
        assert len(made) == 8 and all(data.discarded for data in made)

    def test_single_epoch_degenerates(self, small_setup):
        controller, generate = self.make_parts(small_setup, max_epochs=1)
        result = pipeline_run(controller, generate,
                              scripted_metrics(controller, [10.0]))
        assert result.status == "terminated"
        assert result.epochs_completed == 1

    def test_switch_uses_fresh_stage_set(self, small_setup):
        controller, generate = self.make_parts(small_setup, patience=1,
                                               max_epochs=10)
        seen_stages = []

        def consume(epoch_index, data):
            seen_stages.append(sorted({r.snr for r in data.manifest.records}))
            # never improves after epoch 1 -> switch every patience
            return controller.advance(10.0)

        pipeline_run(controller, generate, consume)
        # stage 0 draws only 0 dB; later stages admit higher values
        assert seen_stages[0] == [0.0]
        assert any(max(stage) > 0.0 for stage in seen_stages[2:])

    def test_generation_failure_aborts_after_drain(self, small_setup):
        controller, generate = self.make_parts(small_setup, max_epochs=10)

        def flaky_generate(epoch_index, stage_set):
            if epoch_index == 1:
                raise DataError("boom")
            return generate(epoch_index, stage_set)

        consumed = []

        def consume(epoch_index, data):
            consumed.append(epoch_index)
            return controller.advance(10.0)

        with pytest.raises(DataError, match="boom"):
            pipeline_run(controller, flaky_generate, consume)
        assert consumed == [0]  # epoch 0 finished training before the abort

    def test_no_prefetch_past_the_last_epoch(self, small_setup):
        controller, generate = self.make_parts(small_setup, kind="multicondition",
                                               patience=10, max_epochs=4)
        counting_generate, generated = counting(generate)

        consumed = []

        def consume(epoch_index, data):
            consumed.append(epoch_index)
            return controller.advance(10.0)

        result = pipeline_run(controller, counting_generate, consume)
        assert result.status == "terminated"
        assert generated == [0, 1, 2, 3]
        assert consumed == [0, 1, 2, 3]

    def test_no_prefetch_past_stop_after(self, small_setup):
        controller, generate = self.make_parts(small_setup, kind="multicondition",
                                               patience=10, max_epochs=8)
        counting_generate, generated = counting(generate)

        result = pipeline_run(controller, counting_generate,
                              scripted_metrics(controller, [10.0] * 3),
                              stop_after_epochs=3)
        assert result.status == "stopped"
        assert generated == [0, 1, 2]
