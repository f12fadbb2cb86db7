import pytest
from hypothesis import given, strategies as st

import helpers
import reference_wer_tables as tables
from snrtrain.errors import DataError
from snrtrain.wer import (CONDITIONS, aggregate_ranges, condition_of_id,
                          corpus_wer, edit_distance, format_report,
                          read_transcripts, relative_improvement,
                          wer_by_condition, write_transcripts)

words = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8)


class TestEditDistance:
    def test_identical(self):
        assert edit_distance(["x", "y"], ["x", "y"]) == 0

    @given(words, words)
    def test_matches_recursive_oracle(self, a, b):
        assert edit_distance(a, b) == helpers.recursive_edit_distance(a, b)

    @given(words, words, words)
    def test_triangle_bound(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def one_utterance_wer(ref_words, hyp_words) -> float:
    return corpus_wer({"u": tuple(ref_words)}, {"u": tuple(hyp_words)})


class TestWordErrorRate:
    def test_identical_is_zero(self):
        assert one_utterance_wer(["the", "cat"], ["the", "cat"]) == 0.0

    def test_exceeds_100_when_hyp_longer(self):
        # 2 substitutions + 3 insertions against a 2-word reference
        assert one_utterance_wer(["a", "b"], ["x", "y", "z", "w", "v"]) == 250.0

    def test_empty_hypothesis_all_deletions(self):
        assert one_utterance_wer(["a", "b", "c"], []) == 100.0

    def test_empty_reference_rejected(self):
        with pytest.raises(DataError, match="empty reference"):
            one_utterance_wer([], ["a"])


class TestAggregateRanges:
    @pytest.mark.parametrize("method", tables.METHODS)
    @pytest.mark.parametrize("noise", ["pink", "babble"])
    def test_range_means_close_to_published(self, noise, method):
        by_snr = tables.PINK_BY_SNR if noise == "pink" else tables.BABBLE_BY_SNR
        ranges = tables.PINK_RANGES if noise == "pink" else tables.BABBLE_RANGES
        agg = aggregate_ranges(tables.points_for(by_snr, method))
        full, high, low, roi = ranges[method]
        # published means come from unrounded WERs; reaggregating the rounded
        # per-SNR entries stays within one rounding step of them
        assert agg.full == pytest.approx(full, abs=0.1)
        assert agg.high == pytest.approx(high, abs=0.1)
        assert agg.low == pytest.approx(low, abs=0.1)
        assert agg.roi == pytest.approx(roi, abs=0.1)

    def test_reference_example_row(self):
        agg = aggregate_ranges(tables.points_for(tables.PINK_BY_SNR, "gauss_pem"))
        assert agg.full == pytest.approx(34.1, abs=0.05)
        assert agg.high == pytest.approx(16.6, abs=0.05)
        assert agg.low == pytest.approx(64.7, abs=0.05)
        assert agg.roi == pytest.approx(37.2, abs=0.05)

    def test_constant_table_gives_constant_aggregates(self):
        points = {c: 12.5 for c in CONDITIONS}
        agg = aggregate_ranges(points)
        assert agg.full == agg.high == agg.low == agg.roi == pytest.approx(12.5)

    def test_missing_condition_reported(self):
        points = {c: 1.0 for c in CONDITIONS if c != -10.0}
        with pytest.raises(DataError, match=r"missing conditions: \[-10\.0\]"):
            aggregate_ranges(points)

    def test_prose_full_variant_is_14_point(self):
        points = {c: 0.0 for c in CONDITIONS}
        points[-15.0] = 160.0
        points[-20.0] = 160.0
        agg_default = aggregate_ranges(points)
        agg_prose = aggregate_ranges(points, prose_full=True)
        assert agg_default.full == pytest.approx(320.0 / 16)
        assert agg_prose.full == pytest.approx(0.0)

    def test_monotone_in_each_point(self):
        base = {c: 10.0 for c in CONDITIONS}
        agg0 = aggregate_ranges(base)
        bumped = dict(base)
        bumped[0.0] += 5.0
        agg1 = aggregate_ranges(bumped)
        assert agg1.full > agg0.full
        assert agg1.high > agg0.high
        assert agg1.low > agg0.low
        assert agg1.roi > agg0.roi


class TestRelativeImprovement:
    def test_pink_roi_reduction(self):
        assert relative_improvement(51.7, 37.2) == pytest.approx(28.0, abs=0.2)

    def test_babble_roi_reduction(self):
        assert relative_improvement(68.4, 47.0) == pytest.approx(31.3, abs=0.2)

    def test_no_change(self):
        assert relative_improvement(42.0, 42.0) == 0.0

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(DataError):
            relative_improvement(0.0, 10.0)

    @pytest.mark.parametrize("baseline", [float("nan"), float("inf")])
    def test_non_finite_baseline_rejected(self, baseline):
        with pytest.raises(DataError, match="finite"):
            relative_improvement(baseline, 10.0)


class TestTranscripts:
    def test_round_trip(self, tmp_path):
        refs = {"utt1@0": ("a", "b"), "utt2@clean": ("c",)}
        path = tmp_path / "ref.txt"
        write_transcripts(path, refs)
        assert read_transcripts(path) == refs

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("u1 a b\nu1 c\n")
        with pytest.raises(DataError, match="duplicate"):
            read_transcripts(path)

    def test_condition_tags(self):
        assert condition_of_id("utt7@-5") == -5.0
        assert condition_of_id("utt7@clean") == "clean"
        assert condition_of_id("utt7") is None

    def test_corpus_wer_pools_edits(self):
        refs = {"u1": ("a", "b"), "u2": ("c", "d", "a")}
        hyps = {"u1": ("a", "b"), "u2": ("c", "x", "a")}
        assert corpus_wer(refs, hyps) == pytest.approx(100.0 / 5)

    def test_missing_hypothesis_rejected(self):
        with pytest.raises(DataError, match="u2"):
            corpus_wer({"u1": ("a",), "u2": ("b",)}, {"u1": ("a",)})

    def test_no_utterances_rejected(self):
        with pytest.raises(DataError, match="no reference utterances"):
            corpus_wer({}, {})

    def test_by_condition_grouping(self):
        refs = {"u1@0": ("a", "b"), "u2@0": ("c", "d"),
                "u1@clean": ("a", "b")}
        hyps = {"u1@0": ("a", "x"), "u2@0": ("c", "d"),
                "u1@clean": ("a", "b")}
        grouped = wer_by_condition(refs, hyps)
        assert grouped[0.0] == pytest.approx(25.0)
        assert grouped["clean"] == 0.0

    def test_untagged_id_rejected_in_condition_mode(self):
        with pytest.raises(DataError, match="lacks"):
            wer_by_condition({"u1": ("a",)}, {"u1": ("a",)})


class TestReport:
    def test_format_and_parse(self):
        points = tables.points_for(tables.PINK_BY_SNR, "gauss_pem")
        agg = aggregate_ranges(points)
        text = format_report(points, agg)
        values = helpers.parse_report_values(text)
        assert values["full"] == pytest.approx(agg.full, abs=1e-4)
        assert values["roi"] == pytest.approx(agg.roi, abs=1e-4)
        assert values["wer[clean]"] == pytest.approx(13.6, abs=1e-4)
        assert values["wer[-20]"] == pytest.approx(96.8, abs=1e-4)

    def test_improvement_lines_against_baseline(self):
        points = tables.points_for(tables.PINK_BY_SNR, "gauss_pem")
        agg = aggregate_ranges(points)
        base_points = tables.points_for(tables.PINK_BY_SNR, "noisy_baseline")
        base_values = helpers.parse_report_values(
            format_report(base_points, aggregate_ranges(base_points)))
        text = format_report(points, agg, base_values, "noisy-baseline")
        values = helpers.parse_report_values(text)
        assert values["improvement[roi]"] == pytest.approx(28.0, abs=0.2)
