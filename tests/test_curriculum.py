import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from snrtrain.audio import CLEAN
from snrtrain.curriculum import (DEFAULT_SNR_GRID, MAX_GRID_VALUES, Decision,
                                 Schedule, StageController, build_stages,
                                 grid_from_endpoints, parse_schedule_file,
                                 sample_snr, schedule_from_fields)
from snrtrain.errors import DataError


class TestSchedule:
    def test_default_grid(self):
        assert DEFAULT_SNR_GRID == tuple(float(v) for v in range(0, 55, 5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            Schedule("annealed")

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(DataError):
            Schedule("accan", grid=(0.0, 5.0, 5.0))

    # (0.0, 5.0, 5.0) and (CLEAN, 0.0) are the two tests around this one
    @pytest.mark.parametrize("grid", [("x",), (0.0, None), (0.0, float("nan")),
                                      (CLEAN, CLEAN)])
    def test_malformed_grid_rejected(self, grid):
        with pytest.raises(DataError):
            Schedule("accan", grid=grid)

    def test_clean_only_grid_allowed(self):
        schedule = Schedule("multicondition", grid=(CLEAN,))
        assert build_stages(schedule) == [(CLEAN,)]

    def test_clean_must_sit_on_top(self):
        with pytest.raises(DataError):
            Schedule("multicondition", grid=(CLEAN, 0.0))

    def test_default_epoch_caps(self):
        assert Schedule("multicondition").max_epochs == 150
        assert Schedule("accan").max_epochs == 300


class TestBuildStages:
    def test_accan_stages_grow_from_the_bottom(self):
        stages = build_stages(Schedule("accan"))
        assert len(stages) == 11
        assert stages[0] == (0.0,)
        assert stages[1] == (0.0, 5.0)
        assert stages[-1] == DEFAULT_SNR_GRID
        assert len(stages[-1]) == 11

    def test_reversed_stages_grow_from_the_top(self):
        stages = build_stages(Schedule("accan_reversed"))
        assert stages[0] == (50.0,)
        assert stages[1] == (50.0, 45.0)
        assert stages[-1] == tuple(reversed(DEFAULT_SNR_GRID))

    def test_multicondition_is_single_stage(self):
        stages = build_stages(Schedule("multicondition"))
        assert stages == [DEFAULT_SNR_GRID]

    @pytest.mark.parametrize("kind", ["accan", "accan_reversed"])
    def test_stages_are_nested(self, kind):
        stages = build_stages(Schedule(kind))
        for small, big in zip(stages, stages[1:]):
            assert set(small) < set(big)
        assert set(stages[-1]) == set(DEFAULT_SNR_GRID)


class TestSampleSnr:
    def test_singleton(self):
        rng = np.random.default_rng(0)
        assert all(sample_snr((0.0,), rng) == 0.0 for _ in range(20))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(1)
        draws = [sample_snr(DEFAULT_SNR_GRID, rng) for _ in range(100_000)]
        for level in DEFAULT_SNR_GRID:
            share = draws.count(level) / len(draws)
            assert share == pytest.approx(1.0 / 11.0, abs=0.005)

    def test_deterministic_sequence(self):
        a = [sample_snr(DEFAULT_SNR_GRID, np.random.default_rng(7))
             for _ in range(5)]
        b = [sample_snr(DEFAULT_SNR_GRID, np.random.default_rng(7))
             for _ in range(5)]
        assert a == b

    def test_clean_guard(self):
        rng = np.random.default_rng(0)
        assert sample_snr((CLEAN,), rng) == CLEAN


class TestController:
    def test_spec_trace_switches_after_fifth_flat_epoch(self):
        controller = StageController(Schedule("accan", patience=5))
        decisions = [controller.advance(wer).value
                     for wer in (10, 9, 9, 9, 9, 9, 9)]
        assert decisions == ["continue"] * 6 + ["switch_stage"]
        assert controller.stage_index == 1

    def test_matches_hand_simulation(self):
        traces = [
            [10, 9, 9, 9, 9, 9, 9],
            [50, 40, 30, 29, 29, 29, 29, 29, 28, 28, 28, 28, 28],
            [5, 5, 5, 5, 5, 6, 7],
        ]
        for trace in traces:
            schedule = Schedule("accan", patience=5)
            controller = StageController(schedule)
            expected = helpers.simulate_patience_controller(
                trace, patience=5, num_stages=11,
                max_epochs=schedule.max_epochs)
            got = []
            for wer in trace:
                got.append(controller.advance(wer).value)
                if got[-1] == "terminate":
                    break
            assert got == expected

    def test_monotone_improvement_never_switches(self):
        controller = StageController(Schedule("accan", patience=5, max_epochs=40))
        for epoch in range(39):
            assert controller.advance(100.0 - epoch) is Decision.CONTINUE
        assert controller.advance(1.0) is Decision.TERMINATE  # cap

    def test_first_epoch_always_continues(self):
        controller = StageController(Schedule("accan", patience=1))
        assert controller.advance(500.0) is Decision.CONTINUE

    def test_terminates_on_last_stage(self):
        controller = StageController(Schedule("multicondition", patience=2))
        controller.advance(10.0)
        controller.advance(10.0)
        assert controller.advance(10.0) is Decision.TERMINATE

    def test_checkpoint_tracking_keeps_stage_best(self):
        controller = StageController(Schedule("accan", patience=2))
        controller.advance(10.0, checkpoint="epoch1")
        controller.advance(8.0, checkpoint="epoch2")
        controller.advance(9.0, checkpoint="epoch3")
        decision = controller.advance(9.5, checkpoint="epoch4")
        assert decision is Decision.SWITCH_STAGE
        assert controller.best_checkpoint == "epoch2"
        # new stage: first epoch improves on +inf and replaces the checkpoint
        controller.advance(11.0, checkpoint="epoch5")
        assert controller.best_checkpoint == "epoch5"

    def test_best_checkpoint_hash_equality(self):
        controller = StageController(Schedule("accan", patience=1))
        blobs = [b"weights-0", b"weights-1", b"weights-2"]
        controller.advance(5.0, checkpoint=hashlib.blake2b(blobs[0]).hexdigest())
        stored = controller.best_checkpoint
        controller.advance(6.0, checkpoint=hashlib.blake2b(blobs[1]).hexdigest())
        assert controller.best_checkpoint == stored
        assert controller.best_checkpoint == hashlib.blake2b(blobs[0]).hexdigest()

    def test_state_round_trip(self):
        controller = StageController(Schedule("accan", patience=2))
        wers = (9.0, 1 / 3, 8.5)
        decisions = [controller.advance(wer, checkpoint="ck") for wer in wers]

        def fields(c):
            return (c.stage_index, c.best_metric, c.epochs_since_improvement,
                    c.epoch_counter)

        # the dev WERs are stored as JSON numbers, and replaying them into a
        # fresh controller rebuilds it; the best WER survives exactly
        clone = StageController(Schedule("accan", patience=2))
        assert [clone.advance(wer)
                for wer in json.loads(json.dumps(wers))] == decisions
        assert clone.best_metric == 1 / 3
        assert fields(clone) == fields(controller) == (0, 1 / 3, 1, 3)

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60),
           st.integers(1, 5))
    def test_counter_invariant(self, trace, patience):
        controller = StageController(Schedule("accan", patience=patience))
        for wer in trace:
            assert 0 <= controller.epochs_since_improvement <= patience
            if controller.advance(wer) is Decision.TERMINATE:
                break
            assert controller.epochs_since_improvement < patience


class TestScheduleFile:
    def test_parse_every_key(self, tmp_path):
        path = tmp_path / "schedule.txt"
        path.write_text("kind = accan\nsnr_min = 0\nsnr_max = 50\nsnr_step = 5\n"
                        "patience = 4\nmax_epochs = 220\n")
        schedule = parse_schedule_file(path)
        assert schedule == Schedule("accan", patience=4, max_epochs=220)

    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "schedule.txt"
        path.write_text(
            "# curriculum over the default grid\n"
            "kind = accan_reversed\n"
            "snr_min = 0   # dB\n"
            "snr_max = 50\n"
            "snr_step = 5\n"
            "patience = 5\n"
        )
        schedule = parse_schedule_file(path)
        assert schedule.kind == "accan_reversed"
        assert schedule.grid == DEFAULT_SNR_GRID
        assert schedule.max_epochs == 300

    @pytest.mark.parametrize("fields", [
        {"kind": "accan", "snr_min": 0, "snr_max": 50, "snr_step": 5,
         "patience": 3, "max_epochs": 120},
        {"kind": "multicondition", "patience": 2, "max_epochs": 6},
        {"kind": "accan_reversed", "snr_min": -5, "snr_max": 20,
         "snr_step": 2.5},
        {"kind": "multicondition", "grid": "clean", "patience": 2},
    ])
    def test_text_and_json_forms_agree(self, tmp_path, fields):
        path = tmp_path / "schedule.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        assert parse_schedule_file(path) == schedule_from_fields(fields, "a test")

    def test_grid_field_spells_only_the_clean_grid(self):
        schedule = schedule_from_fields({"kind": "multicondition", "grid": "clean"},
                                        "a test")
        assert schedule == Schedule("multicondition", (CLEAN,))
        for fields, message in (
                ({"grid": "0"}, "'grid' in a test must be 'clean', in place of"),
                ({"grid": 0}, "'grid' in a test must be a string"),
                ({"grid": "clean", "snr_max": 20}, "'grid' in a test must be 'clean'")):
            with pytest.raises(DataError, match=message):
                schedule_from_fields({"kind": "accan", **fields}, "a test")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "schedule.txt"
        path.write_text("kind = accan\nwarmup = 3\n")
        with pytest.raises(DataError, match="warmup"):
            parse_schedule_file(path)

    def test_bad_step_rejected(self):
        with pytest.raises(DataError):
            grid_from_endpoints(0.0, 50.0, 7.0)

    def test_finest_grid_accepted(self):
        grid = grid_from_endpoints(0.0, 50.0, 0.05)
        assert len(grid) == MAX_GRID_VALUES == 1001
        assert grid[0] == 0.0 and abs(grid[-1] - 50.0) < 1e-9

    @pytest.mark.parametrize("snr_min, snr_max, snr_step", [
        (0.0, 50.0, 0.01), (0.0, 50.0, 1e-9),
        (-1e308, 1e308, 5.0)])  # the span overflows to inf
    def test_grid_over_the_bound_refused_before_it_is_built(self, snr_min,
                                                           snr_max, snr_step):
        with pytest.raises(DataError, match="snr_step .* more than 1001 grid values"):
            grid_from_endpoints(snr_min, snr_max, snr_step)

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "schedule.txt"
        path.write_bytes(b"\x00\xff\xfe")
        with pytest.raises(DataError, match="schedule.txt is not UTF-8"):
            parse_schedule_file(path)
