"""SNR schedules and the patience-driven stage controller.

Three schedule kinds over an SNR grid (default 0..50 dB in 5 dB steps):

  multicondition  one stage holding the full grid
  accan           accordion annealing: stage i holds the lowest i grid
                  values, so training starts at the noisiest level and the
                  range expands upward one step per stage
  accan_reversed  stage i holds the highest i grid values

The controller tracks dev WER per stage; when it fails to improve for
`patience` consecutive epochs the stage switches, training resumes from the
stage-best weights, and the improvement tracking resets. On the last stage
the same rule terminates the run, as does a total epoch cap. The controller
keeps no log and saves no state: the trainer's EpochRecord list is the
curriculum's trace, and replaying its dev WERs rebuilds the controller.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .audio import CLEAN, condition_key, condition_order
from .errors import DataError, check_keys, field_value, read_text

DEFAULT_SNR_GRID: tuple = tuple(float(v) for v in range(0, 55, 5))
KINDS = ("multicondition", "accan", "accan_reversed")
# 0.05 dB steps over 0..50 dB; accan holds n(n+1)/2 stage entries for n values
MAX_GRID_VALUES = 1001
DEFAULT_MAX_EPOCHS = {"multicondition": 150, "accan": 300, "accan_reversed": 300}


def _validate_grid(grid) -> tuple:
    values = tuple(condition_key(v) for v in grid)
    if not values:
        raise DataError("SNR grid must not be empty")
    if any(condition_order(a) >= condition_order(b) for a, b in zip(values, values[1:])):
        raise DataError(f"SNR grid must be strictly increasing, with {CLEAN!r} "
                        "only at the top")
    return values


@dataclass(frozen=True)
class Schedule:
    kind: str
    grid: tuple = DEFAULT_SNR_GRID
    patience: int = 5
    max_epochs: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown schedule kind {self.kind!r}, expected one of {KINDS}")
        object.__setattr__(self, "grid", _validate_grid(self.grid))
        if self.patience < 1:
            raise DataError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs is None:
            object.__setattr__(self, "max_epochs", DEFAULT_MAX_EPOCHS[self.kind])
        if self.max_epochs < 1:
            raise DataError(f"max_epochs must be >= 1, got {self.max_epochs}")


def build_stages(schedule: Schedule) -> list[tuple]:
    """Stage SNR sets, in training order; stages are nested by construction."""
    grid = schedule.grid
    if schedule.kind == "multicondition":
        return [grid]
    if schedule.kind == "accan":
        return [grid[:i] for i in range(1, len(grid) + 1)]
    descending = tuple(reversed(grid))
    return [descending[:i] for i in range(1, len(descending) + 1)]


def sample_snr(stage_set, rng: np.random.Generator):
    """Uniform draw from a stage's SNR set (which may hold CLEAN)."""
    stage_set = tuple(stage_set)
    if not stage_set:
        raise DataError("SNR stage set must not be empty")
    return stage_set[int(rng.integers(0, len(stage_set)))]


class Decision(enum.Enum):
    CONTINUE = "continue"
    SWITCH_STAGE = "switch_stage"
    TERMINATE = "terminate"


@dataclass
class StageController:
    """Sequential state machine driving stage switches from dev WER.

    advance() is called once per epoch with the epoch's dev WER and (when
    the caller tracks weights) a checkpoint handle to record on strict
    improvement, and returns its decision. On SWITCH_STAGE and TERMINATE the
    caller should restore best_checkpoint; the controller never hands out
    anything else. It keeps no log: the caller records each epoch, and a
    fresh controller advanced by the recorded dev WERs is the run's again.
    """

    schedule: Schedule
    stage_index: int = 0
    best_metric: float = math.inf
    epochs_since_improvement: int = 0
    epoch_counter: int = 0
    best_checkpoint: object = None
    _stages: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self._stages = build_stages(self.schedule)

    @property
    def stage_set(self) -> tuple:
        return self._stages[self.stage_index]

    @property
    def on_last_stage(self) -> bool:
        return self.stage_index == len(self._stages) - 1

    def advance(self, dev_wer: float, checkpoint=None) -> Decision:
        if not (dev_wer >= 0):
            raise DataError(f"dev WER must be >= 0, got {dev_wer}")
        self.epoch_counter += 1
        if dev_wer < self.best_metric:
            self.best_metric = dev_wer
            self.best_checkpoint = checkpoint
            self.epochs_since_improvement = 0
        else:
            self.epochs_since_improvement += 1

        if self.epoch_counter >= self.schedule.max_epochs:
            return Decision.TERMINATE
        if self.epochs_since_improvement < self.schedule.patience:
            return Decision.CONTINUE
        if self.on_last_stage:
            return Decision.TERMINATE
        self.stage_index += 1
        self.best_metric = math.inf
        self.epochs_since_improvement = 0
        return Decision.SWITCH_STAGE


# --- schedule fields ---------------------------------------------------------
#
# A schedule is written as fields, either in a schedule file, plain text with
# one "key = value" per line and '#' comments:
#   kind = accan
#   snr_min = 0
#   snr_max = 50
#   snr_step = 5
#   patience = 5
#   max_epochs = 300
# or as the "schedule" object of an experiment file, with the same keys.
# The endpoint fields make a numeric grid; "grid = clean" in their place
# makes the clean-only grid (CLEAN,).

_SCHEDULE_KEYS = ("kind", "snr_min", "snr_max", "snr_step", "grid", "patience",
                  "max_epochs")


def grid_from_endpoints(snr_min: float, snr_max: float, snr_step: float) -> tuple:
    for name, value in (("snr_min", snr_min), ("snr_max", snr_max),
                        ("snr_step", snr_step)):
        if not math.isfinite(value):
            raise DataError(f"{name!r} must be finite, got {value}")
    if snr_step <= 0:
        raise DataError(f"snr_step must be positive, got {snr_step}")
    if snr_max < snr_min:
        raise DataError(f"snr_max {snr_max} below snr_min {snr_min}")
    span = (snr_max - snr_min) / snr_step
    if not span < MAX_GRID_VALUES - 0.5:  # inf when the span overflows
        raise DataError(f"snr_step {snr_step} makes more than {MAX_GRID_VALUES} grid values")
    count = int(round(span))
    grid = tuple(snr_min + i * snr_step for i in range(count + 1))
    if abs(grid[-1] - snr_max) > 1e-9:
        raise DataError(f"snr range [{snr_min}, {snr_max}] is not a multiple of {snr_step}")
    return grid


def schedule_from_fields(fields: dict, where: str) -> Schedule:
    """The Schedule that a schedule file's or an experiment file's fields
    describe; unset fields take the default grid (0..50 dB in 5 dB steps),
    patience and the kind's epoch cap. An unknown key, a missing kind or a
    malformed value raises DataError naming the key and `where`."""
    check_keys(fields, _SCHEDULE_KEYS, where)
    kind = field_value(fields, "kind", str, where)
    if "grid" in fields:
        if (field_value(fields, "grid", str, where) != CLEAN
                or {"snr_min", "snr_max", "snr_step"} & fields.keys()):
            raise DataError(f"'grid' in {where} must be {CLEAN!r}, in place of "
                            "snr_min, snr_max and snr_step")
        grid = (CLEAN,)
    else:
        grid = grid_from_endpoints(
            field_value(fields, "snr_min", float, where, DEFAULT_SNR_GRID[0]),
            field_value(fields, "snr_max", float, where, DEFAULT_SNR_GRID[-1]),
            field_value(fields, "snr_step", float, where, 5.0),
        )
    return Schedule(
        kind=kind,
        grid=grid,
        patience=field_value(fields, "patience", int, where, Schedule.patience),
        max_epochs=field_value(fields, "max_epochs", int, where, None),
    )


def parse_schedule_file(path) -> Schedule:
    fields: dict = {}
    for line_no, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return schedule_from_fields(fields, f"the schedule file {path}")
