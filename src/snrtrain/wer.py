"""Word-error-rate scoring and SNR-range aggregation.

WER is 100 * (substitutions + deletions + insertions) / reference words
under a minimum-edit-distance alignment with unit costs; values above 100
are legal. Reports cover 16 test conditions (clean plus 50 dB down to
-20 dB in 5 dB steps) and four range means:

    full: all 16 conditions        high: 50..0 dB (11 points)
    low:  0..-10 dB (3 points)     roi:  20..-10 dB (7 points)

A 14-point "full" variant (clean plus 50..-10 dB) is available behind the
prose_full flag; the 16-point mean is the default because it is the one
consistent with the reference range tables.

Conditions are parsed and printed by snrtrain.audio. A report is read
back only as a baseline, whose four range means read_baseline requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .audio import CLEAN, condition_key, condition_order, format_condition
from .errors import DataError, field_value, read_text, write_atomic

CONDITIONS: tuple = (CLEAN,) + tuple(float(v) for v in range(50, -25, -5))
HIGH_RANGE: tuple = tuple(float(v) for v in range(50, -5, -5))
LOW_RANGE: tuple = (0.0, -5.0, -10.0)
ROI_RANGE: tuple = tuple(float(v) for v in range(20, -15, -5))
FULL_PROSE_RANGE: tuple = (CLEAN,) + tuple(float(v) for v in range(50, -15, -5))


def edit_distance(ref: Sequence, hyp: Sequence) -> int:
    """Levenshtein distance with unit substitution/insertion/deletion costs."""
    previous = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        current = [i]
        for j, h in enumerate(hyp, start=1):
            if r == h:
                current.append(previous[j - 1])
            else:
                current.append(1 + min(previous[j - 1], previous[j], current[-1]))
        previous = current
    return previous[-1]


@dataclass(frozen=True)
class RangeAggregates:
    full: float
    high: float
    low: float
    roi: float

    def as_dict(self) -> dict:
        return {"full": self.full, "high": self.high, "low": self.low, "roi": self.roi}


def aggregate_ranges(points: Mapping, prose_full: bool = False) -> RangeAggregates:
    """Arithmetic range means over a complete 16-condition WER table."""
    table = {condition_key(c): float(w) for c, w in points.items()}
    missing = [c for c in CONDITIONS if c not in table]
    if missing:
        raise DataError(f"missing conditions: {missing}")
    full_range = FULL_PROSE_RANGE if prose_full else CONDITIONS

    def mean(conds):
        return sum(table[c] for c in conds) / len(conds)

    return RangeAggregates(
        full=mean(full_range),
        high=mean(HIGH_RANGE),
        low=mean(LOW_RANGE),
        roi=mean(ROI_RANGE),
    )


def relative_improvement(baseline: float, method: float) -> float:
    """Percent WER decrease of method relative to baseline."""
    if not (math.isfinite(baseline) and baseline > 0):
        raise DataError(f"baseline WER must be finite and > 0, got {baseline}")
    return 100.0 * (baseline - method) / baseline


# --- transcript files and condition-tagged scoring -------------------------
#
# Transcript files hold one utterance per line: "<utt_id> <word> <word> ...".
# For per-condition scoring, utterance ids carry a condition tag after '@',
# e.g. "utt042@0", "utt042@-5", "utt042@clean".


def read_transcripts(path) -> dict:
    transcripts: dict = {}
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        utt_id, words = parts[0], tuple(parts[1:])
        if utt_id in transcripts:
            raise DataError(f"{path}:{line_no}: duplicate utterance id {utt_id!r}")
        transcripts[utt_id] = words
    if not transcripts:
        raise DataError(f"{path}: no transcripts found")
    return transcripts


def write_transcripts(path, transcripts: Mapping) -> None:
    write_atomic((path, "".join(f"{utt_id} {' '.join(words)}\n"
                                for utt_id, words in transcripts.items()).encode("utf-8")))


def condition_of_id(utt_id: str):
    """Condition tag of an id like 'utt042@-5'; None when untagged."""
    if "@" not in utt_id:
        return None
    return condition_key(utt_id.rsplit("@", 1)[1])


def corpus_wer(refs: Mapping, hyps: Mapping) -> float:
    """Pooled WER: total edits over total reference words, as a percent."""
    if not refs:
        raise DataError("no reference utterances to score")
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise DataError(f"hypotheses missing for utterances: {missing}")
    edits = 0
    words = 0
    for utt_id, ref in refs.items():
        if len(ref) == 0:
            raise DataError(f"empty reference for utterance {utt_id!r}")
        edits += edit_distance(ref, hyps[utt_id])
        words += len(ref)
    return 100.0 * edits / words


def wer_by_condition(refs: Mapping, hyps: Mapping) -> dict:
    """Pooled WER per condition tag; every reference id must be tagged."""
    grouped: dict = {}
    for utt_id, ref in refs.items():
        condition = condition_of_id(utt_id)
        if condition is None:
            raise DataError(f"utterance id {utt_id!r} lacks an '@<condition>' tag")
        grouped.setdefault(condition, {})[utt_id] = ref
    return {
        condition: corpus_wer(group, hyps)
        for condition, group in sorted(
            grouped.items(), key=lambda kv: condition_order(kv[0])
        )
    }


# --- report format ----------------------------------------------------------


def format_report(points: Mapping, aggregates: RangeAggregates | None = None,
                  baseline: Mapping | None = None, baseline_name: str = "") -> str:
    """Aligned per-condition table plus machine-readable key=value lines."""
    table = {condition_key(c): float(w) for c, w in points.items()}
    ordered = [c for c in CONDITIONS if c in table]
    ordered += [c for c in sorted(table, key=condition_order, reverse=True)
                if c not in ordered]
    lines = ["condition      wer[%]"]
    for c in ordered:
        lines.append(f"{format_condition(c):<12s} {table[c]:8.2f}")
    lines.append("")
    for c in ordered:
        lines.append(f"wer[{format_condition(c)}]={table[c]:.4f}")
    if aggregates is not None:
        for name, value in aggregates.as_dict().items():
            lines.append(f"{name}={value:.4f}")
        if baseline is not None:
            lines.append(f"baseline={baseline_name}")
            for name, value in aggregates.as_dict().items():
                # a zero baseline mean has no relative change
                if baseline[name] != 0.0:
                    gain = relative_improvement(baseline[name], value)
                    lines.append(f"improvement[{name}]={gain:.4f}")
    return "\n".join(lines) + "\n"


def read_baseline(path) -> dict:
    """The four range means of a by-condition report file, keyed by name; a
    missing or malformed mean raises DataError naming the file and the key."""
    fields = dict(line.partition("=")[::2]
                  for line in read_text(path).splitlines() if "=" in line)
    return {name: field_value(fields, name, float, f"the baseline report {path}")
            for name in ("full", "high", "low", "roi")}
