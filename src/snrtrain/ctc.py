"""CTC loss, gradient, and best-path decoding over a character alphabet.

The loss is the negative log probability of all frame-level alignments
(with blanks) that collapse to the target sequence, in log space. One
recursion, alpha, runs over the blank-extended targets of the items and of
their reversals (frames last to first, labels backwards): beta is alpha of
the reversal, and the state posterior gamma comes from alpha and beta. The
gradient is taken with respect to pre-softmax logits, so its rows sum to
zero. Blank occupies the last output index.

A training batch is scored in one pass: `ctc_loss_and_grad` takes log-probs
padded to (T, B, K) with K = symbols + 1, the frame count T_i of each item
and each item's label list, and returns the gradient in the same padded
(T, B, K) layout. The blank-extended targets are padded to the longest,
2 * len(labels) + 1 states. Padded states and frames t >= T_i emit -inf,
so padding never feeds a real item and the values held in padded frames
(nan and +/-inf included) do not matter: gradient rows t >= T_i are
exactly 0.0, and an item with no alignment gets an all-NaN gradient column.
Each item's loss and gradient equal those of scoring it alone, so one
sequence is scored as a batch with B = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError

NEG_INF = -np.inf


@dataclass(frozen=True)
class LabelAlphabet:
    """Ordered label symbols; the CTC blank is the extra final index."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        symbols = tuple(self.symbols)
        if len(set(symbols)) != len(symbols):
            raise DataError("alphabet symbols must be distinct")
        if not symbols:
            raise DataError("alphabet must not be empty")
        object.__setattr__(self, "symbols", symbols)

    @property
    def num_outputs(self) -> int:
        return len(self.symbols) + 1

    def encode(self, words) -> list[int]:
        try:
            return [self.symbols.index(w) for w in words]
        except ValueError:
            unknown = [w for w in words if w not in self.symbols]
            raise DataError(f"labels outside alphabet: {unknown}") from None

    def decode(self, indices) -> list[str]:
        return [self.symbols[i] for i in indices]


def ctc_loss_and_grad(log_probs, lengths, labels):
    """Losses and logit gradients of a padded batch in one pass.

    log_probs is (T, B, K), lengths the B frame counts and labels the B
    label lists. Returns the (B,) losses, +inf for an item with no
    alignment, and the (T, B, K) gradient: rows t >= T_i of item i are
    exactly 0.0, and the column of an item whose loss is not finite is all
    NaN. No value held in the padded frames of log_probs enters the
    arithmetic.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    if log_probs.ndim != 3 or log_probs.shape[1] < 1 or log_probs.shape[2] < 2:
        raise DataError(f"log-probs must be (T, batch, symbols+1), got {log_probs.shape}")
    max_t, batch, num_outputs = log_probs.shape
    lengths = np.asarray(lengths)
    if (lengths.shape != (batch,) or len(labels) != batch
            or np.any(lengths < 1) or np.any(lengths > max_t)):
        raise DataError(f"need one frame count in [1, {max_t}] and one label "
                        f"list per item, got {lengths} and {len(labels)} lists")
    lengths = lengths.astype(np.int64)
    blank = num_outputs - 1
    labels = [[int(v) for v in y] for y in labels]
    for y in labels:
        if any(v < 0 or v >= blank for v in y):
            raise DataError(f"label indices must lie in [0, {blank}), got {y}")
    valid = np.arange(max_t)[:, None] < lengths
    with np.errstate(invalid="ignore"):  # a NaN row is refused below
        row_mass = np.logaddexp.reduce(log_probs[valid], axis=1)
    if np.any(~(np.abs(row_mass) <= 1e-6)):  # NaN fails too
        raise DataError("log-prob rows must normalize to 1 (log-sum-exp 0 +/- 1e-6)")

    # blank-extended targets of each item, then of each item's labels
    # reversed; padded states read column K, which is -inf
    rows = labels + [y[::-1] for y in labels]
    ext = np.array([2 * len(y) + 1 for y in rows])
    states = int(ext.max())
    z = np.full((2 * batch, states), num_outputs)
    for i, y in enumerate(rows):
        z[i, : ext[i]] = blank
        z[i, 1 : ext[i] : 2] = y
    # a skip z[s-2] -> z[s] is legal when z[s] is a fresh non-blank label
    skip_ok = np.zeros((2 * batch, states), dtype=bool)
    skip_ok[:, 2:] = (z[:, 2:] < blank) & (z[:, 2:] != z[:, :-2])

    # frames past T_i emit -inf too, whatever they hold (nan and inf too);
    # rows [B, 2B) are the items run backwards from their own last frame
    padded = np.full((max_t, batch, num_outputs + 1), NEG_INF)
    padded[:, :, :num_outputs] = np.where(valid[:, :, None], log_probs, NEG_INF)
    items = np.arange(batch)
    back = np.maximum(lengths - 1 - np.arange(max_t)[:, None], 0)
    both = np.concatenate(
        [padded, np.where(valid[:, :, None], padded[back, items], NEG_INF)], axis=1)
    emit = both[:, np.arange(2 * batch)[:, None], z]

    # alpha: two leading -inf columns stand for the states before s = 0
    alpha = np.full((max_t, 2 * batch, states + 2), NEG_INF)
    alpha[0, :, 2:4] = emit[0, :, :2]
    for t in range(1, max_t):
        prev = alpha[t - 1]
        acc = np.logaddexp(prev[:, 2:], prev[:, 1:-1])
        np.logaddexp(acc, prev[:, :-2], out=acc, where=skip_ok)
        np.add(emit[t], acc, out=alpha[t, :, 2:])
    alpha, emit, z, ext = alpha[:, :, 2:], emit[:, :batch], z[:batch], ext[:batch]

    # beta[t, i, s], the log mass of completing from s at frame t (emission
    # at t included), is reversed item i's alpha at T_i-1-t and ext_i-1-s
    rev = np.maximum(ext[:, None] - 1 - np.arange(states), 0)
    beta = np.where(valid[:, :, None] & (np.arange(states) < ext[:, None]),
                    alpha[back[:, :, None], batch + items[:, None], rev], NEG_INF)
    last = alpha[lengths - 1, items]
    tail = last[items, ext - 1]
    tail = np.where(ext > 1, np.logaddexp(tail, last[items, np.maximum(ext - 2, 0)]),
                    tail)

    # padded states, frames past T_i and items without an alignment give
    # nan; they land in column K, in rows past T_i or in a dropped item
    with np.errstate(invalid="ignore"):
        occupancy = alpha[:, :batch] + beta - emit - tail[:, None]
    gamma = np.zeros_like(padded)
    np.add.at(gamma, (slice(None), items[:, None], z), np.exp(occupancy))
    # exp reads -inf in frames past T_i, never what log_probs holds there;
    # the where drops those frames' nan gamma
    grads = np.where(valid[:, :, None], np.exp(padded[:, :, :num_outputs])
                     - gamma[:, :, :num_outputs], 0.0)
    grads[:, ~np.isfinite(tail)] = np.nan
    return -tail, grads


def best_path_decode(log_probs: np.ndarray) -> list[int]:
    """Frame-wise argmax, collapse adjacent repeats, drop blanks.

    Argmax ties break toward the lower index.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    blank = log_probs.shape[1] - 1
    path = itertools.groupby(np.argmax(log_probs, axis=1))
    return [int(idx) for idx, _ in path if idx != blank]
