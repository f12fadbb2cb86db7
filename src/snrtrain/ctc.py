"""CTC loss, gradient, and best-path decoding over a character alphabet.

The loss is the negative log probability of all frame-level alignments
(with blanks) that collapse to the target sequence. It is computed in log
space by one forward (alpha) and one backward (beta) recursion over the
blank-extended target; the state posterior gamma comes from that same
alpha and beta. The gradient is taken with respect to pre-softmax logits,
so its rows sum to zero. Blank occupies the last output index.

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


def _check_labels(labels, num_outputs: int) -> list[int]:
    labels = [int(y) for y in labels]
    blank = num_outputs - 1
    if any(y < 0 or y >= blank for y in labels):
        raise DataError(f"label indices must lie in [0, {blank}), got {labels}")
    return labels


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
    labels = [_check_labels(y, num_outputs) for y in labels]
    valid = np.arange(max_t)[:, None] < lengths
    row_mass = np.logaddexp.reduce(log_probs[valid], axis=1)
    if np.any(~(np.abs(row_mass) <= 1e-6)):  # NaN fails too
        raise DataError("log-prob rows must normalize to 1 (log-sum-exp 0 +/- 1e-6)")

    # blank-extended targets; padded states read column K, which is -inf
    blank = num_outputs - 1
    ext = np.array([2 * len(y) + 1 for y in labels])
    states = int(ext.max())
    z = np.full((batch, states), num_outputs)
    for i, y in enumerate(labels):
        z[i, : ext[i]] = blank
        z[i, 1 : ext[i] : 2] = y
    # a skip z[s-2] -> z[s] is legal when z[s] is a fresh non-blank label
    skip_ok = np.zeros((batch, states), dtype=bool)
    skip_ok[:, 2:] = (z[:, 2:] < blank) & (z[:, 2:] != z[:, :-2])
    skip_from = np.zeros_like(skip_ok)
    skip_from[:, :-2] = skip_ok[:, 2:]

    # frames past T_i emit -inf too, whatever they hold (nan and inf too)
    padded = np.full((max_t, batch, num_outputs + 1), NEG_INF)
    padded[:, :, :num_outputs] = np.where(valid[:, :, None], log_probs, NEG_INF)
    items = np.arange(batch)
    emit = padded[:, items[:, None], z]

    # alpha: two leading -inf columns stand for the states before s = 0
    alpha = np.full((max_t, batch, states + 2), NEG_INF)
    alpha[0, :, 2:4] = emit[0, :, :2]
    for t in range(1, max_t):
        prev = alpha[t - 1]
        acc = np.logaddexp(prev[:, 2:], prev[:, 1:-1])
        acc = np.where(skip_ok, np.logaddexp(acc, prev[:, :-2]), acc)
        alpha[t, :, 2:] = emit[t] + acc
    alpha = alpha[:, :, 2:]

    last = alpha[lengths - 1, items]
    tail = last[items, ext - 1]
    tail = np.where(ext > 1, np.logaddexp(tail, last[items, np.maximum(ext - 2, 0)]),
                    tail)

    # beta[t, s]: log mass of completing from s at frame t, emission at t
    # included. It starts at each item's last frame from its final two states.
    final = np.arange(states) >= (ext - 2)[:, None]
    starts = final & (np.arange(max_t)[:, None, None] == lengths[:, None] - 1)
    beta = np.full((max_t + 1, batch, states + 2), NEG_INF)
    for t in range(max_t - 1, -1, -1):
        nxt = beta[t + 1]
        acc = np.logaddexp(nxt[:, :-2], nxt[:, 1:-1])
        acc = np.where(skip_from, np.logaddexp(acc, nxt[:, 2:]), acc)
        beta[t, :, :-2] = np.where(starts[t], emit[t], emit[t] + acc)
    beta = beta[:max_t, :, :-2]

    # padded states, frames past T_i and items without an alignment give
    # nan; they land in column K, in rows past T_i or in a dropped item
    with np.errstate(invalid="ignore"):
        occupancy = alpha + beta - emit - tail[:, None]
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
    path = np.argmax(log_probs, axis=1)
    out: list[int] = []
    previous = -1
    for idx in path:
        if idx != previous and idx != blank:
            out.append(int(idx))
        previous = idx
    return out
