"""Minimal recurrent acoustic model with hand-written backprop.

One tanh recurrent layer over 123-dim feature frames, a linear projection
to alphabet+blank logits, and log-softmax outputs. Dropout (inverted, on
the recurrent-layer output feeding the projection) is active only in train
mode. Parameters use Glorot uniform initialization from a fixed seed, so a
whole experiment is reproducible bit for bit. forward_batch scores a padded
batch; one sequence is a batch of one. adam_step takes only the learning
rate: the Adam betas and epsilon are the constants ADAM_BETA1, ADAM_BETA2
and ADAM_EPS.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, read_payload, write_atomic
from .seeding import digest

PARAM_ORDER = ("w_in", "w_rec", "b_rec", "w_out", "b_out")

CKPT_MAGIC = b"CKPT"
CKPT_VERSION = 1
# after the magic: version, input_dim, hidden, outputs, init_seed, epoch,
# param_count
_CKPT_HEADER = struct.Struct("<HIIIQIQ")


@dataclass(frozen=True)
class ModelConfig:
    num_outputs: int
    input_dim: int = 123
    hidden_size: int = 64
    dropout: float = 0.3
    init_seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.dropout < 1.0):
            raise DataError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.num_outputs < 2:
            raise DataError("need at least one symbol plus blank")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class RecurrentCtcModel:
    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.init_seed)
        d, h, k = config.input_dim, config.hidden_size, config.num_outputs
        self.params = {
            "w_in": glorot_uniform(rng, d, h),
            "w_rec": glorot_uniform(rng, h, h),
            "b_rec": np.zeros(h),
            "w_out": glorot_uniform(rng, h, k),
            "b_out": np.zeros(k),
        }

    # --- forward / backward -------------------------------------------------

    def forward_batch(self, feature_list, train: bool = False,
                      rng: np.random.Generator | None = None):
        """Padded log-probs of a batch of utterances.

        The (T_i, d) feature matrices, float32 or float64, are padded once
        into a float64 (T, B, d) array with T the longest T_i. Returns
        ((T, B, K) log-probs, cache-for-backward); rows t >= T_i of item i
        come from its zero padding frames and feed no row t < T_i.
        """
        d, h = self.config.input_dim, self.config.hidden_size
        for f in feature_list:
            if np.ndim(f) != 2 or np.shape(f)[1] != d:
                raise DataError(f"features must be (frames, {d}), got {np.shape(f)}")
        batch = len(feature_list)
        max_t = max(len(f) for f in feature_list)
        x = np.zeros((max_t, batch, d))
        for i, f in enumerate(feature_list):
            x[: len(f), i] = f

        dropout = self.config.dropout
        mask = None
        if train and dropout > 0.0:
            if rng is None:
                raise DataError("train-mode forward needs an rng for dropout")
            keep = 1.0 - dropout
            mask = (rng.random((max_t, batch, h)) < keep) / keep

        p = self.params
        hidden = np.zeros((max_t + 1, batch, h))
        logits = np.empty((max_t, batch, self.config.num_outputs))
        for t in range(max_t):
            a = x[t] @ p["w_in"] + hidden[t] @ p["w_rec"] + p["b_rec"]
            hidden[t + 1] = np.tanh(a)
            dropped = hidden[t + 1] if mask is None else hidden[t + 1] * mask[t]
            logits[t] = dropped @ p["w_out"] + p["b_out"]

        shift = logits.max(axis=2, keepdims=True)
        log_probs = logits - shift - np.log(
            np.sum(np.exp(logits - shift), axis=2, keepdims=True)
        )
        return log_probs, (x, hidden, mask)

    def backward_batch(self, cache, dlogits) -> dict:
        """Parameter gradients given the padded (T, B, K) d(loss)/d(logits)
        of the forward_batch that made cache. Rows t >= T_i of item i must
        be 0.0, as ctc_loss_and_grad gives them."""
        x, hidden, mask = cache
        max_t, batch, _ = x.shape
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        dh_carry = np.zeros((batch, self.config.hidden_size))
        for t in range(max_t - 1, -1, -1):
            h_t = hidden[t + 1]
            dropped = h_t if mask is None else h_t * mask[t]
            do = dlogits[t]
            grads["w_out"] += dropped.T @ do
            grads["b_out"] += do.sum(axis=0)
            dd = do @ p["w_out"].T
            dh = (dd if mask is None else dd * mask[t]) + dh_carry
            da = dh * (1.0 - h_t * h_t)
            grads["w_in"] += x[t].T @ da
            grads["w_rec"] += hidden[t].T @ da
            grads["b_rec"] += da.sum(axis=0)
            dh_carry = da @ p["w_rec"].T
        return grads

    # --- parameter bookkeeping ----------------------------------------------

    def copy_params(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, params: dict) -> None:
        for k in PARAM_ORDER:
            if params[k].shape != self.params[k].shape:
                raise DataError(f"shape mismatch for {k}")
            self.params[k] = params[k].copy()

    def param_hash(self) -> str:
        return digest(b"".join(self.params[k].astype(np.float64).tobytes()
                               for k in PARAM_ORDER)).hex()

    def num_params(self) -> int:
        return sum(v.size for v in self.params.values())

    # --- checkpoint file ------------------------------------------------------
    #
    # magic "CKPT" | version u16 | input u32 | hidden u32 | outputs u32
    # | init_seed u64 | epoch u32 | param_count u64
    # followed by all parameters as little-endian float32 in PARAM_ORDER.

    def save_checkpoint(self, path, epoch: int) -> None:
        c = self.config
        header = CKPT_MAGIC + _CKPT_HEADER.pack(
            CKPT_VERSION, c.input_dim, c.hidden_size, c.num_outputs,
            c.init_seed & (2**64 - 1), epoch, self.num_params())
        write_atomic((path, header + b"".join(
            np.ascontiguousarray(self.params[k], dtype="<f4").tobytes()
            for k in PARAM_ORDER)))


def load_checkpoint(path, dropout: float = 0.3):
    """Read a checkpoint; returns (model, epoch)."""
    with open(path, "rb") as fh:
        if fh.read(4) != CKPT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        header = fh.read(_CKPT_HEADER.size)
        if len(header) != _CKPT_HEADER.size:
            raise DataError(f"{path}: truncated checkpoint header")
        version, input_dim, hidden, outputs, seed, epoch, count = \
            _CKPT_HEADER.unpack(header)
        if version != CKPT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        implied = (input_dim + hidden + 1) * hidden + (hidden + 1) * outputs
        if count != implied:
            raise DataError(f"{path}: param_count {count}, but input_dim, "
                            f"hidden and outputs imply {implied}")
        flat = np.frombuffer(read_payload(fh, count * 4, path),
                             dtype="<f4").astype(np.float64)
    config = ModelConfig(num_outputs=outputs, input_dim=input_dim,
                         hidden_size=hidden, dropout=dropout, init_seed=seed)
    model = RecurrentCtcModel(config)
    offset = 0
    for k in PARAM_ORDER:
        shape = model.params[k].shape
        size = model.params[k].size
        model.params[k] = flat[offset : offset + size].reshape(shape).copy()
        offset += size
    return model, epoch


# --- Adam ---------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0


def adam_init(params: dict) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(params: dict, grads: dict, state: AdamState, *,
              learning_rate: float = 1e-3) -> None:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    for k in sorted(params):
        g = grads[k]
        state.m[k] = ADAM_BETA1 * state.m[k] + (1.0 - ADAM_BETA1) * g
        state.v[k] = ADAM_BETA2 * state.v[k] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[k] / (1.0 - ADAM_BETA1**t)
        v_hat = state.v[k] / (1.0 - ADAM_BETA2**t)
        params[k] -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
