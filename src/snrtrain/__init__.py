"""SNR-controlled noise mixing and curriculum training toolkit.

Pieces: exact-SNR waveform mixing from a noise pool, seeded pink/white
noise synthesis, 123-dim filterbank features with Gaussian injection,
per-epoch training-set regeneration with audit manifests
(`pem.draw_and_render` is the one draw -> mix -> featurize path), SNR
curriculum schedules with a patience-driven stage controller, batched CTC
loss and gradient (`ctc_loss_and_grad`; one sequence is a batch of one)
with best-path decoding, a desk-scale recurrent trainer that frees each
epoch before it generates the next, and WER scoring with SNR-range
aggregation.
"""

from .audio import (CLEAN, NoisePool, Waveform, measure_snr_db, mix_at_snr,
                    mixing_gain, read_wav, rms, write_wav)
from .ctc import LabelAlphabet, best_path_decode, ctc_loss_and_grad
from .curriculum import (DEFAULT_SNR_GRID, Decision, Schedule, StageController,
                         build_stages, sample_snr)
from .errors import ComputeError, DataError
from .features import (FEATURE_DIM, NormStats, append_deltas, featurize_waveform,
                       fit_norm_stats, inject_gaussian, normalize)
from .noise import NoiseSpec, generate_noise, generate_pink, generate_white
from .pem import EpochConfig, EpochManifest, generate_epoch
from .task import SyntheticTask, Utterance, make_corpus, synth_utterance
from .trainer import TrainConfig, evaluate_condition_wer, train
from .wer import aggregate_ranges, corpus_wer, edit_distance, relative_improvement

__version__ = "0.1.0"
