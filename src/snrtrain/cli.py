"""Command-line surface: mix, featurize, train, compare, score.

Exit codes: 0 success, 1 computational failure, 2 usage or input error.
All commands that draw randomness take an explicit seed; nothing reads the
wall clock.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments, features, pem, wer
from .audio import (CLEAN, NoisePool, Waveform, condition_key, measure_snr_db,
                    mix_at_snr, mixing_gain, read_wav, sample_segment_offset,
                    segment_at, write_wav)
from .curriculum import Decision
from .errors import ComputeError, DataError, write_atomic
from .noise import NoiseSpec, generate_pink
from .seeding import derived_rng


def cmd_mix(args) -> int:
    target = condition_key(args.snr)
    signal = read_wav(args.in_path)
    if args.noise == "pink":
        pool_wave = generate_pink(NoiseSpec("pink", len(signal),
                                            signal.sample_rate_hz, seed=args.seed))
        pool = NoisePool(pool_wave, pool_id="pink-synth")
    else:
        pool = NoisePool(read_wav(args.noise), pool_id=os.path.basename(args.noise))
    if target == CLEAN:
        mixed = mix_at_snr(signal, signal, CLEAN)
        print("gain=0 achieved_snr_db=clean")
    else:
        rng = derived_rng(args.seed, "mix")
        offset = sample_segment_offset(pool, len(signal), rng)
        segment = segment_at(pool, offset, len(signal))
        gain = mixing_gain(signal, segment, target)
        mixed = mix_at_snr(signal, segment, target)
        scaled = Waveform(gain * segment.samples, segment.sample_rate_hz)
        achieved = measure_snr_db(signal, scaled)
        print(f"gain={gain:.9g} noise_offset={offset} "
              f"achieved_snr_db={achieved:.9f}")
    write_wav(args.out_path, mixed, args.format)
    return 0


def cmd_featurize(args) -> int:
    if not (np.isfinite(args.sigma) and args.sigma >= 0):
        raise DataError(f"--sigma must be finite and >= 0, got {args.sigma}")
    waveform = read_wav(args.in_path)
    feats = features.featurize_waveform(waveform)
    if args.per_utt_stats:
        feats = features.normalize_per_utterance(feats)
    elif args.stats is not None:
        feats = features.normalize(feats, features.read_norm_stats(args.stats))
    if args.sigma > 0:
        if args.seed is None:
            raise DataError("--sigma > 0 requires --seed")
        feats = features.inject_gaussian(feats, args.sigma,
                                         derived_rng(args.seed, "inject"))
    features.write_feature_file(args.out_path, feats)
    checksum = pem.feature_checksum(np.ascontiguousarray(feats, dtype=np.float32))
    print(f"frames={feats.shape[0]} dim={feats.shape[1]} checksum={checksum}")
    return 0


def cmd_train(args) -> int:
    result, _, out_dir = experiments.run_experiment(args.config, args.stop_after)
    switches = sum(r.decision is Decision.SWITCH_STAGE for r in result.records)
    print(f"status={result.status} epochs={result.epochs_run} "
          f"stages_entered={1 + switches} "
          f"final_dev_wer={result.records[-1].dev_wer:.4f}")
    print(f"out_dir={out_dir}")
    return 0


def cmd_compare(args) -> int:
    spec, out_dir = experiments.read_comparison(args.config)
    result = experiments.run_comparison(spec, out_dir, progress=print)
    accan, multi = (result.low_snr_mean(m) for m in ("accan", "multicondition"))
    at_0 = {method: outcome.mean_wer(0.0) for method, outcome in result.outcomes.items()}
    print("", *result.summary_lines(), "", sep="\n")
    print(f"curriculum vs multicondition at low SNR: {accan:.2f} vs {multi:.2f} "
          f"({'parity within slack' if accan <= multi + 2 else 'WORSE'})")
    print(f"clean-only at 0 dB: {at_0['clean_only']:.2f} (trained models better by "
          f"{at_0['clean_only'] - at_0['accan']:.1f} / "
          f"{at_0['clean_only'] - at_0['multicondition']:.1f} points)")
    print(f"out_dir={out_dir}")
    return 0


def cmd_score(args) -> int:
    if not args.by_condition and (args.baseline is not None or args.prose_full):
        flag = "--baseline" if args.baseline is not None else "--prose-full"
        raise DataError(f"{flag} needs --by-condition")
    refs = wer.read_transcripts(args.ref)
    hyps = wer.read_transcripts(args.hyp)
    if args.by_condition:
        points = wer.wer_by_condition(refs, hyps)
        baseline = None if args.baseline is None else wer.read_baseline(args.baseline)
        report = wer.format_report(
            points, wer.aggregate_ranges(points, prose_full=args.prose_full),
            baseline, args.baseline or "")
    else:
        report = f"wer={wer.corpus_wer(refs, hyps):.4f}\n"
    if args.out is not None:
        write_atomic((args.out, report.encode("utf-8")))
    print(report, end="")
    return 0


FORMATS_HELP = """\
file formats (byte-exact):
  WAV         mono; 16-bit PCM (internal value = sample/32768) or 32-bit float
  FEAT        magic "FEAT" | u16 version=1 | u32 frames | u32 dim=123, then
              frames*dim row-major little-endian float32. Stats files use the
              same layout with exactly 2 rows: mean then std.
  checkpoint  magic "CKPT" | u16 version=1 | u32 input_dim | u32 hidden |
              u32 outputs | u64 init_seed | u32 epoch | u64 param_count, then
              little-endian float32 parameters in the order
              w_in, w_rec, b_rec, w_out, b_out.
  manifest    line 1 "# pem-manifest v1", "# epoch=<N>", "# config=<hex16>",
              then one utterance per line:
              id<TAB>offset<TAB>snr<TAB>seed<TAB>checksum
              (snr is a dB number or "clean"; checksum is 16 hex digits over
              the float32 little-endian feature bytes).
  transcripts one utterance per line: "<utt_id> <word> <word> ...". For
              per-condition scoring, ids carry "@<dB>" or "@clean" tags.
  schedule    declarative text, "key = value" per line, '#' comments; keys:
              kind, snr_min, snr_max, snr_step (or "grid = clean" for the
              clean-only grid), patience, max_epochs.
  experiment  JSON with keys master_seed, out_dir, corpus, noise, schedule,
              and optional features / trainer sections; schedule holds the
              schedule file's keys or is a path to a schedule text file. An
              unknown key at the top level or in any section exits 2.
  comparison  JSON with key out_dir and optional keys seeds (a nonempty list
              of integers), num_train, num_dev, num_test, hidden_size,
              patience, learning_rate; each (seed, method) job is an
              experiment file <out_dir>/<method>-s<seed>/experiment.json.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snrtrain",
        description="SNR-controlled noise mixing and curriculum training toolkit",
        epilog=FORMATS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mix = sub.add_parser("mix", help="mix a WAV with noise at an exact SNR")
    p_mix.add_argument("--in", dest="in_path", required=True, metavar="WAV")
    p_mix.add_argument("--noise", required=True,
                       help="noise WAV path, or 'pink' to synthesize")
    p_mix.add_argument("--snr", required=True,
                       help=f"target SNR in dB, or '{CLEAN}'")
    p_mix.add_argument("--seed", type=int, required=True)
    p_mix.add_argument("--out", dest="out_path", required=True, metavar="WAV")
    p_mix.add_argument("--format", choices=("float32", "int16"), default="float32")
    p_mix.set_defaults(func=cmd_mix)

    p_feat = sub.add_parser("featurize",
                            help="extract 123-dim filterbank features to a FEAT file")
    p_feat.add_argument("--in", dest="in_path", required=True, metavar="WAV")
    p_norm = p_feat.add_mutually_exclusive_group()
    p_norm.add_argument("--stats", default=None,
                        help="stats FEAT file (mean/std rows) to normalize with")
    p_norm.add_argument("--per-utt-stats", action="store_true",
                        help="normalize by this utterance's own statistics")
    p_feat.add_argument("--sigma", type=float, default=0.0,
                        help="feature-level Gaussian injection std")
    p_feat.add_argument("--seed", type=int, default=None)
    p_feat.add_argument("--out", dest="out_path", required=True, metavar="FEAT")
    p_feat.set_defaults(func=cmd_featurize)

    p_train = sub.add_parser("train", help="run a training experiment from a config")
    p_train.add_argument("--config", required=True, metavar="JSON")
    p_train.add_argument("--stop-after", type=int, default=None, metavar="N",
                         help="checkpoint and exit after N epochs (resume later)")
    p_train.set_defaults(func=cmd_train)

    p_compare = sub.add_parser("compare", help="train and score a curriculum comparison")
    p_compare.add_argument("--config", required=True, metavar="JSON")
    p_compare.set_defaults(func=cmd_compare)

    p_score = sub.add_parser("score", help="score hypotheses against references")
    p_score.add_argument("--ref", required=True)
    p_score.add_argument("--hyp", required=True)
    p_score.add_argument("--by-condition", action="store_true",
                         help="per-condition WER plus range aggregates "
                              "(ids tagged like utt@0, utt@clean)")
    p_score.add_argument("--prose-full", action="store_true",
                         help="14-point full-range mean (clean, 50..-10 dB)")
    p_score.add_argument("--baseline", default=None,
                         help="baseline report for relative-improvement lines")
    p_score.add_argument("--out", default=None, help="also write the report here")
    p_score.set_defaults(func=cmd_score)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:
        # an input or output path that cannot be opened: missing, a
        # directory, not a directory or not permitted
        if err.filename is None:
            raise
        reason = ("file not found" if isinstance(err, FileNotFoundError)
                  else err.strerror)
        print(f"error: {reason}: {err.filename}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ComputeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
