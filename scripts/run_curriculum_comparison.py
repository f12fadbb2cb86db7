#!/usr/bin/env python3
"""Train curriculum / multi-condition / clean-only models on the synthetic
tone task and compare their WER at low test SNRs.

Each (seed, method) job is an experiment config trained into its own run
directory, OUT/<method>-s<seed>/. Rerunning with the same --out resumes
every job from its saved state; a finished job trains 0 epochs.

Example:
    python scripts/run_curriculum_comparison.py --seeds 1,2,3 --out comparison
"""

import argparse
import sys
import time

from snrtrain.experiments import ComparisonSpec, run_comparison


# the spec fields the script takes as options, each defaulting to the spec's
SETTINGS = ("num_train", "num_dev", "num_test", "hidden_size", "patience",
            "learning_rate")


def main(argv=None) -> int:
    defaults = ComparisonSpec()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default=",".join(map(str, defaults.seeds)),
                        help="comma-separated training seeds")
    for name in SETTINGS:
        default = getattr(defaults, name)
        parser.add_argument("--" + name.replace("_", "-"), type=type(default),
                            default=default)
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="directory of the jobs' run directories")
    args = parser.parse_args(argv)

    spec = ComparisonSpec(seeds=tuple(int(s) for s in args.seeds.split(",")),
                          **{name: getattr(args, name) for name in SETTINGS})
    start = time.time()
    result = run_comparison(spec, args.out, progress=print)
    print(f"\ntotal wall time {time.time() - start:.0f}s\n")
    for line in result.summary_lines():
        print(line)

    accan = result.low_snr_mean("accan")
    multicondition = result.low_snr_mean("multicondition")
    clean_at_0 = result.outcomes["clean_only"].mean_wer(0.0)
    print(f"\ncurriculum vs multicondition at low SNR: "
          f"{accan:.2f} vs {multicondition:.2f} "
          f"({'parity within slack' if accan <= multicondition + 2 else 'WORSE'})")
    print(f"clean-only at 0 dB: {clean_at_0:.2f} "
          f"(trained models better by "
          f"{clean_at_0 - result.outcomes['accan'].mean_wer(0.0):.1f} / "
          f"{clean_at_0 - result.outcomes['multicondition'].mean_wer(0.0):.1f} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
