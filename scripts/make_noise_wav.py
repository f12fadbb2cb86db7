#!/usr/bin/env python3
"""Write a seeded pink or white noise pool to a WAV file.

Example:
    python scripts/make_noise_wav.py --kind pink --seconds 60 --seed 7 pool.wav
"""

import argparse
import math
import sys

from snrtrain.audio import write_wav
from snrtrain.errors import DataError
from snrtrain.noise import NoiseSpec, generate_noise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", help="output WAV path")
    parser.add_argument("--kind", choices=("pink", "white"), default="pink")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--sample-rate", type=int, default=16000)
    parser.add_argument("--rms", type=float, default=0.1)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--format", choices=("float32", "int16"),
                        default="float32")
    args = parser.parse_args(argv)

    try:
        if not (math.isfinite(args.seconds) and args.seconds > 0):
            raise DataError(f"--seconds must be finite and > 0, got {args.seconds:g}")
        spec = NoiseSpec(args.kind, int(round(args.seconds * args.sample_rate)),
                         args.sample_rate, target_rms=args.rms, seed=args.seed)
        write_wav(args.out, generate_noise(spec), args.format)
    except DataError as err:  # exit 2 with one line, as the snrtrain CLI does
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"wrote {args.kind} noise: {args.seconds:g}s at {args.sample_rate} Hz, "
          f"rms {args.rms:g} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
