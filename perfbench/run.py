#!/usr/bin/env python3
"""snrtrain benchmark: one workload per process, from a seed.

    python3 perfbench/run.py --workload mc_train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; snrtrain is imported from its src/. The
workloads and why each exists are described in perfbench/workloads.py.

--trace 0 measures the end-to-end metrics: set-up is repeated and its median
taken, then the workload's repetition runs until --seconds have passed and
utts_per_s is the median over repetitions. --trace 1 is a separate run that
alternates untraced and traced repetitions, reports the per-layer metrics
from the traced ones (see layers.py), the tracing overhead, and writes the
spans to .bench_out/. Both modes check the outputs outside the timed region
and print, before the final JSON line, a report with every metric and its
unit, the machine, the output digest and whether it matches the pinned
golden digest (perfbench/golden.json, for the default seed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
SETUP_REPEATS = 3
MIN_REPS = 3
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_snrtrain() -> float:
    """Import snrtrain from the checkout's src/; returns the seconds taken."""
    if not (ROOT / "src" / "snrtrain" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/snrtrain under {ROOT}; "
                         "run from a checkout of the repository")
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import snrtrain  # noqa: F401
    import layers  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - start


def blas_runtime() -> dict:
    """OpenBLAS configuration and thread count as numpy's bundled library
    reports them at run time; empty when it cannot be queried."""
    import ctypes

    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for suffix in ("64_", ""):
            threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(handle, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"config": config().decode(), "threads": threads()}
    return {}


def machine(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas.get("openblas configuration") or
                      f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": blas_runtime(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
    }


def set_up(workload, seed: int, workdir: str):
    """Run set-up SETUP_REPEATS times; returns (last state, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
    return state, statistics.median(times)


def measure(workload, state, seconds: float, trace: bool):
    """Repeat the workload for `seconds`. With trace, alternate untraced and
    traced repetitions. Returns (untraced reps, traced reps, tracers)."""
    from layers import instrument
    from spans import Tracer

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(traced) < len(plain) else None
        with (instrument(tracer) if tracer else contextlib.nullcontext()):
            t0 = time.perf_counter()
            rep = workload.run(state)
            rep.wall = time.perf_counter() - t0
        (traced if tracer else plain).append(rep)
        if tracer:
            tracers.append(tracer)
        done = len(plain) + len(traced)
        if done >= MIN_REPS and (not trace or traced) and (
                time.perf_counter() - start + rep.wall > seconds):
            return plain, traced, tracers


def rate(reps) -> float:
    return statistics.median(rep.utterances / rep.wall for rep in reps)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_snrtrain()
    from layers import PER_LAYER_UNITS, summarize
    from workloads import WORKLOADS, Checks

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {w["name"] for w in spec["workloads"]}
    if args.workload not in declared or args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(declared)}")
    workload = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        state, setup_s = set_up(workload, args.seed, workdir)
        plain, traced, tracers = measure(workload, state, args.seconds,
                                         bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = Checks()
        for rep in plain + traced:
            checks.expect(rep.digest == plain[0].digest,
                          f"repetitions disagree: {rep.digest} != {plain[0].digest}")
        quality = workload.check(state, plain[-1], checks)
        if traced:
            quality = workload.check(state, traced[-1], checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = {
        "utts_per_s": (rate(plain), "1/s"),
        "setup_s": (import_s + setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    layer = {name: (value, PER_LAYER_UNITS[name])
             for name, value in summarize(tracers).items()} if traced else {}
    extra = {
        "dev_wer_best": (quality["dev_wer_best"], "%"),
        "test_wer_full": (quality["test_wer_full"], "%"),
        "failed_ratio": (len(checks.failures) / checks.attempted, "ratio"),
    }
    if traced:
        overhead = rate(traced) - rate(plain)
        layer["trace.overhead_utts_per_s"] = (overhead, "1/s")
        for i, tracer in enumerate(tracers):
            tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}-rep{i}.jsonl")

    report(args, workload, plain, traced, tracers, measured, layer, extra, checks)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    available = {**measured, **layer, **extra}
    metrics = {}
    for entry in wanted:
        value, unit = available[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"error: {entry['name']} measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


def report(args, workload, plain, traced, tracers, measured, layer, extra, checks):
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine(args.seed), sort_keys=True))
    walls = ", ".join(f"{rep.wall:.3f}" for rep in plain)
    print(f"untraced reps {len(plain)}: wall s [{walls}]")
    if traced:
        walls = ", ".join(f"{rep.wall:.3f}" for rep in traced)
        print(f"traced reps {len(traced)}: wall s [{walls}]")
        missing = sorted({m for t in tracers for m in t.missing})
        if missing:
            print("not traced (absent): " + ", ".join(missing))
    for name, (value, unit) in {**measured, **extra, **layer}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"checks attempted {checks.attempted} failed {len(checks.failures)}")
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}")
    digest = plain[0].digest
    print(f"digest {digest}")
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if args.seed == golden["seed"]:
        pinned = golden["digests"].get(workload.name)
        print(f"bit_identical {digest == pinned} (pinned {pinned})")
    else:
        print(f"bit_identical n/a (digests are pinned for seed {golden['seed']})")


if __name__ == "__main__":
    sys.exit(main())
