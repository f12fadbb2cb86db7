"""Where the traced run wraps snrtrain, and the per-layer metrics it yields.

Each function is wrapped at the name its caller binds: trainer.py imported
featurize_waveform by name, so trainer.featurize_waveform is wrapped as well
as features.featurize_waveform, which pem.py reaches through its module.
Methods are wrapped on their class. pem.pipeline_run is wrapped so that the
generate and consume callbacks the trainer hands it are traced too.
"""

from __future__ import annotations

from collections import defaultdict

from snrtrain import features, pem, trainer
from snrtrain.curriculum import Decision, StageController
from snrtrain.model import RecurrentCtcModel

from spans import Tracer, self_times

MAIN_THREAD = "MainThread"


def _frames(args, kwargs, result):
    return {"frames": int(result.shape[0])}


def _ctc_frames(args, kwargs, result):
    return {"frames": int(len(args[0]))}


def _batch_shape(args, kwargs, result):
    lengths = [len(f) for f in args[1]]
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return {"train": bool(train), "real": sum(lengths),
            "padded": max(lengths) * len(lengths)}


def _switch(args, kwargs, result):
    return {"switch": result is Decision.SWITCH_STAGE}


def instrument(tracer: Tracer) -> Tracer:
    """Install every wrapper; undo with tracer.close()."""
    tracer.wrap(pem, "mix_at_snr", "audio.mix")
    tracer.wrap(trainer, "mix_at_snr", "audio.mix")
    tracer.wrap(features, "featurize_waveform", "features.featurize", _frames)
    tracer.wrap(trainer, "featurize_waveform", "features.featurize", _frames)
    tracer.wrap(features, "normalize", "features.normalize")
    tracer.wrap(trainer, "normalize", "features.normalize")
    tracer.wrap(features, "inject_gaussian", "features.inject")
    tracer.wrap(pem, "generate_epoch", "pem.generate")
    tracer.wrap(pem, "fit_epoch_stats", "pem.fit_stats")
    tracer.wrap(pem.EpochManifest, "write", "pem.manifest_write")
    tracer.wrap(StageController, "advance", "curriculum.advance", _switch)
    tracer.wrap(trainer, "ctc_forward", "ctc.forward", _ctc_frames)
    tracer.wrap(trainer, "ctc_grad", "ctc.grad")
    tracer.wrap(trainer, "best_path_decode", "ctc.decode")
    tracer.wrap(RecurrentCtcModel, "forward_batch", "model.forward", _batch_shape)
    tracer.wrap(RecurrentCtcModel, "backward_batch", "model.backward")
    tracer.wrap(trainer, "adam_step", "model.adam")
    tracer.wrap(trainer, "corpus_wer", "wer.corpus")
    tracer.wrap(RecurrentCtcModel, "save_checkpoint", "trainer.checkpoint_write")
    tracer.wrap(trainer, "_save_state", "trainer.checkpoint_write")

    def traced_pipeline(original):
        run = tracer.traced(original, "pem.pipeline_run")

        def pipeline_run(controller, generate, consume, **kwargs):
            return run(controller, tracer.traced(generate, "trainer.generate"),
                       tracer.traced(consume, "trainer.consume"), **kwargs)

        return pipeline_run

    tracer.patch(pem, "pipeline_run", traced_pipeline)
    return tracer


# name -> unit, in report order
PER_LAYER_UNITS = {
    "audio.mix.calls": "count", "audio.mix.s": "s",
    "features.featurize.calls": "count", "features.featurize.s": "s",
    "features.frames": "count", "features.normalize.s": "s",
    "features.inject.s": "s",
    "pem.generate.calls": "count", "pem.generate.s": "s",
    "pem.generate.main.s": "s", "pem.generate.prefetch.s": "s",
    "pem.generate.consumed_ratio": "ratio", "pem.wait.s": "s",
    "pem.fit_stats.s": "s", "pem.manifest_write.s": "s",
    "curriculum.advance.calls": "count", "curriculum.stage_switches": "count",
    "ctc.forward.calls": "count", "ctc.forward.s": "s",
    "ctc.grad.calls": "count", "ctc.grad.s": "s", "ctc.frames": "count",
    "ctc.decode.s": "s",
    "model.forward_train.s": "s", "model.forward_eval.s": "s",
    "model.backward.s": "s", "model.adam.s": "s", "model.batches": "count",
    "model.pad_ratio": "ratio",
    "trainer.consume.s": "s", "trainer.consume.self_s": "s",
    "trainer.checkpoint_write.s": "s",
    "wer.corpus.calls": "count", "wer.corpus.s": "s",
}


def summarize(tracers) -> dict:
    """Per-layer metrics, averaged over the traced repetitions."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    total = defaultdict(float)
    for tracer in tracers:
        own = self_times(tracer.spans)
        for span in tracer.spans:
            calls[span.name] += 1
            busy[span.name] += span.duration
            if span.name == "pem.generate":
                side = "main" if span.thread == MAIN_THREAD else "prefetch"
                busy[f"pem.generate.{side}"] += span.duration
            elif span.name == "trainer.consume":
                total["consume_self"] += own[span]
            elif span.name == "model.forward":
                kind = "train" if span.info["train"] else "eval"
                busy[f"model.forward_{kind}"] += span.duration
                total["real"] += span.info["real"]
                total["padded"] += span.info["padded"]
            elif span.name == "curriculum.advance":
                total["switches"] += span.info["switch"]
            elif span.name in ("features.featurize", "ctc.forward"):
                total[f"{span.name}.frames"] += span.info["frames"]
        total["wait"] += _consume_gaps(tracer.spans)

    reps = len(tracers)
    generated = calls["pem.generate"]
    values = {
        "features.frames": total["features.featurize.frames"],
        "pem.generate.consumed_ratio": (calls["trainer.consume"] / generated
                                        if generated else 0.0),
        "pem.wait.s": total["wait"],
        "curriculum.stage_switches": total["switches"],
        "ctc.frames": total["ctc.forward.frames"],
        "model.batches": calls["model.forward"],
        "model.pad_ratio": ((total["padded"] - total["real"]) / total["real"]
                            if total["real"] else 0.0),
        "trainer.consume.self_s": total["consume_self"],
    }
    for name in PER_LAYER_UNITS:
        if name in values:
            continue
        stem, _, what = name.rpartition(".")
        values[name] = calls[stem] if what == "calls" else busy[stem]
    ratios = ("pem.generate.consumed_ratio", "model.pad_ratio")
    return {name: (values[name] if name in ratios else values[name] / reps)
            for name in PER_LAYER_UNITS}


def _consume_gaps(spans) -> float:
    """Main-thread time between one consume returning and the next starting,
    within each pipeline run."""
    runs = defaultdict(list)
    for span in spans:
        if span.name == "trainer.consume":
            runs[id(span.parent)].append(span)
    gaps = 0.0
    for consumed in runs.values():
        consumed.sort(key=lambda s: s.start)
        gaps += sum(b.start - a.end for a, b in zip(consumed, consumed[1:]))
    return gaps
