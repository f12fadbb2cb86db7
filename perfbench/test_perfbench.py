"""Tests of the benchmark itself: span arithmetic, wrapper removal, and that
tracing changes no result. Run with: python -m pytest perfbench"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import AccanResume, Checks, EvalSweep, McTrain  # noqa: E402

TINY = {
    "mc_train": McTrain(num_train=16, num_dev=6, num_test=4, epochs=2),
    "accan_resume": AccanResume(num_train=16, num_dev=6, num_test=4,
                                max_epochs=4, stop_after=2),
    "eval_sweep": EvalSweep(num_train=16, num_dev=6, num_test=4, train_epochs=1),
}


def test_self_time_subtracts_covered_child_time():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 3.0, parent=root)
    b = Span("b", 2.0, 5.0, parent=root)        # overlaps a: counted once
    c = Span("c", 8.0, 12.0, parent=root)       # clipped to the root's end
    leaf = Span("leaf", 1.5, 2.0, parent=a)     # a's child, not root's
    own = self_times([root, a, b, c, leaf])
    assert own[root] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[a] == pytest.approx(1.5)
    assert own[b] == pytest.approx(3.0)
    assert own[leaf] == pytest.approx(0.5)


def test_consume_gaps_and_consumed_ratio():
    tracer = Tracer()
    run = Span("pem.pipeline_run", 0.0, 10.0)
    tracer.spans = [
        run,
        Span("pem.generate", 0.0, 1.0, parent=run, thread="MainThread"),
        Span("trainer.consume", 1.0, 3.0, parent=run),
        Span("pem.generate", 1.0, 2.0, thread="prefetch"),
        Span("trainer.consume", 3.5, 6.0, parent=run),
        Span("pem.generate", 3.5, 4.5, thread="prefetch"),
    ]
    metrics = layers.summarize([tracer])
    assert metrics["pem.wait.s"] == pytest.approx(0.5)
    assert metrics["pem.generate.consumed_ratio"] == pytest.approx(2 / 3)
    assert metrics["pem.generate.main.s"] == pytest.approx(1.0)
    assert metrics["pem.generate.prefetch.s"] == pytest.approx(2.0)
    assert metrics["trainer.consume.s"] == pytest.approx(4.5)


def _bindings():
    owners = (layers.pem, layers.trainer, layers.features, layers.StageController,
              layers.RecurrentCtcModel, layers.pem.EpochManifest)
    return {(owner, name): value for owner in owners
            for name, value in vars(owner).items() if callable(value)}


def test_wrappers_are_removed_after_a_traced_run():
    before = _bindings()
    workload = TINY["mc_train"]
    state = workload.setup(3, None)
    with layers.instrument(Tracer()) as tracer:
        assert layers.trainer.ctc_forward is not before[(layers.trainer, "ctc_forward")]
        workload.run(state)
    assert not tracer.missing
    recorded = len(tracer.spans)
    assert recorded > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    workload.run(state)
    assert len(tracer.spans) == recorded


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reproduces_untraced_digest(name, tmp_path):
    workload = TINY[name]
    state = workload.setup(5, str(tmp_path))
    plain = workload.run(state)
    with layers.instrument(Tracer()) as tracer:
        traced = workload.run(state)
    assert traced.digest == plain.digest
    checks = Checks()
    workload.check(state, traced, checks)
    assert checks.attempted > 0 and not checks.failures

    metrics = layers.summarize([tracer])
    if name == "eval_sweep":
        for bypassed in ("ctc.forward.calls", "ctc.grad.calls", "pem.generate.calls"):
            assert metrics[bypassed] == 0
    else:
        assert metrics["ctc.forward.calls"] == plain.utterances
        assert 0 < metrics["pem.generate.consumed_ratio"] < 1
