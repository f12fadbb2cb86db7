from snrtrain.audio import CLEAN
from snrtrain.experiments import METHODS, ComparisonSpec, run_comparison

# one seed and one epoch per method: enough to exercise the reporting
TINY_SPEC = ComparisonSpec(num_train=8, num_dev=4, num_test=4, hidden_size=8,
                           seeds=(1,), test_snrs=(CLEAN, 0.0),
                           curriculum_max_epochs=1, multicondition_max_epochs=1,
                           clean_max_epochs=1, pool_seconds=10.0)


def test_comparison_reports_a_clean_test_condition():
    progress = []
    result = run_comparison(TINY_SPEC, progress=progress.append)
    assert [line.split(":")[0] for line in progress] == \
        [f"seed 1 {method}" for method in METHODS]
    assert all(", clean=" in line and ", 0dB=" in line for line in progress)
    lines = result.summary_lines()
    assert lines[0].split() == ["method", "clean", "0dB", "mean"]
    assert [line.split()[0] for line in lines[1:]] == list(METHODS)
