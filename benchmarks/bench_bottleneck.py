"""Benchmark: the Section 3.5 preference-vs-bottleneck analysis."""


def test_bottleneck(run_paper_experiment):
    run_paper_experiment("bottleneck")
