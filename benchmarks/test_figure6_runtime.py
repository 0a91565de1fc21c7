"""Figure 6 — battleship selection runtime per active-learning iteration.

The paper observes that the per-iteration runtime of the battleship approach
*decreases* over the learning course, because the prediction-based graphs are
built over a shrinking pool.  The bench records the measured selection time of
every iteration on two datasets and checks the decreasing trend (first half
vs. second half of the iterations).  A second bench scales the selection
substrate itself to a 5k-node pool and checks the vectorized CSR path beats
the seed dict path (the oracle in ``tests/reference/graphs.py``) on the
same graph.
"""

import numpy as np

from repro.evaluation.reporting import format_table
from repro.experiments.figures import figure6_runtime

_DATASETS = ("walmart_amazon", "amazon_google")


def test_figure6_runtime(benchmark, bench_settings, write_report):
    rows = benchmark.pedantic(figure6_runtime, args=(bench_settings, _DATASETS),
                              rounds=1, iterations=1)
    assert rows
    for dataset in _DATASETS:
        runtimes = [row["selection_seconds"] for row in rows if row["dataset"] == dataset]
        assert len(runtimes) == bench_settings.iterations
        assert all(seconds > 0 for seconds in runtimes)
        # Decreasing trend: the average of the later iterations should not
        # exceed the average of the earlier iterations by much.
        half = len(runtimes) // 2
        if half >= 1:
            early, late = np.mean(runtimes[:half]), np.mean(runtimes[half:])
            assert late <= early * 1.5
    write_report("figure6_runtime",
                 format_table(rows, title="Figure 6 — battleship selection runtime "
                                          "(seconds) per iteration", float_format="{:.3f}"))


def test_figure6_substrate_scaling_5k(substrate_scaling_5k, write_report):
    """Selection-substrate pass on a 5k-node pool: CSR path vs. seed path.

    The paper's scalability discussion rests on the graph substrate; the
    vectorized stack (argpartition q-NN builder, batched certainty, sparse
    per-component PageRank) must beat the dict-based seed stack while
    producing the same graph.  The shared session fixture provides the single
    timed measurement, whose speedup the micro-benchmark also reports.
    """
    measured = substrate_scaling_5k
    assert measured["vectorized_edges"] == measured["reference_edges"]
    rows = [
        {"path": "seed (dict)", "seconds": round(measured["reference_seconds"], 3),
         "edges": measured["reference_edges"]},
        {"path": "vectorized (CSR)",
         "seconds": round(measured["vectorized_seconds"], 3),
         "edges": measured["vectorized_edges"]},
    ]
    write_report("figure6_substrate_scaling",
                 format_table(rows, title=f"Figure 6 — substrate pass on a 5k-node "
                                          f"pool (speedup {measured['speedup']:.1f}x)"))
    assert measured["vectorized_seconds"] < measured["reference_seconds"], (
        "vectorized substrate did not beat the seed path")
