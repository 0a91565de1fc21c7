"""Ablation (ours, beyond the paper) — graph connectivity q.

Section 3.3.2 discusses the trade-off in the number of nearest neighbours per
node: larger q gives more robust certainty estimates and better connectivity
but costs compute and can blur cluster margins.  The bench sweeps q on one
dataset and reports final F1, AUC, and selection runtime.
"""

import numpy as np

from repro.active.selectors import BattleshipConfig, BattleshipSelector
from repro.evaluation.reporting import format_table
from repro.experiments.engine import get_dataset, run_single

_DATASET = "amazon_google"
_Q_VALUES = (3, 8, 15)


def test_ablation_graph_connectivity(benchmark, bench_settings, write_report):
    dataset = get_dataset(_DATASET, bench_settings)

    def run_sweep():
        results = {}
        for q in _Q_VALUES:
            selector = BattleshipSelector(BattleshipConfig(num_neighbors=q))
            results[q] = run_single(dataset, selector, bench_settings,
                                    random_state=bench_settings.base_random_seed)
        return results

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = []
    for q, result in results.items():
        runtimes = result.selection_runtimes()
        rows.append({
            "q": q,
            "final_f1": round(result.final_f1 * 100, 2),
            "auc": round(result.learning_curve().auc(), 2),
            "mean_selection_s": round(float(np.mean(runtimes)) if runtimes else 0.0, 3),
        })
        assert result.final_f1 > 0.0
    write_report("ablation_graph_connectivity",
                 format_table(rows, title="Ablation — nearest-neighbour count q "
                                          f"({_DATASET})", float_format="{:.3f}"))
