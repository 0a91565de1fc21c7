"""Ablation (ours, beyond the paper) — constrained vs. plain K-Means.

DESIGN.md calls out the constrained clustering as a design choice worth
ablating: the size bounds guarantee that every region can be represented under
the per-component budget distribution.  The bench compares the battleship
selector run with the paper's cluster-size constraints (5%-15%) against a run
whose clusters are effectively unconstrained.
"""

from repro.active.selectors import BattleshipConfig, BattleshipSelector
from repro.evaluation.reporting import format_table
from repro.experiments.engine import get_dataset, run_single

_DATASET = "amazon_google"


def test_ablation_constrained_clustering(benchmark, bench_settings, write_report):
    dataset = get_dataset(_DATASET, bench_settings)

    def run_both():
        constrained = run_single(
            dataset,
            BattleshipSelector(BattleshipConfig(min_cluster_fraction=0.05,
                                                max_cluster_fraction=0.15)),
            bench_settings, random_state=bench_settings.base_random_seed)
        unconstrained = run_single(
            dataset,
            BattleshipSelector(BattleshipConfig(min_cluster_fraction=0.01,
                                                max_cluster_fraction=0.9)),
            bench_settings, random_state=bench_settings.base_random_seed)
        return constrained, unconstrained

    constrained, unconstrained = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        {"variant": "constrained_kmeans (paper)",
         "final_f1": round(constrained.final_f1 * 100, 2),
         "auc": round(constrained.learning_curve().auc(), 2)},
        {"variant": "unconstrained_clusters",
         "final_f1": round(unconstrained.final_f1 * 100, 2),
         "auc": round(unconstrained.learning_curve().auc(), 2)},
    ]
    # Both runs must complete; the constrained variant should be competitive.
    assert constrained.final_f1 > 0.0
    assert unconstrained.final_f1 > 0.0
    assert constrained.learning_curve().auc() >= unconstrained.learning_curve().auc() * 0.8
    write_report("ablation_clustering",
                 format_table(rows, title="Ablation — constrained vs. unconstrained "
                                          f"clustering ({_DATASET})"))
