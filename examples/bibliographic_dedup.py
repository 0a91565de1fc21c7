"""Bibliographic record linkage from CSV files (DBLP-Scholar style).

This example shows the full data path a downstream user would follow with
their own data:

1. export a benchmark to the standard CSV layout (stand-in for "your data"),
2. read the tables back and run a blocker to produce candidate pairs,
3. assemble an :class:`EMDataset` and run a short battleship campaign,
4. apply the trained matcher to score every candidate pair.

Run with::

    python examples/bibliographic_dedup.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.blocking import TokenBlocker, evaluate_blocking
from repro.core import ActiveLearningLoop, BattleshipSelector, MatcherConfig, load_benchmark
from repro.data import EMDataset, bibliographic_schema
from repro.data.io import export_dataset, read_pairs_csv, read_table_csv
from repro.neural.featurizer import FeaturizerConfig, PairFeaturizer


def main() -> None:
    # --- 1. "Your data": two bibliographic CSV files -------------------------
    source = load_benchmark("dblp_scholar", scale="tiny", random_state=3)
    with tempfile.TemporaryDirectory(prefix="repro_dblp_") as tmp:
        workdir = Path(tmp)
        files = export_dataset(source, workdir)
        print(f"Wrote benchmark CSVs to {workdir}")

        schema = bibliographic_schema()
        dblp = read_table_csv(files["tableA"], schema, name="dblp")
        scholar = read_table_csv(files["tableB"], schema, name="scholar")
        gold_pairs = read_pairs_csv(files["pairs"])
    print(f"Loaded {len(dblp)} DBLP records and {len(scholar)} Scholar records")

    # --- 2. Blocking ----------------------------------------------------------
    blocker = TokenBlocker(attributes=("title",), max_block_size=100)
    candidates = blocker.block(dblp, scholar)
    report = evaluate_blocking(candidates, gold_pairs, dblp, scholar)
    print(f"Blocking: {report.num_candidates} candidates, "
          f"pair completeness {report.pair_completeness:.2f}, "
          f"reduction ratio {report.reduction_ratio:.3f}")

    # --- 3. Low-resource active learning on the gold candidate set ----------
    dataset = EMDataset("dblp_scholar_csv", dblp, scholar, gold_pairs, random_state=3)
    matcher_config = MatcherConfig(hidden_dims=(96, 48), epochs=8, batch_size=16,
                                   learning_rate=2e-3, random_state=2)
    featurizer_config = FeaturizerConfig(hash_dim=128)
    loop = ActiveLearningLoop(
        dataset=dataset, selector=BattleshipSelector(), matcher_config=matcher_config,
        featurizer_config=featurizer_config, iterations=2, budget_per_iteration=20,
        seed_size=20, random_state=3,
    )
    result = loop.run()
    for record in result.records:
        print(f"  {record.num_labeled:>3} labels  test F1={record.f1 * 100:5.1f}%")

    # --- 4. Score every candidate pair with the final matcher ----------------
    matcher = loop.final_matcher_
    assert matcher is not None
    featurizer = PairFeaturizer(featurizer_config)
    unlabeled = [int(i) for i in dataset.train_indices
                 if not loop.final_state_.is_labeled(int(i))]
    scores = matcher.predict_proba(featurizer.transform(dataset, unlabeled))
    top = np.argsort(-scores)[:5]
    print("\nTop-scoring unlabeled candidate pairs (next review targets):")
    for position in top:
        pair = dataset.pairs[unlabeled[int(position)]]
        left, right = dataset.records_for(pair)
        print(f"  score={scores[position]:.3f}  '{left.value('title')[:40]}'  <->  "
              f"'{right.value('title')[:40]}'")


if __name__ == "__main__":
    main()
