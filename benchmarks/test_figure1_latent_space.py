"""Figure 1 — match pairs concentrate in the latent space of a trained matcher.

The paper visualizes t-SNE projections of pair representations for
Amazon-Google and Walmart-Amazon.  The bench quantifies the phenomenon: the
fraction of nearest neighbours sharing a pair's label must far exceed the
positive rate, and match pairs must sit closer to the match centroid than to
the non-match centroid.  At ``tiny`` scale the agreement is also pinned at
full precision, which the tracked table (two decimals) does not resolve.
"""

from repro.evaluation.reporting import format_table
from repro.experiments.figures import figure1_latent_space

#: ``knn_label_agreement`` per dataset at ``tiny``, the harness's default scale.
TINY_AGREEMENT = {"amazon_google": 0.9724, "walmart_amazon": 1.0}


def test_figure1_latent_space(benchmark, bench_settings, write_report):
    def build():
        return [
            figure1_latent_space(name, bench_settings, max_points=250, run_tsne=True)
            for name in ("amazon_google", "walmart_amazon")
        ]

    reports = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [report.as_row() for report in reports]
    for report in reports:
        # Concentration: neighbours agree on the label far more often than the
        # base positive rate would imply.
        assert report.knn_label_agreement > max(0.6, report.positive_rate)
        # Match pairs cluster: closer to their own centroid.
        assert report.match_centroid_distance_ratio < 1.0
        # The 2-D embedding was produced.
        assert report.embedding.shape[1] == 2
    if bench_settings.scale.name == "tiny":
        assert {report.dataset: report.knn_label_agreement
                for report in reports} == TINY_AGREEMENT
    write_report("figure1_latent_space",
                 format_table(rows, title="Figure 1 — latent-space concentration "
                                          "of match pairs (fully trained matcher)"))
