"""Builders for the paper's tables (3, 4, 5, 6).

Each function returns a list of flat row dictionaries (ready for
:func:`repro.evaluation.reporting.format_table`) and, where the paper reports
numbers, includes them next to the measured values.
"""

from __future__ import annotations

from repro.baselines.full_training import evaluate_zeroer, train_full_matcher
from repro.datasets.registry import PAPER_STATISTICS
from repro.evaluation.curves import LearningCurve
from repro.experiments.configs import ExperimentSettings, default_settings
from repro.experiments.engine import ExperimentEngine, get_dataset
from repro.experiments.paper_values import TABLE4_F1, TABLE5_AUC, TABLE6_ALPHA_F1
from repro.experiments.runner import enumerate_run_specs, resolve_engine, run_curve_grid


def table3_dataset_statistics(settings: ExperimentSettings | None = None) -> list[dict[str, object]]:
    """Table 3: dataset statistics (paper sizes next to generated sizes)."""
    settings = settings or default_settings()
    rows: list[dict[str, object]] = []
    for name in settings.datasets:
        dataset = get_dataset(name, settings)
        stats = dataset.statistics()
        paper = PAPER_STATISTICS[name]
        rows.append({
            "dataset": name,
            "paper_size": paper.train_size,
            "size": stats.num_train_pairs,
            "paper_pos": round(paper.positive_rate * 100, 1),
            "pos": round(stats.positive_rate * 100, 1),
            "paper_atts": paper.num_attributes,
            "atts": stats.num_attributes,
        })
    return rows


def _paper_f1_at(method: str, dataset: str, checkpoint_key: int) -> float | None:
    entry = TABLE4_F1.get(method, {}).get(dataset)
    if isinstance(entry, dict):
        return entry.get(checkpoint_key)
    return entry


def table4_f1_by_budget(
    curves: dict[str, dict[str, LearningCurve]],
    settings: ExperimentSettings,
    include_reference_models: bool = True,
) -> list[dict[str, object]]:
    """Table 4: F1 at the mid and final labeled-sample checkpoints.

    ``curves`` maps dataset → method → learning curve (as produced by
    :func:`repro.experiments.figures.figure5_learning_curves`).  The mid / final
    checkpoints play the role of the paper's 500 / 900 labeled samples.
    """
    mid, final = settings.mid_checkpoint, settings.final_checkpoint
    rows: list[dict[str, object]] = []
    for dataset_name, methods in curves.items():
        for method, curve in methods.items():
            rows.append({
                "dataset": dataset_name,
                "method": method,
                "labels_mid": mid,
                "f1_mid": round(curve.f1_at(mid) * 100, 2),
                "paper_f1_500": _paper_f1_at(method, dataset_name, 500),
                "labels_final": final,
                "f1_final": round(curve.f1_at(final) * 100, 2),
                "paper_f1_900": _paper_f1_at(method, dataset_name, 900),
            })
        if include_reference_models:
            rows.extend(_reference_model_rows(dataset_name, settings))
    return rows


def _reference_model_rows(dataset_name: str,
                          settings: ExperimentSettings) -> list[dict[str, object]]:
    """Full D and ZeroER rows of Table 4 for one dataset."""
    dataset = get_dataset(dataset_name, settings)
    full = train_full_matcher(dataset, settings.matcher_config, settings.featurizer_config)
    zero = evaluate_zeroer(dataset, random_state=settings.base_random_seed)
    full_paper = TABLE4_F1["full_d"].get(dataset_name)
    zero_paper = TABLE4_F1["zeroer"].get(dataset_name)
    return [
        {
            "dataset": dataset_name, "method": "full_d",
            "labels_mid": full.num_training_labels,
            "f1_mid": round(full.f1 * 100, 2), "paper_f1_500": full_paper,
            "labels_final": full.num_training_labels,
            "f1_final": round(full.f1 * 100, 2), "paper_f1_900": full_paper,
        },
        {
            "dataset": dataset_name, "method": "zeroer",
            "labels_mid": 0, "f1_mid": round(zero.f1 * 100, 2),
            "paper_f1_500": zero_paper,
            "labels_final": 0, "f1_final": round(zero.f1 * 100, 2),
            "paper_f1_900": zero_paper,
        },
    ]


def table5_auc(curves: dict[str, dict[str, LearningCurve]]) -> list[dict[str, object]]:
    """Table 5: AUC of the F1 learning curve per dataset and method."""
    rows: list[dict[str, object]] = []
    for dataset_name, methods in curves.items():
        for method, curve in methods.items():
            paper_value = TABLE5_AUC.get(method, {}).get(dataset_name)
            rows.append({
                "dataset": dataset_name,
                "method": method,
                "auc": round(curve.auc(), 2),
                "paper_auc": paper_value,
            })
    return rows


def table6_alpha_ablation(
    settings: ExperimentSettings,
    dataset_names: tuple[str, ...] | None = None,
    alphas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    engine: ExperimentEngine | None = None,
) -> list[dict[str, object]]:
    """Table 6: final battleship F1 for different α values (β fixed at 0.5)."""
    engine = resolve_engine(settings, engine)
    settings = engine.settings
    dataset_names = dataset_names or settings.datasets
    groups = {
        (dataset_name, alpha): enumerate_run_specs(
            dataset_name, "battleship", settings, alphas=(alpha,))
        for dataset_name in dataset_names
        for alpha in alphas
    }
    curves = run_curve_grid(groups, engine)
    rows: list[dict[str, object]] = []
    for dataset_name in dataset_names:
        row: dict[str, object] = {"dataset": dataset_name}
        for alpha in alphas:
            curve = curves[(dataset_name, alpha)]
            row[f"alpha_{alpha}"] = round(curve.final_f1 * 100, 2)
            row[f"paper_{alpha}"] = TABLE6_ALPHA_F1.get(dataset_name, {}).get(alpha)
        rows.append(row)
    return rows
