"""The active-learning loop (Figure 3 of the paper).

:class:`ActiveLearningLoop` orchestrates one full run: seed the labeled set,
then for every iteration train the matcher from scratch on the labeled (+weak)
set, evaluate on the held-out test split, hand the matcher's probabilities and
pair representations to the selector, send the selected pairs to the oracle,
and refresh the weak labels.  The loop records an
:class:`IterationRecord` per iteration; the experiment harness aggregates the
records into the paper's figures and tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro._rng import RandomState, ensure_rng, spawn_rng
from repro.active.oracle import LabelingOracle, PerfectOracle
from repro.active.selectors.base import SelectionContext, Selector
from repro.active.state import ActiveLearningState
from repro.active.weak_supervision import WeakSupervisionMode, resolve_mode, select_weak_labels
from repro.data.dataset import EMDataset
from repro.evaluation.curves import LearningCurve
from repro.evaluation.metrics import MatchingMetrics, matching_metrics
from repro.exceptions import BudgetError, ConfigurationError
from repro.neural.featurizer import FeaturizerConfig, PairFeaturizer
from repro.neural.matcher import MatcherConfig, NeuralMatcher


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics of one active-learning iteration.

    ``train_seconds`` and ``selection_seconds`` are wall-clock measurements
    of the run that produced the record.  They take no part in equality and
    stay out of :meth:`to_dict`, so a result depends on its run's inputs
    alone; a record loaded from an artifact reads 0.0 for both.
    """

    iteration: int
    num_labeled: int
    num_weak: int
    num_labeled_positives: int
    test_metrics: MatchingMetrics
    train_seconds: float = field(default=0.0, compare=False)
    selection_seconds: float = field(default=0.0, compare=False)

    @property
    def f1(self) -> float:
        return self.test_metrics.f1

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation without the timings (artifact format)."""
        return {
            "iteration": self.iteration,
            "num_labeled": self.num_labeled,
            "num_weak": self.num_weak,
            "num_labeled_positives": self.num_labeled_positives,
            "test_metrics": self.test_metrics.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "IterationRecord":
        """Inverse of :meth:`to_dict`.

        Artifacts written before the timings left the payload still carry
        ``train_seconds``/``selection_seconds``; those keys are ignored.
        """
        return cls(
            iteration=int(payload["iteration"]),
            num_labeled=int(payload["num_labeled"]),
            num_weak=int(payload["num_weak"]),
            num_labeled_positives=int(payload["num_labeled_positives"]),
            test_metrics=MatchingMetrics.from_dict(payload["test_metrics"]),
        )


@dataclass
class ActiveLearningResult:
    """Outcome of one complete active-learning run."""

    dataset_name: str
    selector_name: str
    records: list[IterationRecord] = field(default_factory=list)

    @property
    def final_f1(self) -> float:
        return self.records[-1].f1 if self.records else 0.0

    def learning_curve(self) -> LearningCurve:
        """F1 versus the cumulative number of labeled samples."""
        curve = LearningCurve()
        for record in self.records:
            curve.add(record.num_labeled, record.f1)
        return curve

    def selection_runtimes(self) -> list[float]:
        """Selection wall-clock seconds per iteration (Figure 6).

        Empty for a loaded result: artifacts store no timings.
        """
        return [record.selection_seconds for record in self.records
                if record.selection_seconds > 0.0]

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (artifact-store format)."""
        return {
            "dataset_name": self.dataset_name,
            "selector_name": self.selector_name,
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ActiveLearningResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            dataset_name=str(payload["dataset_name"]),
            selector_name=str(payload["selector_name"]),
            records=[IterationRecord.from_dict(record)
                     for record in payload["records"]],
        )

    def as_rows(self) -> list[dict[str, object]]:
        """Flat rows for report tables."""
        return [
            {
                "dataset": self.dataset_name,
                "selector": self.selector_name,
                "iteration": record.iteration,
                "labeled": record.num_labeled,
                "weak": record.num_weak,
                "f1": round(record.f1 * 100.0, 2),
                "precision": round(record.test_metrics.precision * 100.0, 2),
                "recall": round(record.test_metrics.recall * 100.0, 2),
                "select_s": round(record.selection_seconds, 3),
                "train_s": round(record.train_seconds, 3),
            }
            for record in self.records
        ]


class ActiveLearningLoop:
    """Runs active learning for one (dataset, selector) combination.

    Parameters
    ----------
    dataset:
        The benchmark; its train split is the active-learning universe ``D``,
        its validation split drives matcher model selection, and its test
        split is used only for reporting.
    selector:
        The sample-selection strategy.
    oracle:
        Labeling oracle (defaults to a perfect oracle over the gold labels).
    matcher_config / featurizer_config:
        Hyper-parameters of the DITTO stand-in.
    iterations:
        ``I``: number of selection rounds (the matcher is trained
        ``iterations + 1`` times, once per labeled-set size).
    budget_per_iteration:
        ``B``: labels requested from the oracle per iteration.
    seed_size:
        Size of the labeled initialization seed ``D_train_0`` (half matches,
        half non-matches); defaults to ``budget_per_iteration``.
    weak_supervision:
        Weak-supervision mode (Section 3.7); each iteration proposes up to
        ``budget_per_iteration`` weak labels.
    features:
        Optional precomputed feature matrix for *all* candidate pairs of
        ``dataset`` (as produced by ``PairFeaturizer(featurizer_config)
        .transform(dataset)``).  The featurizer is stateless, so a matrix
        computed once — e.g. by the experiment engine's feature cache — can
        be shared by every run touching the dataset; when omitted the loop
        featurizes the dataset itself on first use.
    """

    def __init__(
        self,
        dataset: EMDataset,
        selector: Selector,
        oracle: LabelingOracle | None = None,
        matcher_config: MatcherConfig | None = None,
        featurizer_config: FeaturizerConfig | None = None,
        iterations: int = 8,
        budget_per_iteration: int = 100,
        seed_size: int | None = None,
        weak_supervision: WeakSupervisionMode | str | None = WeakSupervisionMode.SELECTOR,
        random_state: RandomState = None,
        features: np.ndarray | None = None,
    ) -> None:
        if iterations < 0:
            raise BudgetError("iterations must be >= 0")
        if budget_per_iteration <= 0:
            raise BudgetError("budget_per_iteration must be positive")
        self.dataset = dataset
        self.selector = selector
        self.oracle = oracle or PerfectOracle(dataset)
        self.matcher_config = matcher_config or MatcherConfig()
        self.featurizer = PairFeaturizer(featurizer_config)
        self.iterations = iterations
        self.budget_per_iteration = budget_per_iteration
        self.seed_size = seed_size if seed_size is not None else budget_per_iteration
        self.weak_mode = resolve_mode(weak_supervision)
        self._rng = ensure_rng(random_state)

        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            expected = (len(dataset.pairs), self.featurizer.feature_dim(dataset))
            if features.shape != expected:
                raise ConfigurationError(
                    f"Precomputed feature matrix has shape {features.shape}, "
                    f"but dataset {dataset.name!r} with this featurizer "
                    f"config requires {expected}")
        self._features = features
        #: The matcher trained in the final iteration (available after run()).
        self.final_matcher_: NeuralMatcher | None = None
        #: The labeling state at the end of the run (available after run()).
        self.final_state_: ActiveLearningState | None = None

    # ------------------------------------------------------------------ #
    # Setup helpers
    # ------------------------------------------------------------------ #
    def _ensure_features(self) -> np.ndarray:
        """Featurize the whole dataset once (the featurizer is stateless).

        A matrix passed through the ``features`` constructor argument is used
        as-is; otherwise the dataset is featurized on first call.
        """
        if self._features is None:
            self._features = self.featurizer.transform(self.dataset)
        return self._features

    def _initial_seed(self, universe: np.ndarray, rng: np.random.Generator) -> dict[int, int]:
        """Labeled initialization seed: half matches, half non-matches.

        An abstaining oracle may decline some of the chosen pairs, in which
        case the seed simply ends up smaller — exactly as a real campaign
        would when annotators skip examples.
        """
        labels = self.dataset.labels(universe)
        positives = universe[labels == 1]
        negatives = universe[labels == 0]
        per_class = self.seed_size // 2
        num_positive = min(per_class, len(positives))
        num_negative = min(self.seed_size - num_positive, len(negatives))
        chosen_positive = rng.choice(positives, size=num_positive, replace=False)
        chosen_negative = rng.choice(negatives, size=num_negative, replace=False)
        return self.oracle.query_many(
            np.concatenate([chosen_positive, chosen_negative]))

    def _train_matcher(self, state: ActiveLearningState, features: np.ndarray,
                       iteration: int) -> tuple[NeuralMatcher, float]:
        """Train a fresh matcher on the current labeled (+weak) training set."""
        train_indices, train_labels = state.training_set()
        validation_indices = self.dataset.validation_indices
        validation_labels = self.dataset.labels(validation_indices)
        config = replace(self.matcher_config,
                         random_state=self.matcher_config.random_state + iteration)
        matcher = NeuralMatcher(input_dim=features.shape[1], config=config)
        start = time.perf_counter()
        matcher.fit(
            features[train_indices], train_labels,
            validation_features=features[validation_indices],
            validation_labels=validation_labels,
        )
        return matcher, time.perf_counter() - start

    def _evaluate(self, matcher: NeuralMatcher, features: np.ndarray) -> MatchingMetrics:
        test_indices = self.dataset.test_indices
        predictions = matcher.predict(features[test_indices])
        return matching_metrics(self.dataset.labels(test_indices), predictions)

    def _build_context(self, matcher: NeuralMatcher, state: ActiveLearningState,
                       features: np.ndarray, iteration: int,
                       rng: np.random.Generator) -> SelectionContext:
        universe = state.universe
        probabilities, representations = matcher.predict_with_representations(
            features[universe])
        labels = state.label_array(universe)
        labeled_mask = labels >= 0
        return SelectionContext(
            iteration=iteration,
            budget=self.budget_per_iteration,
            universe=universe,
            probabilities=probabilities,
            representations=representations,
            labeled_mask=labeled_mask,
            labels=labels,
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> ActiveLearningResult:
        """Execute the complete active-learning run."""
        # A fresh run must not see cached artifacts from a previous run (the
        # iteration numbers coincide, the data does not).
        self.selector.reset()
        features = self._ensure_features()
        universe = np.asarray(self.dataset.train_indices, dtype=np.int64)
        seed_rng, loop_rng = spawn_rng(self._rng, 2)

        state = ActiveLearningState(universe=universe)
        state.add_labels(self._initial_seed(universe, seed_rng))

        result = ActiveLearningResult(
            dataset_name=self.dataset.name,
            selector_name=self.selector.name,
        )
        # Pairs the oracle declined to label.  Abstention is per-pair
        # consistent (see AbstainingOracle), so re-querying a refused pair
        # would burn budget on an answer that is deterministically refused.
        refused: set[int] = set()

        for iteration in range(self.iterations + 1):
            matcher, train_seconds = self._train_matcher(state, features, iteration)
            metrics = self._evaluate(matcher, features)

            # Snapshot how much supervision the matcher of this iteration saw;
            # labels added below only affect the next iteration's matcher.
            num_labeled_at_training = state.num_labeled
            num_weak_at_training = len(state.weak_labels)
            num_positives_at_training = len(state.labeled_positives())

            selection_seconds = 0.0
            if iteration < self.iterations and state.num_pool > 0:
                context_rng, = spawn_rng(loop_rng, 1)
                context = self._build_context(matcher, state, features, iteration,
                                              context_rng)
                start = time.perf_counter()
                selected = self.selector.select(context)
                weak = select_weak_labels(self.weak_mode, self.selector, context,
                                          self.budget_per_iteration)
                selection_seconds = time.perf_counter() - start

                selected = [int(index) for index in selected
                            if not state.is_labeled(int(index))
                            and int(index) not in refused]
                selected = selected[:self.budget_per_iteration]
                new_labels = self.oracle.query_many(selected)
                refused.update(set(selected) - set(new_labels))
                state.add_labels(new_labels)
                state.set_weak_labels(weak)

            result.records.append(IterationRecord(
                iteration=iteration,
                num_labeled=num_labeled_at_training,
                num_weak=num_weak_at_training,
                num_labeled_positives=num_positives_at_training,
                test_metrics=metrics,
                train_seconds=train_seconds,
                selection_seconds=selection_seconds,
            ))
            self.final_matcher_ = matcher
        self.final_state_ = state
        return result
