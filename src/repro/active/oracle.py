"""Labeling oracles.

Active learning sends selected pairs to an oracle (Section 3.6).  The paper
assumes a perfect oracle; the remaining oracles model the annotator
imperfections Section 3.6 concedes exist in practice and are the oracle axis
of the scenario matrix (:mod:`repro.scenarios`):

* :class:`NoisyOracle` — answers flipped uniformly at random;
* :class:`ClassConditionalNoisyOracle` — asymmetric mistakes (different
  false-positive and false-negative rates), the "biased annotator";
* :class:`AbstainingOracle` — refuses to answer some queries, so the loop
  receives fewer labels than it paid for.

Oracles do not compose: each scenario picks one.  :class:`NoisyOracle` and
:class:`AbstainingOracle` take the gold answers from a
:class:`PerfectOracle` of their own through :meth:`LabelingOracle.peek`, the
hook that answers without counting a query, so each query is counted once.
"""

from __future__ import annotations

import abc

import numpy as np

from repro._rng import RandomState, ensure_rng, spawn_rng
from repro.data.dataset import EMDataset
from repro.exceptions import OracleError

#: Sentinel label returned by an oracle that declines to answer a query.
ABSTAIN = -1


class LabelingOracle(abc.ABC):
    """Answers label queries for candidate pairs (by dataset pair index)."""

    def __init__(self) -> None:
        self.num_queries = 0

    @abc.abstractmethod
    def _label(self, pair_index: int) -> int:
        """Return the label for ``pair_index`` (without bookkeeping)."""

    def peek(self, pair_index: int) -> int:
        """Answer without counting a query.

        :class:`NoisyOracle` and :class:`AbstainingOracle` count the query
        against themselves and get the gold answer here, so
        ``num_queries`` is billed once and no oracle reaches into another's
        private methods.
        """
        return self._label(pair_index)

    def query(self, pair_index: int) -> int:
        """Label a single pair, counting the query."""
        self.num_queries += 1
        return self._label(pair_index)

    def query_many(self, pair_indices: list[int] | np.ndarray) -> dict[int, int]:
        """Label many pairs at once; returns index → label.

        Duplicate indices are collapsed *before* querying, so every pair is
        asked (and counted against ``num_queries``) exactly once — previously
        duplicates were each counted as a query while the returned dict could
        only hold one entry per index.  Pairs the oracle abstains on
        (:data:`ABSTAIN`) are omitted from the result but still count as
        queries: the annotator was asked.
        """
        unique_indices = dict.fromkeys(int(index) for index in pair_indices)
        answers = {index: self.query(index) for index in unique_indices}
        return {index: label for index, label in answers.items()
                if label != ABSTAIN}


class PerfectOracle(LabelingOracle):
    """Returns the gold label of the dataset (the paper's assumption)."""

    def __init__(self, dataset: EMDataset) -> None:
        super().__init__()
        self._labels = dataset.pairs.labels()
        if np.any(self._labels < 0):
            raise OracleError(
                f"Dataset {dataset.name!r} has unlabeled pairs; a perfect oracle "
                "requires gold labels for every candidate pair"
            )

    def _label(self, pair_index: int) -> int:
        if not 0 <= pair_index < len(self._labels):
            raise OracleError(f"Pair index {pair_index} out of range")
        return int(self._labels[pair_index])


class NoisyOracle(LabelingOracle):
    """An oracle whose answers are flipped with a fixed probability.

    Section 3.6 notes that real annotators are biased; this oracle lets the
    experiments quantify the sensitivity of each selector to label noise.
    The flip is drawn per *query*, modelling an inconsistent annotator:
    asking the same pair twice may yield different answers.

    Parameters
    ----------
    dataset:
        Benchmark whose gold labels are flipped.
    flip_probability:
        Probability that any single answer is flipped.
    random_state:
        Seed or generator for the flip draws.
    """

    def __init__(self, dataset: EMDataset, flip_probability: float = 0.05,
                 random_state: RandomState = None) -> None:
        super().__init__()
        if not 0.0 <= flip_probability <= 1.0:
            raise OracleError("flip_probability must be in [0, 1]")
        self._base = PerfectOracle(dataset)
        self.flip_probability = flip_probability
        self._rng, = spawn_rng(ensure_rng(random_state), 1)

    def _label(self, pair_index: int) -> int:
        label = self._base.peek(pair_index)
        if self._rng.random() < self.flip_probability:
            return 1 - label
        return label


class ClassConditionalNoisyOracle(LabelingOracle):
    """An annotator whose error rate depends on the true class.

    Real annotators rarely err symmetrically: merging two near-identical
    product variants (a false positive) is a different mistake from missing a
    heavily corrupted true match (a false negative).  The flip decision is
    drawn *per pair* at construction from two independent child generators
    (one per class, derived with :func:`repro._rng.spawn_rng`), so the oracle
    is deterministic: the same pair always receives the same answer, no
    matter how often or in which order it is queried.

    Parameters
    ----------
    dataset:
        Benchmark whose gold labels are perturbed.
    false_positive_rate:
        Probability that a true non-match is reported as a match.
    false_negative_rate:
        Probability that a true match is reported as a non-match.
    random_state:
        Seed or generator for the per-pair flip masks.
    """

    def __init__(self, dataset: EMDataset, false_positive_rate: float = 0.1,
                 false_negative_rate: float = 0.1,
                 random_state: RandomState = None) -> None:
        super().__init__()
        for name, rate in (("false_positive_rate", false_positive_rate),
                           ("false_negative_rate", false_negative_rate)):
            if not 0.0 <= rate <= 1.0:
                raise OracleError(f"{name} must be in [0, 1]")
        self._labels = dataset.pairs.labels()
        if np.any(self._labels < 0):
            raise OracleError(
                f"Dataset {dataset.name!r} has unlabeled pairs; a "
                "class-conditional oracle requires gold labels")
        self.false_positive_rate = false_positive_rate
        self.false_negative_rate = false_negative_rate
        positive_rng, negative_rng = spawn_rng(ensure_rng(random_state), 2)
        positives = self._labels == 1
        flip = np.where(positives,
                        positive_rng.random(len(self._labels)) < false_negative_rate,
                        negative_rng.random(len(self._labels)) < false_positive_rate)
        self._answers = np.where(flip, 1 - self._labels, self._labels)

    def _label(self, pair_index: int) -> int:
        if not 0 <= pair_index < len(self._answers):
            raise OracleError(f"Pair index {pair_index} out of range")
        return int(self._answers[pair_index])


class AbstainingOracle(LabelingOracle):
    """An annotator who declines to answer a fixed subset of the pairs.

    Crowd workers skip examples they find ambiguous.  Which pairs are skipped
    is decided *per pair* at construction (via a child generator derived with
    :func:`repro._rng.spawn_rng`), so abstention is consistent: a pair the
    annotator refuses once is refused forever, and the active-learning loop
    receives fewer labels than its budget paid for on exactly those pairs.

    Parameters
    ----------
    dataset:
        Benchmark whose gold labels answer the queries not declined.
    abstain_probability:
        Fraction of pairs the annotator declines.
    random_state:
        Seed or generator for the abstention mask.
    """

    def __init__(self, dataset: EMDataset, abstain_probability: float = 0.1,
                 random_state: RandomState = None) -> None:
        super().__init__()
        if not 0.0 <= abstain_probability <= 1.0:
            raise OracleError("abstain_probability must be in [0, 1]")
        self._base = PerfectOracle(dataset)
        self.abstain_probability = abstain_probability
        self.num_abstentions = 0
        mask_rng, = spawn_rng(ensure_rng(random_state), 1)
        self._abstains = mask_rng.random(len(dataset.pairs)) < abstain_probability

    def query(self, pair_index: int) -> int:
        """Label a single pair, counting the query and any billed abstention.

        The abstention counter lives here (not in ``_label``) so that
        :meth:`peek` stays side-effect free, as its contract
        promises: only *billed* refusals count.
        """
        label = super().query(pair_index)
        if label == ABSTAIN:
            self.num_abstentions += 1
        return label

    def _label(self, pair_index: int) -> int:
        if not 0 <= pair_index < len(self._abstains):
            raise OracleError(f"Pair index {pair_index} out of range")
        if self._abstains[pair_index]:
            return ABSTAIN
        return self._base.peek(pair_index)
