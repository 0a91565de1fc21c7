"""The battleship selector — the paper's primary contribution (Section 3).

Every iteration the selector:

1. splits the universe by the current matcher's predictions and builds three
   pair graphs over the pair representations (Section 3.3.3): ``G+`` over the
   pool pairs predicted *match*, ``G-`` over the pool pairs predicted
   *non-match*, and the heterogeneous graph ``G`` over everything (labeled and
   unlabeled);
2. clusters each node set with constrained K-Means before edge creation
   (Section 3.3.1) and connects ``q`` nearest neighbours per node plus the top
   share of remaining intra-cluster pairs (Section 3.3.2);
3. computes certainty scores on ``G`` (spatial entropy, Eqs. 3–4) and PageRank
   centrality on the connected components of ``G+`` / ``G-`` (Eq. 5);
4. splits the budget into ``B+`` / ``B-`` with the decaying positive schedule
   and distributes each over the connected components proportionally to their
   size (Eq. 2, Section 3.4);
5. inside each component, ranks nodes by the weighted combination of the
   certainty and centrality rankings (Eq. 6) and selects the component's
   budget worth of pairs;
6. optionally proposes weak labels: the *most spatially confident* pool pairs
   (minimizing Eq. 4), again distributed over the components (Section 3.7).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro._rng import ensure_rng, spawn_rng
from repro.active.budget import cap_budgets_by_size, distribute_budget, split_budget
from repro.active.selectors.base import SelectionContext, Selector
from repro.clustering.model_selection import cluster_representations
from repro.graphs.sparse import (
    SparseAdjacency,
    build_sparse_adjacency,
    certainty_scores_batch,
    pagerank_components,
)


@dataclass(frozen=True)
class BattleshipConfig:
    """Hyper-parameters of the battleship selector.

    Attributes
    ----------
    alpha:
        Weight of the certainty ranking against the centrality ranking in
        Eq. 6 (``alpha = 1`` is certainty only, ``0`` is centrality only).
    beta:
        Weight of the local (model) entropy against the spatial entropy in
        Eq. 4 (``beta = 1`` is model confidence only, ``0`` spatial only).
    num_neighbors:
        ``q``: nearest neighbours connected per node (the paper uses 15).
    extra_edge_ratio:
        Share of remaining intra-cluster pairs added as extra edges (3%).
    min_cluster_fraction / max_cluster_fraction:
        Cluster-size bounds relative to the node-set size (5%–15%).
    pagerank_damping:
        ``ρ`` of Eq. 5.
    positive_initial_share / positive_decay / positive_floor:
        Parameters of the positive-budget schedule ``B+ = B * max(initial -
        decay * i, floor)``.
    random_state:
        Seed of the clustering and of the residue draws of Eq. 2; each
        iteration offsets it by the iteration number.

    The defaults are the paper's values.  The experiment harness varies
    ``alpha`` and ``beta``, and the ablation benchmarks vary
    ``num_neighbors`` and the cluster fractions.
    """

    alpha: float = 0.5
    beta: float = 0.5
    num_neighbors: int = 15
    extra_edge_ratio: float = 0.03
    min_cluster_fraction: float = 0.05
    max_cluster_fraction: float = 0.15
    pagerank_damping: float = 0.85
    positive_initial_share: float = 0.8
    positive_decay: float = 0.05
    positive_floor: float = 0.5
    random_state: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.num_neighbors < 1:
            raise ValueError("num_neighbors must be >= 1")
        if not 0.0 <= self.extra_edge_ratio <= 1.0:
            raise ValueError("extra_edge_ratio must be in [0, 1]")
        if not 0.0 < self.min_cluster_fraction <= self.max_cluster_fraction <= 1.0:
            raise ValueError(
                "require 0 < min_cluster_fraction <= max_cluster_fraction <= 1")
        if not 0.0 < self.pagerank_damping < 1.0:
            raise ValueError("pagerank_damping must be in (0, 1)")


@dataclass
class _IterationArtifacts:
    """Scores and components computed once per iteration and shared by
    :meth:`BattleshipSelector.select` and :meth:`BattleshipSelector.select_weak`.
    Cached per context *object* (see :meth:`BattleshipSelector._prepare`)."""

    #: Certainty (Eq. 4) of every pool pair, in pool order.
    certainty: dict[int, float]
    positive_components: list[set[int]]
    negative_components: list[set[int]]
    #: PageRank (Eq. 5) of every node of G+ and G-, within its component.
    positive_centrality: dict[int, float]
    negative_centrality: dict[int, float]


class BattleshipSelector(Selector):
    """Space-aware active-learning selection for entity matching."""

    name = "battleship"

    def __init__(self, config: BattleshipConfig | None = None, **overrides: object) -> None:
        if config is None:
            config = BattleshipConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            raise ValueError("Pass either a config object or keyword overrides, not both")
        self.config = config
        self._artifacts: _IterationArtifacts | None = None
        self._artifacts_context: weakref.ref[SelectionContext] | None = None

    def reset(self) -> None:
        """Drop cached per-iteration artifacts (called at the start of a run)."""
        self._artifacts = None
        self._artifacts_context = None

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _build_graph(self, context: SelectionContext, positions: np.ndarray,
                     include_labels: bool, rng: np.random.Generator) -> SparseAdjacency:
        """Cluster the representations at ``positions`` and build their CSR pair graph."""
        if len(positions) == 0:
            return build_sparse_adjacency(
                np.zeros((0, 1)), [], [], [], [], [])
        representations = context.representations[positions]
        predictions = context.predictions[positions].copy()
        probabilities = context.probabilities[positions].copy()
        labeled = context.labeled_mask[positions] if include_labels else np.zeros(
            len(positions), dtype=bool)
        # Labeled nodes adopt their oracle label with full confidence.
        if include_labels:
            labels = context.labels[positions]
            labeled_positions = np.flatnonzero(labeled)
            predictions[labeled_positions] = labels[labeled_positions]
            probabilities[labeled_positions] = labels[labeled_positions].astype(np.float64)
        confidences = np.where(labeled, 1.0, np.maximum(probabilities, 1.0 - probabilities))

        if len(positions) >= 4:
            clustering, _ = cluster_representations(
                representations,
                min_fraction=self.config.min_cluster_fraction,
                max_fraction=self.config.max_cluster_fraction,
                random_state=rng,
            )
            cluster_labels = clustering.labels
        else:
            cluster_labels = np.zeros(len(positions), dtype=np.int64)

        return build_sparse_adjacency(
            representations=representations,
            node_ids=context.universe[positions],
            predictions=predictions,
            confidences=confidences,
            match_probabilities=probabilities,
            labeled_mask=labeled,
            cluster_labels=cluster_labels,
            num_neighbors=self.config.num_neighbors,
            extra_edge_ratio=self.config.extra_edge_ratio,
        )

    def _prepare(self, context: SelectionContext) -> _IterationArtifacts:
        """Build the iteration's graphs and keep their scores and components.

        The result is cached on the context *object* (not just its iteration
        number): a selector instance reused across runs or datasets would
        otherwise silently serve the previous run's scores whenever the
        iteration numbers coincide.
        """
        cached_context = (self._artifacts_context()
                          if self._artifacts_context is not None else None)
        if self._artifacts is not None and cached_context is context:
            return self._artifacts

        rng = ensure_rng(self.config.random_state + context.iteration)
        hetero_rng, plus_rng, minus_rng = spawn_rng(rng, 3)

        pool = context.pool_positions
        predictions = context.predictions
        heterogeneous = self._build_graph(context, np.arange(len(context.universe)),
                                          include_labels=True, rng=hetero_rng)
        positive_graph = self._build_graph(context, pool[predictions[pool] == 1],
                                           include_labels=False, rng=plus_rng)
        negative_graph = self._build_graph(context, pool[predictions[pool] == 0],
                                           include_labels=False, rng=minus_rng)

        # Certainty (Eq. 4) on the heterogeneous graph: one batched pass over
        # all nodes (rows of the heterogeneous adjacency are context rows),
        # kept for pool nodes only.
        certainty_values = certainty_scores_batch(heterogeneous, beta=self.config.beta)
        positive_components = positive_graph.components()
        negative_components = negative_graph.components()
        # Centrality (Eq. 5) per connected component of the prediction graphs,
        # by sparse power iteration over each component's edge arrays.
        artifacts = _IterationArtifacts(
            certainty=dict(zip(context.universe[pool].tolist(),
                               certainty_values[pool].tolist())),
            positive_components=positive_components,
            negative_components=negative_components,
            positive_centrality=pagerank_components(
                positive_graph, positive_components,
                damping=self.config.pagerank_damping),
            negative_centrality=pagerank_components(
                negative_graph, negative_components,
                damping=self.config.pagerank_damping),
        )
        self._artifacts = artifacts
        self._artifacts_context = weakref.ref(context)
        return artifacts

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    @staticmethod
    def _component_shares(components: list[set[int]], budget: int,
                          rng: np.random.Generator) -> list[tuple[set[int], int]]:
        """Each component with a share of ``budget`` (Eq. 2), capped at its size."""
        sizes = {component_id: len(component)
                 for component_id, component in enumerate(components)}
        shares = cap_budgets_by_size(
            distribute_budget(sizes, budget, random_state=rng), sizes)
        return [(component, shares[component_id])
                for component_id, component in enumerate(components)
                if shares[component_id] > 0]

    @staticmethod
    def _ranking(scores: dict[int, float]) -> dict[int, int]:
        """Rank node ids by descending score (rank 1 = highest score)."""
        ordered = sorted(scores, key=lambda node: scores[node], reverse=True)
        return {node: rank for rank, node in enumerate(ordered, start=1)}

    def _rank_component(self, component: set[int], certainty: dict[int, float],
                        centrality: dict[int, float]) -> list[int]:
        """The component's nodes by the weighted rank of Eq. 6, ties by node id."""
        certainty_rank = self._ranking({node: certainty[node] for node in component})
        centrality_rank = self._ranking({node: centrality[node] for node in component})
        combined = {
            node: (self.config.alpha * certainty_rank[node]
                   + (1.0 - self.config.alpha) * centrality_rank[node])
            for node in component
        }
        return sorted(component, key=lambda node: (combined[node], node))

    def select(self, context: SelectionContext) -> list[int]:
        if context.budget <= 0 or len(context.pool_positions) == 0:
            return []
        artifacts = self._prepare(context)

        positive_budget, negative_budget = split_budget(
            context.budget, context.iteration,
            initial_share=self.config.positive_initial_share,
            decay=self.config.positive_decay,
            floor=self.config.positive_floor,
        )
        selection_rng = ensure_rng(self.config.random_state + 1000 + context.iteration)
        selected: list[int] = []
        for components, centrality, budget in (
            (artifacts.positive_components, artifacts.positive_centrality,
             positive_budget),
            (artifacts.negative_components, artifacts.negative_centrality,
             negative_budget),
        ):
            for component, share in self._component_shares(components, budget,
                                                           selection_rng):
                selected.extend(self._rank_component(
                    component, artifacts.certainty, centrality)[:share])

        # Top up from the overall certainty ranking when one side could not
        # absorb its budget.
        if len(selected) < context.budget:
            taken = set(selected)
            fallback = [node for node in sorted(artifacts.certainty,
                                                key=lambda node: -artifacts.certainty[node])
                        if node not in taken]
            selected.extend(fallback[:context.budget - len(selected)])
        return selected

    # ------------------------------------------------------------------ #
    # Weak supervision (Section 3.7)
    # ------------------------------------------------------------------ #
    def select_weak(self, context: SelectionContext, budget: int) -> dict[int, int]:
        """The most spatially confident pool pairs (smallest Eq. 4), ``budget // 2``
        predicted matches and the rest predicted non-matches, spread over the
        components like the queries."""
        if budget <= 0:
            return {}
        artifacts = self._prepare(context)
        weak_rng = ensure_rng(self.config.random_state + 2000 + context.iteration)
        weak: dict[int, int] = {}
        for components, label, class_budget in (
            (artifacts.positive_components, 1, budget // 2),
            (artifacts.negative_components, 0, budget - budget // 2),
        ):
            for component, share in self._component_shares(components, class_budget,
                                                           weak_rng):
                ordered = sorted(component,
                                 key=lambda node: (artifacts.certainty[node], node))
                weak.update(dict.fromkeys(ordered[:share], label))
        return weak
