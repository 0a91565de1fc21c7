"""Visualization substrate: PCA and exact t-SNE (Figure 1)."""

from repro.visualization.projection import PCA
from repro.visualization.tsne import TSNE, TSNEConfig

__all__ = ["PCA", "TSNE", "TSNEConfig"]
