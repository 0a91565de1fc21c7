"""Nearest-neighbour search substrate: exact cosine top-k (FAISS stand-in)."""

from repro.ann.exact import ExactNearestNeighbors

__all__ = ["ExactNearestNeighbors"]
