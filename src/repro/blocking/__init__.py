"""Token blocking and blocking-quality metrics.

The paper assumes candidate pairs are given: a run starts from a benchmark's
candidate set.  Blocking is here for users who bring two raw tables, as
``examples/bibliographic_dedup.py`` does, and need candidates to score.
"""

from repro.blocking.evaluation import BlockingReport, evaluate_blocking
from repro.blocking.token_blocking import TokenBlocker

__all__ = ["BlockingReport", "TokenBlocker", "evaluate_blocking"]
