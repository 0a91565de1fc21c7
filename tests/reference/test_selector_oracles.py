"""DAL, DIAL and DAL's weak labels against their per-class ranking loops.

Pools are drawn with 0-60 pairs, some of them labeled, and with match
probabilities from a handful of values, so uncertainty scores tie often and
the order among tied pairs is part of what is compared.  Some pools predict
only one class, which exercises the top-up from the overall ranking.
Budgets run past the pool size, odd values included, so the two class splits
(``round`` for queries, ``//`` for weak labels) both see odd budgets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import selectors as reference
from repro.active.selectors.base import SelectionContext, entropy_weak_selection
from repro.active.selectors.committee import CommitteeSelector
from repro.active.selectors.entropy import EntropySelector

#: Match probabilities the pools draw from, per shape of the pool.
_PROBABILITY_SETS = {
    "both": (0.02, 0.3, 0.5, 0.7, 0.98),
    "matches": (0.5, 0.6, 0.9),
    "non-matches": (0.05, 0.2, 0.4),
}


@st.composite
def pools(draw):
    """A selection context with a budget from 0 to the pool size plus 5."""
    num_pairs = draw(st.integers(0, 60))
    values = _PROBABILITY_SETS[draw(st.sampled_from(sorted(_PROBABILITY_SETS)))]
    labeled_share = draw(st.sampled_from((0.0, 0.3, 0.8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    labeled_mask = rng.random(num_pairs) < labeled_share
    return SelectionContext(
        iteration=0,
        budget=draw(st.integers(0, num_pairs + 5)),
        universe=rng.choice(10_000, size=num_pairs, replace=False),
        probabilities=rng.choice(values, size=num_pairs),
        representations=rng.normal(size=(num_pairs, 4)),
        labeled_mask=labeled_mask,
        labels=np.where(labeled_mask, rng.integers(0, 2, size=num_pairs), -1),
        rng=np.random.default_rng(0),
    )


@settings(max_examples=200, deadline=None)
@given(context=pools())
def test_entropy_selector_matches_oracle(context):
    assert EntropySelector().select(context) == reference.entropy_select(context)


@settings(max_examples=60, deadline=None)
@given(context=pools())
def test_committee_selector_matches_oracle(context):
    selector = CommitteeSelector()
    votes = selector._committee_votes(context)
    assert selector.select(context) == reference.committee_select(context, votes)


@settings(max_examples=200, deadline=None)
@given(context=pools(), extra=st.integers(0, 5))
def test_entropy_weak_selection_matches_oracle(context, extra):
    budget = context.budget + extra
    weak = entropy_weak_selection(context, budget)
    expected = reference.entropy_weak_selection(context, budget)
    assert weak == expected
    assert list(weak) == list(expected)
