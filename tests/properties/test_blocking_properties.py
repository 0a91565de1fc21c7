"""Property-based test for the batched token blocker.

``TokenBlocker.block`` must be *provably* a reimplementation of the seed
per-token path, not an approximation: it equals ``block_reference`` for any
stop-token cut-off and any internal left-row group size.

The example count stays low (each example builds tables and runs two
blockers) and ``deadline`` is off, following the conventions of
``test_properties.py``.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.blocking import token_blocking
from repro.blocking.token_blocking import TokenBlocker
from repro.data.record import Record, Table
from repro.data.schema import Attribute, AttributeType, Schema

_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
          "hotel", "india", "juliett", "kilo", "lima")

# Titles may be empty: blank records must never become candidates on either
# path.
_titles = st.lists(
    st.lists(st.sampled_from(_WORDS), min_size=0, max_size=6).map(
        lambda tokens: " ".join(tokens)),
    min_size=1, max_size=14)


def _table(name: str, titles: list[str]) -> Table:
    schema = Schema(attributes=(Attribute("title", AttributeType.TEXT),),
                    name=name)
    table = Table(name, schema)
    for index, title in enumerate(titles):
        table.add(Record(record_id=f"{name}{index}", values={"title": title}))
    return table


@settings(max_examples=20, deadline=None)
@given(left_titles=_titles, right_titles=_titles,
       max_block_size=st.integers(1, 12),
       group_rows=st.integers(1, 4))
def test_token_blocker_batched_equals_reference(
        left_titles, right_titles, max_block_size, group_rows):
    left = _table("l", left_titles)
    right = _table("r", right_titles)
    blocker = TokenBlocker(max_block_size=max_block_size)
    # Small groups split the join across several left-row groups, which the
    # default group size only does on tables of thousands of records.
    with mock.patch.object(token_blocking, "_BLOCK_GROUP_ROWS", group_rows):
        batched = blocker.block(left, right)
    assert batched == blocker.block_reference(left, right)
