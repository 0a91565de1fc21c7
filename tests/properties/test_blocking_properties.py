"""Property-based test for the token blocker.

``TokenBlocker.block`` must return exactly the pairs of a brute-force
pairwise definition: a left and a right record are a candidate when they
share a token of at least ``min_token_length`` characters that occurs in at
most ``max_block_size`` records of each table.

The example count stays low (each example builds tables and compares every
record pair) and ``deadline`` is off, following the conventions of
``test_properties.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.blocking.token_blocking import TokenBlocker
from repro.data.record import Record, Table
from repro.data.schema import Attribute, AttributeType, Schema
from repro.text.tokenization import tokenize

_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
          "hotel", "india", "juliett", "kilo", "lima", "a", "io", "ox", "sky")

# Titles may be empty: blank records must never become candidates.
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


def _pairwise_candidates(left: Table, right: Table, max_block_size: int,
                         min_token_length: int) -> set[tuple[str, str]]:
    def keys(table: Table) -> dict[str, set[str]]:
        return {record.record_id: {token for token in tokenize(record.text())
                                   if len(token) >= min_token_length}
                for record in table}

    def rare(token: str, table_keys: dict[str, set[str]]) -> bool:
        return sum(token in tokens for tokens in table_keys.values()) <= max_block_size

    left_keys, right_keys = keys(left), keys(right)
    return {(left_id, right_id)
            for left_id, left_tokens in left_keys.items()
            for right_id, right_tokens in right_keys.items()
            if any(rare(token, left_keys) and rare(token, right_keys)
                   for token in left_tokens & right_tokens)}


@settings(max_examples=40, deadline=None)
@given(left_titles=_titles, right_titles=_titles,
       max_block_size=st.integers(1, 12),
       min_token_length=st.integers(1, 5))
def test_token_blocker_matches_pairwise_definition(
        left_titles, right_titles, max_block_size, min_token_length):
    left = _table("l", left_titles)
    right = _table("r", right_titles)
    blocker = TokenBlocker(max_block_size=max_block_size,
                           min_token_length=min_token_length)
    assert blocker.block(left, right) == _pairwise_candidates(
        left, right, max_block_size, min_token_length)
