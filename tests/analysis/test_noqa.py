"""Suppression-directive tests: the ``# repro: noqa[RULE] reason`` grammar."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source


def lint(source: str):
    return lint_source(textwrap.dedent(source), "fixture.py")


def test_reasoned_noqa_suppresses_the_named_rule():
    kept, suppressed = lint(
        """
        def key(obj):
            return id(obj)  # repro: noqa[ND002] identity key, never persisted
        """)
    assert kept == []
    assert [f.rule for f in suppressed] == ["ND002"]


def test_noqa_only_covers_its_own_line():
    kept, suppressed = lint(
        """
        def key(obj):
            a = id(obj)  # repro: noqa[ND002] identity key, never persisted
            b = id(obj)
            return a, b
        """)
    assert [f.rule for f in kept] == ["ND002"]
    assert kept[0].line == 4
    assert [f.rule for f in suppressed] == ["ND002"]


def test_noqa_does_not_cover_other_rules():
    kept, suppressed = lint(
        """
        def key(obj):
            return hash(obj)  # repro: noqa[ND002] wrong rule named
        """)
    # ND001 still fires; the directive that suppressed nothing is RL003.
    assert sorted(f.rule for f in kept) == ["ND001", "RL003"]
    assert suppressed == []


def test_reasonless_noqa_is_a_finding():
    kept, suppressed = lint(
        """
        def key(obj):
            return id(obj)  # repro: noqa[ND002]
        """)
    # The named rule is still suppressed — but the missing reason is RL001.
    assert [f.rule for f in kept] == ["RL001"]
    assert [f.rule for f in suppressed] == ["ND002"]


def test_unknown_rule_in_noqa_gets_did_you_mean():
    kept, _ = lint(
        """
        def key(obj):
            return obj  # repro: noqa[ND02] typo'd rule code
        """)
    assert [f.rule for f in kept] == ["RL002"]
    assert "did you mean" in kept[0].message
    assert "ND002" in kept[0].message


def test_empty_rule_list_is_a_finding():
    kept, _ = lint(
        """
        value = 1  # repro: noqa[] no rules named
        """)
    assert [f.rule for f in kept] == ["RL002"]


def test_unused_noqa_is_a_finding():
    kept, _ = lint(
        """
        def clean():
            return 1  # repro: noqa[ND001] nothing here actually trips it
        """)
    assert [f.rule for f in kept] == ["RL003"]


def test_multiple_rules_in_one_directive():
    kept, suppressed = lint(
        """
        def key(obj):
            return hash(obj) + id(obj)  # repro: noqa[ND001,ND002] both known salted sources
        """)
    assert kept == []
    assert sorted(f.rule for f in suppressed) == ["ND001", "ND002"]


def test_directive_shaped_text_in_docstrings_is_not_a_directive():
    kept, suppressed = lint(
        '''
        def document():
            """Suppress findings with `# repro: noqa[RULE] reason` comments."""
            return 1

        GRAMMAR = "# repro: noqa[NOPE] not a comment either"
        ''')
    assert kept == []
    assert suppressed == []
