"""``# repro: noqa[RULE] reason`` suppression directives.

A suppression is a *justified* exception, so the reason is mandatory — a bare
``noqa`` is itself a finding (``RL001``), as is a directive naming a rule
that does not exist (``RL002``, with the registry's did-you-mean hint) or a
directive that suppresses nothing (``RL003``).

The syntax is deliberately namespaced (``repro:``) so generic tool noqa
comments never collide with it, and per-line: a directive suppresses exactly
the named rules' findings on its own line.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

from repro._suggest import unknown_name_message
from repro.analysis.core import Finding, available_rules, is_known_rule

_DIRECTIVE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*)$")


def _iter_comments(source: str) -> list[tuple[int, int, str]]:
    """``(line, col, text)`` of every real comment token of ``source``.

    Tokenizing (rather than regexing raw lines) is what keeps directive-shaped
    text inside docstrings and string literals from parsing as directives —
    this module's own docstring would otherwise lint itself.
    """
    comments: list[tuple[int, int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable files are reported as RL000 by the runner before
        # suppression parsing matters; partial comment lists are fine.
        pass
    return comments


@dataclass
class Suppression:
    """One parsed directive: the rules it silences on ``line``, and why."""

    file: str
    line: int
    col: int
    rules: tuple[str, ...]
    reason: str
    used: bool = False


def parse_suppressions(source: str,
                       display_path: str) -> tuple[list[Suppression],
                                                   list[Finding]]:
    """Extract every directive of ``source`` plus the directive-level findings.

    Malformed directives (no reason, unknown rule) produce meta-findings
    immediately; well-formed ones come back for the runner to apply.  A
    directive with problems still suppresses the rules it names correctly —
    failing the named rule *and* the directive would double-report one site.
    """
    suppressions: list[Suppression] = []
    findings: list[Finding] = []
    for line_number, comment_col, text in _iter_comments(source):
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        col = comment_col + match.start()
        rules = tuple(code.strip() for code in match.group("rules").split(",")
                      if code.strip())
        reason = match.group("reason").strip()
        if not rules:
            findings.append(Finding(
                rule="RL002", file=display_path, line=line_number, col=col,
                message="noqa directive names no rule; write "
                        "`# repro: noqa[RULE] reason`"))
            continue
        known: list[str] = []
        for code in rules:
            if is_known_rule(code):
                known.append(code)
            else:
                findings.append(Finding(
                    rule="RL002", file=display_path, line=line_number,
                    col=col,
                    message=unknown_name_message("lint rule", code,
                                                 available_rules())))
        if not reason:
            findings.append(Finding(
                rule="RL001", file=display_path, line=line_number, col=col,
                message="noqa directive has no reason; a suppression is a "
                        "justified exception — say why"))
        suppressions.append(Suppression(
            file=display_path, line=line_number, col=col,
            rules=tuple(known), reason=reason))
    return suppressions, findings


def apply_suppressions(
    findings: list[Finding],
    suppressions: list[Suppression],
) -> tuple[list[Finding], list[Finding], list[Finding]]:
    """Split ``findings`` into kept and suppressed; add unused-noqa findings.

    Returns ``(kept, suppressed, meta)``.
    """
    by_line: dict[tuple[str, int], list[Suppression]] = {}
    for suppression in suppressions:
        by_line.setdefault((suppression.file, suppression.line),
                           []).append(suppression)
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in findings:
        candidates = by_line.get((finding.file, finding.line), ())
        matched = next((s for s in candidates if finding.rule in s.rules),
                       None)
        if matched is not None:
            matched.used = True
            suppressed.append(finding)
        else:
            kept.append(finding)
    meta = [Finding(rule="RL003", file=suppression.file,
                    line=suppression.line, col=suppression.col,
                    message=f"noqa[{','.join(suppression.rules)}] "
                            "suppresses nothing on this line; remove the "
                            "stale directive")
            for suppression in suppressions
            if not suppression.used and suppression.rules]
    return kept, suppressed, meta
