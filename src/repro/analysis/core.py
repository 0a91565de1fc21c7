"""Core of ``reprolint``: findings, the rule registry, and the AST walker.

Every rule is a small class registered under a stable code (``ND001`` …).
Rules are instantiated fresh per linted file and receive AST node events
through a single shared walk (:class:`LintWalker`): a rule declares interest
by defining ``visit_<NodeType>`` methods, exactly like :class:`ast.NodeVisitor`
but without each rule paying for its own traversal.  The walker maintains the
per-file context (:class:`LintContext`) rules need to scope their checks —
the enclosing function stack, a parent map, and the names of locally defined
(hence spawn-unsafe) functions per scope.

Every registered rule runs on every file.  The registry doubles as the
vocabulary of ``noqa`` directives; unknown codes are answered with the same
did-you-mean formatting every other registry of the package uses
(:func:`repro._suggest.unknown_name_message`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro._suggest import unknown_name_message
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a ``file:line:col`` location."""

    rule: str
    file: str
    line: int
    col: int
    message: str

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"

    def render(self) -> str:
        """Human-readable one-liner (the ``--format human`` output)."""
        return f"{self.location}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (the ``--format json`` output)."""
        return {"rule": self.rule, "file": self.file, "line": self.line,
                "col": self.col, "message": self.message}


class Rule:
    """Base class of every lint rule.

    Class attributes document the rule for ``--list-rules`` and the README
    catalog: ``code`` is the stable identifier, ``summary`` one line of what
    is flagged, and ``history`` names the real bug of this repository the
    rule encodes (the reason the rule exists).
    """

    code: str = ""
    summary: str = ""
    history: str = ""
    #: File names the rule never applies to (e.g. the module that *owns*
    #: global RNG state by design).
    exempt_files: tuple[str, ...] = ()

    def applies(self, ctx: "LintContext") -> bool:
        return ctx.path.name not in self.exempt_files

    def report(self, ctx: "LintContext", node: ast.AST, message: str) -> None:
        ctx.findings.append(Finding(
            rule=self.code, file=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message))


_REGISTRY: dict[str, type[Rule]] = {}

#: Codes of the meta-rules guarding the suppression mechanism itself; they
#: are not registered rules but are valid vocabulary in reports.
META_RULES: dict[str, str] = {
    "RL000": "the file could not be parsed (syntax error)",
    "RL001": "a `# repro: noqa[...]` directive is missing its reason",
    "RL002": "a `# repro: noqa[...]` directive names an unknown rule",
    "RL003": "a `# repro: noqa[...]` directive suppresses nothing",
}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (codes must be unique)."""
    if not cls.code:
        raise ValueError(f"Rule {cls.__name__} has no code")
    if cls.code in _REGISTRY or cls.code in META_RULES:
        raise ValueError(f"Duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def available_rules() -> tuple[str, ...]:
    """Registered rule codes, sorted."""
    return tuple(sorted(_REGISTRY))


def rule_class(code: str) -> type[Rule]:
    """Look up one rule class, with did-you-mean on unknown codes."""
    try:
        return _REGISTRY[code]
    except KeyError:
        raise ConfigurationError(
            unknown_name_message("lint rule", code, _REGISTRY)) from None


def is_known_rule(code: str) -> bool:
    """Whether ``code`` names a registered rule or a meta-rule."""
    return code in _REGISTRY or code in META_RULES


@dataclass
class LintContext:
    """Per-file state shared by every rule during one walk."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    findings: list[Finding] = field(default_factory=list)
    #: Enclosing ``FunctionDef``/``AsyncFunctionDef`` nodes, outermost first.
    function_stack: list[ast.AST] = field(default_factory=list)
    #: Per function-scope: names bound by nested ``def`` statements (these
    #: are closures — not picklable under a ``spawn`` start method).
    local_def_stack: list[set[str]] = field(default_factory=list)
    _parents: dict[int, ast.AST] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent  # repro: noqa[ND002] in-process identity key over one walk, never persisted or ordered on

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The AST parent of ``node`` (``None`` for the module node)."""
        return self._parents.get(id(node))  # repro: noqa[ND002] same in-process identity key as the parent map above

    @property
    def current_function(self) -> ast.AST | None:
        """Innermost enclosing function definition, if any."""
        return self.function_stack[-1] if self.function_stack else None

    def function_name_stack(self) -> tuple[str, ...]:
        """Names of the enclosing functions, outermost first."""
        return tuple(fn.name for fn in self.function_stack)  # type: ignore[attr-defined]

    def is_locally_defined(self, name: str) -> bool:
        """Whether ``name`` is bound by a nested ``def`` in any open scope."""
        return any(name in names for names in self.local_def_stack)


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _nested_def_names(fn: ast.AST) -> set[str]:
    """Names of functions defined directly inside ``fn``'s body."""
    names: set[str] = set()
    for child in ast.walk(fn):
        if child is fn:
            continue
        if isinstance(child, _FUNCTION_NODES):
            names.add(child.name)
    return names


class LintWalker:
    """One traversal of a module's AST, dispatching events to every rule.

    Each rule gets the same document-order node stream an individual
    :class:`ast.NodeVisitor` would see, but the tree is walked once per file
    no matter how many rules run.  Function entry/exit updates the context's
    scope stacks before child nodes are visited, so ``visit_*`` handlers can
    trust ``ctx.current_function`` and ``ctx.is_locally_defined``.
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        self.rules = list(rules)

    def walk(self, ctx: LintContext) -> list[Finding]:
        active = [rule for rule in self.rules if rule.applies(ctx)]
        if active:
            self._visit(ctx.tree, ctx, active)
        return ctx.findings

    def _visit(self, node: ast.AST, ctx: LintContext, rules: list[Rule]) -> None:
        is_function = isinstance(node, _FUNCTION_NODES)
        if is_function:
            ctx.function_stack.append(node)
            ctx.local_def_stack.append(_nested_def_names(node))
        handler_name = "visit_" + type(node).__name__
        for rule in rules:
            handler = getattr(rule, handler_name, None)
            if handler is not None:
                handler(node, ctx)
        for child in ast.iter_child_nodes(node):
            self._visit(child, ctx, rules)
        if is_function:
            ctx.function_stack.pop()
            ctx.local_def_stack.pop()


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
