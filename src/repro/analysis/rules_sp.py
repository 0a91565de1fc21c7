"""SP — spawn-safety rules.

The parallel engine fans work out over ``ProcessPoolExecutor`` with a
``spawn``-compatible protocol: task callables must be top-level (picklable)
and per-worker state travels once through the pool *initializer*
(:func:`repro.experiments.engine._init_worker` is the pattern).  PR 3 learned
this the hard way — user-registered scenarios lived in a module-global
registry that spawn-started workers re-imported empty, so pool jobs failed on
registry lookups until the definitions were shipped through the initializer.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import LintContext, Rule, dotted_name, register_rule

#: Methods that ship a callable to another process.  ``map`` is only counted
#: when the receiver looks like a pool/executor — every sequence type has a
#: ``map``-shaped method somewhere.
_SUBMIT_ATTRS = frozenset({
    "submit", "apply_async", "imap", "imap_unordered", "starmap",
    "starmap_async", "map_async",
})

_POOLISH_RECEIVER = re.compile(r"pool|executor|exec", re.IGNORECASE)

#: Constructors whose ``initializer=``/callable keywords cross the process
#: boundary.
_POOL_CONSTRUCTORS = frozenset({
    "ProcessPoolExecutor", "Pool", "ParallelExecutor",
})

#: Function-name shapes sanctioned to mutate module globals: pool
#: initializers, which run once per worker before any task.
_INITIALIZER_NAME = re.compile(r"(^_?init)|(initializer$)")


def _receiver_text(node: ast.Attribute) -> str:
    return dotted_name(node) or ""


@register_rule
class UnpicklableTaskRule(Rule):
    code = "SP001"
    summary = ("lambdas, closures, and locally defined functions submitted "
               "to process pools cannot be pickled under spawn")
    history = ("the engine's executor protocol (PR 2/7): every pool task is "
               "a top-level callable; anything else dies at submit time on "
               "spawn platforms")

    def _flag_callable_arg(self, arg: ast.AST, ctx: LintContext,
                           where: str) -> None:
        if isinstance(arg, ast.Lambda):
            self.report(ctx, arg,
                        f"lambda passed to {where}: not picklable under a "
                        "spawn start method; use a top-level function")
        elif isinstance(arg, ast.Name) and ctx.is_locally_defined(arg.id):
            self.report(ctx, arg,
                        f"locally defined function {arg.id!r} passed to "
                        f"{where}: closures are not picklable under spawn; "
                        "move it to module level")

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            is_submission = attr in _SUBMIT_ATTRS or (
                attr == "map"
                and _POOLISH_RECEIVER.search(_receiver_text(node.func.value)))
            if is_submission:
                where = f"{attr}()"
                for arg in node.args:
                    self._flag_callable_arg(arg, ctx, where)
                for keyword in node.keywords:
                    self._flag_callable_arg(keyword.value, ctx, where)
                return
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _POOL_CONSTRUCTORS:
            for keyword in node.keywords:
                if keyword.arg in ("initializer", "initargs"):
                    self._flag_callable_arg(keyword.value, ctx,
                                            f"{name}({keyword.arg}=...)")


@register_rule
class GlobalMutationRule(Rule):
    code = "SP002"
    summary = ("module-global mutation outside a pool initializer is "
               "invisible to spawn-started workers")
    history = ("PR 3: scenario registries mutated in the parent process "
               "were empty in spawn workers; definitions must travel "
               "through the pool initializer")

    def visit_Global(self, node: ast.Global, ctx: LintContext) -> None:
        names = ctx.function_name_stack()
        if not names:
            return  # module-level `global` is a no-op, not worker state
        if any(_INITIALIZER_NAME.search(name) for name in names):
            return
        self.report(ctx, node,
                    f"global {', '.join(node.names)} mutated in "
                    f"{names[-1]!r}: state set this way never reaches "
                    "spawn-started pool workers; ship it through a pool "
                    "initializer (see engine._init_worker)")
