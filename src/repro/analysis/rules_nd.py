"""ND — nondeterminism rules.

Every rule in this family encodes a determinism bug this repository actually
shipped and later had to find by hand; the rule exists so the *class* of bug
is caught at lint time instead:

* PR 1 found MinHash signatures keyed by the builtin ``hash()``, whose
  ``PYTHONHASHSEED`` salt made LSH candidate sets differ between interpreter
  runs → :class:`BuiltinHashRule` / :class:`BuiltinIdRule`.
* The seeding policy (everything flows through :mod:`repro._rng`) exists
  because global-RNG consumers are invisible to the spawn-seeded streams →
  :class:`GlobalRngRule`.
* Content fingerprints key the artifact store; a wall-clock read inside a
  fingerprint/artifact path would make every resume a re-execution →
  :class:`WallClockRule`.
* Set iteration order depends on the per-process string-hash salt, so a set
  iterated into an ordered output is a cross-run nondeterminism →
  :class:`UnorderedIterationRule`.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import LintContext, Rule, dotted_name, register_rule

#: Consuming/seeding functions of the stdlib ``random`` module's global
#: instance.  ``random.Random(seed)`` (an owned instance) is fine.
_STDLIB_RANDOM_CALLS = frozenset({
    "random", "randrange", "randint", "uniform", "shuffle", "sample",
    "choice", "choices", "seed", "setstate", "getrandbits", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "vonmisesvariate",
    "gammavariate", "triangular", "betavariate", "paretovariate",
    "weibullvariate", "binomialvariate",
})

#: ``numpy.random`` attributes that construct *owned* generators — the
#: sanctioned spellings.  Everything else on ``np.random`` is legacy
#: global-state API.
_NUMPY_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    # Reading the global state is harmless (the runtime sanitizer does it to
    # *detect* drift); mutating it is not.
    "get_state",
})

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today", "datetime.date.today",
})

#: Function names marking fingerprint/artifact construction paths.
_FINGERPRINT_FUNCTION = re.compile(r"fingerprint|artifact|payload|lockfile|_key")

#: Modules that *are* fingerprint/artifact paths end to end.
_FINGERPRINT_MODULES = ("experiments/store.py", "experiments/engine.py",
                        "manifests/lockfile.py")

_HASH_FEEDING_CALLS = re.compile(
    r"^(hashlib\.|zlib\.(crc32|adler32)$|sha\d+$|md5$|blake2)"
    r"|(^|\.)content_hash$")


def calls_hash_function(fn: ast.AST) -> bool:
    """Whether ``fn``'s body calls a content-hashing primitive."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and _HASH_FEEDING_CALLS.search(name):
                return True
    return False


@register_rule
class BuiltinHashRule(Rule):
    code = "ND001"
    summary = ("builtin hash() is salted per process (PYTHONHASHSEED); its "
               "values must never feed persisted or ordered data")
    history = ("PR 1: MinHash signatures built on hash() made LSH candidate "
               "sets differ between interpreter runs")

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self.report(ctx, node,
                        "builtin hash() is per-process salted; use a stable "
                        "hash (zlib.crc32, hashlib) for anything persisted "
                        "or ordered")


@register_rule
class BuiltinIdRule(Rule):
    code = "ND002"
    summary = ("builtin id() values are memory addresses; they change every "
               "run and must not reach persisted or ordered data")
    history = ("same class as the PR 1 hash() bug: address-derived values "
               "silently vary across processes")

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "id":
            self.report(ctx, node,
                        "builtin id() is an address: stable only within one "
                        "process and one object lifetime; do not let it "
                        "reach persisted or ordered data")


@register_rule
class GlobalRngRule(Rule):
    code = "ND003"
    summary = ("global random-state calls (random.*, legacy np.random.*) "
               "bypass the seeded-Generator policy of repro._rng")
    history = ("the whole seeding policy: scenario/oracle streams are "
               "spawn_rng-derived; a global-RNG consumer is invisible to "
               "them and breaks serial≡parallel")

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if (len(parts) == 2 and parts[0] == "random"
                and parts[1] in _STDLIB_RANDOM_CALLS):
            self.report(ctx, node,
                        f"{name}() consumes the stdlib global RNG; take an "
                        "explicit seed/Generator through "
                        "repro._rng.ensure_rng instead")
            return
        if (len(parts) == 3 and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in _NUMPY_RANDOM_ALLOWED):
            self.report(ctx, node,
                        f"{name}() uses numpy's legacy global RNG; use "
                        "np.random.default_rng / repro._rng.ensure_rng")


@register_rule
class WallClockRule(Rule):
    code = "ND004"
    summary = ("wall-clock reads (time.time, datetime.now, …) inside "
               "fingerprint/artifact paths make content hashes drift")
    history = ("fingerprints key the resumable artifact store; a timestamp "
               "in a hashed payload would re-execute every resumed run "
               "(the PR 6/7 drift class, time-flavoured)")

    def _in_fingerprint_scope(self, ctx: LintContext) -> bool:
        if any(_FINGERPRINT_FUNCTION.search(name)
               for name in ctx.function_name_stack()):
            return True
        if any(ctx.display_path.endswith(module)
               for module in _FINGERPRINT_MODULES):
            return True
        fn = ctx.current_function
        return fn is not None and calls_hash_function(fn)

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        name = dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS and self._in_fingerprint_scope(ctx):
            self.report(ctx, node,
                        f"{name}() reads the wall clock inside a "
                        "fingerprint/artifact path; content hashes must "
                        "depend only on content (time.perf_counter is fine "
                        "for durations outside hashed payloads)")


#: Builtins whose consumption of an iterable is order-insensitive.
_ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "sum", "min", "max", "any", "all", "set", "frozenset", "len",
})

#: Set methods returning sets (receiver must itself be a set expression for
#: the chain to be recognized — static analysis cannot type arbitrary names).
_SET_RETURNING_METHODS = frozenset({
    "difference", "union", "intersection", "symmetric_difference",
})


def _is_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` syntactically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set",
                                                                "frozenset"):
            return True
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_RETURNING_METHODS
                and _is_set_expr(node.func.value)):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


_SET_FIX_HINT = ("iterate sorted(...) or dict.fromkeys(...) (deterministic "
                 "first-occurrence order) instead")


@register_rule
class UnorderedIterationRule(Rule):
    code = "ND005"
    summary = ("iterating a set into an ordered output depends on the "
               "per-process string-hash salt")
    history = ("sibling of the PR 1 hash() bug: set order is salted too, so "
               "any ordered consumption varies across interpreter runs")

    def _consumed_unordered(self, node: ast.AST, ctx: LintContext) -> bool:
        """Whether ``node`` (a generator/comp) escapes into ordered output."""
        parent = ctx.parent(node)
        if (isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE_CONSUMERS):
            return False
        return True

    def visit_For(self, node: ast.For, ctx: LintContext) -> None:
        if _is_set_expr(node.iter):
            self.report(ctx, node.iter,
                        "for-loop over a set: iteration order is salted "
                        f"per process; {_SET_FIX_HINT}")

    def visit_ListComp(self, node: ast.ListComp, ctx: LintContext) -> None:
        self._check_comprehension(node, ctx, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp, ctx: LintContext) -> None:
        self._check_comprehension(node, ctx, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp,
                           ctx: LintContext) -> None:
        if self._consumed_unordered(node, ctx):
            self._check_comprehension(node, ctx, "generator expression")

    def _check_comprehension(self, node: ast.AST, ctx: LintContext,
                             what: str) -> None:
        for generator in node.generators:  # type: ignore[attr-defined]
            if _is_set_expr(generator.iter):
                self.report(ctx, generator.iter,
                            f"{what} over a set produces salted ordering; "
                            f"{_SET_FIX_HINT}")

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if not isinstance(node.func, (ast.Name, ast.Attribute)):
            return
        if isinstance(node.func, ast.Name):
            if node.func.id not in ("list", "tuple", "enumerate"):
                return
            label = f"{node.func.id}()"
        else:
            if node.func.attr != "join":
                return
            label = "str.join()"
        for arg in node.args:
            if _is_set_expr(arg):
                self.report(ctx, arg,
                            f"{label} materializes a set in salted order; "
                            f"{_SET_FIX_HINT}")
