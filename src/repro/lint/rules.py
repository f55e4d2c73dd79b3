"""Per-file determinism rules (RL001-RL004) and typed-core (RL007).

Each rule is a small AST pass over one :class:`~repro.lint.engine.ModuleInfo`.
Every rule is grounded in a regression this repo has already shipped or
narrowly avoided; the motivating incidents are catalogued in
``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import (Finding, LintConfig, ModuleInfo, Rule,
                               _dotted, _from_imports, _import_aliases)

__all__ = ["FILE_RULES", "Rule", "NoWallClock", "NoUnseededRandom",
           "NoBuiltinHash", "OrderStableIteration", "TypedCore"]


# ----------------------------------------------------------------------
# RL001 -- no wall clock
# ----------------------------------------------------------------------
class NoWallClock(Rule):
    """Simulation code must read time from ``repro.kernel.clock``.

    A wall-clock read anywhere in the replay pipeline makes output
    depend on the host and the moment of execution, which breaks the
    parallel==serial==resumed guarantee the runner and the golden suite
    stand on.  ``time.perf_counter`` is deliberately *not* banned: it
    only ever feeds duration instrumentation, which serde strips from
    comparable output.
    """

    id = "RL001"
    name = "no-wall-clock"
    description = ("wall-clock reads (time.time, time.monotonic, "
                   "datetime.now, ...); simulation code must use "
                   "repro.kernel.clock.VirtualClock")

    #: attribute paths of banned zero-state clock reads
    BANNED_TIME = frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns",
        "localtime", "gmtime", "ctime", "asctime",
    })
    BANNED_DATETIME = frozenset({
        "datetime.now", "datetime.utcnow", "datetime.today",
        "date.today",
    })

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterator[Finding]:
        time_aliases = _import_aliases(module.tree, "time")
        datetime_aliases = _import_aliases(module.tree, "datetime")
        from_time = _from_imports(module.tree, "time")
        from_datetime = _from_imports(module.tree, "datetime")

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = _dotted(func)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            if head in time_aliases and rest in self.BANNED_TIME:
                yield self.finding(
                    module, node,
                    f"wall-clock read `{dotted}()`; simulated time comes "
                    f"from repro.kernel.clock, instrumentation from "
                    f"time.perf_counter")
            elif head in datetime_aliases and rest in self.BANNED_DATETIME:
                yield self.finding(
                    module, node,
                    f"wall-clock read `{dotted}()`; the simulation has no "
                    f"business knowing the real date")
            elif not rest and head in from_time and \
                    from_time[head] in self.BANNED_TIME:
                yield self.finding(
                    module, node,
                    f"wall-clock read `{head}()` (time.{from_time[head]})")
            elif head in from_datetime and \
                    from_datetime[head] in ("datetime", "date") and \
                    rest in ("now", "utcnow", "today"):
                yield self.finding(
                    module, node,
                    f"wall-clock read `{dotted}()`")


# ----------------------------------------------------------------------
# RL002 -- no unseeded randomness
# ----------------------------------------------------------------------
class NoUnseededRandom(Rule):
    """Only explicitly seeded generator instances may draw randomness.

    The module-level ``random.*`` functions share one process-global
    generator: any import-order change, library upgrade, or extra draw
    on another code path silently shifts every downstream value, and
    two pool workers disagree with the serial run.  Every draw must
    come from a ``random.Random(seed)`` (or ``numpy`` ``Generator``
    seeded the same way) that is passed through the call graph.
    """

    id = "RL002"
    name = "no-unseeded-random"
    description = ("module-level random.* / numpy.random.* calls; use an "
                   "explicitly seeded random.Random / numpy Generator "
                   "passed through the call graph")

    #: constructors that *produce* a seedable generator are fine
    ALLOWED_RANDOM_ATTRS = frozenset({"Random"})
    #: numpy constructors allowed when given an explicit seed argument
    NUMPY_SEEDED_CTORS = frozenset({"default_rng", "Generator",
                                    "RandomState"})

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterator[Finding]:
        random_aliases = _import_aliases(module.tree, "random")
        numpy_aliases = _import_aliases(module.tree, "numpy")
        from_random = _from_imports(module.tree, "random")
        numpy_random_aliases = set()
        for local, original in _from_imports(module.tree, "numpy").items():
            if original == "random":
                numpy_random_aliases.add(local)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            head, attrs = parts[0], parts[1:]

            if head in random_aliases and len(attrs) == 1:
                if attrs[0] not in self.ALLOWED_RANDOM_ATTRS:
                    yield self.finding(
                        module, node,
                        f"module-level `{dotted}()` draws from the shared "
                        f"global generator; use a seeded random.Random "
                        f"instance")
            elif head in from_random and not attrs:
                original = from_random[head]
                if original not in self.ALLOWED_RANDOM_ATTRS:
                    yield self.finding(
                        module, node,
                        f"`{head}()` (random.{original}) draws from the "
                        f"shared global generator")
            elif (head in numpy_aliases and len(attrs) == 2
                  and attrs[0] == "random") or \
                    (head in numpy_random_aliases and len(attrs) == 1):
                leaf = attrs[-1]
                if leaf in self.NUMPY_SEEDED_CTORS:
                    if not node.args and not node.keywords:
                        yield self.finding(
                            module, node,
                            f"`{dotted}()` without an explicit seed is "
                            f"entropy-seeded; pass a seed")
                else:
                    yield self.finding(
                        module, node,
                        f"module-level `{dotted}()` uses numpy's global "
                        f"generator; use numpy.random.default_rng(seed)")


# ----------------------------------------------------------------------
# RL003 -- no builtin hash() feeding persistence
# ----------------------------------------------------------------------
class NoBuiltinHash(Rule):
    """``hash()`` is salted per process; derived values never persist.

    This is the exact PR 3 incident class: shard seeds derived with
    ``hash(f"{seed}:{path}")`` differed between pool workers and the
    serial run because CPython salts string hashing per process
    (PYTHONHASHSEED).  Anything that feeds shard ids, checkpoint names,
    RNG seeds or serialized bytes must use a stable digest --
    ``zlib.crc32`` or ``hashlib`` -- instead.  The builtin is banned
    outright in ``src/``: a hash that is safe today is one refactor
    away from leaking into persistence.
    """

    id = "RL003"
    name = "no-builtin-hash-for-persistence"
    description = ("builtin hash() is process-salted for str/bytes; use "
                   "zlib.crc32 or hashlib for anything that feeds shard "
                   "ids, seeds, checkpoints or serde")

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterator[Finding]:
        shadowed = self._shadowing_scopes(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "hash" and node not in shadowed:
                yield self.finding(
                    module, node,
                    "builtin hash() is salted per process "
                    "(PYTHONHASHSEED); use zlib.crc32 or hashlib for "
                    "stable digests")

    @staticmethod
    def _shadowing_scopes(tree: ast.Module) -> FrozenSet[ast.AST]:
        """Call nodes inside a scope that rebinds the name ``hash``."""
        shadowed: Set[ast.AST] = set()
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            rebinds = any(
                isinstance(n, (ast.Assign, ast.AnnAssign)) and any(
                    isinstance(t, ast.Name) and t.id == "hash"
                    for t in ast.walk(n))
                for n in scope.body) or any(
                arg.arg == "hash" for arg in scope.args.args)
            if rebinds:
                for inner in ast.walk(scope):
                    if isinstance(inner, ast.Call):
                        shadowed.add(inner)
        return frozenset(shadowed)


# ----------------------------------------------------------------------
# RL004 -- order-stable iteration
# ----------------------------------------------------------------------
#: call wrappers whose result does not depend on iteration order
_ORDER_INSENSITIVE_CALLS = frozenset({
    "sorted", "sum", "len", "min", "max", "any", "all", "set",
    "frozenset",
})
#: consuming calls that freeze the (arbitrary) iteration order
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})


class OrderStableIteration(Rule):
    """Iterating a set straight into ordered output is a latent flake.

    A ``set`` of paths or tenant ids has no stable order -- it varies
    with insertion history and (for strings) the per-process hash salt.
    Feeding one into a list, an emission loop, or a hoard fill's
    transfer order without ``sorted()`` reproduces only by accident.
    Dict views are insertion-ordered in CPython >= 3.7 and are
    deliberately exempt; only genuinely unordered set expressions are
    flagged.
    """

    id = "RL004"
    name = "order-stable-iteration"
    description = ("iteration over a set expression in an order-sensitive "
                   "position without sorted()")

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterator[Finding]:
        for scope in self._scopes(module.tree):
            set_names = self._set_bound_names(scope)
            exempt = self._order_free_comprehensions(scope)
            for node in self._scope_nodes(scope):
                if node in exempt:
                    continue
                yield from self._check_node(module, node, set_names)

    @staticmethod
    def _order_free_comprehensions(scope: ast.AST) -> FrozenSet[ast.AST]:
        """Generators consumed whole by an order-insensitive call.

        ``sum(f(x) for x in some_set)`` is fine: the reduction is
        commutative, so the set's arbitrary order never escapes.
        """
        exempt: Set[ast.AST] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in _ORDER_INSENSITIVE_CALLS:
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                        ast.SetComp)):
                        exempt.add(arg)
        return frozenset(exempt)

    @staticmethod
    def _scopes(tree: ast.Module) -> List[ast.AST]:
        """Module plus each function, checked with local knowledge."""
        scopes: List[ast.AST] = [tree]
        scopes.extend(n for n in ast.walk(tree)
                      if isinstance(n, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)))
        return scopes

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Nodes belonging to *scope*, not to a nested function.

        Each node is visited from exactly one scope so a finding is
        never reported twice.
        """
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    def _set_bound_names(self, scope: ast.AST) -> Set[str]:
        """Names assigned an obvious set expression within *scope*.

        Single-level, flow-insensitive: a name ever bound to a non-set
        afterwards is dropped to avoid false positives.
        """
        bound: Set[str] = set()
        unbound: Set[str] = set()
        for node in self._scope_nodes(scope):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                # s |= other keeps a set a set; anything else unbinds.
                if not isinstance(node.op, (ast.BitOr, ast.BitAnd,
                                            ast.Sub, ast.BitXor)):
                    targets, value = [node.target], ast.Constant(value=None)
            if value is None:
                continue
            is_set = self._is_set_expr(value, bound)
            for target in targets:
                if isinstance(target, ast.Name):
                    (bound if is_set else unbound).add(target.id)
        return bound - unbound

    def _is_set_expr(self, node: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node, ast.Name) and node.id in set_names:
            return True
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                     ast.BitXor)):
            return self._is_set_expr(node.left, set_names) or \
                self._is_set_expr(node.right, set_names)
        return False

    def _check_node(self, module: ModuleInfo, node: ast.AST,
                    set_names: Set[str]) -> Iterator[Finding]:
        # for x in <set expr>:
        if isinstance(node, (ast.For, ast.AsyncFor)) and \
                self._is_set_expr(node.iter, set_names):
            yield self._order_finding(module, node.iter)
        # comprehensions
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                               ast.DictComp)):
            for generator in node.generators:
                if self._is_set_expr(generator.iter, set_names):
                    yield self._order_finding(module, generator.iter)
        # list(<set expr>), tuple(...), enumerate(...), iter(...)
        elif isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and \
                    callee.id in _ORDER_SENSITIVE_CALLS:
                for arg in node.args[:1]:
                    if self._is_set_expr(arg, set_names):
                        yield self._order_finding(module, arg)
            # "sep".join(<set expr>)
            elif isinstance(callee, ast.Attribute) and \
                    callee.attr == "join" and node.args and \
                    self._is_set_expr(node.args[0], set_names):
                yield self._order_finding(module, node.args[0])
        # [*<set expr>] / f(*<set expr>)
        elif isinstance(node, ast.Starred) and \
                self._is_set_expr(node.value, set_names):
            yield self._order_finding(module, node.value)

    def _order_finding(self, module: ModuleInfo,
                       node: ast.expr) -> Finding:
        return self.finding(
            module, node,
            "iteration order of a set is unstable across processes; "
            "wrap in sorted() (or prove the consumer is order-free and "
            "suppress)")


# ----------------------------------------------------------------------
# RL007 -- typed core
# ----------------------------------------------------------------------
class TypedCore(Rule):
    """The typed core must carry complete annotations.

    CI enforces ``mypy --strict`` on most of the typed core; this rule
    is the dependency-free local mirror of its ``disallow_untyped_defs``
    /``disallow_incomplete_defs`` half, so a missing annotation fails
    ``python -m repro.lint`` before a PR ever reaches CI.  It also
    covers ``repro.fs`` and ``repro.investigators``, which mypy still
    ratchets but the typed Seer depends on.
    """

    id = "RL007"
    name = "typed-core"
    description = ("function in a typed-core package missing "
                   "parameter or return annotations")

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterator[Finding]:
        if not any(module.relpath.startswith(prefix)
                   for prefix in config.typed_core_prefixes):
            return
        method_of: Dict[ast.AST, bool] = {}
        for parent in ast.walk(module.tree):
            for child in ast.iter_child_nodes(parent):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    method_of[child] = isinstance(parent, ast.ClassDef)
        for node, in_class in method_of.items():
            yield from self._check_def(module, node, in_class)

    def _check_def(self, module: ModuleInfo,
                   node: ast.AST, in_class: bool) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        skip_first = in_class and positional and \
            positional[0].arg in ("self", "cls") and \
            not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
        if skip_first:
            positional = positional[1:]
        missing = [arg.arg for arg in positional + list(args.kwonlyargs)
                   if arg.annotation is None]
        for extra in (args.vararg, args.kwarg):
            if extra is not None and extra.annotation is None:
                missing.append(extra.arg)
        if missing:
            yield self.finding(
                module, node,
                f"`{node.name}` missing parameter annotation(s): "
                f"{', '.join(missing)} (typed core: mypy --strict rules)")
        if node.returns is None:
            yield self.finding(
                module, node,
                f"`{node.name}` missing return annotation "
                f"(typed core: mypy --strict rules)")


# Imported at the bottom: concurrency.py needs Rule (via engine) but
# registers its per-file rules here so every entry point sees one
# complete FILE_RULES tuple.
from repro.lint.concurrency import OrphanedTask, ResourceSafety  # noqa: E402

FILE_RULES: Tuple[Rule, ...] = (
    NoWallClock(),
    NoUnseededRandom(),
    NoBuiltinHash(),
    OrderStableIteration(),
    TypedCore(),
    OrphanedTask(),
    ResourceSafety(),
)
