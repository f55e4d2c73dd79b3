"""Concurrency & resource-safety rules (RL008, RL009, RL011, RL012).

RL008 and RL009 sit on top of :mod:`repro.lint.flow`'s project index:
the call graph marks the functions that may run on the event loop, and
the class index records each class's lock attributes.  RL012 walks the
per-function CFG (with exception edges) to answer "does every path
pass a close?".  Each rule targets a concrete service-layer incident
class; docs/static-analysis.md catalogues them together with the known
over/under-approximations.

* **RL008** -- a blocking call (``time.sleep``, sync socket/file/
  sqlite I/O, any :class:`SqliteStore` method) reachable from event-loop
  context stalls *every* tenant of the daemon at once.
* **RL009** -- RacerD-style lock-set race: an attribute mutated under a
  ``threading.Lock`` at some sites but accessed lock-free at others.
* **RL011** -- a discarded ``create_task``/``ensure_future`` handle:
  asyncio keeps only a weak reference, so the task can be collected
  mid-flight and its exception is never observed.
* **RL012** -- CFG-based resource safety: stores, sockets and stream
  writers opened but not closed/drained on every path out of the
  function, *including* the exception edges.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import (Finding, LintConfig, ModuleInfo,
                               ProjectRule, Rule, _dotted, _from_imports,
                               _import_aliases)
from repro.lint.flow import (Cfg, ClassInfo, FunctionInfo, ProjectFlow,
                             build_cfg)

__all__ = [
    "BlockingInEventLoop",
    "LockSetRaces",
    "OrphanedTask",
    "ResourceSafety",
]

#: the checkpoint store's class (synchronous)
STORE_CLASSES = frozenset({"SqliteStore"})
#: store methods -- every one does filesystem or sqlite work
STORE_METHODS = frozenset({"open", "put", "get", "flush", "close",
                           "compact", "iter_completed"})

#: canonical dotted names of calls that block the calling thread
BLOCKING_DOTTED = frozenset({
    "time.sleep",
    "socket.socket", "socket.create_connection", "socket.getaddrinfo",
    "sqlite3.connect",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.fdopen", "os.popen",
    "urllib.request.urlopen",
})
#: the module prefixes the canonicalizer needs alias maps for
_BLOCKING_MODULES = ("time", "socket", "sqlite3", "subprocess", "os",
                     "urllib.request")

#: methods that release the underlying OS resource of a tracked handle
CLOSE_METHODS = frozenset({"close", "aclose", "wait_closed", "shutdown",
                           "stop", "terminate", "release"})

#: asyncio calls whose result is a live resource (socket / server /
#: stream writer) -- matched by leaf name
_OPEN_LEAVES = frozenset({"open_connection", "open_unix_connection",
                          "start_server", "start_unix_server"})
#: resource constructors matched by full dotted name
_OPEN_DOTTED = frozenset({"socket.socket", "socket.create_connection",
                          "sqlite3.connect"})

#: attribute-call receivers that look like a TaskGroup/nursery --
#: their create_task *is* supervised, so a discarded handle is fine
_SUPERVISED_RECEIVERS = frozenset({"tg", "taskgroup", "task_group",
                                   "group", "nursery"})


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Nodes of *func*'s body excluding nested function/lambda bodies."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(root):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _call_leaf(node: ast.Call) -> Optional[str]:
    dotted = _dotted(node.func)
    if dotted is not None:
        return dotted.split(".")[-1]
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


# ----------------------------------------------------------------------
# RL008 -- no blocking calls on the event loop
# ----------------------------------------------------------------------
class BlockingInEventLoop(ProjectRule):
    """Sync I/O on the event loop stalls every tenant at once.

    The daemon's actors, drain tasks and connection handlers all
    share one event loop; a single ``SqliteStore.put`` against a cold
    disk inside a coroutine freezes the whole service for its duration
    (the incident class the IO-executor refactor in
    ``repro/service/daemon.py`` removes).  A function is "event-loop
    context" if it is a coroutine or a sync function reachable from one
    through the call graph; blocking work must instead be handed to an
    executor thread (``loop.run_in_executor``).
    """

    id = "RL008"
    name = "no-blocking-on-event-loop"
    description = ("blocking call (time.sleep, sync socket/file/sqlite "
                   "I/O, SqliteStore methods) reachable from event-loop "
                   "context; hand it to run_in_executor")

    def check_project(self, modules: Dict[str, ModuleInfo],
                      config: LintConfig,
                      flow: Optional[ProjectFlow] = None
                      ) -> Iterator[Finding]:
        flow = flow if flow is not None else ProjectFlow.build(modules)
        alias_cache: Dict[str, Tuple[Dict[str, str], Dict[str, str]]] = {}
        for info in flow.functions.values():
            if not info.on_event_loop:
                continue
            maps = alias_cache.get(info.module.relpath)
            if maps is None:
                maps = self._alias_maps(info.module)
                alias_cache[info.module.relpath] = maps
            for node in _own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                reason = self._blocking_reason(node, info, flow, maps)
                if reason is not None:
                    how = "is a coroutine" if info.is_async else \
                        "is reachable from a coroutine"
                    yield self.finding(
                        info.module, node,
                        f"{reason} inside `{info.name}`, which {how}: "
                        f"this blocks the event loop for every tenant; "
                        f"run it on an executor thread")

    @staticmethod
    def _alias_maps(module: ModuleInfo
                    ) -> Tuple[Dict[str, str], Dict[str, str]]:
        aliases: Dict[str, str] = {}
        from_names: Dict[str, str] = {}
        for mod in _BLOCKING_MODULES:
            for local in _import_aliases(module.tree, mod):
                aliases[local] = mod
            for local, orig in _from_imports(module.tree, mod).items():
                from_names[local] = f"{mod}.{orig}"
        return aliases, from_names

    def _blocking_reason(self, node: ast.Call, info: FunctionInfo,
                         flow: ProjectFlow,
                         maps: Tuple[Dict[str, str], Dict[str, str]]
                         ) -> Optional[str]:
        aliases, from_names = maps
        dotted = _dotted(node.func)
        if dotted is not None:
            for local, mod in aliases.items():
                if dotted == local or dotted.startswith(local + "."):
                    canonical = mod + dotted[len(local):]
                    if canonical in BLOCKING_DOTTED:
                        return f"blocking call `{canonical}()`"
            canonical = from_names.get(dotted)
            if canonical in BLOCKING_DOTTED:
                return f"blocking call `{dotted}()` ({canonical})"
            if dotted == "open":
                return "blocking file open `open()`"
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in STORE_METHODS:
            receiver = self._receiver_class(node.func, info, flow)
            if receiver in STORE_CLASSES:
                return (f"blocking `{receiver}.{node.func.attr}()` "
                        f"(synchronous disk/sqlite I/O)")
        return None

    @staticmethod
    def _receiver_class(func: ast.Attribute, info: FunctionInfo,
                        flow: ProjectFlow) -> Optional[str]:
        value = func.value
        # self.attr.method()
        if isinstance(value, ast.Attribute) and \
                isinstance(value.value, ast.Name) and \
                value.value.id == "self" and info.class_name:
            own = flow.classes.get(info.class_name)
            if own is not None:
                return own.attr_types.get(value.attr)
        # name.method() with an annotated/inferable local
        if isinstance(value, ast.Name):
            return flow._local_type(info, value.id)
        return None


# ----------------------------------------------------------------------
# RL009 -- lock-set races
# ----------------------------------------------------------------------
#: dict/list/set methods that mutate the receiver in place
_MUTATOR_METHODS = frozenset({"update", "setdefault", "append", "add",
                              "extend", "insert", "pop", "popitem",
                              "clear", "remove", "discard"})


class LockSetRaces(ProjectRule):
    """An attribute locked at some sites and bare at others is a race.

    RacerD's core insight, scaled down: if *any* site mutates
    ``self.x`` under ``with self._lock:`` the author has declared the
    attribute shared, so every lock-free access elsewhere in the class
    is a torn read or lost update waiting for load.  The incident
    class here is :class:`~repro.observability.Metrics`: shared between
    the daemon's event loop and the store's IO thread, its read-side
    accessors must hold the same lock the writers do.
    """

    id = "RL009"
    name = "lock-set-race"
    description = ("attribute mutated under a threading.Lock at some "
                   "sites but accessed lock-free at others")

    def check_project(self, modules: Dict[str, ModuleInfo],
                      config: LintConfig,
                      flow: Optional[ProjectFlow] = None
                      ) -> Iterator[Finding]:
        flow = flow if flow is not None else ProjectFlow.build(modules)
        for cls in flow.classes.values():
            if not cls.lock_attrs:
                continue
            yield from self._check_class(cls, flow)

    def _check_class(self, cls: ClassInfo,
                     flow: ProjectFlow) -> Iterator[Finding]:
        # (attr, method, node, locked, mutating) for every self.<attr>
        accesses: List[Tuple[str, FunctionInfo, ast.Attribute,
                             bool, bool]] = []
        for method_name, key in cls.methods.items():
            if method_name in ("__init__", "__post_init__"):
                continue
            info = flow.functions.get(key)
            if info is None:
                continue
            parents = _parent_map(info.node)
            for attr, node, locked in self._attr_accesses(info, cls):
                mutating = self._is_mutating(node, parents)
                accesses.append((attr, info, node, locked, mutating))
        protected = {attr for attr, _info, _node, locked, mutating
                     in accesses if locked and mutating}
        seen: Set[Tuple[str, int]] = set()
        for attr, info, node, locked, _mutating in accesses:
            if locked or attr not in protected:
                continue
            spot = (info.key, node.lineno)
            if spot in seen:
                continue
            seen.add(spot)
            yield self.finding(
                info.module, node,
                f"`self.{attr}` is mutated under a threading.Lock "
                f"elsewhere in `{cls.name}` but accessed lock-free in "
                f"`{info.name}`; the lock declares it shared, so this "
                f"access can tear -- hold the same lock")

    def _attr_accesses(self, info: FunctionInfo, cls: ClassInfo
                       ) -> Iterator[Tuple[str, ast.Attribute, bool]]:
        """Every ``self.<attr>`` access with its lexical lock state."""
        node = info.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from self._walk(list(node.body), cls, held=False)

    def _walk(self, body: List[ast.stmt], cls: ClassInfo, held: bool
              ) -> Iterator[Tuple[str, ast.Attribute, bool]]:
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                locks_here = any(
                    self._is_own_lock(item.context_expr, cls)
                    for item in stmt.items)
                for item in stmt.items:
                    yield from self._expr_accesses(item.context_expr,
                                                   cls, held)
                yield from self._walk(stmt.body, cls,
                                      held or locks_here)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested: List[ast.stmt] = []
            for field_name, value in ast.iter_fields(stmt):
                if isinstance(value, list) and value and \
                        isinstance(value[0], ast.stmt):
                    nested.extend(value)
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    nested.extend(handler.body)
            if nested:
                for field_name, value in ast.iter_fields(stmt):
                    if isinstance(value, ast.expr):
                        yield from self._expr_accesses(value, cls, held)
                yield from self._walk(nested, cls, held)
            else:
                yield from self._expr_accesses(stmt, cls, held)

    def _expr_accesses(self, root: ast.AST, cls: ClassInfo, held: bool
                       ) -> Iterator[Tuple[str, ast.Attribute, bool]]:
        for node in ast.walk(root):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "self" and \
                    node.attr not in cls.lock_attrs:
                yield node.attr, node, held

    @staticmethod
    def _is_own_lock(expr: ast.expr, cls: ClassInfo) -> bool:
        return (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in cls.lock_attrs)

    @staticmethod
    def _is_mutating(node: ast.Attribute,
                     parents: Dict[ast.AST, ast.AST]) -> bool:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return True
        parent = parents.get(node)
        # self.d[k] = v / del self.d[k] / self.d[k] += v
        if isinstance(parent, ast.Subscript) and parent.value is node:
            if isinstance(parent.ctx, (ast.Store, ast.Del)):
                return True
            grand = parents.get(parent)
            if isinstance(grand, ast.AugAssign) and \
                    grand.target is parent:
                return True
        # self.d.update(...) and friends
        if isinstance(parent, ast.Attribute) and parent.value is node \
                and parent.attr in _MUTATOR_METHODS:
            grand = parents.get(parent)
            if isinstance(grand, ast.Call) and grand.func is parent:
                return True
        return False


# ----------------------------------------------------------------------
# RL011 -- orphaned tasks
# ----------------------------------------------------------------------
class OrphanedTask(Rule):
    """A discarded task handle is an invisible failure domain.

    The event loop holds only a *weak* reference to a task: a
    ``create_task`` result that is neither retained nor awaited can be
    garbage-collected mid-flight, and if it raises, the exception
    surfaces (at best) as a "Task exception was never retrieved" log
    line long after the cause.  The daemon retains every tenant's drain
    task in ``self._workers`` and every connection task in a set for
    exactly this reason -- this rule keeps it that way.  TaskGroup-style
    receivers (``tg``, ``task_group``, ...) supervise their children
    and are exempt.
    """

    id = "RL011"
    name = "no-orphaned-tasks"
    description = ("create_task/ensure_future result discarded: retain "
                   "the handle and await/cancel it on shutdown, or its "
                   "exception vanishes")

    _SPAWNERS = frozenset({"create_task", "ensure_future"})

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            call: Optional[ast.Call] = None
            if isinstance(node, ast.Expr):
                value = node.value
                if isinstance(value, ast.Await):
                    continue   # awaited inline: not orphaned
                if isinstance(value, ast.Call):
                    call = value
            elif isinstance(node, ast.Assign):
                if len(node.targets) == 1 and \
                        isinstance(node.targets[0], ast.Name) and \
                        node.targets[0].id == "_" and \
                        isinstance(node.value, ast.Call):
                    call = node.value
            if call is None or not self._spawns_task(call):
                continue
            yield self.finding(
                module, call,
                "task handle discarded: asyncio keeps only a weak "
                "reference, so the task can be collected mid-flight "
                "and its exception is never retrieved; keep the "
                "handle (and cancel/await it on shutdown)")

    def _spawns_task(self, call: ast.Call) -> bool:
        leaf = _call_leaf(call)
        if leaf not in self._SPAWNERS:
            return False
        func = call.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id.lower() in _SUPERVISED_RECEIVERS:
            return False
        return True


# ----------------------------------------------------------------------
# RL012 -- resource safety on every path
# ----------------------------------------------------------------------
class ResourceSafety(Rule):
    """Every opened store/socket/writer must close on every path.

    The incident class: a since-deleted checkpoint helper opened a
    store in a call chain and dropped the handle, and
    ``ServiceClient.connect`` left a live stream writer behind when the
    handshake failed after the TCP connect succeeded.  The rule walks
    the function's CFG -- exception edges included -- from each open
    site and reports if the exit (or the raise-exit) is reachable
    without passing a close.

    Approximations (documented in docs/static-analysis.md): a close
    anywhere under a branch statement counts for every path through it
    (kills conditional-close false positives, under-approximates
    leaks); a handle that escapes the function (returned, passed as an
    argument, aliased, stored) is the *caller's* to close and is not
    tracked; ``with`` blocks are inherently safe; attribute-stored
    handles (``self._writer = ...``) persist by design and only the
    exception path out of the *opening* function is checked.
    """

    id = "RL012"
    name = "resource-safety"
    description = ("store/socket/stream-writer opened but not closed on "
                   "every CFG path (exception edges included)")

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    # -- open-site detection -------------------------------------------
    def _opens_resource(self, call: ast.Call,
                        module: ModuleInfo) -> Optional[str]:
        """A human description if *call* creates a closable resource."""
        dotted = _dotted(call.func)
        if dotted is not None:
            leaf = dotted.split(".")[-1]
            if leaf in _OPEN_LEAVES:
                return f"connection/server from `{dotted}()`"
            if dotted in _OPEN_DOTTED:
                return f"handle from `{dotted}()`"
        # Ctor(...).open() chained on a store class
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "open" and \
                isinstance(func.value, ast.Call):
            ctor = _dotted(func.value.func)
            if ctor is not None and \
                    ctor.split(".")[-1] in STORE_CLASSES:
                return f"store from `{ctor}(...).open()`"
        return None

    # -- per-function analysis -----------------------------------------
    def _check_function(self, module: ModuleInfo,
                        func: ast.AST) -> Iterator[Finding]:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        cfg = build_cfg(func)
        # Statements eligible as open sites: simple assignments and
        # bare expression statements.  Compound heads (if/while/with
        # conditions) and with-items are skipped -- a `with` closes its
        # own resource.
        for node in cfg.nodes:
            stmt = node.stmt
            if stmt is None or stmt not in cfg.stmt_index:
                continue
            if isinstance(stmt, ast.Expr):
                value = stmt.value
                if isinstance(value, ast.Await):
                    value = value.value
                desc = self._top_open(value, module)
                if desc is not None:
                    yield self.finding(
                        module, stmt,
                        f"{desc} is opened and its handle immediately "
                        f"discarded; nothing can ever close it -- bind "
                        f"it and close in a finally (or use `with`)")
                continue
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if value is None:
                    continue
                if isinstance(value, ast.Await):
                    value = value.value
                desc = self._top_open(value, module)
                if desc is None:
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                yield from self._check_binding(
                    module, func, cfg, node.index, stmt, targets, desc)

    def _top_open(self, value: ast.expr,
                  module: ModuleInfo) -> Optional[str]:
        """Open description when *value* itself (or a trailing method
        chain on it) is an opening call -- nested-argument opens escape
        into the callee and are skipped."""
        if not isinstance(value, ast.Call):
            return None
        direct = self._opens_resource(value, module)
        if direct is not None:
            return direct
        # trailing chain: Open(...).open().put(...) -- the open call is
        # buried as the receiver of further method calls
        target: ast.expr = value
        while isinstance(target, ast.Call) and \
                isinstance(target.func, ast.Attribute):
            target = target.func.value
            if isinstance(target, ast.Call):
                desc = self._opens_resource(target, module)
                if desc is not None:
                    return desc
        return None

    def _check_binding(self, module: ModuleInfo, func: ast.AST,
                       cfg: Cfg, open_index: int, stmt: ast.stmt,
                       targets: List[ast.expr],
                       desc: str) -> Iterator[Finding]:
        flat: List[ast.expr] = []
        for target in targets:
            if isinstance(target, ast.Tuple):
                flat.extend(target.elts)
            else:
                flat.append(target)
        if any(isinstance(t, (ast.Attribute, ast.Subscript))
               for t in flat):
            # Stored into an attribute: the handle persists by design
            # (closed elsewhere), but an exception on the rest of this
            # function's path must still clean it up.
            yield from self._check_attribute_open(
                module, cfg, open_index, stmt, desc)
            return
        if len(flat) != 1 or not isinstance(flat[0], ast.Name):
            return   # tuple-unpack to locals: not tracked (documented)
        name = flat[0].id
        if self._escapes(func, stmt, name):
            return
        close_nodes = self._close_nodes(cfg, name)
        leak_exit, leak_raise = self._reaches_exits(
            cfg, open_index, close_nodes)
        if leak_exit or leak_raise:
            where = "an exception path" if not leak_exit else \
                ("every path" if leak_raise else "a normal path")
            yield self.finding(
                module, stmt,
                f"{desc} bound to `{name}` is not closed on {where} "
                f"out of the function; close it in a finally (or use "
                f"`with`)")

    def _check_attribute_open(self, module: ModuleInfo, cfg: Cfg,
                              open_index: int, stmt: ast.stmt,
                              desc: str) -> Iterator[Finding]:
        cleanup = {node.index for node in cfg.nodes
                   if node.stmt is not None
                   and self._contains_any_close(node.stmt)}
        _exit, raises = self._reaches_exits(cfg, open_index, cleanup,
                                            check_exit=False)
        if raises:
            yield self.finding(
                module, stmt,
                f"{desc} is stored into an attribute, but an exception "
                f"later in this function escapes without closing it "
                f"(the caller never sees the handle); add try/except "
                f"cleanup around the remaining setup")

    # -- CFG reachability ----------------------------------------------
    @staticmethod
    def _reaches_exits(cfg: Cfg, open_index: int,
                       close_nodes: Set[int],
                       check_exit: bool = True) -> Tuple[bool, bool]:
        """(exit reachable, raise-exit reachable) close-free from open.

        The walk starts at the open statement's *normal* successors
        (an exception during the open itself means no resource exists)
        and then follows both normal and exception edges, stopping at
        any close node.
        """
        reach_exit = False
        reach_raise = False
        seen: Set[int] = set()
        stack = [index for index in cfg.nodes[open_index].succ]
        while stack:
            index = stack.pop()
            if index in seen or index in close_nodes:
                continue
            seen.add(index)
            if index == cfg.exit:
                reach_exit = True
                continue
            if index == cfg.raise_exit:
                reach_raise = True
                continue
            node = cfg.nodes[index]
            stack.extend(node.succ)
            stack.extend(node.exc_succ)
        return (reach_exit if check_exit else False), reach_raise

    @staticmethod
    def _close_nodes(cfg: Cfg, name: str) -> Set[int]:
        """CFG nodes whose statement closes `name` somewhere inside.

        "Somewhere inside" includes the bodies of branch statements:
        a conditional close counts for every path through the branch
        head (the documented under-approximation).
        """
        out: Set[int] = set()
        for node in cfg.nodes:
            if node.stmt is None:
                continue
            for inner in ast.walk(node.stmt):
                if isinstance(inner, ast.Call) and \
                        isinstance(inner.func, ast.Attribute) and \
                        inner.func.attr in CLOSE_METHODS and \
                        isinstance(inner.func.value, ast.Name) and \
                        inner.func.value.id == name:
                    out.add(node.index)
                    break
        return out

    @staticmethod
    def _contains_any_close(stmt: ast.stmt) -> bool:
        for inner in ast.walk(stmt):
            if isinstance(inner, ast.Call) and \
                    isinstance(inner.func, ast.Attribute) and \
                    inner.func.attr in CLOSE_METHODS:
                return True
        return False

    @staticmethod
    def _escapes(func: ast.AST, open_stmt: ast.stmt, name: str) -> bool:
        """The handle leaves this function's custody.

        Returned, yielded, passed as an argument, aliased, stored into
        an attribute/container, or rebound: in every case the closing
        obligation moved somewhere this function cannot see, so the
        resource is not tracked (documented under-approximation).
        """
        own = set(ast.walk(open_stmt))   # incl. the binding's own target
        for node in ast.walk(func):
            if node in own:
                continue
            if isinstance(node, ast.Name) and node.id == name and \
                    isinstance(node.ctx, (ast.Store, ast.Del)):
                return True   # rebound elsewhere: tracking gives up
        parents = _parent_map(func)
        for node in ast.walk(func):
            if node in own:
                continue
            if not (isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)):
                continue
            parent = parents.get(node)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue   # name.method(...) / name.attr -- local use
            if isinstance(parent, ast.Compare):
                continue   # `name is None` guards -- not an escape
            return True
        return False
