"""Flow analysis for the concurrency rules: CFG and call graph.

The per-file rules (RL001-RL004) match single statements; the
concurrency rules RL008 and RL012 need to answer *reachability*
questions -- "can this blocking call run on the event loop?", "does
every path out of this ``open()`` pass a ``close()``?".  This module
builds the two structures those questions need (RL009 reads the class
index that comes with the second):

* :func:`build_cfg` -- a statement-level control-flow graph per
  function, with *exception edges*: every statement that may raise gets
  an edge into the enclosing handler chain (or the synthetic
  ``RAISE_EXIT`` node), so RL012 can check cleanup on the unhappy path
  too.
* :class:`ProjectFlow` -- a project-wide call graph that marks every
  function that may run on the event loop: the coroutines, and every
  function reachable from one through call edges.  Calls are resolved
  by name with light receiver typing (``self.attr`` annotations,
  constructor assignments, parameter annotations).  A callable that is
  only *passed* (to ``run_in_executor``, say) gets no call edge, so it
  stays off the loop.

Everything here is stdlib-only AST work; nothing is imported from the
analyzed tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.engine import ModuleInfo

__all__ = [
    "CfgNode",
    "Cfg",
    "build_cfg",
    "FunctionInfo",
    "ClassInfo",
    "ProjectFlow",
]

# ----------------------------------------------------------------------
# control-flow graph
# ----------------------------------------------------------------------
@dataclass
class CfgNode:
    """One statement (or synthetic entry/exit) in a function's CFG."""

    index: int
    stmt: Optional[ast.stmt]            # None for synthetic nodes
    label: str = ""                     # "entry" / "exit" / "raise-exit"
    succ: Set[int] = field(default_factory=set)        # normal flow
    exc_succ: Set[int] = field(default_factory=set)    # exception flow


class Cfg:
    """Statement-level CFG with normal and exception successor sets.

    Three synthetic nodes: ``entry`` (index 0), ``exit`` (normal
    completion -- falling off the end or ``return``) and ``raise-exit``
    (an exception escaping the function).  ``succ`` edges model normal
    control transfer; ``exc_succ`` edges model "this statement raised",
    pointing at the innermost live handler or at ``raise-exit``.
    """

    def __init__(self) -> None:
        self.nodes: List[CfgNode] = []
        self.entry = self._new(None, "entry")
        self.exit = self._new(None, "exit")
        self.raise_exit = self._new(None, "raise-exit")
        self.stmt_index: Dict[ast.stmt, int] = {}

    def _new(self, stmt: Optional[ast.stmt], label: str = "") -> int:
        node = CfgNode(index=len(self.nodes), stmt=stmt, label=label)
        self.nodes.append(node)
        if stmt is not None:
            self.stmt_index[stmt] = node.index
        return node.index

    def add_edge(self, src: int, dst: int) -> None:
        self.nodes[src].succ.add(dst)

    def add_exc_edge(self, src: int, dst: int) -> None:
        self.nodes[src].exc_succ.add(dst)

    def successors(self, index: int,
                   include_exceptions: bool = True) -> FrozenSet[int]:
        node = self.nodes[index]
        if include_exceptions:
            return frozenset(node.succ | node.exc_succ)
        return frozenset(node.succ)


def _may_raise(stmt: ast.stmt) -> bool:
    """Conservative: may executing *stmt* raise an exception?

    Anything containing a call, subscript, attribute access, ``raise``,
    ``assert``, arithmetic or ``await`` may raise.  Plain constant
    assignments, ``pass``, ``break``/``continue`` and bare name
    rebindings may not.  Over-approximating here only adds exception
    edges (more paths for RL012 to check), never hides one.
    """
    if isinstance(stmt, (ast.Pass, ast.Break, ast.Continue, ast.Global,
                         ast.Nonlocal, ast.Import, ast.ImportFrom)):
        return False
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Call, ast.Subscript, ast.Attribute,
                             ast.Await, ast.BinOp, ast.UnaryOp,
                             ast.Compare, ast.Starred)):
            return True
    return False


def _catches_everything(handler: ast.excepthandler) -> bool:
    """Does this handler match any exception (bare / BaseException)?

    ``except Exception`` is deliberately *not* total -- it lets
    KeyboardInterrupt and SystemExit escape, so a handler chain ending
    there still gets an escape edge to the outer target.
    """
    if handler.type is None:
        return True
    return isinstance(handler.type, ast.Name) and \
        handler.type.id == "BaseException"


class _CfgBuilder:
    """Recursive-descent CFG construction over one function body."""

    def __init__(self, cfg: Cfg) -> None:
        self.cfg = cfg
        # innermost-first stack of exception targets (handler entry
        # nodes, or raise-exit); every may-raise statement gets an
        # exc edge to the current top.
        self.exc_targets: List[int] = [cfg.raise_exit]
        # (break target, continue target) stack for loops
        self.loop_targets: List[Tuple[int, int]] = []

    # -- helpers -------------------------------------------------------
    def _link(self, sources: List[int], dst: int) -> None:
        for src in sources:
            self.cfg.add_edge(src, dst)

    def _stmt_node(self, stmt: ast.stmt) -> int:
        index = self.cfg._new(stmt)
        if _may_raise(stmt):
            self.cfg.add_exc_edge(index, self.exc_targets[-1])
        return index

    # -- entry ---------------------------------------------------------
    def build(self, body: List[ast.stmt]) -> None:
        exits = self.block(body, [self.cfg.entry])
        self._link(exits, self.cfg.exit)

    def block(self, body: List[ast.stmt],
              preds: List[int]) -> List[int]:
        """Wire *body* after *preds*; return the fall-through frontier."""
        current = preds
        for stmt in body:
            if not current:
                # unreachable code after return/raise/break -- still
                # build nodes (suppressions etc. need them) but with no
                # incoming normal edge.
                current = []
            current = self.statement(stmt, current)
        return current

    # -- statement dispatch --------------------------------------------
    def statement(self, stmt: ast.stmt,
                  preds: List[int]) -> List[int]:
        if isinstance(stmt, (ast.If,)):
            return self._if(stmt, preds)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)
        if isinstance(stmt, ast.Return):
            node = self._stmt_node(stmt)
            self._link(preds, node)
            self.cfg.add_edge(node, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            node = self._stmt_node(stmt)
            self._link(preds, node)
            # _stmt_node already added the exc edge; no normal successor
            return []
        if isinstance(stmt, ast.Break):
            node = self._stmt_node(stmt)
            self._link(preds, node)
            if self.loop_targets:
                self.cfg.add_edge(node, self.loop_targets[-1][0])
            return []
        if isinstance(stmt, ast.Continue):
            node = self._stmt_node(stmt)
            self._link(preds, node)
            if self.loop_targets:
                self.cfg.add_edge(node, self.loop_targets[-1][1])
            return []
        # simple statement (including nested def/class, treated opaque)
        node = self._stmt_node(stmt)
        self._link(preds, node)
        return [node]

    def _if(self, stmt: ast.If, preds: List[int]) -> List[int]:
        cond = self._stmt_node(stmt)
        self._link(preds, cond)
        exits = self.block(stmt.body, [cond])
        if stmt.orelse:
            exits += self.block(stmt.orelse, [cond])
        else:
            exits.append(cond)
        return exits

    def _loop(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        assert isinstance(stmt, (ast.For, ast.AsyncFor, ast.While))
        head = self._stmt_node(stmt)
        self._link(preds, head)
        # A join node after the loop keeps break targets simple.
        after = self.cfg._new(None, "loop-exit")
        self.loop_targets.append((after, head))
        body_exits = self.block(stmt.body, [head])
        self._link(body_exits, head)           # back edge
        self.loop_targets.pop()
        else_exits = self.block(stmt.orelse, [head]) if stmt.orelse \
            else [head]
        self._link(else_exits, after)
        return [after]

    def _try(self, stmt: ast.Try, preds: List[int]) -> List[int]:
        # The finally body gets a synthetic entry node so that *both*
        # the normal exits and every exception edge out of the try body
        # / handlers funnel through it -- a close in a finally therefore
        # dominates both the happy and the unhappy path, which is
        # exactly what RL012 needs.  After the finally, the exceptional
        # path re-raises: modelled as an exception edge from its last
        # statements to the next-outer target (over-approximated by
        # also letting the normal path continue).
        final_entry: Optional[int] = None
        if stmt.finalbody:
            final_entry = self.cfg._new(None, "finally")
            self.exc_targets.append(final_entry)

        handler_entries = [self.cfg._new(None, "except")
                           for _ in stmt.handlers]
        if handler_entries:
            # Body statements that raise jump to the first handler
            # entry; an unmatched exception type falls through the
            # chain and finally escapes to the next-outer target --
            # unless the chain ends in a catch-all (bare ``except:``
            # or ``except BaseException``), which matches everything.
            self.exc_targets.append(handler_entries[0])
            for left, right in zip(handler_entries, handler_entries[1:]):
                self.cfg.add_edge(left, right)
            if not _catches_everything(stmt.handlers[-1]):
                self.cfg.add_exc_edge(handler_entries[-1],
                                      self.exc_targets[-2])
        body_exits = self.block(stmt.body, preds)
        if handler_entries:
            self.exc_targets.pop()

        all_exits: List[int] = []
        else_exits = self.block(stmt.orelse, body_exits) if stmt.orelse \
            else body_exits
        all_exits.extend(else_exits)
        # Handler bodies run with the try's own target popped: an
        # exception raised *inside* a handler goes to the finally (if
        # any) or the next-outer handler.
        for handler, entry in zip(stmt.handlers, handler_entries):
            all_exits.extend(self.block(handler.body, [entry]))

        if final_entry is not None:
            self.exc_targets.pop()
            self._link(all_exits, final_entry)
            final_exits = self.block(stmt.finalbody, [final_entry])
            for index in final_exits:
                self.cfg.add_exc_edge(index, self.exc_targets[-1])
            return final_exits
        return all_exits

    def _with(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        head = self._stmt_node(stmt)
        self._link(preds, head)
        return self.block(stmt.body, [head])


def build_cfg(func: ast.AST) -> Cfg:
    """Build the CFG for one ``def``/``async def`` body."""
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    cfg = Cfg()
    _CfgBuilder(cfg).build(list(func.body))
    return cfg


# ----------------------------------------------------------------------
# call graph & event-loop reachability
# ----------------------------------------------------------------------
@dataclass
class CallSite:
    """One resolved call edge origin."""

    node: ast.Call
    callee: str                 # qualified key into ProjectFlow.functions


@dataclass
class FunctionInfo:
    """One function or method definition anywhere in the project."""

    key: str                    # "relpath::Class.method" / "relpath::func"
    module: ModuleInfo
    node: ast.AST               # FunctionDef | AsyncFunctionDef
    name: str
    class_name: Optional[str]
    is_async: bool
    calls: List[CallSite] = field(default_factory=list)
    on_event_loop: bool = False   # a coroutine, or reached from one by calls


@dataclass
class ClassInfo:
    """One class definition: methods, attribute types, lock attributes."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> key
    attr_types: Dict[str, str] = field(default_factory=dict)
    lock_attrs: Set[str] = field(default_factory=set)


def _annotation_class(annotation: Optional[ast.expr]) -> Optional[str]:
    """The class name an annotation resolves to, unwrapping Optional."""
    if annotation is None:
        return None
    node: ast.expr = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    while isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.attr if isinstance(head, ast.Attribute) else \
            (head.id if isinstance(head, ast.Name) else None)
        if head_name in ("Optional", "Final", "ClassVar"):
            node = node.slice
            continue
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _call_head(node: ast.Call) -> Optional[str]:
    """Dotted name of a call target, or None."""
    parts: List[str] = []
    target: ast.expr = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
        return ".".join(reversed(parts))
    return None


class ProjectFlow:
    """Call graph + event-loop reachability over every analyzed module.

    Built once per ``run_lint`` invocation and handed to each project
    rule.  Resolution is name-based and intentionally approximate; see
    the module docstring and docs/static-analysis.md for the known
    over/under-approximations.
    """

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        # simple name -> keys (for cross-module resolution)
        self.by_name: Dict[str, List[str]] = {}

    # -- construction --------------------------------------------------
    @classmethod
    def build(cls, modules: Dict[str, ModuleInfo]) -> "ProjectFlow":
        flow = cls()
        for module in modules.values():
            flow._index_module(module)
        flow._resolve_calls()
        flow._mark_event_loop()
        return flow

    def _index_module(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, None)
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node)

    def _index_class(self, module: ModuleInfo,
                     node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, module=module, node=node)
        for base in node.bases:
            base_name = base.attr if isinstance(base, ast.Attribute) \
                else (base.id if isinstance(base, ast.Name) else None)
            if base_name:
                info.bases.append(base_name)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = self._add_function(module, child, node.name)
                info.methods[child.name] = key
            elif isinstance(child, ast.AnnAssign) and \
                    isinstance(child.target, ast.Name):
                type_name = _annotation_class(child.annotation)
                if type_name:
                    info.attr_types[child.target.id] = type_name
        # attribute types and lock attributes from method bodies
        for child in ast.walk(node):
            self._scan_self_assign(info, child)
        self.classes.setdefault(node.name, info)

    @staticmethod
    def _scan_self_assign(info: ClassInfo, node: ast.AST) -> None:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        annotation: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value, annotation = \
                [node.target], node.value, node.annotation
        elif isinstance(node, ast.AnnAssign):
            targets, annotation = [node.target], node.annotation
        for target in targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            attr = target.attr
            type_name = _annotation_class(annotation)
            if type_name:
                info.attr_types.setdefault(attr, type_name)
            if value is None:
                continue
            candidates: List[ast.expr] = [value]
            if isinstance(value, ast.IfExp):
                candidates = [value.body, value.orelse]
            for candidate in candidates:
                if isinstance(candidate, ast.Call):
                    head = _call_head(candidate)
                    if head is None:
                        continue
                    leaf = head.split(".")[-1]
                    if leaf in ("Lock", "RLock") and \
                            ("threading" in head or head == leaf):
                        info.lock_attrs.add(attr)
                    elif leaf and leaf[0].isupper():
                        info.attr_types.setdefault(attr, leaf)

    def _add_function(self, module: ModuleInfo, node: ast.AST,
                      class_name: Optional[str]) -> str:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qual = f"{class_name}.{node.name}" if class_name else node.name
        key = f"{module.relpath}::{qual}"
        info = FunctionInfo(
            key=key, module=module, node=node, name=node.name,
            class_name=class_name,
            is_async=isinstance(node, ast.AsyncFunctionDef))
        self.functions[key] = info
        self.by_name.setdefault(node.name, []).append(key)
        return key

    # -- call resolution -----------------------------------------------
    def _resolve_calls(self) -> None:
        for info in self.functions.values():
            own_class = self.classes.get(info.class_name or "")
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                callee_key = self._resolve_call(node, info, own_class)
                if callee_key is not None:
                    info.calls.append(CallSite(node=node,
                                               callee=callee_key))

    def _resolve_call(self, node: ast.Call, caller: FunctionInfo,
                      own_class: Optional[ClassInfo]) -> Optional[str]:
        func = node.func
        # self.method(...)
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id == "self" and own_class is not None:
            key = self._method_on(own_class, func.attr)
            if key is not None:
                return key
        # self.attr.method(...) with a typed attr
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Attribute) and \
                isinstance(func.value.value, ast.Name) and \
                func.value.value.id == "self" and own_class is not None:
            attr_type = own_class.attr_types.get(func.value.attr)
            if attr_type:
                target = self.classes.get(attr_type)
                if target is not None:
                    return self._method_on(target, func.attr)
        # name(...) -- same module first, then unique cross-module
        if isinstance(func, ast.Name):
            return self._function_named(func.id, caller.module)
        # obj.method(...) where obj is an annotated local/param
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            type_name = self._local_type(caller, func.value.id)
            if type_name:
                target = self.classes.get(type_name)
                if target is not None:
                    return self._method_on(target, func.attr)
        return None

    def _method_on(self, cls: ClassInfo, name: str) -> Optional[str]:
        key = cls.methods.get(name)
        if key is not None:
            return key
        for base in cls.bases:
            parent = self.classes.get(base)
            if parent is not None:
                found = self._method_on(parent, name)
                if found is not None:
                    return found
        return None

    def _function_named(self, name: str,
                        module: ModuleInfo) -> Optional[str]:
        local = f"{module.relpath}::{name}"
        if local in self.functions:
            return local
        keys = [k for k in self.by_name.get(name, ())
                if self.functions[k].class_name is None]
        if len(keys) == 1:
            return keys[0]
        return None

    def _local_type(self, info: FunctionInfo, name: str) -> Optional[str]:
        node = info.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (list(node.args.posonlyargs) + list(node.args.args)
                    + list(node.args.kwonlyargs)):
            if arg.arg == name:
                return _annotation_class(arg.annotation)
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name) and \
                    stmt.target.id == name:
                return _annotation_class(stmt.annotation)
            if isinstance(stmt, ast.Assign) and \
                    isinstance(stmt.value, ast.Call):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and \
                            target.id == name:
                        head = _call_head(stmt.value)
                        if head:
                            leaf = head.split(".")[-1]
                            if leaf and leaf[0].isupper():
                                return leaf
        return None

    # -- event-loop reachability ---------------------------------------
    def _mark_event_loop(self) -> None:
        """Mark the coroutines and everything they reach by calls.

        A worklist seeded with every ``async def``: a sync callee of a
        function on the loop runs on the loop too.
        """
        pending = [info for info in self.functions.values()
                   if info.is_async]
        for info in pending:
            info.on_event_loop = True
        while pending:
            info = pending.pop()
            for call in info.calls:
                callee = self.functions.get(call.callee)
                if callee is not None and not callee.on_event_loop:
                    callee.on_event_loop = True
                    pending.append(callee)
