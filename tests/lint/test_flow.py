"""CFG and call-graph unit tests for :mod:`repro.lint.flow`.

The CFG promises RL012 relies on are pinned directly against node
edges: exception edges reach the enclosing handler chain, try/finally
funnels *both* the happy and the unhappy path through the finally
body, and catch-all handlers swallow the escape edge.  The event-loop
marking RL008 relies on is pinned per idiom: coroutines, sync call
chains below them, and the callable the service daemon hands to its
executor through ``_store_call``.
"""

import ast
import textwrap

from repro.lint import ModuleInfo, ProjectFlow, build_cfg


def module_from(source, relpath="mod.py"):
    src = textwrap.dedent(source)
    return ModuleInfo(abspath="/" + relpath, relpath=relpath,
                      source=src, tree=ast.parse(src),
                      lines=src.splitlines())


def flow_of(*sources):
    modules = {}
    for index, source in enumerate(sources):
        relpath = f"mod{index}.py" if index else "mod.py"
        modules[relpath] = module_from(source, relpath)
    return ProjectFlow.build(modules)


def cfg_of(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if name is None or node.name == name:
                return build_cfg(node)
    raise AssertionError(f"no function {name!r} in fixture")


def node_at(cfg, lineno):
    """The CFG node whose statement starts at *lineno* (1-based in
    the dedented fixture)."""
    for node in cfg.nodes:
        if node.stmt is not None and node.stmt.lineno == lineno:
            return node
    raise AssertionError(f"no node at line {lineno}")


def reachable(cfg, start, with_exceptions=True):
    seen, stack = set(), [start]
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        stack.extend(cfg.successors(index, with_exceptions))
    return seen


class TestCfgBasics:
    def test_linear_chain_reaches_exit(self):
        cfg = cfg_of("""\
            def f(x):
                y = x + 1
                return y
        """)
        assert cfg.exit in reachable(cfg, cfg.entry)

    def test_may_raise_statement_gets_exception_edge(self):
        cfg = cfg_of("""\
            def f(x):
                y = g(x)
                return y
        """)
        assert cfg.raise_exit in node_at(cfg, 2).exc_succ

    def test_constant_assignment_may_not_raise(self):
        cfg = cfg_of("""\
            def f():
                y = 1
                return y
        """)
        assert node_at(cfg, 2).exc_succ == set()

    def test_code_after_return_is_unreachable(self):
        cfg = cfg_of("""\
            def f(x):
                return x
                y = g(x)
        """)
        assert node_at(cfg, 3).index not in reachable(cfg, cfg.entry)

    def test_branch_joins_after_if(self):
        cfg = cfg_of("""\
            def f(flag):
                if flag:
                    a = 1
                else:
                    a = 2
                return a
        """)
        join = node_at(cfg, 6).index
        assert join in node_at(cfg, 3).succ
        assert join in node_at(cfg, 5).succ

    def test_if_without_else_falls_through(self):
        cfg = cfg_of("""\
            def f(flag):
                if flag:
                    a = 1
                return flag
        """)
        tail = node_at(cfg, 4).index
        assert tail in node_at(cfg, 2).succ       # condition false
        assert tail in node_at(cfg, 3).succ       # body done

    def test_while_loop_has_back_edge(self):
        cfg = cfg_of("""\
            def f(n):
                while n:
                    n = step(n)
                return n
        """)
        head = node_at(cfg, 2).index
        assert head in node_at(cfg, 3).succ       # back edge
        assert node_at(cfg, 4).index in reachable(cfg, head)

    def test_break_leaves_the_loop(self):
        cfg = cfg_of("""\
            def f(items):
                for item in items:
                    break
                return items
        """)
        assert node_at(cfg, 4).index in reachable(
            cfg, node_at(cfg, 3).index)


class TestCfgExceptionEdges:
    def test_raise_in_try_reaches_handler(self):
        cfg = cfg_of("""\
            def f(x):
                try:
                    check(x)
                except ValueError:
                    x = 0
                return x
        """)
        handler = node_at(cfg, 5).index
        assert handler in reachable(cfg, node_at(cfg, 3).index)

    def test_unmatched_exception_escapes_past_narrow_handler(self):
        cfg = cfg_of("""\
            def f(x):
                try:
                    check(x)
                except ValueError:
                    return 0
                return x
        """)
        # A non-ValueError raised by check() must still be able to
        # escape the function: the handler chain is not total.
        assert cfg.raise_exit in reachable(cfg, node_at(cfg, 3).index)

    def test_catch_all_handler_swallows_the_escape(self):
        cfg = cfg_of("""\
            def f(x):
                try:
                    check(x)
                except BaseException:
                    cleanup(x)
                    raise
                return x
        """)
        # Every escape to raise-exit must pass through the handler
        # body (line 5) -- there is no handler-chain fall-through.
        body = node_at(cfg, 3)
        cleanup = node_at(cfg, 5).index
        seen, stack = set(), list(body.exc_succ)
        while stack:
            index = stack.pop()
            if index in seen or index == cleanup:
                continue
            seen.add(index)
            node = cfg.nodes[index]
            stack.extend(node.succ | node.exc_succ)
        assert cfg.raise_exit not in seen

    def test_try_finally_funnels_exception_through_finally(self):
        cfg = cfg_of("""\
            def f(x):
                try:
                    work(x)
                finally:
                    release(x)
        """)
        finally_node = node_at(cfg, 5).index
        body = node_at(cfg, 3)
        # The body's exception edge must lead into the finally...
        assert cfg.raise_exit not in body.exc_succ
        assert finally_node in reachable(
            cfg, next(iter(body.exc_succ)))
        # ...and after the finally the exception re-raises.
        assert cfg.raise_exit in cfg.nodes[finally_node].exc_succ

    def test_handler_exception_goes_to_finally(self):
        cfg = cfg_of("""\
            def f(x):
                try:
                    work(x)
                except ValueError:
                    recover(x)
                finally:
                    release(x)
        """)
        handler_stmt = node_at(cfg, 5)
        finally_node = node_at(cfg, 7).index
        assert cfg.raise_exit not in handler_stmt.exc_succ
        assert finally_node in reachable(
            cfg, next(iter(handler_stmt.exc_succ)))


class TestEventLoopMarking:
    def test_coroutine_is_on_the_loop(self):
        flow = flow_of("""\
            async def serve():
                pass
        """)
        assert flow.functions["mod.py::serve"].on_event_loop

    def test_uncalled_sync_function_is_off_the_loop(self):
        flow = flow_of("""\
            def helper():
                pass
        """)
        assert not flow.functions["mod.py::helper"].on_event_loop

    def test_sync_call_chain_inherits_the_loop(self):
        flow = flow_of("""\
            def leaf():
                pass

            def middle():
                leaf()

            async def serve():
                middle()
        """)
        assert flow.functions["mod.py::middle"].on_event_loop
        assert flow.functions["mod.py::leaf"].on_event_loop

    def test_store_call_callable_stays_off_the_loop(self):
        # The service daemon's _store_call idiom: the callable is
        # passed to run_in_executor, never called on the loop, so it
        # gets no call edge from a coroutine.
        flow = flow_of("""\
            import asyncio
            from functools import partial

            class Daemon:
                def _persist(self):
                    pass

                async def _store_call(self, fn, *args):
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(
                        self._io, partial(fn, *args))

                async def checkpoint(self):
                    await self._store_call(self._persist)
        """)
        assert flow.functions["mod.py::Daemon._store_call"].on_event_loop
        assert not flow.functions["mod.py::Daemon._persist"].on_event_loop


class TestClassIndexing:
    def test_lock_attrs_detected(self):
        flow = flow_of("""\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}
        """)
        assert flow.classes["Box"].lock_attrs == {"_lock"}

    def test_attr_types_from_annotation(self):
        flow = flow_of("""\
            from typing import Optional

            class Store:
                pass

            class Daemon:
                def __init__(self):
                    self._store: Optional[Store] = None
        """)
        assert flow.classes["Daemon"].attr_types["_store"] == "Store"

    def test_self_method_call_resolves_through_base_class(self):
        flow = flow_of("""\
            class Base:
                def shared(self):
                    pass

            class Child(Base):
                def caller(self):
                    self.shared()
        """)
        caller = flow.functions["mod.py::Child.caller"]
        assert [site.callee for site in caller.calls] == \
            ["mod.py::Base.shared"]

    def test_cross_module_unique_function_resolves(self):
        flow = flow_of(
            """\
            def caller():
                unique_helper()
            """,
            """\
            def unique_helper():
                pass
            """)
        caller = flow.functions["mod.py::caller"]
        assert [site.callee for site in caller.calls] == \
            ["mod1.py::unique_helper"]
