"""Concurrency & resource-safety rules RL008, RL009, RL011 and RL012:
firing and clean fixtures per rule, and the suppression escape hatch."""

from tests.lint.conftest import rules_of

#: One minimal firing fixture per rule (each yields exactly one
#: finding).
POSITIVE = {
    "RL008": """
        import time

        async def serve():
            time.sleep(1)
    """,
    "RL009": """
        import threading

        class Shared:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}

            def add(self, key):
                with self._lock:
                    self._items[key] = 1

            async def read(self, key):
                return self._items.get(key)

        def worker(box: "Shared"):
            box.add("k")

        def launch():
            threading.Thread(target=worker).start()
    """,
    "RL011": """
        import asyncio

        async def spawn():
            asyncio.create_task(work())
    """,
    "RL012": """
        import sqlite3

        def query(path):
            conn = sqlite3.connect(path)
            return conn.execute("select 1")
    """,
}


class TestBlockingInEventLoop:
    def test_time_sleep_in_coroutine_fires(self, lint_snippet):
        result = lint_snippet(POSITIVE["RL008"], select=["RL008"])
        assert rules_of(result) == ["RL008"]
        assert "time.sleep" in result.findings[0].message

    def test_aliased_from_import_fires(self, lint_snippet):
        result = lint_snippet("""
            from time import sleep as snooze

            async def serve():
                snooze(1)
        """, select=["RL008"])
        assert rules_of(result) == ["RL008"]

    def test_reachable_sync_helper_fires(self, lint_snippet):
        # The blocking call sits in a sync helper, but the helper is
        # called from a coroutine: context propagation finds it.
        result = lint_snippet("""
            import time

            def pause():
                time.sleep(1)

            async def serve():
                pause()
        """, select=["RL008"])
        assert rules_of(result) == ["RL008"]

    def test_store_method_on_typed_receiver_fires(self, lint_snippet):
        result = lint_snippet("""
            async def save(store: "SqliteStore", spec, data):
                store.put(spec, data, 0.0)
        """, select=["RL008"])
        assert rules_of(result) == ["RL008"]

    def test_thread_context_is_clean(self, lint_snippet):
        result = lint_snippet("""
            import threading
            import time

            def job():
                time.sleep(1)

            def launch():
                threading.Thread(target=job).start()
        """, select=["RL008"])
        assert result.findings == []

    def test_executor_dispatched_callable_is_clean(self, lint_snippet):
        # The daemon's _store_call pattern: the blocking callee is
        # only ever handed to run_in_executor, so it runs on a thread.
        result = lint_snippet("""
            import asyncio
            import time
            from functools import partial

            class Daemon:
                def _persist(self):
                    time.sleep(1)

                async def _store_call(self, fn, *args):
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(
                        self._io, partial(fn, *args))

                async def checkpoint(self):
                    await self._store_call(self._persist)
        """, select=["RL008"])
        assert result.findings == []

    def test_line_suppression_is_honored(self, lint_snippet):
        result = lint_snippet("""
            import time

            async def serve():
                time.sleep(1)  # repro-lint: disable=RL008
        """, select=["RL008"])
        assert result.findings == []


class TestLockSetRaces:
    def test_lock_free_read_of_protected_attr_fires(self, lint_snippet):
        result = lint_snippet(POSITIVE["RL009"], select=["RL009"])
        assert rules_of(result) == ["RL009"]
        assert "_items" in result.findings[0].message

    def test_consistent_locking_is_clean(self, lint_snippet):
        result = lint_snippet("""
            import threading

            class Shared:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, key):
                    with self._lock:
                        self._items[key] = 1

                async def read(self, key):
                    with self._lock:
                        return self._items.get(key)

            def worker(box: "Shared"):
                box.add("k")

            def launch():
                threading.Thread(target=worker).start()
        """, select=["RL009"])
        assert result.findings == []

    def test_single_context_class_fires(self, lint_snippet):
        # Same mixed-locking pattern with nothing dispatching the class
        # off the main thread: the lock alone declares `_items` shared.
        result = lint_snippet("""
            import threading

            class Unshared:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, key):
                    with self._lock:
                        self._items[key] = 1

                def read(self, key):
                    return self._items.get(key)
        """, select=["RL009"])
        assert rules_of(result) == ["RL009"]

    def test_init_writes_are_exempt(self, lint_snippet):
        # __init__ runs before the object is shared; its lock-free
        # writes must not make every constructor a finding.
        result = lint_snippet("""
            import threading

            class Shared:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, key):
                    with self._lock:
                        self._items[key] = 1

                async def bump(self, key):
                    with self._lock:
                        self._items[key] = 2

            def worker(box: "Shared"):
                box.add("k")

            def launch():
                threading.Thread(target=worker).start()
        """, select=["RL009"])
        assert result.findings == []

    def test_file_suppression_is_honored(self, lint_snippet):
        result = lint_snippet(
            "# repro-lint: disable-file=RL009\n" + POSITIVE["RL009"],
            select=["RL009"])
        assert result.findings == []


class TestOrphanedTask:
    def test_bare_create_task_fires(self, lint_snippet):
        result = lint_snippet(POSITIVE["RL011"], select=["RL011"])
        assert rules_of(result) == ["RL011"]

    def test_underscore_binding_fires(self, lint_snippet):
        result = lint_snippet("""
            import asyncio

            async def spawn():
                _ = asyncio.ensure_future(work())
        """, select=["RL011"])
        assert rules_of(result) == ["RL011"]

    def test_kept_reference_is_clean(self, lint_snippet):
        result = lint_snippet("""
            import asyncio

            async def spawn(tasks):
                task = asyncio.create_task(work())
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        """, select=["RL011"])
        assert result.findings == []

    def test_task_group_is_supervised(self, lint_snippet):
        result = lint_snippet("""
            import asyncio

            async def spawn():
                async with asyncio.TaskGroup() as tg:
                    tg.create_task(work())
        """, select=["RL011"])
        assert result.findings == []

    def test_awaited_task_is_clean(self, lint_snippet):
        result = lint_snippet("""
            import asyncio

            async def spawn():
                await asyncio.create_task(work())
        """, select=["RL011"])
        assert result.findings == []

    def test_line_suppression_is_honored(self, lint_snippet):
        result = lint_snippet("""
            import asyncio

            async def spawn():
                asyncio.create_task(work())  # repro-lint: disable=RL011
        """, select=["RL011"])
        assert result.findings == []


class TestResourceSafety:
    def test_never_closed_fires_on_every_path(self, lint_snippet):
        result = lint_snippet(POSITIVE["RL012"], select=["RL012"])
        assert rules_of(result) == ["RL012"]
        assert "every path" in result.findings[0].message

    def test_exception_path_leak_fires(self, lint_snippet):
        result = lint_snippet("""
            def save(directory, spec, data):
                store = SqliteStore(directory).open()
                store.put(spec, data, 0.0)
                store.close()
        """, select=["RL012"])
        assert rules_of(result) == ["RL012"]
        assert "exception path" in result.findings[0].message

    def test_discarded_handle_fires(self, lint_snippet):
        result = lint_snippet("""
            def poke(directory):
                SqliteStore(directory).open()
        """, select=["RL012"])
        assert rules_of(result) == ["RL012"]
        assert "discarded" in result.findings[0].message

    def test_attribute_open_without_cleanup_fires(self, lint_snippet):
        result = lint_snippet("""
            import asyncio

            class Client:
                async def connect(self):
                    self._reader, self._writer = \\
                        await asyncio.open_connection("h", 1)
                    await self.handshake()
        """, select=["RL012"])
        assert rules_of(result) == ["RL012"]
        assert "attribute" in result.findings[0].message

    def test_try_finally_close_is_clean(self, lint_snippet):
        result = lint_snippet("""
            def save(directory, spec, data):
                store = SqliteStore(directory).open()
                try:
                    store.put(spec, data, 0.0)
                finally:
                    store.close()
        """, select=["RL012"])
        assert result.findings == []

    def test_with_managed_open_is_clean(self, lint_snippet):
        result = lint_snippet("""
            import socket

            def probe(address):
                with socket.create_connection(address) as sock:
                    return sock.recv(1)
        """, select=["RL012"])
        assert result.findings == []

    def test_returned_handle_escapes_tracking(self, lint_snippet):
        result = lint_snippet("""
            def opened(directory):
                store = SqliteStore(directory).open()
                return store
        """, select=["RL012"])
        assert result.findings == []

    def test_attribute_open_with_catch_all_cleanup_is_clean(
            self, lint_snippet):
        result = lint_snippet("""
            import asyncio

            class Client:
                async def connect(self):
                    self._reader, self._writer = \\
                        await asyncio.open_connection("h", 1)
                    try:
                        await self.handshake()
                    except BaseException:
                        await self.close()
                        raise
        """, select=["RL012"])
        assert result.findings == []

    def test_line_suppression_is_honored(self, lint_snippet):
        result = lint_snippet("""
            import sqlite3

            def query(path):
                conn = sqlite3.connect(path)  # repro-lint: disable=RL012
                return conn.execute("select 1")
        """, select=["RL012"])
        assert result.findings == []

