"""End-to-end observer tests: kernel trace records in, references out."""

import pytest

from repro.core.correlator import Action, ObservedReference
from repro.core.parameters import SeerParameters
from repro.fs import FileKind, FileSystem
from repro.kernel import Kernel
from repro.observer import ControlConfig, MeaninglessStrategy, Observer
from repro.tracing.events import Operation, TraceRecord


def build_kernel():
    kernel = Kernel()
    kernel.fs.mkdir("/home/u/proj", parents=True)
    kernel.fs.mkdir("/bin", parents=True)
    kernel.fs.mkdir("/tmp", parents=True)
    kernel.fs.mkdir("/etc", parents=True)
    kernel.fs.mkdir("/dev", parents=True)
    kernel.fs.create("/bin/cc", size=50_000)
    kernel.fs.create("/etc/passwd", size=100)
    kernel.fs.create("/dev/tty0", kind=FileKind.DEVICE)
    kernel.fs.create("/home/u/proj/main.c", size=1_000)
    kernel.fs.create("/home/u/proj/util.c", size=900)
    kernel.fs.create("/home/u/.login", size=50)
    return kernel


@pytest.fixture
def setup():
    kernel = build_kernel()
    received = []
    observer = Observer(handler=received.append, filesystem=kernel.fs,
                        process_table=kernel.processes,
                        parameters=SeerParameters(
                            frequent_file_minimum_accesses=50))
    kernel.add_sink(observer.handle_record)
    user = kernel.processes.spawn(ppid=1, program="bash", uid=1000,
                                  cwd="/home/u/proj")
    return kernel, observer, user, received


def actions(received):
    return [(ref.action, ref.path) for ref in received]


class TestAbsolutization:
    def test_relative_path_resolved(self, setup):
        kernel, observer, user, received = setup
        observer._cwd[user.pid] = "/home/u/proj"  # prime the cwd map
        fd = kernel.open(user, "main.c")
        assert received[-1].path == "/home/u/proj/main.c"

    def test_cwd_tracked_from_chdir(self, setup):
        kernel, observer, user, received = setup
        kernel.mkdir(user, "/home/u/proj/sub")
        kernel.chdir(user, "/home/u/proj/sub")
        kernel.fs.create("/home/u/proj/sub/file.c", size=10)
        kernel.open(user, "file.c")
        assert received[-1].path == "/home/u/proj/sub/file.c"

    def test_child_inherits_cwd(self, setup):
        kernel, observer, user, received = setup
        kernel.chdir(user, "/home/u/proj")
        child = kernel.fork(user)
        kernel.open(child, "main.c")
        assert received[-1].path == "/home/u/proj/main.c"


class TestClassification:
    def test_open_close_pairing(self, setup):
        kernel, observer, user, received = setup
        fd = kernel.open(user, "/home/u/proj/main.c")
        kernel.close(user, fd)
        assert actions(received)[-2:] == [
            (Action.OPEN, "/home/u/proj/main.c"),
            (Action.CLOSE, "/home/u/proj/main.c")]

    def test_exec_forwarded(self, setup):
        kernel, observer, user, received = setup
        kernel.exec(user, "/bin/cc")
        assert (Action.EXEC, "/bin/cc") in actions(received)

    def test_stat_forwarded_as_stat(self, setup):
        kernel, observer, user, received = setup
        kernel.stat(user, "/home/u/proj/main.c")
        assert received[-1].action is Action.STAT

    def test_unlink_forwarded_as_delete(self, setup):
        kernel, observer, user, received = setup
        kernel.unlink(user, "/home/u/proj/util.c")
        assert received[-1].action is Action.DELETE

    def test_rename_carries_both_paths(self, setup):
        kernel, observer, user, received = setup
        kernel.rename(user, "/home/u/proj/util.c", "renamed.c")
        assert received[-1].action is Action.RENAME
        assert received[-1].path == "/home/u/proj/util.c"
        assert received[-1].path2 == "/home/u/proj/renamed.c"

    def test_fork_and_exit_forwarded(self, setup):
        kernel, observer, user, received = setup
        child = kernel.fork(user)
        kernel.exit(child)
        assert (Action.FORK, "") in actions(received)
        assert (Action.EXIT, "") in actions(received)

    def test_chmod_is_point(self, setup):
        kernel, observer, user, received = setup
        kernel.chmod(user, "/home/u/proj/main.c")
        assert received[-1].action is Action.POINT


class TestFiltering:
    def test_failed_open_not_forwarded(self, setup):
        kernel, observer, user, received = setup
        kernel.open(user, "/no/such/file")
        assert received == []
        assert observer.drops["failed"] == 1

    def test_close_of_unforwarded_open_dropped(self, setup):
        kernel, observer, user, received = setup
        fd = kernel.open(user, "/tmp/scratch", create=True)
        kernel.close(user, fd)
        assert received == []   # both sides filtered (transient)

    def test_transient_dir_ignored(self, setup):
        kernel, observer, user, received = setup
        fd = kernel.open(user, "/tmp/sort123", create=True)
        assert received == []
        assert observer.drops["transient"] == 1

    def test_critical_file_collected_not_forwarded(self, setup):
        kernel, observer, user, received = setup
        kernel.open(user, "/etc/passwd")
        assert received == []
        assert "/etc/passwd" in observer.critical_seen

    def test_dotfile_collected(self, setup):
        kernel, observer, user, received = setup
        kernel.open(user, "/home/u/.login")
        assert received == []
        assert "/home/u/.login" in observer.critical_seen

    def test_device_node_collected(self, setup):
        kernel, observer, user, received = setup
        kernel.stat(user, "/dev/tty0")
        assert received == []
        assert "/dev/tty0" in observer.nonfiles_seen

    def test_always_hoard_union(self, setup):
        kernel, observer, user, received = setup
        kernel.open(user, "/etc/passwd")
        kernel.stat(user, "/dev/tty0")
        always = observer.always_hoard_paths()
        assert "/etc/passwd" in always
        assert "/dev/tty0" in always

    def test_frequent_file_dropped_after_threshold(self, setup):
        kernel, observer, user, received = setup
        kernel.fs.create("/bin/libc.so", size=900_000)
        for index in range(60):
            fd = kernel.open(user, "/bin/libc.so")
            kernel.close(user, fd)
        assert observer.frequent.is_frequent("/bin/libc.so")
        before = len(received)
        fd = kernel.open(user, "/bin/libc.so")
        assert len(received) == before  # no longer forwarded


class TestMeaninglessIntegration:
    def test_find_marked_meaningless(self, setup):
        kernel, observer, user, received = setup
        find = kernel.processes.spawn(ppid=1, program="find", uid=1000, cwd="/")
        # find scans the project directory and opens every file.
        for _ in range(10):
            names = kernel.scandir(find, "/home/u/proj")
            for name in names:
                fd = kernel.open(find, f"/home/u/proj/{name}")
                if fd >= 0:
                    kernel.close(find, fd)
        assert observer.meaningless.is_meaningless(find.pid, "find")
        before = len(received)
        kernel.open(find, "/home/u/proj/main.c")
        assert len(received) == before

    def test_getcwd_readdirs_do_not_poison_counters(self, setup):
        kernel, observer, user, received = setup
        # Climbing reads /home/u (2 entries within /home/u? entries vary);
        # only the first leg of the climb can leak into the counters.
        kernel.getcwd(user)
        history = observer.meaningless.touch_ratio(user.program)
        # The editor never touched a file, so no ratio or a 0-touch one.
        assert history is None or history == 0.0

    def test_user_not_meaningless_after_getcwd(self, setup):
        kernel, observer, user, received = setup
        for _ in range(10):
            kernel.getcwd(user)
        fd = kernel.open(user, "/home/u/proj/main.c")
        assert not observer.meaningless.is_meaningless(user.pid, "bash")
        assert (Action.OPEN, "/home/u/proj/main.c") in actions(received)


class TestFailedAccessCallback:
    def test_callback_invoked(self):
        kernel = build_kernel()
        failures = []
        observer = Observer(handler=lambda ref: None, filesystem=kernel.fs,
                            process_table=kernel.processes,
                            on_failed_access=lambda path, time: failures.append(path))
        kernel.add_sink(observer.handle_record)
        user = kernel.processes.spawn(ppid=1, program="sh", cwd="/home/u/proj")
        kernel.open(user, "missing.c")
        assert failures == ["/home/u/proj/missing.c"]


class TestCounters:
    def test_records_processed(self, setup):
        kernel, observer, user, received = setup
        kernel.stat(user, "/home/u/proj/main.c")
        kernel.stat(user, "/home/u/proj/main.c")
        assert observer.records_processed == 2

    def test_forwarded_counter(self, setup):
        kernel, observer, user, received = setup
        kernel.stat(user, "/home/u/proj/main.c")
        assert observer.references_forwarded == len(received) == 1

    def test_exit_cleans_fd_map(self, setup):
        kernel, observer, user, received = setup
        kernel.open(user, "/home/u/proj/main.c")
        kernel.exit(user)
        assert not observer._forwarded_fds


class TestExecHandling:
    def test_exec_resets_process_counters(self, setup):
        kernel, observer, user, received = setup
        # The shell scans a directory, then execs an editor: the
        # scan-derived counters must not follow the new image.
        kernel.scandir(user, "/home/u/proj")
        kernel.exec(user, "/bin/cc")
        assert observer.meaningless._processes.get(user.pid) is None

    def test_exec_does_not_count_as_touch(self, setup):
        kernel, observer, user, received = setup
        kernel.exec(user, "/bin/cc")
        assert observer.meaningless.touch_ratio("bash") is None

    def test_exec_of_critical_program_collected(self, setup):
        kernel, observer, user, received = setup
        kernel.fs.create("/etc/rc", size=100)
        before = len(received)
        kernel.exec(user, "/etc/rc")
        assert len(received) == before
        assert "/etc/rc" in observer.critical_seen

    def test_write_close_feeds_write_protection(self, setup):
        kernel, observer, user, received = setup
        fd = kernel.open(user, "/home/u/proj/main.c", write=True)
        kernel.close(user, fd)
        assert not observer.meaningless.is_meaningless(user.pid, "bash")
        assert observer.meaningless._history("bash").wrote == 1


class TestControlReadOnce:
    def test_later_edits_to_the_callers_config_change_no_verdict(self):
        kernel = build_kernel()
        control = ControlConfig()
        received = []
        observer = Observer(handler=received.append, control=control,
                            filesystem=kernel.fs, process_table=kernel.processes)
        kernel.add_sink(observer.handle_record)
        user = kernel.processes.spawn(ppid=1, program="bash", uid=1000,
                                      cwd="/home/u/proj")
        kernel.stat(user, "/home/u/proj/main.c")    # a verdict computed before...
        control.transient_dirs.update({"/home/u/proj", "/bin"})
        kernel.stat(user, "/home/u/proj/main.c")    # ...and after the edit
        kernel.open(user, "/home/u/proj/util.c")
        kernel.exec(user, "/bin/cc")
        kernel.rename(user, "/home/u/proj/util.c", "/home/u/proj/renamed.c")
        assert observer.drops["transient"] == 0
        assert actions(received) == [
            (Action.STAT, "/home/u/proj/main.c"),
            (Action.STAT, "/home/u/proj/main.c"),
            (Action.OPEN, "/home/u/proj/util.c"),
            (Action.EXEC, "/bin/cc"),
            (Action.RENAME, "/home/u/proj/util.c"),
        ]


class TestKindFollowsFilesystem:
    """The non-file verdict is computed once per path and dropped when
    the filesystem's generation moves."""

    PATH = "/home/u/proj/alias.c"

    def test_symlink_replaced_by_a_regular_file_is_forwarded(self, setup):
        kernel, observer, user, received = setup
        kernel.symlink(user, "/home/u/proj/main.c", self.PATH)
        kernel.stat(user, self.PATH)
        assert received == []
        assert observer.drops["non-file"] == 1
        assert self.PATH in observer.nonfiles_seen
        kernel.unlink(user, self.PATH)
        kernel.fs.create(self.PATH, size=10)
        kernel.stat(user, self.PATH)
        assert actions(received) == [(Action.DELETE, self.PATH),
                                     (Action.STAT, self.PATH)]
        assert observer.drops["non-file"] == 1

    def test_regular_file_replaced_by_a_symlink_is_dropped(self, setup):
        kernel, observer, user, received = setup
        kernel.fs.create(self.PATH, size=10)
        kernel.stat(user, self.PATH)
        kernel.unlink(user, self.PATH)
        kernel.symlink(user, "/home/u/proj/main.c", self.PATH)
        kernel.stat(user, self.PATH)
        assert actions(received) == [(Action.STAT, self.PATH),
                                     (Action.DELETE, self.PATH)]
        assert observer.drops["non-file"] == 1
        assert self.PATH in observer.nonfiles_seen

    def test_an_unchanged_tree_is_asked_once_per_path(self, setup,
                                                      monkeypatch):
        kernel, observer, user, received = setup
        asked = []
        kind_of = observer._kind_of

        def counting_kind_of(path):
            asked.append(path)
            return kind_of(path)

        monkeypatch.setattr(observer, "_kind_of", counting_kind_of)
        kernel.fs.symlink("/home/u/proj/main.c", self.PATH)
        generation = kernel.fs.generation
        for _ in range(3):
            kernel.stat(user, "/home/u/proj/main.c")
            fd = kernel.open(user, "/home/u/proj/util.c")
            kernel.close(user, fd)
            kernel.stat(user, self.PATH)
        assert kernel.fs.generation == generation
        assert sorted(asked) == ["/home/u/proj/alias.c",
                                 "/home/u/proj/main.c",
                                 "/home/u/proj/util.c"]
        assert observer.drops["non-file"] == 3
        assert len(received) == 9


PROJ = "/home/u/proj"
MAIN = PROJ + "/main.c"

#: The record each operation is fed as, by pid 7 running vi in PROJ.
PARITY_RECORDS = {
    Operation.STAT: dict(path="main.c"),
    Operation.OPEN: dict(path="main.c", fd=4),
    Operation.CREATE: dict(path="new.c", fd=4),
    Operation.CLOSE: dict(path="main.c", fd=3),
    Operation.WRITE_CLOSE: dict(path="main.c", fd=3),
    Operation.OPENDIR: dict(path="/home/u", fd=5),
    Operation.READDIR: dict(path="/home/u", fd=5, entries=4),
    Operation.CLOSEDIR: dict(path="/home/u", fd=5),
    Operation.FORK: dict(pid=8, ppid=7),
    Operation.EXEC: dict(path="/bin/cc"),
    Operation.EXIT: dict(),
    Operation.CHDIR: dict(path="/bin"),
    Operation.CHMOD: dict(path="main.c"),
    Operation.UNLINK: dict(path="main.c"),
    Operation.RENAME: dict(path="main.c", path2="renamed.c"),
    Operation.READLINK: dict(path="/home/u/link"),
    Operation.MKDIR: dict(path="sub"),
    Operation.RMDIR: dict(path="sub"),
    Operation.SYMLINK: dict(path="l2", path2="main.c"),
}

#: The observer after the preamble: pid 7 in PROJ holds fd 3 on
#: main.c, and vi has touched one file.  Per-process meaningless
#: counters are (potential, touched, directories_open, marked), the
#: program's (potential, touched, wrote).
PARITY_BASE = dict(actions=[], drops={}, cwd={7: PROJ}, nonfiles=set(),
                   processes={7: (0, 1, 0, False)},
                   programs={"vi": (0, 1, 0)})
_TOUCHED = dict(processes={7: (0, 2, 0, False)}, programs={"vi": (0, 2, 0)})
_FAILED = dict(drops={"failed": 1})

#: What each (operation, ok) changes from PARITY_BASE.  MKDIR, RMDIR,
#: SYMLINK and CLOSEDIR change nothing either way.
PARITY_EXPECTED = {
    (Operation.STAT, True): dict(actions=[(Action.STAT, MAIN, "")],
                                 **_TOUCHED),
    (Operation.STAT, False): _FAILED,
    (Operation.OPEN, True): dict(actions=[(Action.OPEN, MAIN, "")],
                                 **_TOUCHED),
    (Operation.OPEN, False): _FAILED,
    (Operation.CREATE, True): dict(
        actions=[(Action.OPEN, PROJ + "/new.c", "")], **_TOUCHED),
    (Operation.CREATE, False): _FAILED,
    (Operation.CLOSE, True): dict(actions=[(Action.CLOSE, MAIN, "")]),
    (Operation.CLOSE, False): dict(actions=[(Action.CLOSE, MAIN, "")]),
    (Operation.WRITE_CLOSE, True): dict(actions=[(Action.CLOSE, MAIN, "")],
                                        programs={"vi": (0, 1, 1)}),
    (Operation.WRITE_CLOSE, False): dict(actions=[(Action.CLOSE, MAIN, "")]),
    (Operation.OPENDIR, True): dict(processes={7: (0, 1, 1, True)}),
    (Operation.READDIR, True): dict(processes={7: (4, 1, 0, False)},
                                    programs={"vi": (4, 1, 0)}),
    (Operation.FORK, True): dict(actions=[(Action.FORK, "", "")],
                                 cwd={7: PROJ, 8: PROJ}),
    (Operation.FORK, False): dict(actions=[(Action.FORK, "", "")],
                                  cwd={7: PROJ, 8: PROJ}),
    (Operation.EXEC, True): dict(actions=[(Action.EXEC, "/bin/cc", "")],
                                 processes={}),
    (Operation.EXEC, False): _FAILED,
    (Operation.EXIT, True): dict(actions=[(Action.EXIT, "", "")], cwd={},
                                 processes={}),
    (Operation.EXIT, False): dict(actions=[(Action.EXIT, "", "")], cwd={},
                                  processes={}),
    (Operation.CHDIR, True): dict(cwd={7: "/bin"}),
    (Operation.CHMOD, True): dict(actions=[(Action.POINT, MAIN, "")],
                                  **_TOUCHED),
    (Operation.CHMOD, False): _FAILED,
    (Operation.UNLINK, True): dict(actions=[(Action.DELETE, MAIN, "")],
                                   **_TOUCHED),
    (Operation.UNLINK, False): _FAILED,
    (Operation.RENAME, True): dict(
        actions=[(Action.RENAME, MAIN, PROJ + "/renamed.c")]),
    (Operation.READLINK, True): dict(nonfiles={"/home/u/link"}),
}


class TestDispatchParity:
    """Every operation, succeeding and failing, has the outcome the
    observer gave it before its dispatch was reordered."""

    @pytest.mark.parametrize("ok", [True, False], ids=["ok", "failed"])
    @pytest.mark.parametrize("op", list(Operation), ids=lambda op: op.name)
    def test_outcome(self, op, ok):
        filesystem = FileSystem()
        filesystem.mkdir(PROJ, parents=True)
        filesystem.mkdir("/bin")
        filesystem.create("/bin/cc", size=10)
        filesystem.create(MAIN, size=10)
        filesystem.symlink(MAIN, "/home/u/link")
        received = []
        observer = Observer(received.append, filesystem=filesystem)
        observer.handle_record(TraceRecord(1, 1.0, 7, Operation.CHDIR,
                                           path=PROJ, program="vi"))
        observer.handle_record(TraceRecord(2, 2.0, 7, Operation.OPEN,
                                           path="main.c", program="vi",
                                           fd=3))
        received.clear()
        fields = dict(pid=7, program="vi")
        fields.update(PARITY_RECORDS[op])
        observer.handle_record(TraceRecord(seq=3, time=3.0, op=op, ok=ok,
                                           **fields))
        meaningless = observer.meaningless
        outcome = dict(
            actions=[(ref.action, ref.path, ref.path2) for ref in received],
            drops=dict(observer.drops),
            cwd=dict(observer._cwd),
            nonfiles=observer.nonfiles_seen,
            processes={pid: (c.potential, c.touched, c.directories_open,
                             c.marked)
                       for pid, c in meaningless._processes.items()},
            programs={program: (h.potential, h.touched, h.wrote)
                      for program, h in meaningless._programs.items()})
        assert outcome == {**PARITY_BASE,
                           **PARITY_EXPECTED.get((op, ok), {})}
