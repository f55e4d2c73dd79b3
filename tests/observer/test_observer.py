"""End-to-end observer tests: kernel trace records in, references out."""

import pytest

from repro.core.correlator import Action, ObservedReference
from repro.core.parameters import SeerParameters
from repro.fs import FileKind
from repro.kernel import Kernel
from repro.observer import ControlConfig, MeaninglessStrategy, Observer


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
