"""Property-based fuzzing of the correlator, kernel and replication.

These tests throw randomized event streams at whole subsystems and
check structural invariants -- the things that must hold no matter
what a user (or a buggy program) does.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.correlator import Action, Correlator, ObservedReference
from repro.core.parameters import SeerParameters
from repro.fs import FileSystem
from repro.kernel import Kernel
from repro.observer import Observer
from repro.replication.rumor import RumorReplica

# ----------------------------------------------------------------------
# correlator fuzz
# ----------------------------------------------------------------------
_PATHS = [f"/d{i}/f{j}" for i in range(3) for j in range(4)]
_ACTIONS = [Action.OPEN, Action.CLOSE, Action.POINT, Action.STAT,
            Action.EXEC, Action.EXIT, Action.DELETE, Action.RENAME,
            Action.FORK]

_events = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4),     # pid
              st.sampled_from(_ACTIONS),
              st.sampled_from(_PATHS),
              st.sampled_from(_PATHS)),                   # rename target
    max_size=150)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow],
          deadline=None)
@given(_events)
def test_correlator_survives_any_stream(events):
    parameters = SeerParameters(max_neighbors=5, delete_delay=3)
    correlator = Correlator(parameters)
    for seq, (pid, action, path, path2) in enumerate(events, start=1):
        correlator.handle(ObservedReference(
            seq=seq, time=float(seq), pid=pid, action=action,
            path=path, path2=path2, ppid=pid - 1 if action is Action.FORK else 0))
    # Invariants: bounded tables, self-free neighbor lists, files known.
    for file in correlator.store.files():
        table = correlator.store.get(file)
        assert len(table) <= parameters.max_neighbors
        assert file not in table
    clusters = correlator.build_clusters()
    for file in clusters.files():
        assert clusters.clusters_of(file)
        for cluster_id in clusters.clusters_of(file):
            assert file in clusters.members(cluster_id)


@settings(max_examples=30, deadline=None)
@given(_events)
def test_correlator_deterministic(events):
    def run():
        correlator = Correlator(SeerParameters(max_neighbors=5))
        for seq, (pid, action, path, path2) in enumerate(events, start=1):
            correlator.handle(ObservedReference(
                seq=seq, time=float(seq), pid=pid, action=action,
                path=path, path2=path2))
        return sorted((f, frozenset(correlator.store.get(f).neighbors()))
                      for f in correlator.store.files())

    assert run() == run()


# ----------------------------------------------------------------------
# kernel + observer fuzz
# ----------------------------------------------------------------------
_SYSCALLS = st.lists(
    st.tuples(st.sampled_from(["open", "create", "stat", "unlink", "rename",
                               "mkdir", "chdir", "scandir", "fork", "exec",
                               "exit", "getcwd", "close_all"]),
              st.sampled_from(["a", "b/c", "/x/y", "../up", "deep/er/f"])),
    max_size=80)


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow],
          deadline=None)
@given(_SYSCALLS)
def test_kernel_observer_survive_any_syscalls(calls):
    kernel = Kernel()
    kernel.fs.mkdir("/x", parents=True)
    kernel.fs.create("/x/prog", size=10)
    correlator = Correlator(SeerParameters())
    observer = Observer(handler=correlator.handle, filesystem=kernel.fs,
                        process_table=kernel.processes)
    kernel.add_sink(observer.handle_record)
    processes = [kernel.processes.spawn(ppid=1, program="sh", uid=1000)]
    open_fds = []
    for name, path in calls:
        process = processes[-1]
        if not process.alive:
            processes.append(kernel.processes.spawn(ppid=1, program="sh",
                                                    uid=1000))
            process = processes[-1]
        if name == "open":
            fd = kernel.open(process, path)
            if fd >= 0:
                open_fds.append((process, fd))
        elif name == "create":
            fd = kernel.open(process, path, create=True, size=5)
            if fd >= 0:
                open_fds.append((process, fd))
        elif name == "stat":
            kernel.stat(process, path)
        elif name == "unlink":
            kernel.unlink(process, path)
        elif name == "rename":
            kernel.rename(process, path, path + ".new")
        elif name == "mkdir":
            kernel.mkdir(process, path)
        elif name == "chdir":
            kernel.chdir(process, path)
        elif name == "scandir":
            kernel.scandir(process, ".")
        elif name == "fork":
            processes.append(kernel.fork(process))
        elif name == "exec":
            kernel.exec(process, "/x/prog")
        elif name == "exit":
            kernel.exit(process)
        elif name == "getcwd":
            kernel.getcwd(process)
        elif name == "close_all":
            for owner, fd in open_fds:
                if owner.alive:
                    kernel.close(owner, fd)
            open_fds.clear()
    # The observer forwarded a consistent stream; clustering never dies.
    assert observer.records_processed == kernel.records_emitted
    correlator.build_clusters()


# ----------------------------------------------------------------------
# replication convergence fuzz
# ----------------------------------------------------------------------
_REPLICA_OPS = st.lists(
    st.tuples(st.sampled_from(["a", "b"]),                # which replica
              st.sampled_from(["update", "reconcile"]),
              st.sampled_from(["/f1", "/f2", "/f3"]),
              st.integers(min_value=1, max_value=100)),
    max_size=60)


@settings(max_examples=40, deadline=None)
@given(_REPLICA_OPS)
def test_rumor_replicas_converge(operations):
    replica_a = RumorReplica("a")
    replica_b = RumorReplica("b")
    for path in ("/f1", "/f2", "/f3"):
        replica_a.store(path, size=1)
    replica_b.reconcile_from(replica_a)

    replicas = {"a": replica_a, "b": replica_b}
    for name, op, path, size in operations:
        replica = replicas[name]
        if op == "update" and path in replica.files:
            replica.update(path, size=size)
        elif op == "reconcile":
            other = replicas["b" if name == "a" else "a"]
            replica.reconcile_from(other)

    # A final full sync (pull both ways, twice to settle resolutions)
    # must converge: same files, same sizes, comparable vectors.
    for _ in range(3):
        replica_a.reconcile_from(replica_b)
        replica_b.reconcile_from(replica_a)
    assert replica_a.paths() == replica_b.paths()
    for path in replica_a.paths():
        assert replica_a.files[path].size == replica_b.files[path].size
        assert not replica_a.files[path].vector.concurrent_with(
            replica_b.files[path].vector)
