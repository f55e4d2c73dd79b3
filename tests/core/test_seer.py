"""Integration tests for the Seer facade: kernel -> hoard."""

import gc
import weakref

import pytest

from repro.core import MissSeverity, Relation, Seer, SeerParameters
from repro.fs import FileKind
from repro.investigators import CIncludeInvestigator, MakefileInvestigator
from repro.kernel import Kernel
from repro.simulation import (simulate_live_usage, simulate_miss_free,
                              simulate_population_cell)
from repro.workload import generate_machine_trace, machine_profile


def small_params(**overrides):
    defaults = dict(frequent_file_minimum_accesses=10_000)
    defaults.update(overrides)
    return SeerParameters(**defaults)


@pytest.fixture
def world():
    kernel = Kernel()
    fs = kernel.fs
    fs.mkdir("/home/u/code", parents=True)
    fs.mkdir("/home/u/paper", parents=True)
    fs.mkdir("/bin", parents=True)
    fs.mkdir("/dev", parents=True)
    fs.create("/bin/cc", size=40_000)
    fs.create("/bin/vi", size=30_000)
    fs.create("/dev/console", kind=FileKind.DEVICE)
    for name in ("main.c", "util.c", "defs.h"):
        fs.create(f"/home/u/code/{name}", size=2_000)
    for name in ("paper.tex", "refs.bib"):
        fs.create(f"/home/u/paper/{name}", size=5_000)
    seer = Seer(kernel, parameters=small_params())
    user = kernel.processes.spawn(ppid=1, program="bash", uid=1000,
                                  cwd="/home/u")
    return kernel, seer, user


def work_on_code(kernel, user, repetitions=20):
    for _ in range(repetitions):
        editor = kernel.spawn(user, "/bin/vi")
        fd = kernel.open(editor, "/home/u/code/main.c", write=True)
        kernel.close(editor, fd)
        kernel.exit(editor)
        compiler = kernel.spawn(user, "/bin/cc")
        for name in ("main.c", "util.c", "defs.h"):
            fd = kernel.open(compiler, f"/home/u/code/{name}")
            kernel.close(compiler, fd)
        kernel.exit(compiler)
        kernel.clock.advance(60)


def work_on_paper(kernel, user, repetitions=20):
    for _ in range(repetitions):
        editor = kernel.spawn(user, "/bin/vi")
        for name in ("paper.tex", "refs.bib"):
            fd = kernel.open(editor, f"/home/u/paper/{name}")
            kernel.close(editor, fd)
        kernel.exit(editor)
        kernel.clock.advance(60)


class TestEndToEnd:
    def test_projects_cluster_separately(self, world):
        kernel, seer, user = world
        work_on_code(kernel, user)
        work_on_paper(kernel, user)
        clusters = seer.build_clusters()
        assert clusters.same_cluster("/home/u/code/main.c", "/home/u/code/util.c")
        assert clusters.same_cluster("/home/u/paper/paper.tex", "/home/u/paper/refs.bib")
        assert not clusters.same_cluster("/home/u/code/main.c",
                                         "/home/u/paper/paper.tex")

    def test_hoard_prefers_active_project(self, world):
        kernel, seer, user = world
        work_on_code(kernel, user)
        work_on_paper(kernel, user)   # paper most recent
        # Budget fits the paper project (+editor) but not everything.
        selection = seer.build_hoard(budget=45_000)
        assert "/home/u/paper/paper.tex" in selection
        assert "/home/u/paper/refs.bib" in selection

    def test_hoard_fits_budget(self, world):
        kernel, seer, user = world
        work_on_code(kernel, user)
        budget = 50_000
        selection = seer.build_hoard(budget=budget)
        assert selection.total_bytes <= budget

    def test_big_budget_hoards_everything_touched(self, world):
        kernel, seer, user = world
        work_on_code(kernel, user)
        work_on_paper(kernel, user)
        selection = seer.build_hoard(budget=10**9)
        for path in ("/home/u/code/main.c", "/home/u/paper/paper.tex",
                     "/bin/cc", "/bin/vi"):
            assert path in selection

    def test_whole_project_hoarded_together(self, world):
        kernel, seer, user = world
        work_on_code(kernel, user)
        selection = seer.build_hoard(budget=10**9)
        project = {"/home/u/code/main.c", "/home/u/code/util.c",
                   "/home/u/code/defs.h"}
        assert project <= selection.files


class TestMissDetection:
    def test_automatic_miss_recorded_when_disconnected(self, world):
        kernel, seer, user = world
        work_on_code(kernel, user)
        work_on_paper(kernel, user)
        seer.build_hoard(budget=45_000)   # paper project only
        seer.disconnect()
        # Simulate the miss: the code file exists remotely but not in
        # the hoard; locally the open fails.
        kernel.fs.unlink("/home/u/code/main.c")
        kernel.open(user, "/home/u/code/main.c")
        assert len(seer.miss_log) == 1
        assert seer.miss_log.misses[0].automatic

    def test_no_miss_when_connected(self, world):
        kernel, seer, user = world
        work_on_code(kernel, user)
        seer.build_hoard(budget=45_000)
        kernel.fs.unlink("/home/u/code/main.c")
        kernel.open(user, "/home/u/code/main.c")
        assert len(seer.miss_log) == 0

    def test_no_miss_for_hoarded_file(self, world):
        kernel, seer, user = world
        work_on_code(kernel, user)
        seer.build_hoard(budget=10**9)
        seer.disconnect()
        kernel.open(user, "/home/u/code/nonexistent.c")  # never known
        assert len(seer.miss_log) == 0

    def test_manual_miss_feeds_next_hoard(self, world):
        kernel, seer, user = world
        work_on_code(kernel, user)
        seer.build_hoard(budget=45_000)
        seer.record_manual_miss("/home/u/code/main.c", time=100.0,
                                severity=MissSeverity.TASK_CHANGED)
        assert "/home/u/code/main.c" in seer.always_hoard_paths()


class TestInvestigatorIntegration:
    def test_investigators_contribute_relations(self, world):
        kernel, seer, user = world

        class StubInvestigator:
            fs = kernel.fs

            def investigate(self):
                return [Relation(files=("/x", "/y"), strength=100.0)]

        seer._investigators.append(StubInvestigator())
        clusters = seer.build_clusters()
        assert clusters.same_cluster("/x", "/y")


def _investigators(fs):
    return [CIncludeInvestigator(fs, "/home/u"),
            MakefileInvestigator(fs, "/home/u")]


def _scanned(fs):
    return [relation for investigator in _investigators(fs)
            for relation in investigator.investigate()]


class TestInvestigationCache:
    """Investigators rescan only after their filesystem changes."""

    @pytest.fixture
    def source_tree(self, world):
        kernel, _, _ = world
        kernel.fs.write("/home/u/code/main.c", content='#include "defs.h"\n')
        kernel.fs.create("/home/u/code/Makefile", content="prog: main.c\n")
        seer = Seer(kernel, parameters=small_params(),
                    investigators=_investigators(kernel.fs), attach=False)
        return kernel.fs, seer

    def test_unchanged_tree_scans_once(self, source_tree):
        fs, seer = source_tree
        first = seer.build_clusters()
        second = seer.build_clusters()
        assert seer.metrics.counter("investigators.scans") == 1
        assert seer.investigate() == _scanned(fs)
        assert first.as_sets() == second.as_sets()

    @pytest.mark.parametrize("change", [
        lambda fs: fs.write("/home/u/code/util.c",
                            content='#include "defs.h"\n'),
        lambda fs: fs.write("/home/u/code/Makefile",
                            content="prog: main.c util.c\n"),
        lambda fs: fs.create("/home/u/code/extra.c",
                             content='#include "defs.h"\n'),
        lambda fs: fs.rename("/home/u/code/main.c", "/home/u/code/app.c"),
        lambda fs: fs.unlink("/home/u/code/main.c"),
    ], ids=["write-c-source", "write-makefile", "create", "rename",
            "unlink"])
    def test_change_under_root_rescans_once(self, source_tree, change):
        fs, seer = source_tree
        before = seer.build_clusters().files()
        change(fs)
        after = seer.build_clusters().files()
        seer.build_clusters()
        assert seer.metrics.counter("investigators.scans") == 2
        relations = _scanned(fs)
        assert seer.investigate() == relations
        # No file is referenced, so the clusters hold the relations'
        # files alone: the build saw the new relations.
        assert after == {path for relation in relations
                         for path in relation.files} != before


class TestSizeFunction:
    def test_sizes_from_filesystem(self, world):
        kernel, seer, user = world
        sizes = seer.size_function()
        assert sizes("/bin/cc") == 40_000

    def test_nonfile_takes_no_space(self, world):
        kernel, seer, user = world
        sizes = seer.size_function()
        assert sizes("/dev/console") == 0

    def test_fallback_for_missing(self, world):
        kernel, seer, user = world
        sizes = seer.size_function(fallback=lambda path: 1234)
        assert sizes("/gone/away") == 1234

    def test_missing_without_fallback_is_zero(self, world):
        kernel, seer, user = world
        assert seer.size_function()("/gone/away") == 0


class TestFinishedReplayFreesSeer:
    """A replay's SEER state goes when the replay returns, by reference
    counting alone: nothing waits for a cyclic collection."""

    @pytest.mark.parametrize("simulate", [
        lambda trace: simulate_miss_free(trace, 86400.0),
        lambda trace: simulate_live_usage(trace),
        lambda trace: simulate_population_cell(trace, 86400.0),
    ], ids=["missfree", "live", "population"])
    def test_seer_and_correlator_freed_with_gc_disabled(self, monkeypatch,
                                                        simulate):
        trace = generate_machine_trace(machine_profile("C"), seed=1, days=7)
        built = []
        original_init = Seer.__init__

        def recording_init(seer, *args, **kwargs):
            original_init(seer, *args, **kwargs)
            built.append((weakref.ref(seer), weakref.ref(seer.correlator)))

        monkeypatch.setattr(Seer, "__init__", recording_init)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            simulate(trace)
            # Read before re-enabling: the first allocation after that
            # may run a collection that frees a cycle too.
            freed = [ref() is None for refs in built for ref in refs]
        finally:
            if was_enabled:
                gc.enable()
        assert freed == [True, True]   # the one Seer and its correlator
