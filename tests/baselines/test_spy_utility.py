"""Tests for the SPY UTILITY baseline (paper section 6.3)."""

import pytest

from repro.baselines.spy_utility import AccessTree, SpyUtilityManager


def sizes_of(mapping):
    return lambda path: mapping.get(path, 0)


@pytest.fixture
def spy():
    return SpyUtilityManager()


def run_command(spy, pid, program, files, ppid=100):
    """Simulate a shell (pid 100) launching one command."""
    spy.on_fork(pid, ppid, program="sh")
    spy.on_exec(pid, f"/bin/{program}")
    for path in files:
        spy.on_access(pid, path)
    spy.on_exit(pid)


class TestTreeConstruction:
    def test_command_roots_a_tree(self, spy):
        run_command(spy, 1, "cc", ["/p/a.c", "/p/b.h"])
        tree = spy.tree_for("cc")
        assert tree is not None
        assert tree.files == {"/bin/cc", "/p/a.c", "/p/b.h"}

    def test_repeated_executions_union(self, spy):
        run_command(spy, 1, "cc", ["/p/a.c"])
        run_command(spy, 2, "cc", ["/p/b.c"])
        tree = spy.tree_for("cc")
        assert {"/p/a.c", "/p/b.c"} <= tree.files
        assert tree.executions == 2

    def test_children_join_parent_tree(self, spy):
        # make forks cc: cc's accesses land in make's tree.
        spy.on_fork(1, 100, program="sh")
        spy.on_exec(1, "/bin/make")
        spy.on_access(1, "/p/Makefile")
        spy.on_fork(2, 1, program="make")
        spy.on_exec(2, "/bin/cc")
        spy.on_access(2, "/p/a.c")
        tree = spy.tree_for("make")
        assert {"/p/Makefile", "/p/a.c", "/bin/cc"} <= tree.files
        assert spy.tree_for("cc") is None   # no separate cc tree

    def test_shell_accesses_untracked(self, spy):
        spy.on_fork(100, 1, program="init")
        spy.on_exec(100, "/bin/sh")
        spy.on_access(100, "/home/u/.history")
        assert spy.trees() == []

    def test_separate_commands_separate_trees(self, spy):
        run_command(spy, 1, "cc", ["/p/a.c"])
        run_command(spy, 2, "latex", ["/d/paper.tex"])
        assert spy.tree_for("cc").files.isdisjoint({"/d/paper.tex"})
        assert len(spy.trees()) == 2

    def test_ranked_by_recency(self, spy):
        run_command(spy, 1, "cc", ["/p/a.c"])
        run_command(spy, 2, "latex", ["/d/paper.tex"])
        ranked = spy.ranked_trees()
        assert ranked[0].root_program == "latex"
        assert ranked[1].root_program == "cc"

    def test_re_execution_refreshes_recency(self, spy):
        run_command(spy, 1, "cc", ["/p/a.c"])
        run_command(spy, 2, "latex", ["/d/paper.tex"])
        run_command(spy, 3, "cc", ["/p/a.c"])
        assert spy.ranked_trees()[0].root_program == "cc"


class TestHoarding:
    def test_miss_free_size_covers_needed(self, spy):
        run_command(spy, 1, "cc", ["/p/a.c"])
        run_command(spy, 2, "latex", ["/d/paper.tex"])
        sizes = sizes_of({"/p/a.c": 10, "/bin/cc": 5,
                          "/d/paper.tex": 20, "/bin/latex": 5})
        size, uncoverable = spy.miss_free_size({"/p/a.c"}, sizes)
        # Must take latex's tree (more recent) plus cc's.
        assert size == 40
        assert uncoverable == set()

    def test_unknown_files_uncoverable(self, spy):
        run_command(spy, 1, "cc", ["/p/a.c"])
        size, uncoverable = spy.miss_free_size({"/ghost"}, sizes_of({}))
        assert uncoverable == {"/ghost"}
        assert size == 0

    def test_limitation_no_project_semantics(self, spy):
        # The paper's criticism: SPY cannot relate two files used by
        # different commands on the same project -- the editor's tree
        # and the compiler's tree stay separate, so hoarding the
        # "project" requires paying for both whole trees.
        run_command(spy, 1, "vi", ["/p/a.c"])
        run_command(spy, 2, "cc", ["/p/a.c", "/p/b.h", "/irrelevant/x"])
        sizes = sizes_of({"/p/a.c": 1, "/p/b.h": 1, "/irrelevant/x": 100,
                          "/bin/vi": 1, "/bin/cc": 1})
        size, _ = spy.miss_free_size({"/p/a.c", "/p/b.h"}, sizes)
        assert size >= 100   # forced to carry the irrelevant file too
