"""Tests for the in-memory filesystem substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs import (
    FileKind,
    FileSystem,
    FileSystemError,
    IsADirectory,
    NotADirectory,
    NotFound,
    SymlinkLoop,
)
from repro.fs.filesystem import AlreadyExists


@pytest.fixture
def fs():
    filesystem = FileSystem()
    filesystem.mkdir("/home")
    filesystem.mkdir("/home/u")
    filesystem.mkdir("/tmp")
    return filesystem


class TestCreateLookup:
    def test_create_and_stat(self, fs):
        fs.create("/home/u/a.txt", size=100)
        assert fs.stat("/home/u/a.txt").size == 100

    def test_create_with_content_sets_size(self, fs):
        fs.create("/home/u/a.c", content="#include <x.h>\n")
        assert fs.size_of("/home/u/a.c") == len("#include <x.h>\n")

    def test_missing_raises_notfound(self, fs):
        with pytest.raises(NotFound):
            fs.stat("/home/u/missing")

    def test_missing_parent_raises(self, fs):
        with pytest.raises(NotFound):
            fs.create("/no/such/dir/file")

    def test_exists(self, fs):
        fs.create("/home/u/a")
        assert fs.exists("/home/u/a")
        assert not fs.exists("/home/u/b")

    def test_create_through_file_raises(self, fs):
        fs.create("/home/u/file")
        with pytest.raises(NotADirectory):
            fs.create("/home/u/file/child")

    def test_recreate_bumps_version(self, fs):
        fs.create("/home/u/a")
        version = fs.stat("/home/u/a").version
        fs.create("/home/u/a")
        assert fs.stat("/home/u/a").version == version + 1

    def test_create_exist_ok_false(self, fs):
        fs.create("/home/u/a")
        with pytest.raises(AlreadyExists):
            fs.create("/home/u/a", exist_ok=False)

    def test_kind_of(self, fs):
        fs.create("/dev", kind=FileKind.DIRECTORY)
        fs.create("/dev/tty0", kind=FileKind.DEVICE)
        assert fs.kind_of("/dev/tty0") is FileKind.DEVICE


class TestMkdir:
    def test_mkdir_parents(self, fs):
        fs.mkdir("/a/b/c/d", parents=True)
        assert fs.is_directory("/a/b/c/d")

    def test_mkdir_existing_raises(self, fs):
        with pytest.raises(AlreadyExists):
            fs.mkdir("/home")

    def test_mkdir_parents_idempotent(self, fs):
        fs.mkdir("/a/b", parents=True)
        fs.mkdir("/a/b/c", parents=True)
        assert fs.is_directory("/a/b/c")

    def test_rmdir_empty(self, fs):
        fs.mkdir("/home/u/d")
        fs.rmdir("/home/u/d")
        assert not fs.exists("/home/u/d")

    def test_rmdir_nonempty_raises(self, fs):
        fs.mkdir("/home/u/d")
        fs.create("/home/u/d/f")
        with pytest.raises(FileSystemError):
            fs.rmdir("/home/u/d")


class TestWriteUnlinkRename:
    def test_write_bumps_version(self, fs):
        fs.create("/home/u/a", size=10)
        fs.write("/home/u/a", size=20)
        node = fs.stat("/home/u/a")
        assert node.size == 20
        assert node.version == 1

    def test_write_missing_raises(self, fs):
        with pytest.raises(NotFound):
            fs.write("/home/u/missing", size=1)

    def test_unlink(self, fs):
        fs.create("/home/u/a")
        fs.unlink("/home/u/a")
        assert not fs.exists("/home/u/a")

    def test_unlink_directory_raises(self, fs):
        with pytest.raises(IsADirectory):
            fs.unlink("/tmp")

    def test_unlink_missing_raises(self, fs):
        with pytest.raises(NotFound):
            fs.unlink("/home/u/missing")

    def test_rename(self, fs):
        fs.create("/home/u/a", size=5)
        fs.rename("/home/u/a", "/tmp/b")
        assert not fs.exists("/home/u/a")
        assert fs.size_of("/tmp/b") == 5

    def test_rename_replaces_target(self, fs):
        fs.create("/home/u/a", size=5)
        fs.create("/home/u/b", size=9)
        fs.rename("/home/u/a", "/home/u/b")
        assert fs.size_of("/home/u/b") == 5

    def test_rename_missing_source(self, fs):
        with pytest.raises(NotFound):
            fs.rename("/home/u/nope", "/tmp/x")


class TestSymlinks:
    def test_follow(self, fs):
        fs.create("/home/u/real", size=7)
        fs.symlink("/home/u/real", "/home/u/link")
        assert fs.stat("/home/u/link").size == 7

    def test_nofollow(self, fs):
        fs.create("/home/u/real", size=7)
        fs.symlink("/home/u/real", "/home/u/link")
        assert fs.stat("/home/u/link", follow_symlinks=False).kind is FileKind.SYMLINK

    def test_symlink_through_directory_component(self, fs):
        fs.mkdir("/data")
        fs.create("/data/file", size=3)
        fs.symlink("/data", "/home/u/d")
        assert fs.stat("/home/u/d/file").size == 3

    def test_loop_detected(self, fs):
        fs.symlink("/home/u/b", "/home/u/a")
        fs.symlink("/home/u/a", "/home/u/b")
        with pytest.raises(SymlinkLoop):
            fs.stat("/home/u/a")

    def test_dangling_symlink(self, fs):
        fs.symlink("/nowhere", "/home/u/dangle")
        with pytest.raises(NotFound):
            fs.stat("/home/u/dangle")


class TestEnumeration:
    def test_listdir_sorted(self, fs):
        for name in ("c", "a", "b"):
            fs.create(f"/home/u/{name}")
        assert fs.listdir("/home/u") == ["a", "b", "c"]

    def test_listdir_nondir_raises(self, fs):
        fs.create("/home/u/f")
        with pytest.raises(NotADirectory):
            fs.listdir("/home/u/f")

    def test_walk_covers_all(self, fs):
        fs.create("/home/u/a", size=1)
        fs.mkdir("/home/u/d")
        fs.create("/home/u/d/b", size=2)
        walked = {path for path, _ in fs.walk("/home/u")}
        assert walked == {"/home/u", "/home/u/a", "/home/u/d", "/home/u/d/b"}

    def test_iter_files_only_regular(self, fs):
        fs.create("/home/u/a", size=1)
        fs.mkdir("/home/u/d")
        assert [p for p, _ in fs.iter_files("/home/u")] == ["/home/u/a"]

    def test_total_size(self, fs):
        fs.create("/home/u/a", size=10)
        fs.create("/home/u/b", size=32)
        assert fs.total_size("/home/u") == 42

    def test_file_count(self, fs):
        fs.create("/home/u/a")
        fs.create("/tmp/b")
        assert fs.file_count("/") == 2


class TestSnapshot:
    def test_snapshot_is_independent(self, fs):
        fs.create("/home/u/a", size=10)
        clone = fs.snapshot()
        fs.write("/home/u/a", size=99)
        fs.create("/home/u/new")
        assert clone.size_of("/home/u/a") == 10
        assert not clone.exists("/home/u/new")

    def test_snapshot_preserves_versions(self, fs):
        fs.create("/home/u/a")
        fs.write("/home/u/a", size=5)
        assert fs.snapshot().stat("/home/u/a").version == 1


class TestLookupMemo:
    """Lookups are memoized; every shape change must drop what it stales."""

    def test_unlink_forgets_memoized_path(self, fs):
        fs.create("/home/u/a")
        fs.stat("/home/u/a")
        fs.unlink("/home/u/a")
        with pytest.raises(NotFound):
            fs.stat("/home/u/a")

    def test_rename_forgets_memoized_source(self, fs):
        node = fs.create("/home/u/a", size=5)
        fs.stat("/home/u/a")
        fs.rename("/home/u/a", "/tmp/b")
        with pytest.raises(NotFound):
            fs.stat("/home/u/a")
        assert fs.stat("/tmp/b") is node

    def test_rmdir_forgets_memoized_directory(self, fs):
        fs.mkdir("/home/u/d")
        fs.stat("/home/u/d")
        fs.rmdir("/home/u/d")
        with pytest.raises(NotFound):
            fs.stat("/home/u/d")

    def test_create_over_memoized_path_returns_new_inode(self, fs):
        old = fs.create("/home/u/a", size=5)
        assert fs.stat("/home/u/a") is old
        new = fs.create("/home/u/a", size=7)
        assert fs.stat("/home/u/a") is new
        assert new.version == old.version + 1

    def test_mkdir_over_removed_memoized_directory_returns_new_inode(self, fs):
        fs.mkdir("/home/u/d")
        old = fs.stat("/home/u/d")
        fs.rmdir("/home/u/d")
        fs.mkdir("/home/u/d")
        assert fs.stat("/home/u/d") is not old

    def test_write_keeps_memoized_inode(self, fs):
        node = fs.create("/home/u/a", size=5)
        fs.stat("/home/u/a")
        fs.write("/home/u/a", size=9)
        assert fs.stat("/home/u/a") is node
        assert (node.size, node.version) == (9, 1)

    def test_snapshot_resolves_its_own_tree(self, fs):
        original = fs.create("/home/u/a", size=5)
        fs.stat("/home/u/a")
        clone = fs.snapshot()
        assert clone.stat("/home/u/a") is not original
        assert clone.stat("/home/u/a").size == 5


# Random shape changes over a two-name, three-level namespace.  Most
# steps name a path that exists at that moment, so renames of whole
# subtrees, re-creations, symlinked directories, dangling links and
# loops all occur.
_tree_path = st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts))


def _fs_step(existing):
    path = st.one_of(st.sampled_from(existing), _tree_path) if existing else _tree_path
    return st.one_of(
        st.tuples(st.just("mkdir"), path, st.booleans()),
        st.tuples(st.just("create"), path, st.integers(0, 9)),
        st.tuples(st.just("write"), path, st.integers(0, 9)),
        st.tuples(st.just("unlink"), path),
        st.tuples(st.just("rmdir"), path),
        st.tuples(st.just("rename"), path, path),
        st.tuples(st.just("symlink"), path, path),
    )


_STEPS = {
    "mkdir": lambda fs, path, parents: fs.mkdir(path, parents=parents),
    "create": lambda fs, path, size: fs.create(path, size=size),
    "write": lambda fs, path, size: fs.write(path, size=size),
    "unlink": FileSystem.unlink,
    "rmdir": FileSystem.rmdir,
    "rename": FileSystem.rename,
    "symlink": FileSystem.symlink,
}


def _lookups(fs, path):
    """Every lookup-backed answer for *path*: an inode as its facts, a
    failure as its exception type and path."""
    def facts(node):
        return node.kind, node.size, node.version, node.link_target

    queries = (
        lambda: facts(fs.stat(path)),
        lambda: facts(fs.stat(path, follow_symlinks=False)),
        lambda: fs.exists(path),
        lambda: fs.kind_of(path),
        lambda: fs.is_directory(path),
    )
    answers = []
    for query in queries:
        try:
            answers.append(query())
        except FileSystemError as error:
            answers.append((type(error), error.path))
    return answers


def _tree(fs):
    """Every object's facts, in walk order."""
    return [(path, node.kind, node.size, node.version, node.link_target,
             node.content) for path, node in fs.walk()]


class TestLookupMemoDifferential:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_memoized_lookups_match_a_fresh_snapshot(self, data):
        fs = FileSystem()
        seen = {"/"}
        for _ in range(data.draw(st.integers(1, 30))):
            existing = [path for path, _ in fs.walk()][1:]
            name, *args = data.draw(_fs_step(existing))
            before, generation = _tree(fs), fs.generation
            try:
                _STEPS[name](fs, *args)
            except FileSystemError:
                pass
            # Every step that changes the tree raises the generation.
            if _tree(fs) != before:
                assert fs.generation > generation, (name, args)
            generation = fs.generation
            seen.update(existing)
            seen.update(arg for arg in args if isinstance(arg, str))
            fresh = fs.snapshot()
            for path in sorted(seen):
                for spelling in (path, path + "/."):
                    assert _lookups(fs, spelling) == _lookups(fresh, spelling), \
                        (name, args, spelling)
            # ... and no read moves it.
            assert fs.generation == generation


_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4), min_size=1, max_size=20, unique=True)


class TestFilesystemProperties:
    @given(_names, st.integers(min_value=0, max_value=10_000))
    def test_created_files_all_found(self, names, size):
        fs = FileSystem()
        fs.mkdir("/d")
        for name in names:
            fs.create(f"/d/{name}", size=size)
        assert fs.listdir("/d") == sorted(names)
        assert fs.total_size("/d") == size * len(names)

    @given(_names)
    def test_unlink_inverts_create(self, names):
        fs = FileSystem()
        fs.mkdir("/d")
        for name in names:
            fs.create(f"/d/{name}")
        for name in names:
            fs.unlink(f"/d/{name}")
        assert fs.listdir("/d") == []
