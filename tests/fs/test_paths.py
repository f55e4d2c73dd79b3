"""Unit and property tests for pure path helpers."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs import paths


class TestNormalize:
    def test_absolute_passthrough(self):
        assert paths.normalize("/usr/bin/cc") == "/usr/bin/cc"

    def test_relative_uses_cwd(self):
        assert paths.normalize("main.c", cwd="/home/u/proj") == "/home/u/proj/main.c"

    def test_dot_components_dropped(self):
        assert paths.normalize("/a/./b/./c") == "/a/b/c"

    def test_dotdot_resolved(self):
        assert paths.normalize("/a/b/../c") == "/a/c"

    def test_dotdot_above_root_stays_at_root(self):
        assert paths.normalize("/../../x") == "/x"

    def test_double_separators_collapsed(self):
        assert paths.normalize("//a///b//") == "/a/b"

    def test_root(self):
        assert paths.normalize("/") == "/"

    def test_relative_dotdot(self):
        assert paths.normalize("../other", cwd="/home/u/proj") == "/home/u/other"

    def test_empty_relative_is_cwd(self):
        assert paths.normalize("", cwd="/home/u") == "/home/u"


class TestJoinSplit:
    def test_join_basic(self):
        assert paths.join("/a", "b", "c") == "/a/b/c"

    def test_join_absolute_resets(self):
        assert paths.join("/a", "/b") == "/b"

    def test_join_skips_empty(self):
        assert paths.join("/a", "", "b") == "/a/b"

    def test_dirname(self):
        assert paths.dirname("/a/b/c") == "/a/b"

    def test_dirname_of_top_level(self):
        assert paths.dirname("/a") == "/"

    def test_dirname_of_root(self):
        assert paths.dirname("/") == "/"

    def test_basename(self):
        assert paths.basename("/a/b/c.txt") == "c.txt"

    def test_basename_of_root(self):
        assert paths.basename("/") == ""

    def test_split_extension(self):
        assert paths.split_extension("/src/main.c") == ("main", "c")

    def test_split_extension_none(self):
        assert paths.split_extension("/bin/ls") == ("ls", "")

    def test_split_extension_dotfile(self):
        # A leading dot is not an extension separator.
        assert paths.split_extension("/home/u/.login") == (".login", "")


class TestDirectoryDistance:
    def test_same_directory_is_zero(self):
        assert paths.directory_distance("/p/a.c", "/p/b.c") == 0

    def test_sibling_directories(self):
        assert paths.directory_distance("/p/x/a.c", "/p/y/b.c") == 2

    def test_parent_child(self):
        assert paths.directory_distance("/p/a.c", "/p/sub/b.c") == 1

    def test_distant(self):
        assert paths.directory_distance("/p/q/r/a", "/x/y/b") == 5

    def test_symmetric(self):
        a, b = "/usr/include/stdio.h", "/home/u/proj/main.c"
        assert paths.directory_distance(a, b) == paths.directory_distance(b, a)


_name = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)
_abs_path = st.lists(_name, min_size=1, max_size=6).map(lambda parts: "/" + "/".join(parts))


class TestPathProperties:
    @given(_abs_path)
    def test_normalize_idempotent(self, path):
        assert paths.normalize(paths.normalize(path)) == paths.normalize(path)

    @given(_abs_path)
    def test_normalized_is_absolute(self, path):
        assert paths.is_absolute(paths.normalize(path))

    @given(_abs_path)
    def test_dirname_basename_roundtrip(self, path):
        normal = paths.normalize(path)
        rebuilt = paths.join(paths.dirname(normal), paths.basename(normal))
        assert paths.normalize(rebuilt) == normal

    @given(_abs_path, _abs_path)
    def test_directory_distance_nonnegative_symmetric(self, a, b):
        assert paths.directory_distance(a, b) >= 0
        assert paths.directory_distance(a, b) == paths.directory_distance(b, a)

    @given(_abs_path, _abs_path, _abs_path)
    def test_directory_distance_triangle(self, a, b, c):
        # Tree distance between containing directories obeys the
        # triangle inequality (unlike semantic distance!).
        ab = paths.directory_distance(a, b)
        bc = paths.directory_distance(b, c)
        ac = paths.directory_distance(a, c)
        assert ac <= ab + bc


# ----------------------------------------------------------------------
# the canonical-path fast path against the loop it short-circuits
# ----------------------------------------------------------------------
def reference_normalize(path, cwd="/"):
    """``normalize`` as it was before the canonical fast path: every
    input goes through the component loop."""
    if not path.startswith("/"):
        path = cwd.rstrip("/") + "/" + path
    resolved = []
    for part in path.split("/"):
        if not part or part == ".":
            continue
        if part == "..":
            if resolved:
                resolved.pop()
        else:
            resolved.append(part)
    return "/" + "/".join(resolved)


def reference_directory_distance(path_a, path_b):
    dir_a = paths.split_components(paths.dirname(reference_normalize(path_a)))
    dir_b = paths.split_components(paths.dirname(reference_normalize(path_b)))
    common = 0
    for part_a, part_b in zip(dir_a, dir_b):
        if part_a != part_b:
            break
        common += 1
    return (len(dir_a) - common) + (len(dir_b) - common)


# Every component shape the fast path has to tell apart: empty (a
# doubled or trailing separator), ".", "..", and names that merely
# start or end with a dot.
_raw_path = st.builds(
    lambda lead, parts, trail: lead + "/".join(parts) + trail,
    st.sampled_from(["", "/"]),
    st.lists(st.sampled_from(["", ".", "..", "a", ".x", "x."]), max_size=8),
    st.sampled_from(["", "/"]))
_canonical_cwd = st.lists(st.sampled_from(["a", ".x", "x."]), max_size=4).map(
    lambda parts: "/" + "/".join(parts))


class TestFastPathMatchesLoop:
    @given(_raw_path, _canonical_cwd)
    @settings(max_examples=500)
    def test_normalize(self, path, cwd):
        assert paths.normalize(path, cwd) == reference_normalize(path, cwd)

    @given(_raw_path, _raw_path)
    @settings(max_examples=500)
    def test_directory_distance(self, a, b):
        assert paths.directory_distance(a, b) == reference_directory_distance(a, b)

    @pytest.mark.parametrize("path", [
        "/", "/a", "/a/.x/x.", "/..a", "/a../b", "/.../c",
    ])
    def test_canonical_path_returned_as_is(self, path):
        assert paths.normalize(path) is path
