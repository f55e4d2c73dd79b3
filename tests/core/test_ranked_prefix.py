"""The shared miss-free walk against the per-policy walks it replaced.

``HoardManager.miss_free_size``, ``lru_miss_free_size``,
``CodaPriorityManager.miss_free_size`` and
``SpyUtilityManager.miss_free_size`` each hand their ranking to
:func:`repro.core.hoard.ranked_prefix_size`.  ``tests/oracle/miss_free.py``
keeps the four bodies they had before; every drawn case must give the
same bytes and the same uncoverable set.
"""

from hypothesis import example, given, settings, strategies as st

from repro.baselines.coda_priority import CodaPriorityManager
from repro.baselines.lru import lru_miss_free_size
from repro.baselines.spy_utility import SpyUtilityManager
from repro.core.clustering import ClusterSet
from repro.core.hoard import HoardManager, ranked_prefix_size
from tests.oracle import miss_free as oracle

_FILES = [f"/p/f{i}" for i in range(10)]
#: Needed files no ranking can hold: never referenced, never clustered.
_GHOSTS = ["/ghost/a", "/ghost/b"]
_PROGRAMS = ["/bin/cc", "/bin/make", "/bin/sh", "/bin/vi"]

_files = st.sampled_from(_FILES)
_needed = st.sets(st.sampled_from(_FILES + _GHOSTS))
_sizes = st.dictionaries(_files, st.integers(min_value=1, max_value=100))
_groups = st.lists(st.lists(_files, min_size=1, max_size=5), max_size=6)
_recency = st.dictionaries(_files, st.integers(min_value=0, max_value=5))
_always = st.sets(st.sampled_from(_FILES + _GHOSTS), max_size=4)
#: A SPY feed: (op, pid, argument) with op in fork, exec, access, exit.
_spy_events = st.lists(st.tuples(
    st.sampled_from(["fork", "exec", "access", "exit"]),
    st.integers(min_value=1, max_value=4),
    st.one_of(st.integers(min_value=1, max_value=4),
              st.sampled_from(_PROGRAMS), _files)), max_size=30)


def size_function(sizes):
    return lambda path: sizes.get(path, 10)


def cluster_set(groups):
    clusters = ClusterSet()
    for group in groups:
        clusters.new_cluster(group)
    return clusters


def spy_fed(events):
    spy = SpyUtilityManager()
    for op, pid, argument in events:
        if op == "fork" and isinstance(argument, int):
            spy.on_fork(pid, argument)
        elif op == "exec" and isinstance(argument, str):
            spy.on_exec(pid, argument)
        elif op == "access" and isinstance(argument, str):
            spy.on_access(pid, argument)
        elif op == "exit":
            spy.on_exit(pid)
    return spy


@settings(max_examples=200, deadline=None)
@given(_groups, _recency, _sizes, _needed, _always)
# Always-hoard files are charged when nothing is needed.
@example([["/p/f0", "/p/f1"]], {"/p/f0": 1}, {"/p/f2": 7}, set(),
         {"/p/f2", "/ghost/a"})
# A needed file that is always hoarded but in no cluster is coverable.
@example([["/p/f0"]], {}, {}, {"/p/f3", "/ghost/b"}, {"/p/f3"})
def test_seer_matches_oracle(groups, recency, sizes, needed, always):
    clusters, size = cluster_set(groups), size_function(sizes)
    assert HoardManager().miss_free_size(
        clusters, size, recency, set(needed), always_hoard=always) == \
        oracle.seer_miss_free_size(clusters, size, recency, set(needed),
                                   always_hoard=always)


@settings(max_examples=200, deadline=None)
@given(_recency, _sizes, _needed)
@example({"/p/f0": 1, "/p/f1": 2}, {}, set())
def test_lru_matches_oracle(recency, sizes, needed):
    size = size_function(sizes)
    assert lru_miss_free_size(recency, set(needed), size) == \
        oracle.lru_miss_free_size(recency, set(needed), size)


@settings(max_examples=200, deadline=None)
@given(st.lists(_files, max_size=30), _sizes, _needed)
@example(["/p/f0", "/p/f1"], {}, set())
def test_coda_matches_oracle(references, sizes, needed):
    coda = CodaPriorityManager()
    for path in references:
        coda.reference(path)
    size = size_function(sizes)
    assert coda.miss_free_size(set(needed), size) == \
        oracle.coda_miss_free_size(coda, set(needed), size)


@settings(max_examples=200, deadline=None)
@given(_spy_events, _sizes, _needed)
@example([("exec", 1, "/bin/cc"), ("access", 1, "/p/f0")], {}, set())
def test_spy_matches_oracle(events, sizes, needed):
    spy, size = spy_fed(events), size_function(sizes)
    assert spy.miss_free_size(set(needed), size) == \
        oracle.spy_miss_free_size(spy, set(needed), size)


def test_a_charged_file_costs_nothing_more_in_a_group():
    sizes = {"a": 1, "b": 10, "c": 100}.__getitem__
    # "b" is charged, so it counts once: the prefix through "c" adds
    # only "a" and "c".
    assert ranked_prefix_size([{"a"}, {"b", "c"}], {"c"}, sizes,
                              charged={"b"}) == (111, set())
    # Only the groups through the last one that covers a needed file
    # count, however far an uncoverable file sends the walk.
    assert ranked_prefix_size([("a",), ("b",), ("c",)], {"b", "z"},
                              sizes) == (11, {"z"})
