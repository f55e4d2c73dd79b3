"""Tests for shared-neighbor clustering (paper sections 3.3.2-3.3.3).

Tests that state shared counts outright (the paper's Table 2 example
gives counts, not neighbor lists) or supply their own directory term
run the path-keyed oracle pass (``tests/oracle/clustering.py``), whose
test-only hooks allow it; ``tests/core/test_equivalence.py`` ties the
shipped fid pass to that oracle.  Tests given real neighbor lists run
the shipped pass, through :func:`shipped`.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import ClusterSet, Relation
from repro.core.correlator import Correlator
from repro.core.distance import DistanceSummary
from repro.core.parameters import SeerParameters
from tests.oracle.clustering import SharedNeighborClustering

KN, KF = 5, 2
PARAMS = SeerParameters(kn=KN, kf=KF)

#: One observation at distance 1: only the listing matters here.
_ENTRY = DistanceSummary(count=1, log_sum=math.log1p(1.0), linear_sum=1.0,
                         last_update=0)


def run(neighbor_lists, counts=None, relations=(), parameters=PARAMS,
        directory_distance=None):
    """The oracle pass, with *counts* as the raw shared counts."""
    override = None
    if counts is not None:
        override = lambda a, b: float(counts.get((a, b), counts.get((b, a), 0)))
    return SharedNeighborClustering(
        neighbor_lists, parameters=parameters, relations=relations,
        directory_distance=directory_distance,
        shared_count_override=override).cluster()


def shipped(neighbor_lists, relations=(), parameters=PARAMS):
    """The shipped pass: *neighbor_lists* loaded into a correlator's
    arena, clustered by ``Correlator.build_clusters``."""
    correlator = Correlator(parameters)
    for file, neighbors in neighbor_lists.items():
        table = correlator.store.table(file)
        for neighbor in sorted(neighbors):
            table.load_entry(neighbor, _ENTRY)
    return correlator.build_clusters(relations=relations)


class TestTable2Example:
    """The paper's seven-file worked example.

    Phase 1 produces {A,B,C} and {D,E,F,G}; phase 2 overlaps C and D
    into each other's clusters, giving {A,B,C,D} and {C,D,E,F,G}.
    """

    @pytest.fixture
    def clusters(self):
        neighbor_lists = {
            "A": {"B", "C"},
            "B": {"C"},
            "C": {"D"},
            "D": {"E"},
            "E": set(),
            "F": {"G"},
            "G": {"D"},
        }
        counts = {
            ("A", "B"): KN, ("A", "C"): KF,
            ("B", "C"): KN,
            ("C", "D"): KF,
            ("D", "E"): KN,
            ("F", "G"): KN,
            ("G", "D"): KN,
        }
        return run(neighbor_lists, counts)

    def test_final_clusters_match_paper(self, clusters):
        assert set(clusters.as_sets()) == {
            frozenset("ABCD"), frozenset("CDEFG")}

    def test_c_and_d_overlap(self, clusters):
        assert len(clusters.clusters_of("C")) == 2
        assert len(clusters.clusters_of("D")) == 2

    def test_a_in_single_cluster(self, clusters):
        assert len(clusters.clusters_of("A")) == 1

    def test_a_c_transitively_clustered(self, clusters):
        # A and C have no direct kn relationship but are joined via B.
        assert clusters.same_cluster("A", "C")

    def test_project_of_c_spans_both(self, clusters):
        assert clusters.project_of("C") == set("ABCDEFG")


class TestTable1Actions:
    """Table 1: action as a function of the shared-neighbor count x."""

    def _pair(self, count):
        return run({"A": {"B"}, "B": set()}, {("A", "B"): count})

    def test_at_kn_combined(self):
        clusters = self._pair(KN)
        assert frozenset("AB") in clusters.as_sets()

    def test_above_kn_combined(self):
        clusters = self._pair(KN + 3)
        assert frozenset("AB") in clusters.as_sets()

    def test_between_kf_and_kn_overlapped(self):
        clusters = self._pair(KF)
        # Each file is inserted into the other's cluster; the two
        # now-identical clusters collapse into one by deduplication.
        assert set(clusters.as_sets()) == {frozenset("AB")}
        assert clusters.same_cluster("A", "B")

    def test_below_kf_no_action(self):
        clusters = self._pair(KF - 1)
        assert set(clusters.as_sets()) == {frozenset("A"), frozenset("B")}

    def test_unexamined_pair_ignored(self):
        # A blank entry in Table 2: B is not in A's relation list, so
        # even a huge shared count is never discovered.
        clusters = run({"A": set(), "B": set()}, {("A", "B"): 100})
        assert set(clusters.as_sets()) == {frozenset("A"), frozenset("B")}

    def test_kn_must_exceed_kf(self):
        with pytest.raises(ValueError):
            SeerParameters(kn=2, kf=2)


class TestRawSharedCounts:
    def test_shared_neighbor_intersection(self):
        neighbor_lists = {
            "A": {"X", "Y", "Z"},
            "B": {"X", "Y", "W"},
        }
        algorithm = SharedNeighborClustering(neighbor_lists, parameters=PARAMS)
        assert algorithm.raw_shared_count("A", "B") == 2

    def test_missing_file_counts_zero(self):
        algorithm = SharedNeighborClustering({"A": {"X"}}, parameters=PARAMS)
        assert algorithm.raw_shared_count("A", "nope") == 0

    def test_real_neighbor_lists_cluster(self):
        # Files of one project all track the same neighbors.
        shared = {"h1", "h2", "h3", "h4", "h5"}
        neighbor_lists = {name: set(shared) for name in ("a", "b", "c")}
        neighbor_lists["a"].add("b")
        for name in shared:
            neighbor_lists[name] = set()
        clusters = shipped(neighbor_lists)
        assert clusters.same_cluster("a", "b")


class TestExternalInformation:
    def test_investigator_strength_added(self):
        # Shared count kf-1 alone does nothing; an investigator relation
        # of strength 1 lifts it to kf (overlap).
        counts = {("A", "B"): KF - 1}
        relation = Relation(files=("A", "B"), strength=1.0)
        clusters = run({"A": {"B"}, "B": set()}, counts, relations=[relation])
        assert clusters.same_cluster("A", "B")

    def test_investigator_forces_cluster_without_distance(self):
        # Section 3.3.3: investigated relationships are tested even with
        # no stored semantic distance, and can force clustering.
        relation = Relation(files=("A", "B"), strength=float(KN))
        clusters = shipped({"A": set(), "B": set()}, relations=[relation])
        assert frozenset("AB") in clusters.as_sets()

    def test_relation_groups_force_whole_project(self):
        relation = Relation(files=("a.c", "b.c", "Makefile"), strength=10.0)
        clusters = shipped({}, relations=[relation])
        assert frozenset({"a.c", "b.c", "Makefile"}) in clusters.as_sets()

    def test_directory_distance_subtracted(self):
        counts = {("A", "B"): KN}
        far = lambda a, b: 100.0   # enormous directory distance
        parameters = PARAMS.with_changes(directory_distance_weight=1.0)
        clusters = run({"A": {"B"}, "B": set()}, counts,
                       parameters=parameters, directory_distance=far)
        assert not clusters.same_cluster("A", "B")

    def test_directory_distance_zero_neutral(self):
        counts = {("A", "B"): KN}
        same_dir = lambda a, b: 0.0
        clusters = run({"A": {"B"}, "B": set()}, counts,
                       directory_distance=same_dir)
        assert clusters.same_cluster("A", "B")

    def test_relation_needs_two_files(self):
        with pytest.raises(ValueError):
            Relation(files=("only-one",))

    def test_relation_strength_nonnegative(self):
        with pytest.raises(ValueError):
            Relation(files=("a", "b"), strength=-1.0)

    def test_relation_strengths_accumulate(self):
        # No listing: the raw count is 0, and half of kf twice is kf.
        relations = [Relation(files=("A", "B"), strength=float(KF) / 2)] * 2
        clusters = shipped({"A": set(), "B": set()}, relations=relations)
        assert clusters.same_cluster("A", "B")


class TestClusterSet:
    def test_singletons(self):
        clusters = shipped({"A": set(), "B": set()})
        assert len(clusters) == 2
        assert clusters.files() == {"A", "B"}

    def test_membership_api(self):
        clusters = ClusterSet()
        first = clusters.new_cluster(["x", "y"])
        second = clusters.new_cluster(["y", "z"])
        assert clusters.clusters_of("y") == {first, second}
        assert clusters.members(first) == {"x", "y"}
        assert clusters.project_of("y") == {"x", "y", "z"}

    def test_every_input_file_appears(self):
        neighbor_lists = {"A": {"B"}, "B": set(), "C": set()}
        clusters = shipped(neighbor_lists)
        assert clusters.files() == {"A", "B", "C"}

    def test_neighbors_only_in_lists_also_appear(self):
        # B appears only as someone's neighbor, never with its own list.
        clusters = shipped({"A": {"B"}})
        assert "B" in clusters.files()


@settings(max_examples=40)
@given(
    edges=st.lists(
        st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF"),
                  st.integers(min_value=0, max_value=8)),
        max_size=15))
def test_clustering_invariants(edges):
    neighbor_lists = {name: set() for name in "ABCDEF"}
    counts = {}
    for source, target, count in edges:
        if source != target:
            neighbor_lists[source].add(target)
            counts[(source, target)] = count
    clusters = run(neighbor_lists, counts)
    # Every file belongs to at least one cluster.
    for name in "ABCDEF":
        assert clusters.clusters_of(name)
    # Phase 1 pairs always end up in a shared cluster.
    for (source, target), count in counts.items():
        if count >= KN:
            assert clusters.same_cluster(source, target)
        elif count >= KF:
            assert clusters.same_cluster(source, target)
    # Clusters are consistent with the membership index.
    for cluster_id in clusters.cluster_ids():
        for member in clusters.members(cluster_id):
            assert cluster_id in clusters.clusters_of(member)


class TestDeduplicate:
    """``deduplicate`` may never leave a reference to a deleted id."""

    def test_chained_duplicates_remap_to_the_ultimate_survivor(self):
        clusters = ClusterSet()
        first = clusters.new_cluster(["x", "y"])
        second = clusters.new_cluster(["x", "y"])
        third = clusters.new_cluster(["x", "y"])
        remap = clusters.deduplicate()
        assert remap == {second: first, third: first}
        assert clusters.cluster_ids() == [first]
        assert clusters.clusters_of("x") == {first}
        assert clusters.clusters_of("y") == {first}

    def test_remap_targets_are_always_live(self):
        clusters = ClusterSet()
        clusters.new_cluster(["a"])
        clusters.new_cluster(["a", "b"])
        clusters.new_cluster(["a"])
        clusters.new_cluster(["a", "b"])
        clusters.new_cluster(["a"])
        remap = clusters.deduplicate()
        live = set(clusters.cluster_ids())
        assert set(remap.values()) <= live
        assert not set(remap) & live

    @settings(max_examples=100)
    @given(member_sets=st.lists(
        st.frozensets(st.sampled_from("uvwxyz"), min_size=1, max_size=4),
        min_size=1, max_size=12))
    def test_membership_never_references_deleted_ids(self, member_sets):
        clusters = ClusterSet()
        for members in member_sets:
            clusters.new_cluster(members)
        before = set(clusters.as_sets())
        remap = clusters.deduplicate()

        live = set(clusters.cluster_ids())
        assert set(remap.values()) <= live          # chains fully chased
        assert not set(remap) & live                # dropped ids are gone
        # Content is preserved: same distinct member sets, no copies.
        after = clusters.as_sets()
        assert set(after) == before
        assert len(after) == len(before)
        # clusters_of / project_of resolve through live clusters only.
        for file in sorted(clusters.files()):
            owning = clusters.clusters_of(file)
            assert owning and owning <= live
            project = clusters.project_of(file)     # no KeyError on dead ids
            assert file in project
        # The index and the cluster map agree in both directions.
        for cluster_id in clusters.cluster_ids():
            for member in clusters.members(cluster_id):
                assert cluster_id in clusters.clusters_of(member)
