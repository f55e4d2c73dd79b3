"""Tests for the normalized clustering mode (DESIGN.md section 7).

The denominator and count checks read the path-keyed oracle pass
(``tests/oracle/clustering.py``); the clustering checks run the
shipped pass.
"""

import pytest

from repro.core.clustering import Relation
from repro.core.parameters import SeerParameters
from tests.core.test_clustering import shipped
from tests.oracle.clustering import SharedNeighborClustering

PARAMS = SeerParameters(normalize_shared_counts=True,
                        kn_fraction=0.6, kf_fraction=0.4,
                        max_neighbors=20)


def algo(neighbor_lists, relations=(), parameters=PARAMS, dd=None):
    return SharedNeighborClustering(neighbor_lists, parameters=parameters,
                                    relations=relations,
                                    directory_distance=dd)


class TestDenominator:
    def test_smaller_table_wins(self):
        a = algo({"A": {"x", "y", "z"}, "B": {"x", "y", "w", "v", "u"}})
        assert a._denominator("A", "B") == 3.0

    def test_capped_at_max_neighbors(self):
        big = {f"n{i}" for i in range(40)}
        a = algo({"A": big, "B": big},
                 parameters=PARAMS.with_changes(max_neighbors=10))
        assert a._denominator("A", "B") == 10.0

    def test_investigator_only_pair_uses_one(self):
        a = algo({})
        assert a._denominator("A", "B") == 1.0

    def test_one_empty_list_uses_other(self):
        a = algo({"A": {"x", "y"}, "B": set()})
        assert a._denominator("A", "B") == 2.0


class TestNormalizedClustering:
    def test_small_project_clusters(self):
        # A tiny 2-file project: mutual listing alone is 2/1... with
        # each other's table having just one entry, the normalized
        # count is 2/1 = 2.0 >= kn_fraction.
        clusters = shipped({"A": {"B"}, "B": {"A"}}, parameters=PARAMS)
        assert clusters.same_cluster("A", "B")

    def test_large_project_clusters_equally_well(self):
        shared = {f"m{i}" for i in range(15)}
        lists = {"A": shared | {"B"}, "B": shared | {"A"}}
        for member in shared:
            lists[member] = set()
        clusters = shipped(lists, parameters=PARAMS)
        assert clusters.same_cluster("A", "B")

    def test_weak_overlap_does_not_combine(self):
        # 40% of a 10-entry table: overlap (>= kf) but not combine.
        common = {f"c{i}" for i in range(3)}
        lists = {"A": common | {f"a{i}" for i in range(7)},
                 "B": common | {f"b{i}" for i in range(7)}}
        lists["A"].add("B")
        for name in list(lists["A"] | lists["B"]):
            lists.setdefault(name, set())
        count = algo(lists).effective_count("A", "B")
        assert PARAMS.kf_fraction <= count < PARAMS.kn_fraction
        clusters = shipped(lists, parameters=PARAMS)
        assert clusters.same_cluster("A", "B")       # overlapped
        # But their base clusters were not merged: "A"'s project does
        # not swallow all of B's private neighbors.
        assert not clusters.same_cluster("a0", "b0")

    def test_strong_investigator_forces_despite_normalization(self):
        relation = Relation(files=("A", "B"), strength=5.0)
        clusters = shipped({}, relations=[relation], parameters=PARAMS)
        assert clusters.same_cluster("A", "B")

    def test_absolute_mode_unchanged(self):
        # The paper-faithful default ignores the fractions entirely.
        params = SeerParameters(kn=4, kf=2, normalize_shared_counts=False)
        lists = {"A": {"B", "x", "y", "z"}, "B": {"A", "x", "y", "z"}}
        for name in ("x", "y", "z"):
            lists[name] = set()
        clusters = shipped(lists, parameters=params)
        assert clusters.same_cluster("A", "B")

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SeerParameters(kn_fraction=0.4, kf_fraction=0.4)
