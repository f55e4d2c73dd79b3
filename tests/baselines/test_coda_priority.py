"""Tests for the CODA-inspired priority scheme (sections 5.1.2, 6.2)."""

from repro.baselines.coda_priority import AGE_HORIZON, CodaPriorityManager


class TestPriorityVariants:
    def test_bounded_clamps_age(self):
        manager = CodaPriorityManager()
        manager.reference("/old/a")
        manager.reference("/old/b")
        for index in range(AGE_HORIZON + 1):
            manager.reference(f"/new/{index:04d}")
        ranking = manager.ranking()
        # Within the horizon, the most recent file leads.
        assert ranking[0] == f"/new/{AGE_HORIZON:04d}"
        # Both old files were last referenced more than AGE_HORIZON
        # references ago: their clamped ages tie and the path decides,
        # though /old/b is the more recent.
        assert ranking[-2:] == ["/old/a", "/old/b"]


class TestBuildAndMissFree:
    def test_miss_free_size_degrades_without_hand_management(self):
        # The paper's observation: with no profiles, the CODA formula
        # is plain LRU, so an attention shift costs it the full list.
        manager = CodaPriorityManager()
        manager.reference("/old")
        for index in range(50):
            manager.reference(f"/f{index}")
        size, _ = manager.miss_free_size({"/old"}, lambda p: 1)
        assert size == 51

    def test_unknown_needed_uncoverable(self):
        manager = CodaPriorityManager()
        manager.reference("/a")
        size, uncoverable = manager.miss_free_size({"/ghost"}, lambda p: 1)
        assert uncoverable == {"/ghost"}
        assert size == 0
