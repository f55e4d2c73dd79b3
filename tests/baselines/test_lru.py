"""Tests for strict-LRU hoarding and its miss-free size (sec. 5.1.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.baselines.lru import lru_miss_free_size, lru_ranking


def sizes_of(mapping):
    return lambda path: mapping.get(path, 0)


class TestLruRanking:
    def test_most_recent_first(self):
        assert lru_ranking({"a": 1, "b": 3, "c": 2}) == ["b", "c", "a"]

    def test_ties_by_name(self):
        assert lru_ranking({"b": 1, "a": 1}) == ["a", "b"]

    def test_empty(self):
        assert lru_ranking({}) == []


class TestMissFreeSize:
    def test_exact_recipe(self):
        # Recency order: d(4) c(3) b(2) a(1).  Needed = {c}: the prefix
        # through the last marked file is [d, c].
        recency = {"a": 1, "b": 2, "c": 3, "d": 4}
        sizes = sizes_of({"a": 1, "b": 2, "c": 4, "d": 8})
        size, uncoverable = lru_miss_free_size(recency, {"c"}, sizes)
        assert size == 12   # d + c
        assert uncoverable == set()

    def test_oldest_needed_file_costs_everything(self):
        recency = {"a": 1, "b": 2, "c": 3}
        sizes = sizes_of({"a": 10, "b": 20, "c": 30})
        size, _ = lru_miss_free_size(recency, {"a"}, sizes)
        assert size == 60   # the whole list

    def test_most_recent_needed_file_is_cheap(self):
        recency = {"a": 1, "b": 2, "c": 3}
        sizes = sizes_of({"a": 10, "b": 20, "c": 30})
        size, _ = lru_miss_free_size(recency, {"c"}, sizes)
        assert size == 30

    def test_unknown_needed_files_uncoverable(self):
        size, uncoverable = lru_miss_free_size(
            {"a": 1}, {"a", "/new"}, sizes_of({"a": 5}))
        assert uncoverable == {"/new"}
        assert size == 5

    def test_empty_needed(self):
        size, uncoverable = lru_miss_free_size({"a": 1}, set(), sizes_of({"a": 5}))
        assert size == 0
        assert uncoverable == set()

    def test_attention_shift_penalty(self):
        # The paper's key observation: after an attention shift back to
        # an old project, LRU must hoard everything referenced since.
        recency = {}
        counter = 0
        for name in ("old1", "old2", "old3"):
            counter += 1
            recency[name] = counter
        for index in range(100):   # a hundred files of newer work
            counter += 1
            recency[f"new{index}"] = counter
        sizes = sizes_of({name: 10 for name in recency})
        size, _ = lru_miss_free_size(recency, {"old1", "old2", "old3"}, sizes)
        assert size == 1030   # all 103 files

    @given(st.dictionaries(st.sampled_from("abcdefgh"),
                           st.integers(min_value=1, max_value=100),
                           min_size=1),
           st.sets(st.sampled_from("abcdefgh")))
    def test_miss_free_hoard_actually_miss_free(self, recency, needed):
        sizes = sizes_of({name: 1 for name in "abcdefgh"})
        size, uncoverable = lru_miss_free_size(recency, needed, sizes)
        # Hoarding exactly `size` bytes of the LRU ranking covers all
        # coverable needed files.
        ranking = lru_ranking(recency)
        hoard, total = set(), 0
        for path in ranking:
            if total + sizes(path) > size:
                break
            hoard.add(path)
            total += sizes(path)
        assert (needed - uncoverable) <= hoard or size == 0
