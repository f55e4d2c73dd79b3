"""Per-file rules RL001-RL004 and RL007: one firing and one clean
fixture per rule, plus the edge cases each rule promises to handle."""

from repro.lint import LintConfig

from tests.lint.conftest import rules_of


class TestNoWallClock:
    def test_time_time_fires(self, lint_snippet):
        result = lint_snippet("""
            import time

            def stamp():
                return time.time()
        """, select=["RL001"])
        assert rules_of(result) == ["RL001"]
        assert "time.time" in result.findings[0].message

    def test_datetime_now_fires(self, lint_snippet):
        result = lint_snippet("""
            from datetime import datetime

            def today():
                return datetime.now()
        """, select=["RL001"])
        assert rules_of(result) == ["RL001"]

    def test_from_import_alias_fires(self, lint_snippet):
        result = lint_snippet("""
            from time import monotonic as clock

            def stamp():
                return clock()
        """, select=["RL001"])
        assert rules_of(result) == ["RL001"]
        assert "time.monotonic" in result.findings[0].message

    def test_perf_counter_is_allowed(self, lint_snippet):
        result = lint_snippet("""
            import time

            def duration():
                return time.perf_counter()
        """, select=["RL001"])
        assert result.findings == []

    def test_unrelated_time_attribute_is_clean(self, lint_snippet):
        result = lint_snippet("""
            import time

            def wait():
                time.sleep(0.1)
        """, select=["RL001"])
        assert result.findings == []


class TestNoUnseededRandom:
    def test_module_level_random_fires(self, lint_snippet):
        result = lint_snippet("""
            import random

            def draw():
                return random.random()
        """, select=["RL002"])
        assert rules_of(result) == ["RL002"]

    def test_from_import_fires(self, lint_snippet):
        result = lint_snippet("""
            from random import choice

            def pick(items):
                return choice(items)
        """, select=["RL002"])
        assert rules_of(result) == ["RL002"]

    def test_numpy_global_fires(self, lint_snippet):
        result = lint_snippet("""
            import numpy as np

            def shuffle(items):
                np.random.shuffle(items)
        """, select=["RL002"])
        assert rules_of(result) == ["RL002"]

    def test_unseeded_default_rng_fires(self, lint_snippet):
        result = lint_snippet("""
            import numpy as np

            def rng():
                return np.random.default_rng()
        """, select=["RL002"])
        assert rules_of(result) == ["RL002"]
        assert "seed" in result.findings[0].message

    def test_seeded_instances_are_clean(self, lint_snippet):
        result = lint_snippet("""
            import random
            import numpy as np

            def draws(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random(), gen.random()
        """, select=["RL002"])
        assert result.findings == []


class TestNoBuiltinHash:
    def test_builtin_hash_fires(self, lint_snippet):
        result = lint_snippet("""
            def shard_seed(seed, path):
                return hash(f"{seed}:{path}")
        """, select=["RL003"])
        assert rules_of(result) == ["RL003"]
        assert "PYTHONHASHSEED" in result.findings[0].message

    def test_method_named_hash_is_clean(self, lint_snippet):
        result = lint_snippet("""
            def digest(hasher, data):
                return hasher.hash(data)
        """, select=["RL003"])
        assert result.findings == []

    def test_shadowed_hash_is_clean(self, lint_snippet):
        result = lint_snippet("""
            def apply(hash, value):
                return hash(value)
        """, select=["RL003"])
        assert result.findings == []


class TestOrderStableIteration:
    def test_list_of_set_fires(self, lint_snippet):
        result = lint_snippet("""
            def emit(paths):
                pending = set(paths)
                return list(pending)
        """, select=["RL004"])
        assert rules_of(result) == ["RL004"]

    def test_for_over_set_literal_fires(self, lint_snippet):
        result = lint_snippet("""
            def emit(out):
                for name in {"a", "b"}:
                    out.append(name)
        """, select=["RL004"])
        assert rules_of(result) == ["RL004"]

    def test_join_of_set_fires(self, lint_snippet):
        result = lint_snippet("""
            def render(names):
                return ",".join(set(names))
        """, select=["RL004"])
        assert rules_of(result) == ["RL004"]

    def test_set_union_binding_fires(self, lint_snippet):
        result = lint_snippet("""
            def merge(a, b):
                keys = set(a) | set(b)
                return [k for k in keys]
        """, select=["RL004"])
        assert rules_of(result) == ["RL004"]

    def test_sorted_set_is_clean(self, lint_snippet):
        result = lint_snippet("""
            def emit(paths):
                pending = set(paths)
                return sorted(pending)
        """, select=["RL004"])
        assert result.findings == []

    def test_commutative_reduction_is_clean(self, lint_snippet):
        result = lint_snippet("""
            def total(sizes, kept):
                kept = set(kept)
                return sum(sizes[path] for path in kept)
        """, select=["RL004"])
        assert result.findings == []

    def test_dict_iteration_is_clean(self, lint_snippet):
        # Dict views are insertion-ordered in CPython >= 3.7: exempt.
        result = lint_snippet("""
            def emit(table):
                return list(table)
        """, select=["RL004"])
        assert result.findings == []

    def test_rebound_name_is_clean(self, lint_snippet):
        result = lint_snippet("""
            def emit(paths):
                pending = set(paths)
                pending = sorted(pending)
                return list(pending)
        """, select=["RL004"])
        assert result.findings == []


class TestTypedCore:
    CONFIG = LintConfig(typed_core_prefixes=("",))

    def test_unannotated_function_fires(self, lint_snippet):
        result = lint_snippet("""
            def f(x):
                return x
        """, select=["RL007"], config=self.CONFIG)
        assert rules_of(result) == ["RL007", "RL007"]  # params + return
        assert "mypy --strict" in result.findings[0].message

    def test_self_is_not_required(self, lint_snippet):
        result = lint_snippet("""
            class Store:
                def get(self, key: str) -> int:
                    return len(key)
        """, select=["RL007"], config=self.CONFIG)
        assert result.findings == []

    def test_outside_core_is_exempt(self, lint_snippet):
        result = lint_snippet("""
            def f(x):
                return x
        """, select=["RL007"],
            config=LintConfig(typed_core_prefixes=("repro/kernel/",)))
        assert result.findings == []
