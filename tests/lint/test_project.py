"""Whole-project rule RL006 (serde reach)."""

from repro.lint import LintConfig

from tests.lint.conftest import rules_of

RL006_CONFIG = LintConfig(serde_module_path="serde.py",
                          serde_roots=("Root",), asdict_roots=())


class TestSerdeCompleteness:
    def test_lossless_graph_is_clean(self, lint_tree):
        result = lint_tree({
            "model.py": """
                from dataclasses import dataclass
                from typing import Dict, Optional, Tuple


                @dataclass(frozen=True)
                class Leaf:
                    name: str
                    weight: float


                @dataclass(frozen=True)
                class Root:
                    seed: int
                    label: Optional[str]
                    leaves: Tuple[Leaf, ...]
                    totals: Dict[str, int]
            """,
            "serde.py": """
                from model import Leaf, Root
            """,
        }, select=["RL006"], config=RL006_CONFIG)
        assert result.findings == []

    def test_unmentioned_reachable_dataclass_fires(self, lint_tree):
        result = lint_tree({
            "model.py": """
                from dataclasses import dataclass
                from typing import Tuple


                @dataclass(frozen=True)
                class Leaf:
                    name: str


                @dataclass(frozen=True)
                class Root:
                    leaves: Tuple[Leaf, ...]
            """,
            "serde.py": """
                from model import Root
            """,
        }, select=["RL006"], config=RL006_CONFIG)
        assert rules_of(result) == ["RL006"]
        assert "Leaf" in result.findings[0].message

    def test_object_field_fires(self, lint_tree):
        # The exact hazard this rule exists for: a field typed `object`
        # gives serde nothing to prove a lossless round-trip with.
        result = lint_tree({
            "model.py": """
                from dataclasses import dataclass


                @dataclass(frozen=True)
                class Root:
                    value: object
            """,
            "serde.py": """
                from model import Root
            """,
        }, select=["RL006"], config=RL006_CONFIG)
        assert rules_of(result) == ["RL006"]
        assert "object" in result.findings[0].message

    def test_int_dict_key_fires(self, lint_tree):
        # JSON object keys are strings: an int key comes back a str.
        result = lint_tree({
            "model.py": """
                from dataclasses import dataclass
                from typing import Dict


                @dataclass(frozen=True)
                class Root:
                    by_id: Dict[int, str]
            """,
            "serde.py": """
                from model import Root
            """,
        }, select=["RL006"], config=RL006_CONFIG)
        assert rules_of(result) == ["RL006"]

    def test_set_field_fires(self, lint_tree):
        result = lint_tree({
            "model.py": """
                from dataclasses import dataclass
                from typing import Set


                @dataclass(frozen=True)
                class Root:
                    members: Set[str]
            """,
            "serde.py": """
                from model import Root
            """,
        }, select=["RL006"], config=RL006_CONFIG)
        assert rules_of(result) == ["RL006"]
        assert "stable order" in result.findings[0].message

    def test_enum_field_is_clean(self, lint_tree):
        result = lint_tree({
            "model.py": """
                import enum
                from dataclasses import dataclass


                class Severity(enum.Enum):
                    LOW = "low"
                    HIGH = "high"


                @dataclass(frozen=True)
                class Root:
                    severity: Severity
            """,
            "serde.py": """
                from model import Root
            """,
        }, select=["RL006"], config=RL006_CONFIG)
        assert result.findings == []

    def test_asdict_root_needs_no_serde_mention(self, lint_tree):
        config = LintConfig(serde_module_path="serde.py",
                            serde_roots=("Root",), asdict_roots=("Root",))
        result = lint_tree({
            "model.py": """
                from dataclasses import dataclass


                @dataclass(frozen=True)
                class Root:
                    seed: int
            """,
            "serde.py": """
                import json
            """,
        }, select=["RL006"], config=config)
        assert result.findings == []
