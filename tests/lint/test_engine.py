"""Engine behaviour: suppressions, output, rule selection."""

import json

import pytest

from repro.lint import run_lint, render_json, render_text
from repro.lint.__main__ import main

HASHY = """
    def shard_seed(seed, path):
        return hash(f"{seed}:{path}")
"""


class TestSuppressions:
    def test_same_line_disable(self, lint_snippet):
        result = lint_snippet("""
            def seed(path):
                return hash(path)  # repro-lint: disable=RL003
        """, select=["RL003"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["RL003"]

    def test_standalone_comment_guards_next_line(self, lint_snippet):
        result = lint_snippet("""
            def seed(path):
                # repro-lint: disable=RL003
                return hash(path)
        """, select=["RL003"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["RL003"]

    def test_disable_all(self, lint_snippet):
        result = lint_snippet("""
            def seed(path):
                return hash(path)  # repro-lint: disable=all
        """, select=["RL003"])
        assert result.findings == []

    def test_disable_file(self, lint_snippet):
        result = lint_snippet("""
            # repro-lint: disable-file=RL003

            def seed(path):
                return hash(path)

            def other(path):
                return hash(path)
        """, select=["RL003"])
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_wrong_rule_id_does_not_suppress(self, lint_snippet):
        result = lint_snippet("""
            def seed(path):
                return hash(path)  # repro-lint: disable=RL001
        """, select=["RL003"])
        assert [f.rule for f in result.findings] == ["RL003"]


class TestOutput:
    def test_json_output_parses(self, lint_snippet):
        result = lint_snippet(HASHY, select=["RL003"])
        data = json.loads(render_json(result))
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert data["findings"][0]["rule"] == "RL003"
        assert data["findings"][0]["path"] == "mod.py"

    def test_text_output_names_location_and_rule(self, lint_snippet):
        result = lint_snippet(HASHY, select=["RL003"])
        text = render_text(result)
        assert "mod.py:" in text and "RL003" in text
        assert text.endswith("1 finding")

    def test_clean_run_is_ok(self, lint_snippet):
        result = lint_snippet("""
            X = 1
        """)
        assert result.ok
        assert "0 findings" in render_text(result)


class TestParseErrors:
    def test_syntax_error_fails_the_run(self, lint_snippet):
        result = lint_snippet("def broken(:\n")
        assert not result.ok
        assert [f.rule for f in result.parse_errors] == ["RL000"]


class TestSelect:
    def test_select_limits_rules(self, lint_snippet):
        source = """
            import time

            def f(path):
                return hash(path), time.time()
        """
        everything = lint_snippet(source)
        only_hash = lint_snippet(source, select=["RL003"], name="b.py")
        assert {f.rule for f in everything.findings} == {"RL001", "RL003"}
        assert {f.rule for f in only_hash.findings} == {"RL003"}

    def test_unknown_rule_id_is_rejected(self, tmp_path, capsys):
        # A retired or mistyped id must not run zero rules and pass.
        path = tmp_path / "mod.py"
        path.write_text("X = 1\n")
        with pytest.raises(ValueError, match="RL010"):
            run_lint([str(path)], select=["RL003", "RL010"])
        assert main([str(path), "--select", "RL010"]) == 2
        assert "RL010" in capsys.readouterr().err
        with pytest.raises(ValueError, match="RL006"):
            run_lint([str(path)], select=["RL006"])
        assert main([str(path), "--select", "RL006"]) == 2
        assert "RL006" in capsys.readouterr().err
