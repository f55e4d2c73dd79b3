"""``repro.lint`` -- the determinism & invariant analyzer.

Run it with ``python -m repro.lint src/``.  See
``docs/static-analysis.md`` for the rule catalogue, the suppression
workflow, and the motivating incidents.
"""

from repro.lint.engine import (
    Finding,
    LintConfig,
    LintResult,
    ModuleInfo,
    ProjectRule,
    Rule,
    collect_files,
    load_module,
    render_json,
    render_text,
    run_lint,
)
from repro.lint.flow import Cfg, ProjectFlow, build_cfg
from repro.lint.concurrency import PROJECT_RULES
from repro.lint.rules import FILE_RULES

__all__ = [
    "Cfg",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleInfo",
    "ProjectFlow",
    "ProjectRule",
    "Rule",
    "FILE_RULES",
    "PROJECT_RULES",
    "build_cfg",
    "collect_files",
    "load_module",
    "render_json",
    "render_text",
    "run_lint",
]
