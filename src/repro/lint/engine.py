"""The analyzer engine: file collection, suppressions, output.

``repro.lint`` is a purpose-built static analyzer for *this* codebase.
Generic linters check style; this one checks the three properties
every PR since the parallel runner has depended on:

* **bit-determinism** -- the same grid cell must produce the same bytes
  in every process, on every host, at every pool size (rules
  RL001-RL004);
* **annotation completeness** -- in the typed core (RL007).
  Lossless persistence needs no rule: the checkpoint codec
  (``repro.simulation.serde``) derives every payload from the
  dataclass fields and rejects a field type JSON cannot round-trip;
* **concurrency & resource safety** -- per-function CFGs and a project
  call graph (``repro.lint.flow``) back rules for blocking calls in
  event-loop context, lock-set-inconsistent shared state, orphaned
  tasks, and resources left open on some path (RL008, RL009, RL011,
  RL012, ``repro.lint.concurrency``).

The engine parses each file once into a :class:`ModuleInfo`, runs the
per-file rules (optionally across a process pool, ``--jobs``), then
the whole-project rules, and finally applies suppression comments.
Findings are sorted so output is identical at every job count.  Exit
status is zero iff no finding survives suppression.

Suppressions
------------
``# repro-lint: disable=RL001`` (comma-separated ids, or ``all``) on a
flagged line suppresses matching findings on that line; a comment line
containing nothing else suppresses the following line instead.
``# repro-lint: disable-file=RL004`` anywhere in a file suppresses the
rule for the whole file.  Suppressions are the only exemption
mechanism.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List,
                    Optional, Sequence, Set, Tuple)

__all__ = [
    "Finding",
    "LintConfig",
    "ModuleInfo",
    "Rule",
    "ProjectRule",
    "collect_files",
    "load_module",
    "run_lint",
    "render_text",
    "render_json",
]

if TYPE_CHECKING:
    from repro.lint.flow import ProjectFlow

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_*,\s]+?)\s*(?:#|$)")
_SUPPRESS_FILE_RE = re.compile(
    r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_*,\s]+?)\s*(?:#|$)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str          # repo-relative, forward slashes
    line: int          # 1-based
    col: int           # 0-based, as reported by ast
    message: str
    snippet: str = ""  # the offending source line, stripped

    def to_data(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class LintConfig:
    """Knobs the rules read; tests override paths to point at fixtures."""

    # RL007: the typed core, held to complete annotations: the packages
    # mypy holds to --strict, plus fs and investigators, which the
    # Seer's relation cache depends on, and analysis, which renders the
    # population report (mypy still ratchets those three).
    typed_core_prefixes: Tuple[str, ...] = (
        "repro/kernel/",
        "repro/tracing/",
        "repro/observer/",
        "repro/core/",
        "repro/simulation/",
        "repro/faults/",
        "repro/observability/",
        "repro/lint/",
        "repro/service/",
        "repro/workload/",
        "repro/fs/",
        "repro/investigators/",
        "repro/analysis/",
    )


@dataclass
class ModuleInfo:
    """One parsed source file, shared by every rule."""

    abspath: str
    relpath: str                  # relative to the lint root, posix style
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    # line number -> rule ids suppressed on that line
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    file_suppressions: FrozenSet[str] = frozenset()

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.rule in self.file_suppressions or \
                "all" in self.file_suppressions:
            return True
        rules = self.suppressions.get(finding.line)
        if rules is None:
            return False
        return finding.rule in rules or "all" in rules


def _parse_suppressions(
        lines: Sequence[str]
) -> Tuple[Dict[int, FrozenSet[str]], FrozenSet[str]]:
    per_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    for index, text in enumerate(lines, start=1):
        match = _SUPPRESS_FILE_RE.search(text)
        if match:
            whole_file.update(
                token.strip() for token in match.group(1).split(",")
                if token.strip())
            continue
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        rules = {token.strip() for token in match.group(1).split(",")
                 if token.strip()}
        target = index
        if text.strip().startswith("#"):
            # A standalone suppression comment guards the next line.
            target = index + 1
        per_line.setdefault(target, set()).update(rules)
    return ({line: frozenset(rules) for line, rules in per_line.items()},
            frozenset(whole_file))


def load_module(abspath: str, relpath: str) -> ModuleInfo:
    """Parse one file; raises SyntaxError for unparseable source."""
    with open(abspath, "r", encoding="utf-8") as stream:
        source = stream.read()
    tree = ast.parse(source, filename=abspath)
    lines = source.splitlines()
    suppressions, file_suppressions = _parse_suppressions(lines)
    return ModuleInfo(abspath=abspath, relpath=relpath, source=source,
                      tree=tree, lines=lines, suppressions=suppressions,
                      file_suppressions=file_suppressions)


# ----------------------------------------------------------------------
# rule base classes (subclassed in rules.py and concurrency.py)
# ----------------------------------------------------------------------
class Rule:
    """One per-file rule: an id, a name, and a module check."""

    id: str = "RL000"
    name: str = "abstract"
    description: str = ""

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=self.id, path=module.relpath, line=line,
                       col=col, message=message,
                       snippet=module.line_text(line))


class ProjectRule:
    """A rule over the whole module set.

    *flow* is the shared :class:`~repro.lint.flow.ProjectFlow` built
    once per run; rules invoked standalone (``flow=None``) build their
    own when they need one.
    """

    id: str = "RL000"
    name: str = "abstract"
    description: str = ""

    def check_project(self, modules: Dict[str, ModuleInfo],
                      config: LintConfig,
                      flow: Optional["ProjectFlow"] = None
                      ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=self.id, path=module.relpath, line=line,
                       col=col, message=message,
                       snippet=module.line_text(line))


# ----------------------------------------------------------------------
# shared AST helpers (used by rules.py, flow.py, concurrency.py)
# ----------------------------------------------------------------------
def _import_aliases(tree: ast.Module, module_name: str) -> Set[str]:
    """Local names bound to *module_name* by plain imports."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == module_name:
                    aliases.add(item.asname or module_name)
                elif item.name.startswith(module_name + ".") and \
                        item.asname is None:
                    aliases.add(module_name)
    return aliases


def _from_imports(tree: ast.Module,
                  module_name: str) -> Dict[str, str]:
    """Local name -> original name for ``from module_name import ...``."""
    bound: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module_name \
                and node.level == 0:
            for item in node.names:
                bound[item.asname or item.name] = item.name
    return bound


def _dotted(node: ast.AST) -> Optional[str]:
    """`a.b.c` attribute chains as a string, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def collect_files(paths: Sequence[str]) -> List[Tuple[str, str]]:
    """Expand *paths* into (abspath, relpath) pairs for every .py file.

    ``relpath`` is relative to the named path's base directory so that
    ``repro.lint src/`` yields ``repro/...`` paths -- the shape the
    config paths and prefixes use.
    """
    out: List[Tuple[str, str]] = []
    seen = set()
    for path in paths:
        path = os.path.abspath(path)
        if os.path.isfile(path):
            rel = os.path.basename(path)
            if path not in seen:
                seen.add(path)
                out.append((path, rel))
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".")
                                 and d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                abspath = os.path.join(dirpath, name)
                if abspath in seen:
                    continue
                seen.add(abspath)
                rel = os.path.relpath(abspath, path).replace(os.sep, "/")
                out.append((abspath, rel))
    return out


@dataclass
class LintResult:
    """Everything one analyzer run produced."""

    findings: List[Finding]          # unsuppressed (fail the run)
    suppressed: List[Finding]
    files_checked: int
    parse_errors: List[Finding]

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors


def _analyze_one(task: Tuple[str, str, LintConfig,
                             Optional[FrozenSet[str]]]
                 ) -> Tuple[str, Optional[ModuleInfo],
                            Optional[Finding], List[Finding]]:
    """Parse one file and run the per-file rules (worker-pool unit).

    Top-level so multiprocessing can pickle it; ASTs pickle fine, so
    the parent gets both the findings and the parsed module back (the
    project rules need every tree at once).
    """
    from repro.lint.rules import FILE_RULES

    abspath, relpath, config, wanted = task
    try:
        module = load_module(abspath, relpath)
    except SyntaxError as exc:
        return relpath, None, Finding(
            rule="RL000", path=relpath, line=exc.lineno or 0,
            col=exc.offset or 0,
            message=f"file does not parse: {exc.msg}"), []
    findings: List[Finding] = []
    for rule in FILE_RULES:
        if wanted is not None and rule.id not in wanted:
            continue
        findings.extend(rule.check_module(module, config))
    return relpath, module, None, findings


def run_lint(paths: Sequence[str],
             config: Optional[LintConfig] = None,
             select: Optional[Sequence[str]] = None,
             jobs: int = 1) -> LintResult:
    """Run every rule over *paths* and return the filtered findings.

    With ``jobs > 1`` parsing and the per-file rules fan out over a
    process pool; the whole-project passes (which need every tree in
    one address space) stay in the parent.  Finding order is
    deterministic at any job count: the per-file results come back in
    submission order and the merged list is sorted before filtering.
    Raises ValueError if *select* names an id no rule has.
    """
    from repro.lint.concurrency import PROJECT_RULES
    from repro.lint.rules import FILE_RULES

    config = config or LintConfig()
    wanted = frozenset(select) if select else None
    known = {rule.id for rule in FILE_RULES + PROJECT_RULES}
    unknown = sorted((wanted or frozenset()) - known)
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)} "
                         f"(see --list-rules)")

    tasks = [(abspath, relpath, config, wanted)
             for abspath, relpath in collect_files(paths)]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing
        with multiprocessing.Pool(processes=jobs) as pool:
            analyzed = pool.map(_analyze_one, tasks)
    else:
        analyzed = [_analyze_one(task) for task in tasks]

    modules: Dict[str, ModuleInfo] = {}
    parse_errors: List[Finding] = []
    raw: List[Finding] = []
    for relpath, module, error, findings in analyzed:
        if error is not None or module is None:
            if error is not None:
                parse_errors.append(error)
            continue
        modules[relpath] = module
        raw.extend(findings)

    project_rules = [rule for rule in PROJECT_RULES
                     if wanted is None or rule.id in wanted]
    if project_rules:
        from repro.lint.flow import ProjectFlow
        flow = ProjectFlow.build(modules)
        for project_rule in project_rules:
            raw.extend(project_rule.check_project(modules, config, flow))

    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    live: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        module = modules.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            suppressed.append(finding)
        else:
            live.append(finding)

    return LintResult(findings=live, suppressed=suppressed,
                      files_checked=len(modules),
                      parse_errors=parse_errors)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def render_text(result: LintResult, verbose: bool = False) -> str:
    lines: List[str] = []
    for finding in result.parse_errors + result.findings:
        lines.append(f"{finding.path}:{finding.line}:{finding.col + 1}: "
                     f"{finding.rule} {finding.message}")
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if verbose:
        for finding in result.suppressed:
            lines.append(f"{finding.path}:{finding.line}: "
                         f"{finding.rule} [suppressed] {finding.message}")
    total = len(result.findings) + len(result.parse_errors)
    summary = (f"{result.files_checked} files checked: "
               f"{total} finding{'s' if total != 1 else ''}")
    if result.suppressed:
        summary += f" ({len(result.suppressed)} suppressed)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    data = {
        "files_checked": result.files_checked,
        "findings": [f.to_data() for f in result.parse_errors
                     + result.findings],
        "suppressed": [f.to_data() for f in result.suppressed],
        "ok": result.ok,
    }
    return json.dumps(data, indent=2, sort_keys=True)
