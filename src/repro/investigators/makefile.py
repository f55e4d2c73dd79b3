"""The makefile investigator.

Section 3.2: "a makefile investigator could potentially identify every
file needed to build a particular program and create a cluster
containing exactly these files."  This investigator parses a minimal
but realistic Makefile dialect -- variable assignments, ``target:
prerequisites`` rules, ``$(VAR)`` substitution -- and emits one
high-strength relation per makefile covering the makefile itself, all
targets and all prerequisites, forcing them into one cluster.
"""

from __future__ import annotations

import re
from typing import Dict, List, Set

from repro.core.clustering import Relation
from repro.fs import FileSystemError
from repro.fs.paths import basename, dirname, join, normalize
from repro.investigators.base import Investigator

_VARIABLE_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*[:+]?=\s*(.*)$")
_RULE_RE = re.compile(r"^([^\s:=][^:=]*):(?!=)(.*)$")
_SUBST_RE = re.compile(r"\$[({]([A-Za-z_][A-Za-z0-9_]*)[)}]")

MAKEFILE_NAMES = ("Makefile", "makefile", "GNUmakefile")


def expand_variables(text: str, variables: Dict[str, str], depth: int = 0) -> str:
    """Expand ``$(VAR)`` / ``${VAR}`` references (bounded recursion)."""
    if depth > 10:
        return text

    def replace(match: re.Match) -> str:
        return expand_variables(variables.get(match.group(1), ""), variables,
                                depth + 1)

    return _SUBST_RE.sub(replace, text)


def parse_makefile(content: str) -> List[tuple]:
    """Parse *content*; returns ``(target, [prerequisites])`` pairs."""
    variables: Dict[str, str] = {}
    rules: List[tuple] = []
    for raw_line in content.splitlines():
        line = raw_line.split("#", 1)[0].rstrip()
        if not line or line.startswith("\t"):
            continue  # recipe lines and blanks
        variable_match = _VARIABLE_RE.match(line)
        if variable_match is not None:
            name, value = variable_match.groups()
            expanded = expand_variables(value.strip(), variables)
            if _VARIABLE_RE.match(raw_line).group(0).find("+=") != -1 and name in variables:
                variables[name] = (variables[name] + " " + expanded).strip()
            else:
                variables[name] = expanded
            continue
        rule_match = _RULE_RE.match(line)
        if rule_match is not None:
            targets = expand_variables(rule_match.group(1), variables).split()
            prerequisites = expand_variables(rule_match.group(2), variables).split()
            for target in targets:
                rules.append((target, prerequisites))
    return rules


class MakefileInvestigator(Investigator):
    """Relates every file a makefile mentions into one cluster."""

    strength = 10.0  # high enough to force clustering (section 3.3.3)

    def investigate(self) -> List[Relation]:
        relations: List[Relation] = []
        for path in self._files_under_root():
            if basename(path) not in MAKEFILE_NAMES:
                continue
            members = self._project_members(path)
            if len(members) >= 2:
                relations.append(Relation(
                    files=tuple(sorted(members)), strength=self.strength,
                    source="makefile"))
        return relations

    def _project_members(self, makefile_path: str) -> Set[str]:
        try:
            node = self.fs.stat(makefile_path)
        except FileSystemError:
            return set()
        if not node.content:
            return set()
        directory = dirname(makefile_path)
        members: Set[str] = {makefile_path}
        for target, prerequisites in parse_makefile(node.content):
            for name in [target] + prerequisites:
                if name.startswith("."):   # .PHONY and friends
                    continue
                resolved = normalize(join(directory, name))
                if self.fs.exists(resolved):
                    members.add(resolved)
        return members
