"""Whole-project rule: serde reach (RL006).

Unlike the per-file rules this needs to see several modules at once:
RL006 walks the dataclass graph reachable from the checkpoint payload
roots and checks each class against the serde module.  It works purely
on ASTs -- nothing is imported, so the analyzer runs on trees that do
not import cleanly.  The concurrency rules RL008 and RL009 are
registered here too.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from typing import TYPE_CHECKING

from repro.lint.engine import (Finding, LintConfig, ModuleInfo,
                               ProjectRule)

if TYPE_CHECKING:
    from repro.lint.flow import ProjectFlow

__all__ = ["PROJECT_RULES", "ProjectRule", "SerdeCompleteness"]

#: the JSON-lossless leaf annotations (RL006)
_LOSSLESS_LEAVES = frozenset({"int", "float", "str", "bool", "None"})
#: subscriptable containers that round-trip losslessly element-wise
_LOSSLESS_CONTAINERS = frozenset({"List", "list", "Tuple", "tuple",
                                  "Sequence", "Optional", "Union",
                                  "Dict", "dict", "Mapping"})


# ----------------------------------------------------------------------
# RL006 -- serde completeness over the checkpoint payload graph
# ----------------------------------------------------------------------
class _DataclassInfo:
    """One @dataclass definition found anywhere in the tree."""

    __slots__ = ("name", "module", "node", "fields", "aliases")

    def __init__(self, name: str, module: ModuleInfo, node: ast.ClassDef,
                 fields: List[Tuple[str, Optional[ast.expr]]],
                 aliases: Dict[str, ast.expr]) -> None:
        self.name = name
        self.module = module
        self.node = node
        self.fields = fields
        self.aliases = aliases          # module-level type aliases


class SerdeCompleteness(ProjectRule):
    """Everything a checkpoint can contain must round-trip losslessly.

    ``--resume`` promises byte-identical output to an uninterrupted
    run, which holds only if every dataclass reachable from the
    checkpoint payload roots (ShardSpec and the shard results) has
    explicit serde support and field types from the lossless set:
    int/float/str/bool/None, enums (stored by name), List/Tuple/
    Optional/Union of those, Dict with str keys (JSON object keys are
    strings -- an int key would come back a str), and other compliant
    dataclasses.  A field typed ``object`` -- or a new result class
    nobody taught :mod:`repro.simulation.serde` about -- fails lint
    instead of failing a resume three PRs later.
    """

    id = "RL006"
    name = "serde-completeness"
    description = ("dataclass reachable from the checkpoint payload "
                   "roots lacking serde support or using a non-lossless "
                   "field type")

    def check_project(self, modules: Dict[str, ModuleInfo],
                      config: LintConfig,
                      flow: Optional["ProjectFlow"] = None
                      ) -> Iterator[Finding]:
        serde = modules.get(config.serde_module_path)
        if serde is None:
            return
        dataclasses = self._index_dataclasses(modules)
        enums = self._index_enums(modules)
        serde_names = self._referenced_names(serde.tree)

        seen: Set[str] = set()
        queue: List[Tuple[str, bool]] = [
            (root, root in config.asdict_roots)
            for root in config.serde_roots]
        while queue:
            class_name, via_asdict = queue.pop(0)
            if class_name in seen:
                continue
            seen.add(class_name)
            info = dataclasses.get(class_name)
            if info is None:
                continue   # not a dataclass in this tree (e.g. fixture)
            if not via_asdict and class_name not in serde_names:
                yield self.finding(
                    info.module, info.node,
                    f"dataclass `{class_name}` is reachable from a "
                    f"checkpoint payload but never mentioned in "
                    f"{config.serde_module_path}; add a to/from_data "
                    f"pair")
            for field_name, annotation in info.fields:
                if annotation is None:
                    yield self.finding(
                        info.module, info.node,
                        f"`{class_name}.{field_name}` has no annotation; "
                        f"serde cannot prove it round-trips")
                    continue
                for problem, nested in self._check_annotation(
                        annotation, info, dataclasses, enums):
                    if nested is not None:
                        queue.append((nested, False))
                    if problem is not None:
                        yield self.finding(
                            info.module, annotation,
                            f"`{class_name}.{field_name}`: {problem}")

    # -- indexing ------------------------------------------------------
    @staticmethod
    def _is_dataclass_decorator(node: ast.expr) -> bool:
        target = node.func if isinstance(node, ast.Call) else node
        if isinstance(target, ast.Name):
            return target.id == "dataclass"
        if isinstance(target, ast.Attribute):
            return target.attr == "dataclass"
        return False

    def _index_dataclasses(self, modules: Dict[str, ModuleInfo]
                           ) -> Dict[str, _DataclassInfo]:
        index: Dict[str, _DataclassInfo] = {}
        for module in modules.values():
            aliases = self._module_aliases(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if not any(self._is_dataclass_decorator(d)
                           for d in node.decorator_list):
                    continue
                fields: List[Tuple[str, Optional[ast.expr]]] = []
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and \
                            isinstance(stmt.target, ast.Name):
                        if isinstance(stmt.annotation, ast.Name) and \
                                stmt.annotation.id == "ClassVar":
                            continue
                        if isinstance(stmt.annotation, ast.Subscript) and \
                                isinstance(stmt.annotation.value,
                                           ast.Name) and \
                                stmt.annotation.value.id == "ClassVar":
                            continue
                        fields.append((stmt.target.id, stmt.annotation))
                index[node.name] = _DataclassInfo(
                    node.name, module, node, fields, aliases)
        return index

    @staticmethod
    def _index_enums(modules: Dict[str, ModuleInfo]) -> Set[str]:
        enum_bases = {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}
        names: Set[str] = set()
        for module in modules.values():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    for base in node.bases:
                        base_name = base.attr \
                            if isinstance(base, ast.Attribute) else \
                            (base.id if isinstance(base, ast.Name)
                             else None)
                        if base_name in enum_bases:
                            names.add(node.name)
        return names

    @staticmethod
    def _referenced_names(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name.split(".")[-1])
        return names

    @staticmethod
    def _module_aliases(tree: ast.Module) -> Dict[str, ast.expr]:
        """Module-level ``Name = <type expression>`` aliases."""
        aliases: Dict[str, ast.expr] = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = node.value
                if isinstance(value, (ast.Subscript, ast.Name,
                                      ast.Attribute, ast.BinOp)):
                    aliases[node.targets[0].id] = value
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name) and \
                    node.value is not None and \
                    isinstance(node.annotation, ast.Name) and \
                    node.annotation.id == "TypeAlias":
                aliases[node.target.id] = node.value
        return aliases

    # -- annotation checking -------------------------------------------
    def _check_annotation(self, annotation: ast.expr, info: _DataclassInfo,
                          dataclasses: Dict[str, _DataclassInfo],
                          enums: Set[str], depth: int = 0
                          ) -> Iterator[Tuple[Optional[str],
                                              Optional[str]]]:
        """Yield (problem message or None, nested dataclass or None)."""
        if depth > 8:
            return
        # string annotations ('Foo') and from __future__ forms
        if isinstance(annotation, ast.Constant):
            if annotation.value is None:
                return
            if isinstance(annotation.value, str):
                try:
                    parsed = ast.parse(annotation.value,
                                       mode="eval").body
                except SyntaxError:
                    yield (f"unparseable annotation "
                           f"{annotation.value!r}", None)
                    return
                yield from self._check_annotation(
                    parsed, info, dataclasses, enums, depth + 1)
                return
            yield (f"non-type annotation {annotation.value!r}", None)
            return
        if isinstance(annotation, ast.Name):
            name = annotation.id
            if name in _LOSSLESS_LEAVES:
                return
            if name in enums:
                return            # serialized by .name, rebuilt by [name]
            if name in dataclasses:
                yield (None, name)
                return
            alias = info.aliases.get(name)
            if alias is not None:
                yield from self._check_annotation(
                    alias, info, dataclasses, enums, depth + 1)
                return
            yield (f"type `{name}` is outside the lossless round-trip "
                   f"set (int/float/str/bool/None, enums, dataclasses, "
                   f"typed containers)", None)
            return
        if isinstance(annotation, ast.Attribute):
            # e.g. hoard.MissSeverity -- judge by the leaf name
            leaf = ast.Name(id=annotation.attr)
            yield from self._check_annotation(
                leaf, info, dataclasses, enums, depth + 1)
            return
        if isinstance(annotation, ast.BinOp) and \
                isinstance(annotation.op, ast.BitOr):
            # PEP 604 unions: X | Y
            yield from self._check_annotation(
                annotation.left, info, dataclasses, enums, depth + 1)
            yield from self._check_annotation(
                annotation.right, info, dataclasses, enums, depth + 1)
            return
        if isinstance(annotation, ast.Subscript):
            head = annotation.value
            head_name = head.attr if isinstance(head, ast.Attribute) \
                else (head.id if isinstance(head, ast.Name) else None)
            if head_name not in _LOSSLESS_CONTAINERS:
                yield (f"container `{head_name}` is not JSON-lossless "
                       f"(sets have no stable order, use a sorted "
                       f"List/Tuple)", None)
                return
            elements = annotation.slice
            items = list(elements.elts) \
                if isinstance(elements, ast.Tuple) else [elements]
            if head_name in ("Dict", "dict", "Mapping") and items:
                key = items[0]
                key_name = key.id if isinstance(key, ast.Name) else None
                if key_name != "str":
                    yield ("JSON object keys are strings; a "
                           f"`{head_name}` key typed "
                           f"`{key_name or ast.dump(key)}` would not "
                           f"round-trip", None)
                items = items[1:]
            for item in items:
                if isinstance(item, ast.Constant) and item.value is Ellipsis:
                    continue
                yield from self._check_annotation(
                    item, info, dataclasses, enums, depth + 1)
            return
        yield (f"annotation form `{ast.dump(annotation)[:60]}` is not "
               f"recognised as lossless", None)


# Imported at the bottom: concurrency.py subclasses ProjectRule (via
# engine) and registers its whole-project rules here so every entry
# point sees one complete PROJECT_RULES tuple.
from repro.lint.concurrency import (BlockingInEventLoop,  # noqa: E402
                                    LockSetRaces)

PROJECT_RULES: Tuple[ProjectRule, ...] = (
    SerdeCompleteness(),
    BlockingInEventLoop(),
    LockSetRaces(),
)
