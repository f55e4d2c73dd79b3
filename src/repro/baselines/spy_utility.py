"""SPY UTILITY: Tait et al.'s hoarding system (paper section 6.3).

"To date, the only other attempt to automate the hoarding process is
Tait et al.'s SPY UTILITY.  Like SEER, this system tracks process
execution trees and infers the contents of projects based on file
accesses.  It differs in that it restricts itself to loading unions of
access trees, rather than attempting to create project clusters at a
higher semantic level."

This module implements that mechanism as a comparison baseline:

* every process-execution tree (a root command and all its
  descendants) accumulates the set of files it accessed;
* trees are keyed by their root program, and repeated executions of
  the same program merge their access sets (the "union of access
  trees");
* hoarding loads the most recently exercised trees, whole; the
  experiments measure the miss-free size this ranking needs.

There is no semantic-distance layer, no overlap, and no
multidimensional external information -- the limitations the paper
calls out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.hoard import SizeFunction, ranked_prefix_size

#: Programs treated as interactive shells: their children root new
#: trees rather than extending a shell-wide mega-tree.
SHELLS = frozenset({"sh", "bash", "csh", "init", ""})


@dataclass
class AccessTree:
    """The accumulated access set of one root command."""

    root_program: str
    files: Set[str] = field(default_factory=set)
    last_exercised: int = 0
    executions: int = 0


class SpyUtilityManager:
    """Union-of-access-trees hoarding.

    Feed it the same classified reference stream the correlator gets:
    ``on_fork``/``on_exec``/``on_access``/``on_exit``.  Each *tree* is
    rooted at a process whose parent is not itself tracked (i.e. a
    command launched from a shell); descendants contribute their
    accesses to the root's tree.
    """

    def __init__(self) -> None:
        self._trees: Dict[str, AccessTree] = {}
        self._root_of_pid: Dict[int, Optional[str]] = {}
        self._program_of_pid: Dict[int, str] = {}
        self._clock = 0

    # ------------------------------------------------------------------
    # reference feed
    # ------------------------------------------------------------------
    def on_fork(self, pid: int, ppid: int, program: str = "") -> None:
        """A child joins its parent's tree (if the parent has one)."""
        self._program_of_pid[pid] = program or self._program_of_pid.get(ppid, "")
        self._root_of_pid[pid] = self._root_of_pid.get(ppid)

    def on_exec(self, pid: int, program_path: str) -> None:
        """An exec either roots a new tree or continues the parent's."""
        self._clock += 1
        program = program_path.rsplit("/", 1)[-1]
        self._program_of_pid[pid] = program
        if self._root_of_pid.get(pid) is None:
            # Launched from a shell: this command roots a tree.
            if program not in SHELLS:
                tree = self._tree(program)
                tree.executions += 1
                tree.last_exercised = self._clock
                tree.files.add(program_path)
                self._root_of_pid[pid] = program
        else:
            root = self._root_of_pid[pid]
            if root is not None:
                tree = self._tree(root)
                tree.files.add(program_path)
                tree.last_exercised = self._clock

    def on_access(self, pid: int, path: str) -> None:
        """A file access lands in the process's tree, if any."""
        self._clock += 1
        root = self._root_of_pid.get(pid)
        if root is None:
            program = self._program_of_pid.get(pid, "")
            if program in SHELLS:
                return   # raw shell accesses belong to no project tree
            # An untracked non-shell process: root a tree for it.
            self._root_of_pid[pid] = root = program
            self._tree(root).executions += 1
        tree = self._tree(root)
        tree.files.add(path)
        tree.last_exercised = self._clock

    def on_exit(self, pid: int) -> None:
        self._root_of_pid.pop(pid, None)
        self._program_of_pid.pop(pid, None)

    def _tree(self, root: str) -> AccessTree:
        tree = self._trees.get(root)
        if tree is None:
            tree = AccessTree(root_program=root)
            self._trees[root] = tree
        return tree

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def trees(self) -> List[AccessTree]:
        return list(self._trees.values())

    def tree_for(self, root: str) -> Optional[AccessTree]:
        return self._trees.get(root)

    def ranked_trees(self) -> List[AccessTree]:
        """Most recently exercised trees first."""
        return sorted(self._trees.values(),
                      key=lambda tree: (-tree.last_exercised,
                                        tree.root_program))

    # ------------------------------------------------------------------
    # hoarding
    # ------------------------------------------------------------------
    def miss_free_size(self, needed: Set[str],
                       sizes: SizeFunction) -> Tuple[int, Set[str]]:
        """Section 5.1.2's recipe over :meth:`ranked_trees`, each tree
        hoarded whole."""
        return ranked_prefix_size(
            (tree.files for tree in self.ranked_trees()), needed, sizes)
