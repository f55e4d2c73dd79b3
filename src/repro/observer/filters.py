"""Observer-side filters for the real-world intrusions of section 4.

Three stateful detectors:

* :class:`MeaninglessDetector` -- programs like find(1) whose accesses
  carry no semantic information (section 4.1).  All four approaches
  the paper experimented with are implemented; the default is the
  fourth (threshold heuristic on potential vs. actual accesses), the
  one that "has proven successful".
* :class:`GetcwdDetector` -- the getcwd(3) library routine climbs the
  directory tree exactly like find(1); its pattern is detected and the
  process temporarily marked so its references are ignored.
* :class:`FrequentFileDetector` -- the shared-library problem
  (section 4.2): a file exceeding 1 % of all accesses is designated
  frequently-referenced, eliminated from distance calculation, and
  always hoarded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.fs.paths import dirname


class MeaninglessStrategy(enum.Enum):
    """The four approaches of section 4.1, in the paper's order."""

    CONTROL_LIST = 1        # hand-listed programs only
    DIRECTORY_PERMANENT = 2  # any directory read marks the process forever
    DIRECTORY_WHILE_OPEN = 3  # marked only while a directory is open
    THRESHOLD = 4           # potential-vs-actual heuristic (the keeper)


# Members bound to module names for the per-record verdict (a
# ``MeaninglessStrategy.X`` load is slow on CPython 3.11;
# docs/hot-path.md).
_CONTROL_LIST = MeaninglessStrategy.CONTROL_LIST
_DIRECTORY_PERMANENT = MeaninglessStrategy.DIRECTORY_PERMANENT
_THRESHOLD = MeaninglessStrategy.THRESHOLD


@dataclass
class _ProgramHistory:
    """Accumulated behaviour of one program across all its processes."""

    potential: int = 0   # files it could have learned about (readdirs)
    touched: int = 0     # files it actually accessed
    wrote: int = 0       # files it modified (scanners never write)


@dataclass
class _ProcessCounters:
    potential: int = 0
    touched: int = 0
    directories_open: int = 0
    marked: bool = False   # sticky mark for strategy 2


class MeaninglessDetector:
    """Decides whether a process's references are meaningless.

    With the threshold strategy, each readdir adds the directory's
    entry count to the process's *potential* counter; each actual file
    access increments *touched*.  A process is judged against the
    combined history of its program: if, over enough evidence, the
    program touches more than ``meaningless_touch_ratio`` of the files
    it learns about (find touches everything; an editor far fewer), its
    references are ignored.
    """

    def __init__(self, strategy: MeaninglessStrategy = MeaninglessStrategy.THRESHOLD,
                 control_programs: Optional[Set[str]] = None,
                 parameters: SeerParameters = DEFAULT_PARAMETERS) -> None:
        self._strategy = strategy
        # The verdict's branch, chosen once: the strategy is fixed for
        # the detector's lifetime.
        self._threshold = strategy is _THRESHOLD
        self._control = set(control_programs or ())
        self._parameters = parameters
        self._programs: Dict[str, _ProgramHistory] = {}
        self._processes: Dict[int, _ProcessCounters] = {}

    @property
    def strategy(self) -> MeaninglessStrategy:
        return self._strategy

    def _counters(self, pid: int) -> _ProcessCounters:
        counters = self._processes.get(pid)
        if counters is None:
            counters = _ProcessCounters()
            self._processes[pid] = counters
        return counters

    def _history(self, program: str) -> _ProgramHistory:
        history = self._programs.get(program)
        if history is None:
            history = _ProgramHistory()
            self._programs[program] = history
        return history

    # ------------------------------------------------------------------
    # event feed
    # ------------------------------------------------------------------
    def on_directory_open(self, pid: int) -> None:
        counters = self._counters(pid)
        counters.directories_open += 1
        counters.marked = True  # strategies 2 and 3 key off this

    def on_directory_close(self, pid: int) -> None:
        counters = self._counters(pid)
        if counters.directories_open > 0:
            counters.directories_open -= 1

    def on_readdir(self, pid: int, program: str, entries: int) -> None:
        """The process just learned about *entries* potential files."""
        self._counters(pid).potential += entries
        self._history(program).potential += entries

    def on_file_access(self, pid: int, program: str) -> None:
        """The process actually touched a file."""
        self._counters(pid).touched += 1
        self._history(program).touched += 1

    def on_file_write(self, pid: int, program: str) -> None:
        """The process modified a file.

        Scanning programs (find, grep, du ...) are read-only; a
        program that writes is taking user-directed action, and its
        accesses carry semantic information even when it also touches
        most of what it learns about (editors open the files the user
        names, not the files a scan found).
        """
        self._history(program).wrote += 1

    def on_exit(self, pid: int) -> None:
        self._processes.pop(pid, None)

    # ------------------------------------------------------------------
    # the verdict
    # ------------------------------------------------------------------
    def is_meaningless(self, pid: int, program: str) -> bool:
        if program in self._control:
            return True  # the retained hand-specified list (sec. 4.1)
        counters = self._processes.get(pid)
        if not self._threshold:
            strategy = self._strategy
            if strategy is _CONTROL_LIST:
                return False
            if strategy is _DIRECTORY_PERMANENT:
                return bool(counters and counters.marked)
            # DIRECTORY_WHILE_OPEN
            return bool(counters and counters.directories_open > 0)
        # THRESHOLD: judge the program's history plus this process's
        # current counters.
        history = self._history(program) if program else _ProgramHistory()
        if history.wrote > 0:
            return False   # it writes files: user-directed, meaningful
        potential = history.potential + (counters.potential if counters else 0)
        touched = history.touched + (counters.touched if counters else 0)
        if potential < self._parameters.meaningless_min_potential:
            return False
        return touched / potential > self._parameters.meaningless_touch_ratio

    def touch_ratio(self, program: str) -> Optional[float]:
        """Historical touched/potential ratio for *program* (or None)."""
        history = self._programs.get(program)
        if history is None or history.potential == 0:
            return None
        return history.touched / history.potential


class GetcwdDetector:
    """Detects the getcwd(3) directory-climbing pattern (section 4.1).

    getcwd opens and reads each ancestor directory in child-to-parent
    order.  We track, per process, the last directory it opened; an
    immediately following open of that directory's *parent* flags the
    process as inside getcwd.  Any other file activity clears the flag.
    """

    def __init__(self) -> None:
        self._last_dir: Dict[int, str] = {}
        self._in_getcwd: Dict[int, bool] = {}

    def on_directory_open(self, pid: int, path: str) -> bool:
        """Feed a directory open; returns True if it is getcwd traffic."""
        previous = self._last_dir.get(pid)
        if previous is not None and path == dirname(previous) and path != previous:
            self._in_getcwd[pid] = True
        else:
            self._in_getcwd[pid] = False
        self._last_dir[pid] = path
        return self._in_getcwd[pid]

    def on_other_activity(self, pid: int) -> None:
        """Any non-directory reference ends a climbing sequence."""
        self._last_dir.pop(pid, None)
        self._in_getcwd[pid] = False

    def on_exit(self, pid: int) -> None:
        self._last_dir.pop(pid, None)
        self._in_getcwd.pop(pid, None)

    def is_in_getcwd(self, pid: int) -> bool:
        return self._in_getcwd.get(pid, False)


class FrequentFileDetector:
    """The 1 % rule for shared libraries (section 4.2).

    A file representing more than ``frequent_file_fraction`` of all
    accesses (once enough accesses have been seen) is designated
    frequently-referenced: eliminated from semantic-distance and
    relationship calculations, but always included in the hoard.
    The designation is sticky, as in the paper.
    """

    def __init__(self, parameters: SeerParameters = DEFAULT_PARAMETERS) -> None:
        self._parameters = parameters
        self._total = 0
        self._counts: Dict[str, int] = {}
        self._frequent: Set[str] = set()

    @property
    def total_accesses(self) -> int:
        return self._total

    def record(self, path: str) -> bool:
        """Count one access; returns True if *path* is (now) frequent."""
        self._total += 1
        count = self._counts.get(path, 0) + 1
        self._counts[path] = count
        if path in self._frequent:
            return True
        if (self._total >= self._parameters.frequent_file_minimum_accesses
                and count / self._total > self._parameters.frequent_file_fraction):
            self._frequent.add(path)
            return True
        return False

    def is_frequent(self, path: str) -> bool:
        return path in self._frequent

    def frequent_files(self) -> Set[str]:
        return set(self._frequent)

    def access_fraction(self, path: str) -> float:
        if self._total == 0:
            return 0.0
        return self._counts.get(path, 0) / self._total
