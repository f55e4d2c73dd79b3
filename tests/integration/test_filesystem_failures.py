"""A defect in path resolution must surface, never read as a missing file.

The callers below treat :class:`~repro.fs.FileSystemError` as "the file
is gone" and answer accordingly (not a plain file, size 0, a deleted
reference).  Anything else raised by ``FileSystem.stat`` is a bug in
the substrate, and swallowing it would silently change hoard sizes.
"""

import pytest

from repro.core.seer import Seer
from repro.fs import FileSystem
from repro.kernel import Kernel
from repro.observer import Observer
from repro.simulation.missfree import _is_relevant_reference
from repro.tracing.events import Operation, TraceRecord
from repro.workload.generator import GeneratedTrace

PATH = "/home/u/main.c"


def _trace(kernel):
    return GeneratedTrace(machine=None, records=[], schedule=None, roles={},
                          kernel=kernel)


def _observer_kind_of(kernel):
    Observer(handler=lambda reference: None, filesystem=kernel.fs)._kind_of(PATH)


def _missfree_relevance(kernel):
    record = TraceRecord(seq=0, time=0.0, pid=1, op=Operation.OPEN, path=PATH)
    _is_relevant_reference(record, _trace(kernel))


def _trace_size_of(kernel):
    _trace(kernel).size_of(PATH)


def _seer_size_function(kernel):
    Seer(kernel=kernel, attach=False).size_function()(PATH)


@pytest.mark.parametrize("call", [
    _observer_kind_of, _missfree_relevance, _trace_size_of, _seer_size_function,
], ids=["Observer._kind_of", "missfree._is_relevant_reference",
        "GeneratedTrace.size_of", "Seer.size_function"])
def test_resolution_defect_propagates(monkeypatch, call):
    kernel = Kernel()
    kernel.fs.mkdir("/home/u", parents=True)
    kernel.fs.create(PATH, size=10)

    def broken_stat(self, path, follow_symlinks=True):
        raise RuntimeError("path resolution defect")

    monkeypatch.setattr(FileSystem, "stat", broken_stat)
    with pytest.raises(RuntimeError, match="path resolution defect"):
        call(kernel)
