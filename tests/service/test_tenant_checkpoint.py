"""One tenant checkpoint, pinned byte for byte.

A daemon restarted over its checkpoint store restores each tenant from
the payload ``TenantActor.dump_state`` wrote (format
``TENANT_STATE_VERSION`` 1).  The bytes of one such payload are pinned
here as a literal, so a change to how a tenant holds or restores its
state cannot silently orphan the checkpoints already on disk: the
payload must still be written byte-identically, and a fresh actor
restored from it must answer the same ``hoard_fill`` as the actor that
wrote it.
"""

import asyncio
import json

from repro.core.correlator import Action, ObservedReference
from repro.service.tenant import EventBatch, FillRequest, TenantActor
from repro.simulation.serde import canonical_bytes

from tests.service.helpers import run_async

O, C, P, S = Action.OPEN, Action.CLOSE, Action.POINT, Action.STAT
E, X, F = Action.EXEC, Action.EXIT, Action.FORK

#: (pid, action, path, ppid): an editor and a forked latex run.
STREAM = [
    (1, O, "/home/u/paper/a.tex", 0),
    (1, O, "/home/u/paper/b.tex", 0),
    (1, C, "/home/u/paper/a.tex", 0),
    (2, F, "", 1),
    (2, E, "/usr/bin/latex", 0),
    (2, P, "/home/u/paper/refs.bib", 0),
    (1, S, "/home/u/paper/fig.eps", 0),
    (1, O, "/home/u/paper/fig.eps", 0),
    (2, X, "", 0),
    (1, C, "/home/u/paper/b.tex", 0),
    (1, P, "/home/u/notes/todo", 0),
]

REFERENCES = [ObservedReference(seq=seq, time=100.0 + 2.5 * seq, pid=pid,
                                action=action, path=path, ppid=ppid)
              for seq, (pid, action, path, ppid) in enumerate(STREAM, 1)]

#: ``canonical_bytes(actor.dump_state())`` after REFERENCES.
PINNED = (
    b'{"correlator":{"deletion_counter":0,"format":1,'
    b'"marked_for_deletion":[],"recency":{"/home/u/notes/todo":6,'
    b'"/home/u/paper/a.tex":1,"/home/u/paper/b.tex":2,'
    b'"/home/u/paper/fig.eps":5,"/home/u/paper/refs.bib":4,'
    b'"/usr/bin/latex":3},"recency_times":{"/home/u/notes/todo":127.5,'
    b'"/home/u/paper/a.tex":102.5,"/home/u/paper/b.tex":105.0,'
    b'"/home/u/paper/fig.eps":120.0,"/home/u/paper/refs.bib":115.0,'
    b'"/usr/bin/latex":112.5},"reference_counter":6,'
    b'"references_processed":11,'
    b'"tables":{"/home/u/paper/a.tex":{"/home/u/notes/todo":{"count":1,'
    b'"last_update":5,"linear_sum":5.0,"log_sum":1.791759469228055},'
    b'"/home/u/paper/b.tex":{"count":1,"last_update":1,'
    b'"linear_sum":0.0,"log_sum":0.0},'
    b'"/home/u/paper/fig.eps":{"count":1,"last_update":4,'
    b'"linear_sum":2.0,"log_sum":1.0986122886681096},'
    b'"/home/u/paper/refs.bib":{"count":1,"last_update":3,'
    b'"linear_sum":3.0,"log_sum":1.3862943611198906},'
    b'"/usr/bin/latex":{"count":1,"last_update":2,"linear_sum":2.0,'
    b'"log_sum":1.0986122886681096}},'
    b'"/home/u/paper/b.tex":{"/home/u/notes/todo":{"count":1,'
    b'"last_update":5,"linear_sum":4.0,"log_sum":1.6094379124341003},'
    b'"/home/u/paper/fig.eps":{"count":1,"last_update":4,'
    b'"linear_sum":0.0,"log_sum":0.0},'
    b'"/home/u/paper/refs.bib":{"count":1,"last_update":3,'
    b'"linear_sum":0.0,"log_sum":0.0},"/usr/bin/latex":{"count":1,'
    b'"last_update":2,"linear_sum":0.0,"log_sum":0.0}},'
    b'"/home/u/paper/fig.eps":{"/home/u/notes/todo":{"count":1,'
    b'"last_update":5,"linear_sum":0.0,"log_sum":0.0}},'
    b'"/home/u/paper/refs.bib":{"/home/u/notes/todo":{"count":1,'
    b'"last_update":5,"linear_sum":1.0,"log_sum":0.6931471805599453}},'
    b'"/usr/bin/latex":{"/home/u/notes/todo":{"count":1,'
    b'"last_update":5,"linear_sum":2.0,"log_sum":1.0986122886681096},'
    b'"/home/u/paper/refs.bib":{"count":1,"last_update":3,'
    b'"linear_sum":0.0,"log_sum":0.0}}}},"events_ingested":11,'
    b'"format":1,"last_seq":11,"tenant":"laptop"}'
)

#: A budget that includes some clusters and skips others.
BUDGET = 5_000
SIZES = {"/home/u/paper/a.tex": 3_000}
DEFAULT_SIZE = 500


def fed_actor():
    actor = TenantActor("laptop")
    actor.apply(EventBatch(list(REFERENCES)))
    return actor


def fill(actor):
    async def answer():
        future = asyncio.get_running_loop().create_future()
        return actor.hoard_fill(FillRequest(BUDGET, SIZES, DEFAULT_SIZE,
                                            future))
    return run_async(answer())


def test_payload_bytes_are_pinned():
    assert canonical_bytes(fed_actor().dump_state()) == PINNED


def test_pinned_payload_restores_the_same_fill():
    restored = TenantActor("laptop")
    restored.load_state(json.loads(PINNED))
    assert restored.restored_from_checkpoint
    assert restored.last_seq == len(REFERENCES)
    assert canonical_bytes(restored.dump_state()) == PINNED
    expected = fill(fed_actor())
    assert expected["clusters_included"] and expected["clusters_skipped"]
    assert canonical_bytes(fill(restored)) == canonical_bytes(expected)
