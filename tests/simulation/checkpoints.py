"""Row-level surgery on a checkpoint store, for kill/resume tests.

A killed sweep leaves cells whose commits never happened, and damage
from outside can leave payloads that no longer parse or match their
fingerprint; these helpers produce both directly in a checkpoint
directory's ``checkpoints.sqlite``.
"""

import contextlib
import os
import sqlite3
from typing import Iterable, Iterator, List

from repro.simulation.store import SqliteStore

#: A payload cut off mid-write: not JSON, so the store cannot parse it.
TORN_PAYLOAD = '{"format": 1, "result":'


@contextlib.contextmanager
def _transaction(root: str) -> Iterator[sqlite3.Connection]:
    connection = sqlite3.connect(os.path.join(root, SqliteStore.FILENAME))
    try:
        with connection:
            yield connection
    finally:
        connection.close()


def delete_rows(root: str, shard_ids: Iterable[str]) -> None:
    """What a kill looks like after the fact: those cells' commits
    never happened."""
    with _transaction(root) as connection:
        for shard_id in shard_ids:
            connection.execute("DELETE FROM checkpoints WHERE shard_id = ?",
                               (shard_id,))


def tamper_rows(root: str, shard_ids: Iterable[str],
                payload: str = TORN_PAYLOAD) -> None:
    """Overwrite those cells' stored result with *payload*."""
    with _transaction(root) as connection:
        for shard_id in shard_ids:
            connection.execute(
                "UPDATE checkpoints SET result = ? WHERE shard_id = ?",
                (payload, shard_id))


def stored_ids(root: str) -> List[str]:
    """The shard id of every committed row, sorted: an id listed twice
    is a superseded entry the store failed to delete."""
    with _transaction(root) as connection:
        rows = connection.execute(
            "SELECT shard_id FROM checkpoints ORDER BY shard_id")
        return [shard_id for (shard_id,) in rows]
