"""Differential property suite: the shipped engine == the paper oracle.

The correlator ships one ingest engine, the fused columnar arena of
:mod:`repro.core.arena`.  The per-entry dict/object path -- the paper
transcribed directly -- survives as the test oracle in
``tests/oracle/`` and plugs into an ordinary correlator through
:func:`~tests.oracle.engine.oracle_correlator`.  The optimization is
only admissible if it is *invisible*: for any event stream the two
engines must leave byte-identical persistent state, identical neighbor
lists (plain and stale-filtered), identical cluster sets and hoard
selections, and identical scoring-relevant metric totals.  The oracle
runs with pruning and compensation on, the shipped semantics.
Likewise a cluster build that reuses the previous build's pair counts
must produce exactly the clusters a fresh Jarvis-Patrick pass would,
build after build.

Randomized traces exercise every action kind with tiny tables and
windows so eviction, compensation, pruning, fork/exit merging, delayed
deletion and rename identity-carrying all fire constantly.  Any
divergence here is a latent scoring bug in one of the engines.
"""

import json

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.core.clustering import Relation
from repro.core.correlator import Action, Correlator, ObservedReference
from repro.core.hoard import HoardManager, rank_clusters
from repro.core.parameters import SeerParameters
from repro.core.persistence import (
    dump_correlator,
    load_correlator,
    restore_correlator,
)
from repro.simulation.serde import canonical_bytes, payload_fingerprint
from tests.oracle.clustering import OracleClustering
from tests.oracle.engine import oracle_correlator

PIDS = [1, 2, 3]
#: Directories 0 to 3 deep (``/x`` sits in the root), so the directory
#: term's common-prefix walk meets the root and unequal lengths.
PATHS = ["/p/a", "/p/b", "/p/c", "/q/d", "/q/e", "/r/f", "/x", "/p/s/h",
         "/p/s/t/g"]

#: Counter totals both engines must agree on.  ``neighbor.bound_skips``
#: is deliberately absent: the bound is an inexact fast-reject and the
#: two engines may skip different numbers of hopeless candidates while
#: still producing identical tables.
SCORING_COUNTERS = (
    "correlator.distances_ingested",
    "correlator.deletions_expired",
    "distance.pruned_entries",
    "distance.compensated_pairs",
    "neighbor.compensations",
    "neighbor.evictions",
    "neighbor.rejections",
)


@st.composite
def events(draw):
    kind = draw(st.sampled_from(
        ["open", "open", "open", "point", "point", "close", "stat",
         "exec", "exit", "fork", "delete", "rename"]))
    pid = draw(st.sampled_from(PIDS))
    path = draw(st.sampled_from(PATHS))
    path2 = draw(st.sampled_from(PATHS)) if kind == "rename" else ""
    ppid = draw(st.sampled_from([0] + PIDS)) if kind == "fork" else 0
    return (kind, pid, path, path2, ppid)


#: At least 30 events: hypothesis favours short lists, and with every
#: stream of a handful of events the tables never fill and no entry
#: ages out of the window, so eviction and compensation never fire.
streams = st.lists(events(), min_size=30, max_size=150)

#: Chunks between cluster builds keep the short lower bound: a chunk of
#: a few events changes few neighbor lists, which is what exercises
#: count reuse.
recluster_chunks = st.lists(events(), min_size=1, max_size=150)

#: Investigator relations for one build.
relation_sets = st.lists(
    st.builds(Relation,
              files=st.lists(st.sampled_from(PATHS), min_size=2,
                             max_size=3, unique=True).map(tuple),
              strength=st.sampled_from([1.0, 2.0])),
    max_size=2)

#: Relations for four builds, each picked from two drawn sets: builds
#: often repeat the previous set, as a Seer's do between filesystem
#: changes, and a relation can still appear, vanish or change strength.
relation_schedules = st.tuples(relation_sets, relation_sets).flatmap(
    lambda sets: st.lists(st.sampled_from(sets), min_size=4, max_size=4))

#: The paper's absolute kn/kf with the directory term on: the knobs
#: the explicit examples were written for.
ABSOLUTE = {"normalize_shared_counts": False, "directory_distance_weight": 1.0}


@st.composite
def clustering_knobs(draw):
    """Absolute kn/kf or normalized fractions -- the mode every
    simulation runs (``SIM_PARAMETERS``: 0.67 and 0.55) -- with the
    directory term off or on."""
    kn_fraction, kf_fraction = draw(st.sampled_from(
        [(0.67, 0.55), (0.67, 0.45), (1.0, 0.5)]))
    return {"normalize_shared_counts": draw(st.booleans()),
            "kn_fraction": kn_fraction, "kf_fraction": kf_fraction,
            "directory_distance_weight": draw(st.sampled_from([0.0, 1.0]))}


parameter_sets = st.builds(
    lambda knobs, **table: SeerParameters(**table, **knobs),
    clustering_knobs(),
    max_neighbors=st.integers(min_value=2, max_value=4),
    lookback_window=st.integers(min_value=3, max_value=10),
    compensation_distance=st.integers(min_value=3, max_value=10),
    aging_threshold=st.sampled_from([5, 40, 5000]),
    delete_delay=st.sampled_from([0, 2, 50]),
)


def ingest(stream, parameters, correlator=None, start_seq=0):
    if correlator is None:
        correlator = Correlator(parameters)
    for seq, (kind, pid, path, path2, ppid) in enumerate(
            stream, start_seq + 1):
        correlator.handle(ObservedReference(
            seq=seq, time=float(seq), pid=pid, action=Action(kind),
            path=path, path2=path2, ppid=ppid))
    return correlator


def assert_same_persistent_state(fast, reference):
    """Dump both correlators; the serialized state must be byte-equal."""
    dump_fast = dump_correlator(fast)
    dump_reference = dump_correlator(reference)
    assert dump_fast == dump_reference
    assert canonical_bytes(dump_fast) == canonical_bytes(dump_reference)
    assert payload_fingerprint(dump_fast) == \
        payload_fingerprint(dump_reference)


def assert_same_counters(fast, reference):
    for name in SCORING_COUNTERS:
        assert fast.metrics.counter(name) == \
            reference.metrics.counter(name), name


def assert_same_clusters(ours, theirs):
    assert ours.cluster_ids() == theirs.cluster_ids()
    for cluster_id in ours.cluster_ids():
        assert ours.members(cluster_id) == theirs.members(cluster_id)
    assert ours.files() == theirs.files()
    for file in sorted(ours.files()):
        assert ours.clusters_of(file) == theirs.clusters_of(file)


def both_modes(stream, parameters):
    fast = ingest(stream, parameters)
    reference = ingest(stream, None,
                       correlator=oracle_correlator(parameters))
    return fast, reference


@settings(max_examples=60, deadline=None)
@given(stream=streams, parameters=parameter_sets)
def test_columnar_state_matches_reference(stream, parameters):
    fast, reference = both_modes(stream, parameters)
    assert_same_persistent_state(fast, reference)
    assert_same_counters(fast, reference)
    assert fast.store.neighbor_lists() == reference.store.neighbor_lists()
    assert set(fast.store.marked_for_deletion) == \
        set(reference.store.marked_for_deletion)
    for file in reference.store.files():
        ours, theirs = fast.store.get(file), reference.store.get(file)
        assert ours.neighbors() == theirs.neighbors()
        for neighbor in theirs.neighbors():
            assert ours.distance_to(neighbor) == theirs.distance_to(neighbor)
    assert_same_clusters(fast.build_clusters(), reference.build_clusters())


@settings(max_examples=25, deadline=None)
@given(stream=streams, cutoff=st.integers(min_value=1, max_value=30))
def test_stale_filtered_neighbor_lists_match(stream, cutoff):
    parameters = SeerParameters(
        max_neighbors=3, lookback_window=5, compensation_distance=5,
        stale_link_cutoff=cutoff)
    fast, reference = both_modes(stream, parameters)
    now = fast._reference_counter
    assert now == reference._reference_counter
    assert fast.store.neighbor_lists(now=now, stale_after=cutoff) == \
        reference.store.neighbor_lists(now=now, stale_after=cutoff)


@settings(max_examples=25, deadline=None)
@given(stream=streams,
       exclude=st.frozensets(st.sampled_from(PATHS), max_size=2),
       knobs=clustering_knobs())
def test_clusters_and_hoard_match(stream, exclude, knobs):
    parameters = SeerParameters(
        max_neighbors=3, lookback_window=6, compensation_distance=6,
        kn=2, kf=1, **knobs)
    fast, reference = both_modes(stream, parameters)
    ours = fast.build_clusters(exclude=set(exclude) or None)
    theirs = reference.build_clusters(exclude=set(exclude) or None)
    assert_same_clusters(ours, theirs)

    recency_fast, recency_reference = fast.recency(), reference.recency()
    assert recency_fast == recency_reference
    assert rank_clusters(ours, recency_fast) == \
        rank_clusters(theirs, recency_reference)

    size_map = {path: 100 + 13 * index
                for index, path in enumerate(sorted(PATHS))}
    budget = sum(size_map.values()) // 2
    selection_fast = HoardManager().build(
        ours, size_map.__getitem__, recency_fast, budget)
    selection_reference = HoardManager().build(
        theirs, size_map.__getitem__, recency_reference, budget)
    assert selection_fast.files == selection_reference.files
    assert selection_fast.total_bytes == selection_reference.total_bytes
    assert selection_fast.clusters_included == \
        selection_reference.clusters_included
    assert selection_fast.clusters_skipped == \
        selection_reference.clusters_skipped


@settings(max_examples=25, deadline=None)
@given(stream=streams, split=st.floats(min_value=0.1, max_value=0.9))
def test_kill_resume_round_trip(stream, split):
    """The columnar arena survives dump -> JSON -> load -> resume.

    Per-process streams are deliberately not persisted, so a resumed
    run is not compared against an uninterrupted one; instead both
    engines are resumed from the *same* serialized snapshot (the
    oracle through :func:`restore_correlator`) and must agree with
    each other from there on -- including on whichever of them
    produced the snapshot.
    """
    parameters = SeerParameters(
        max_neighbors=3, lookback_window=5, compensation_distance=5,
        delete_delay=2)
    cut = max(1, int(len(stream) * split))
    first, second = stream[:cut], stream[cut:]

    fast = ingest(first, parameters)
    snapshot = json.loads(json.dumps(dump_correlator(fast)))

    resumed_fast = load_correlator(snapshot, parameters=parameters)
    resumed_reference = restore_correlator(oracle_correlator(parameters),
                                           snapshot)
    assert_same_persistent_state(resumed_fast, resumed_reference)

    ingest(second, None, correlator=resumed_fast, start_seq=cut)
    ingest(second, None, correlator=resumed_reference, start_seq=cut)
    assert_same_persistent_state(resumed_fast, resumed_reference)
    assert resumed_fast.store.neighbor_lists() == \
        resumed_reference.store.neighbor_lists()
    assert_same_clusters(resumed_fast.build_clusters(),
                         resumed_reference.build_clusters())


NO_EXCLUDES = [frozenset()] * 4


@settings(max_examples=100, deadline=None)
@given(chunks=st.lists(recluster_chunks, min_size=2, max_size=4),
       excludes=st.lists(
           st.frozensets(st.sampled_from(PATHS), max_size=2),
           min_size=4, max_size=4),
       relations=relation_schedules,
       cutoff=st.one_of(st.just(0), st.integers(min_value=1, max_value=30)),
       knobs=clustering_knobs())
# A relation vanishes while both its files' lists stay unchanged: the
# count stored for the pair must not carry the relation term.
@example(chunks=[[("point", 1, "/q/d", "", 0), ("open", 1, "/p/a", "", 0)],
                 [("close", 1, "/p/a", "", 0)]],
         excludes=NO_EXCLUDES,
         relations=[[Relation(("/q/d", "/p/a"), strength=2.0)], [], [], []],
         cutoff=0, knobs=ABSOLUTE)
# /q/d and /p/a list each other, so both directions of the pair are
# examined through unchanged lists.  The relation's strength drops, so
# a stored count with the old strength would keep a far pair (1.0).
@example(chunks=[[("point", 1, "/q/d", "", 0), ("point", 1, "/p/a", "", 0),
                  ("point", 1, "/q/d", "", 0)],
                 [("close", 1, "/q/d", "", 0)]],
         excludes=NO_EXCLUDES,
         relations=[[Relation(("/q/d", "/p/a"), strength=1.0)],
                    [Relation(("/q/d", "/p/a"), strength=0.5)], [], []],
         cutoff=0, knobs=ABSOLUTE)
# The same pair holds a stored relation-free count (0.0) when a relation
# first appears on it.
@example(chunks=[[("point", 1, "/q/d", "", 0), ("point", 1, "/p/a", "", 0),
                  ("point", 1, "/q/d", "", 0)],
                 [("close", 1, "/q/d", "", 0)]],
         excludes=NO_EXCLUDES,
         relations=[[], [Relation(("/q/d", "/p/a"), strength=1.0)], [], []],
         cutoff=0, knobs=ABSOLUTE)
# /p/c's entries go stale, so it drops out of the lists while /p/a's
# unchanged list still names it: the dropped file counts as changed.
@example(chunks=[[("point", 2, "/p/c", "", 0), ("point", 1, "/p/b", "", 0),
                  ("open", 2, "/p/a", "", 0), ("open", 2, "/p/c", "", 0)],
                 [("point", 1, "/q/d", "", 0)]],
         excludes=NO_EXCLUDES, relations=[[], [], [], []], cutoff=2,
         knobs=ABSOLUTE)
def test_incremental_recluster_matches_full(chunks, excludes, relations,
                                            cutoff, knobs):
    """Interleaved builds: count reuse == a fresh pass, every time.

    Each build is compared with a fresh path-keyed pass (the oracle)
    over the same correlator's neighbor lists (stale-filtered under a
    cutoff), filtered by the same exclude set, with the same relations.
    The exclude set changes between builds, the relations often repeat
    and sometimes change, and under a cutoff files drop out of the
    lists as their entries go stale; the streams carry renames and
    deletes.  Counts run in both modes, with the directory term on and
    off.
    """
    parameters = SeerParameters(
        max_neighbors=3, lookback_window=6, compensation_distance=6,
        kn=2, kf=1, delete_delay=2, stale_link_cutoff=cutoff, **knobs)
    correlator = Correlator(parameters)
    fresh = OracleClustering(correlator.store, parameters)
    start = 0
    examined = 0
    relation_reused = False
    for index, chunk in enumerate(chunks):
        ingest(chunk, None, correlator=correlator, start_seq=start)
        start += len(chunk)
        exclude = set(excludes[index])
        expected = fresh.cluster(relations[index], exclude,
                                 now=correlator._reference_counter,
                                 stale_after=cutoff or None)
        examined += fresh.counts_computed
        stored = correlator._clustering._counts
        assert_same_clusters(
            correlator.build_clusters(relations=relations[index],
                                      exclude=exclude or None),
            expected)
        # A reused count is the stored float object itself.
        counts = correlator._clustering._counts
        relation_reused = relation_reused or any(
            count is stored.get(a, {}).get(b)
            for a, row in correlator._clustering._strengths.items()
            for b, count in counts.get(a, {}).items() if b in row)
    reused = correlator.metrics.counter("cluster.counts_reused")
    assert reused + correlator.metrics.counter("cluster.counts_computed") \
        == examined
    event("reuses a count" if reused else "reuses no count")
    event("reuses a relation-pair count" if relation_reused
          else "reuses no relation-pair count")


@settings(max_examples=100, deadline=None)
@given(chunks=st.lists(recluster_chunks, min_size=1, max_size=3),
       relations=st.lists(relation_sets, min_size=3, max_size=3),
       knobs=clustering_knobs(),
       order=st.permutations(PATHS))
# A relation joins two files no list names, with /p/b between them in
# path order: its root, and so the cluster ids, follow the order in
# which its pairs are unioned.
@example(chunks=[[("point", 1, "/p/b", "", 0), ("point", 1, "/q/d", "", 0)]],
         relations=[[Relation(("/p/a", "/p/c"), strength=2.0)], [], []],
         knobs=ABSOLUTE, order=PATHS[::-1])
def test_cluster_ids_do_not_follow_fid_order(chunks, relations, knobs, order):
    """Two correlators fed the same stream, one of which first interned
    every path in a shuffled order (interning adds no row), return
    identical clusters, ids included, build after build: rows,
    neighbors, relation pairs and roots are ranked by path, not fid."""
    parameters = SeerParameters(
        max_neighbors=3, lookback_window=6, compensation_distance=6,
        kn=2, kf=1, delete_delay=2, **knobs)
    plain, shuffled = Correlator(parameters), Correlator(parameters)
    for path in order:
        shuffled.store._arena.intern(path)
    assert len(shuffled.store) == 0
    start = 0
    for index, chunk in enumerate(chunks):
        for correlator in (plain, shuffled):
            ingest(chunk, None, correlator=correlator, start_seq=start)
        start += len(chunk)
        assert_same_clusters(plain.build_clusters(relations=relations[index]),
                             shuffled.build_clusters(relations=relations[index]))
