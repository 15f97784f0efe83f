"""Concurrency tests: shared-mutable-state regressions and snapshot isolation.

Three families:

* a hammer on the weak intern table behind hash-consed conjunctions
  (``repro.core.conditions``): threads build overlapping conjunctions
  while another drops references and collects garbage;
* readers collecting statistics from whichever database version they
  read while a writer inserts: each collection describes exactly that
  version (statistics are a memo on the immutable table);
* reader/writer stress over :class:`~repro.server.session.DatabaseSession`
  asserting the snapshot-isolation invariant — every response equals
  evaluating the query against the database produced by the
  update-stream prefix of length ``response.version`` — with no
  mid-mutation exceptions, for ground workloads (row-set equality) and
  a non-ground c-table workload (``strong_canonicalize`` world-set
  equality).

The thread counts and iteration counts are sized for CI: enough to make
the old races fail reliably (verified against the unlocked
implementations), small enough to finish in seconds.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time

import pytest

from repro.core.conditions import Atom, Conjunction, Neq, parse_conjunction
from repro.core.tables import CTable, TableDatabase, c_table, codd_table
from repro.core.terms import Variable
from repro.core.worlds import enumerate_worlds, strong_canonicalize
from repro.ctalgebra.evaluate import evaluate_ct
from repro.ctalgebra.operators import JoinPartition, join_ct
from repro.extensions.updates import insert_fact
from repro.relational.parser import parse_query
from repro.relational.planner import ra_of_ucq
from repro.relational.stats import Statistics
from repro.server import DatabaseSession


def run_threads(workers, timeout=60.0):
    """Run the worker callables to completion, re-raising their errors."""
    errors = []

    def wrap(fn):
        try:
            fn()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(fn,)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive(), "worker thread hung (deadlock?)"
    if errors:
        raise errors[0]


def row_values(table):
    return {tuple(t.value for t in row.terms) for row in table.rows}


# ---------------------------------------------------------------------------
# The conjunction intern table
# ---------------------------------------------------------------------------


class TestInternTableHammer:
    def test_public_condition_api_under_contention(self):
        # Builders intern overlapping conjunctions (directly and through
        # ``and_also``) while a collector drops every shared reference and
        # runs the garbage collector, so table entries die and get rebuilt
        # mid-lookup.  A torn table surfaces as an exception, a
        # conjunction that does not hold its own atoms, a hash that
        # disagrees with a fresh one, or a flipping verdict.
        conjunctions = [
            parse_conjunction(text)
            for text in (
                "?x = ?y",
                "?x != ?y",
                "?x = a, ?y != b",
                "?x = ?y, ?y = ?z",
                "?x != a, ?x != b, ?x != c",
                "?u = v, ?w != v",
            )
        ]
        pool = sorted({atom for c in conjunctions for atom in c}, key=Atom.sort_key)
        held: list[Conjunction] = []
        stop = threading.Event()

        def check(result, parts):
            expected = tuple(sorted(set(parts), key=Atom.sort_key))
            assert result.atoms == expected
            assert result == Conjunction(reversed(parts))
            assert hash(result) == hash(Conjunction(parts)) == hash(("Conjunction", expected))
            verdict = result.is_satisfiable()
            assert verdict == (result.solve() is not None)
            assert Conjunction(parts).is_satisfiable() == verdict

        def builder(seed):
            rng = random.Random(seed)

            def go():
                for _ in range(1500):
                    atoms = rng.sample(pool, rng.randint(0, 4))
                    other = rng.choice(conjunctions)
                    built = Conjunction(atoms)
                    merged = built.and_also(other)
                    check(built, atoms)
                    check(merged, atoms + list(other.atoms))
                    held.append(merged)

            return go

        def collector():
            while not stop.is_set():
                held.clear()
                gc.collect()
                time.sleep(0.001)

        def builders():
            try:
                run_threads([builder(s) for s in range(6)])
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-lookup
        try:
            run_threads([builders, collector])
        finally:
            sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# Statistics memos: readers collect from whichever version they read
# ---------------------------------------------------------------------------


class TestStatsAtomicity:
    def test_store_survives_concurrent_snapshots_and_updates(self):
        """Statistics are a memo on the immutable table, so a reader
        that collects from the version it read describes exactly that
        version, however many inserts land meanwhile."""
        db = TableDatabase.single(
            codd_table("R", 2, [(f"a{i}", f"b{i}") for i in range(10)])
        )
        state = {"db": db}
        stop = threading.Event()

        def writer():
            current = state["db"]
            for i in range(40):
                current = insert_fact(current, "R", (f"c{i}", f"d{i}"))
                state["db"] = current
            stop.set()

        def reader():
            while not stop.is_set():
                version = state["db"]
                table = Statistics.collect(version).get("R")
                assert table.rows == len(version["R"])
                assert len(table.columns) == 2

        run_threads([writer, reader, reader, reader])


class TestJoinPartitionMemo:
    def test_concurrent_first_joins_share_one_correct_partition(self):
        """Readers joining a table whose partition memo is empty race to
        fill it without a lock; every join must still see the whole
        table, and the memo must end equal to a fresh partition."""
        x = Variable("x")
        rows = [(f"k{i % 7}", i) for i in range(60)]
        rows += [((x, 60), Conjunction([Neq(x, "k1")]))]
        dim = codd_table("D", 2, [(f"k{i}", f"v{i}") for i in range(7)])
        expected = {frozenset(join_ct(c_table("F", 2, rows), dim, [(0, 0)]).rows)}
        for _ in range(10):
            fact = c_table("F", 2, rows)
            seen = []

            def reader():
                seen.append(frozenset(join_ct(fact, dim, [(0, 0)]).rows))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads mid-classification
            try:
                run_threads([reader] * 6)
            finally:
                sys.setswitchinterval(interval)
            assert len(seen) == 6 and set(seen) == expected
            memo = fact.join_partition((0,))
            fresh = JoinPartition(fact, (0,))
            assert (memo.buckets, memo.wild, memo.alive) == (
                fresh.buckets, fresh.wild, fresh.alive
            )


# ---------------------------------------------------------------------------
# Snapshot isolation under reader/writer stress
# ---------------------------------------------------------------------------


PATH_QUERY = "Q(X, Z) :- R(X, Y), R(Y, Z)."


class TestSnapshotIsolationStress:
    def test_ground_stress_every_answer_matches_a_prefix(self):
        """Randomized update stream vs concurrent readers.

        The writer applies ops one at a time, recording the database
        each version corresponds to.  Readers query concurrently and
        record ``(version, answer)`` pairs.  Afterwards every recorded
        answer must equal the naive evaluation of the query against the
        recorded database of exactly that version — i.e. against a
        *prefix* of the update stream, never a half-applied op.
        """
        rng = random.Random(0xAB17)
        edges = [(f"n{rng.randrange(8)}", f"n{rng.randrange(8)}") for _ in range(12)]
        session = DatabaseSession("g", TableDatabase.single(codd_table("R", 2, set(edges))))
        dbs = {0: session.snapshot().db}
        observations = []
        obs_lock = threading.Lock()

        def writer():
            present = set(row_values(session.snapshot().db["R"]))
            for _ in range(50):
                if present and rng.random() < 0.4:
                    fact = rng.choice(sorted(present))
                    present.discard(fact)
                    op = ("delete", "R", fact)
                else:
                    fact = (f"n{rng.randrange(8)}", f"n{rng.randrange(8)}")
                    present.add(fact)
                    op = ("insert", "R", fact)
                version = session.apply([op])
                dbs[version] = session.snapshot().db

        def reader(use_views=False):
            def go():
                for _ in range(40):
                    result = session.query(PATH_QUERY, use_views=use_views)
                    with obs_lock:
                        observations.append((result.version, row_values(result.table)))

            return go

        run_threads([writer, reader(), reader(), reader(True)])

        expression = ra_of_ucq(parse_query(PATH_QUERY))
        assert observations, "readers never ran"
        checked = {}
        for version, answer in observations:
            assert version in dbs, f"answer at unpublished version {version}"
            if version not in checked:
                reference = evaluate_ct(expression, dbs[version], name="Q")
                checked[version] = row_values(reference)
            assert answer == checked[version], (
                f"answer at version {version} matches no prefix of the "
                f"update stream"
            )

    def test_ground_stress_with_view_maintenance(self):
        """Same invariant while the writer also defines/drops views and
        readers answer through them: a view answer must agree with base
        evaluation at the *same* version (the snapshot's view cut and
        database advance together or not at all)."""
        session = DatabaseSession(
            "g",
            TableDatabase.single(
                codd_table("R", 2, [("a", "b"), ("b", "c"), ("c", "d")])
            ),
        )
        dbs = {0: session.snapshot().db}
        observations = []
        obs_lock = threading.Lock()

        def writer():
            session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")
            for i in range(30):
                version = session.apply([("insert", "R", (f"x{i}", f"y{i}"))])
                dbs[version] = session.snapshot().db
                if i % 10 == 5:
                    session.drop_view("V")
                    session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")

        def reader():
            for _ in range(30):
                result = session.query(PATH_QUERY, use_views=True)
                with obs_lock:
                    observations.append(
                        (result.version, row_values(result.table))
                    )

        run_threads([writer, reader, reader])

        expression = ra_of_ucq(parse_query(PATH_QUERY))
        checked = {}
        for version, answer in observations:
            if version not in checked:
                reference = evaluate_ct(expression, dbs[version], name="Q")
                checked[version] = row_values(reference)
            assert answer == checked[version]

    def test_non_ground_stress_rep_equality(self):
        """The invariant in full possible-worlds form: with variables in
        the database, a response is correct when its *represented world
        set* equals the reference's — ``strong_canonicalize``-equality
        over enumerated worlds, exactly the paper's notion of equivalent
        representations."""
        table = c_table(
            "R",
            2,
            [
                (("a", "?x"),),
                ((("?x", "c")), "?x != a"),
                (("b", "c"),),
            ],
        )
        session = DatabaseSession("g", TableDatabase.single(table))
        dbs = {0: session.snapshot().db}
        observations = []
        obs_lock = threading.Lock()
        query_text = "Q(X, Y) :- R(X, Y)."

        def writer():
            for i in range(6):
                version = session.apply([("insert", "R", (f"w{i}", f"w{i}"))])
                dbs[version] = session.snapshot().db

        def reader():
            for _ in range(8):
                result = session.query(query_text)
                with obs_lock:
                    observations.append((result.version, result.table))

        run_threads([writer, reader, reader])

        expression = ra_of_ucq(parse_query(query_text))

        def canonical_worlds(answer):
            db = TableDatabase.single(
                CTable("Q", answer.arity, answer.rows, answer.global_condition)
            )
            protected = {c for w in enumerate_worlds(db) for c in w.constants()}
            # Protect the named constants; only invented nulls may rename.
            named = {c for c in protected if not c.value.startswith("@")}
            return {
                strong_canonicalize(w, named) for w in enumerate_worlds(db)
            }

        checked = {}
        for version, answer in observations:
            if version not in checked:
                reference = evaluate_ct(expression, dbs[version], name="Q")
                checked[version] = canonical_worlds(reference)
            assert canonical_worlds(answer) == checked[version], (
                f"rep() at version {version} differs from the prefix database"
            )

    def test_cached_dispatch_stress_every_answer_matches_a_prefix(self):
        """The ground stress test routed through the request cache: with
        a :class:`QueryDispatcher` (cache enabled) between readers and
        the session, every answer — cached or freshly evaluated — must
        still equal evaluation at the update-stream prefix of exactly
        its version.  A cache that ever served an entry across a version
        bump fails the prefix check immediately."""
        from repro.server.pool import QueryDispatcher

        rng = random.Random(0xCAC4E)
        edges = [(f"n{rng.randrange(8)}", f"n{rng.randrange(8)}") for _ in range(12)]
        session = DatabaseSession(
            "g", TableDatabase.single(codd_table("R", 2, set(edges)))
        )
        dispatcher = QueryDispatcher(workers=0, cache_size=64)
        dbs = {0: session.snapshot().db}
        observations = []
        obs_lock = threading.Lock()

        def writer():
            present = set(row_values(session.snapshot().db["R"]))
            for _ in range(50):
                if present and rng.random() < 0.4:
                    fact = rng.choice(sorted(present))
                    present.discard(fact)
                    op = ("delete", "R", fact)
                else:
                    fact = (f"n{rng.randrange(8)}", f"n{rng.randrange(8)}")
                    present.add(fact)
                    op = ("insert", "R", fact)
                version = session.apply([op])
                dbs[version] = session.snapshot().db

        def reader():
            for _ in range(40):
                result, _served_by = dispatcher.query(session, PATH_QUERY)
                with obs_lock:
                    observations.append((result.version, row_values(result.table)))

        run_threads([writer, reader, reader, reader])

        # Quiesced repeats at the final version must hit the cache.
        dispatcher.query(session, PATH_QUERY)
        _, served_by = dispatcher.query(session, PATH_QUERY)
        assert served_by == "cache"
        assert dispatcher.cache.counters()["hits"] > 0
        dispatcher.close()

        expression = ra_of_ucq(parse_query(PATH_QUERY))
        assert observations, "readers never ran"
        checked = {}
        for version, answer in observations:
            assert version in dbs, f"answer at unpublished version {version}"
            if version not in checked:
                reference = evaluate_ct(expression, dbs[version], name="Q")
                checked[version] = row_values(reference)
            assert answer == checked[version], (
                f"cached dispatch answer at version {version} matches no "
                f"prefix of the update stream"
            )

    def test_concurrent_writers_serialize(self):
        """Two writers racing on one session: every op lands exactly
        once and the final database reflects all of them."""
        session = DatabaseSession(
            "g", TableDatabase.single(codd_table("R", 2, [("seed", "seed")]))
        )

        def writer(tag):
            def go():
                for i in range(20):
                    session.apply([("insert", "R", (f"{tag}{i}", tag))])

            return go

        run_threads([writer("a"), writer("b")])
        assert session.version == 40
        values = row_values(session.snapshot().db["R"])
        assert {(f"a{i}", "a") for i in range(20)} <= values
        assert {(f"b{i}", "b") for i in range(20)} <= values
