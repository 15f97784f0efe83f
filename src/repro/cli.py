"""Command line interface: inspect tables and decide the paper's problems.

Usage (also via ``python -m repro``)::

    repro show db.pwt                 # render tables in the paper's style
    repro classify db.pwt             # codd / e / i / g / c classification
    repro worlds db.pwt [--max N]     # enumerate canonical possible worlds
    repro member db.pwt world.pwi     # MEMB: is the instance a possible world?
    repro possible db.pwt facts.pwi   # POSS: are the facts jointly possible?
    repro certain db.pwt facts.pwi    # CERT: do the facts hold in every world?
    repro contains sub.pwt super.pwt  # CONT: rep(sub) subset of rep(super)?
    repro convert db.pwt --to json    # text <-> JSON conversion
    repro eval db.pwt query.dl        # evaluate a UCQ view via the planner
    repro eval db.pwt q1.dl q2.dl     # many queries, one stats collection
    repro eval db.pwt query.dl --explain   # stats, histograms, selectivities
    repro view define db.pwt 'V(X) :- R(X, Y).'   # register + materialize
    repro view list db.pwt            # registered views + freshness
    repro view refresh db.pwt         # re-materialize stale views
    repro view drop db.pwt V          # forget a view
    repro eval db.pwt query.dl --use-views   # answer from a fresh view if one matches
    repro serve --db mydb=db.pwt      # long-lived HTTP/JSON query server
    repro client URL query mydb 'Q(X) :- R(X, Y).'   # talk to a running server

Materialized views are persisted in a JSON sidecar next to the database
(``<database>.views.json``) holding each view's rule text, its
materialized c-table, and a digest of the database file it was computed
against; ``eval --use-views`` only answers from a view whose digest
still matches (``--explain`` says which view answered, or why none
did).  In-process updates maintain views incrementally instead — see
:class:`repro.views.ViewManager` and ``docs/architecture.md``.

``repro serve`` hosts named databases in one resident process (stdlib
HTTP, JSON bodies) with snapshot-isolated reads: every query is
evaluated against an immutable snapshot and its response names the
update-stream ``version`` it reflects — see
:mod:`repro.server` and the serving-layer section of
``docs/architecture.md``.  ``repro client`` is the matching
``urllib``-only command line client.

Databases use the text notation of :mod:`repro.io.text` (``.pwt`` --
"possible worlds tables"), instances the ``%instance`` notation
(``.pwi``).  JSON files (any extension) are auto-detected by their leading
``{``.  Exit status: 0 for yes/success, 1 for no, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .core.containment import contains
from .core.membership import is_member
from .core.possibility import is_possible
from .core.certainty import is_certain
from .core.worlds import iter_worlds
from .io.files import DatabaseFileError, load_database_file
from .io.jsonio import (
    database_from_json,
    database_to_json,
    instance_from_json,
    instance_to_json,
)
from .io.text import (
    TextFormatError,
    dumps_database,
    dumps_instance,
    loads_database,
    loads_instance,
)
from .relational.instance import Instance

__all__ = ["main"]

#: Exit statuses (sysexits-flavoured).
EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2


class CliError(Exception):
    """A user-facing error: bad file, bad format, bad combination."""


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fp:
            return fp.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc


def load_instance_file(path: str) -> Instance:
    """Load an instance from text or JSON notation (auto-detected)."""
    text = _read_text(path)
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            return instance_from_json(json.loads(text))
        return loads_instance(text)
    except (TextFormatError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_show(args) -> int:
    db = load_database_file(args.database)[0]
    for i, table in enumerate(db):
        if i:
            print()
        print(f"-- {table.name}/{table.arity} ({table.classify()}-table)")
        print(table)
    extra = db.extra_condition()
    if len(extra):
        print(f"\n-- database condition: {extra}")
    return EXIT_YES


def _cmd_classify(args) -> int:
    db = load_database_file(args.database)[0]
    for table in db:
        print(f"{table.name}: {table.classify()}")
    print(f"database: {db.classify()}")
    return EXIT_YES


def _cmd_worlds(args) -> int:
    db = load_database_file(args.database)[0]
    shown = 0
    truncated = False
    for world in iter_worlds(db):
        if shown >= args.max:
            truncated = True
            break
        if shown:
            print()
        print(f"-- world {shown + 1}")
        print(dumps_instance(world), end="")
        shown += 1
    if truncated:
        print(f"\n... truncated at {args.max} worlds (use --max to raise)")
    elif shown == 0:
        print("(no possible worlds: the global condition is unsatisfiable)")
    return EXIT_YES


def _cmd_member(args) -> int:
    db = load_database_file(args.database)[0]
    instance = load_instance_file(args.instance)
    verdict = is_member(instance, db)
    print("member" if verdict else "not a member")
    return EXIT_YES if verdict else EXIT_NO


def _cmd_possible(args) -> int:
    db = load_database_file(args.database)[0]
    facts = load_instance_file(args.facts)
    verdict = is_possible(facts, db)
    print("possible" if verdict else "impossible")
    return EXIT_YES if verdict else EXIT_NO


def _cmd_certain(args) -> int:
    db = load_database_file(args.database)[0]
    facts = load_instance_file(args.facts)
    verdict = is_certain(facts, db)
    print("certain" if verdict else "not certain")
    return EXIT_YES if verdict else EXIT_NO


def _cmd_contains(args) -> int:
    sub = load_database_file(args.subset)[0]
    sup = load_database_file(args.superset)[0]
    verdict = contains(sub, sup)
    print("contained" if verdict else "not contained")
    return EXIT_YES if verdict else EXIT_NO


def _cmd_convert(args) -> int:
    text = _read_text(args.path)
    stripped = text.lstrip()
    is_json = stripped.startswith("{")
    try:
        if is_json:
            data = json.loads(text)
            kind = data.get("kind")
            if kind == "instance":
                value = instance_from_json(data)
            else:
                value = database_from_json(data)
        elif "%instance" in stripped or (
            "%relation" in stripped and "%table" not in stripped
        ):
            value = loads_instance(text)
        else:
            value = loads_database(text)
    except (TextFormatError, ValueError) as exc:
        raise CliError(f"{args.path}: {exc}") from exc

    if args.to == "json":
        if isinstance(value, Instance):
            print(json.dumps(instance_to_json(value), indent=2))
        else:
            print(json.dumps(database_to_json(value), indent=2))
    else:
        if isinstance(value, Instance):
            print(dumps_instance(value), end="")
        else:
            print(dumps_database(value), end="")
    return EXIT_YES


# ---------------------------------------------------------------------------
# The materialized-view registry (a JSON sidecar next to the database)
# ---------------------------------------------------------------------------
#
# One format, one module: :mod:`repro.views.persist` owns the sidecar so
# the CLI and a ``repro serve`` process read and write the same registry
# instead of silently diverging.  These thin wrappers only convert its
# :class:`~repro.views.ViewError`s into user-facing :class:`CliError`s.


def _db_digest(db_path: str) -> str:
    from .views import ViewError
    from .views.persist import file_digest

    try:
        return file_digest(db_path)
    except ViewError as exc:
        raise CliError(str(exc)) from exc


def _load_registry(db_path: str) -> dict:
    from .views import ViewError
    from .views.persist import load_registry

    try:
        return load_registry(db_path)
    except ViewError as exc:
        raise CliError(str(exc)) from exc


def _save_registry(db_path: str, registry: dict) -> None:
    from .views import ViewError
    from .views.persist import save_registry

    try:
        save_registry(db_path, registry)
    except ViewError as exc:
        raise CliError(str(exc)) from exc


def _view_name_of(query_text: str) -> str:
    """The head predicate naming a view, with parse errors as CLI errors.

    The first rule's head names the view — for a recursive program that
    is the derived predicate the view materializes.
    """
    from .relational.parser import ParseError, parse_rules

    try:
        rules = parse_rules(query_text)
    except (ParseError, ValueError) as exc:
        raise CliError(f"view: cannot compile view query: {exc}") from exc
    if not rules:
        raise CliError("view: empty view query")
    return rules[0].head.pred


def _materialize_view(manager, name: str, query_text: str):
    """Plan and evaluate one view in ``manager``, mapping every
    evaluation failure (bad query, unknown relation, arity mismatch) to
    a clean CLI error.  Recursive rule text registers a Datalog view."""
    from .views import ViewError

    try:
        return manager.define_text(name, query_text)
    except KeyError as exc:
        raise CliError(f"view: unknown relation {exc}") from exc
    except (ViewError, ValueError) as exc:
        raise CliError(f"view: {exc}") from exc


def _cmd_view_define(args) -> int:
    from .io.jsonio import table_to_json

    query_text = _read_query_argument(args.query)
    registry = _load_registry(args.database)
    name = _view_name_of(query_text)
    if name in registry["views"]:
        raise CliError(f"view {name!r} is already defined (repro view drop it first)")
    from .views import ViewManager

    db = load_database_file(args.database)[0]
    table = _materialize_view(ViewManager(db), name, query_text)
    registry["views"][name] = {
        "query": query_text,
        "digest": _db_digest(args.database),
        "table": table_to_json(table),
    }
    _save_registry(args.database, registry)
    print(f"defined view {name}/{table.arity} ({len(table)} rows, materialized)")
    return EXIT_YES


def _cmd_view_list(args) -> int:
    registry = _load_registry(args.database)
    views = registry["views"]
    if not views:
        print(f"(no views registered for {args.database})")
        return EXIT_YES
    digest = _db_digest(args.database)
    for name, entry in sorted(views.items()):
        table = entry.get("table")
        table = table if isinstance(table, dict) else {}
        rows = table.get("rows")
        state = "fresh" if entry.get("digest") == digest else "stale"
        query = " ".join(entry["query"].split())
        print(
            f"{name}/{table.get('arity', '?')}: "
            f"{len(rows) if isinstance(rows, list) else '?'} rows, {state} -- {query}"
        )
    return EXIT_YES


def _cmd_view_refresh(args) -> int:
    from .io.jsonio import table_to_json

    registry = _load_registry(args.database)
    views = registry["views"]
    if not views:
        print(f"(no views registered for {args.database})")
        return EXIT_YES
    if args.name is not None and args.name not in views:
        print(f"no view named {args.name!r}", file=sys.stderr)
        return EXIT_NO
    from .views import ViewManager

    db = load_database_file(args.database)[0]
    digest = _db_digest(args.database)
    names = [args.name] if args.name is not None else sorted(views)
    # One manager for the whole refresh: statistics are collected once
    # and views sharing planned subtrees share the cached intermediates.
    manager = ViewManager(db)
    for name in names:
        entry = views[name]
        if args.name is None and entry.get("digest") == digest:
            print(f"view {name}: fresh, skipped")
            continue
        table = _materialize_view(manager, name, entry["query"])
        entry["digest"] = digest
        entry["table"] = table_to_json(table)
        print(f"refreshed view {name}/{table.arity} ({len(table)} rows)")
    _save_registry(args.database, registry)
    return EXIT_YES


def _cmd_view_drop(args) -> int:
    registry = _load_registry(args.database)
    if args.name not in registry["views"]:
        print(f"no view named {args.name!r}", file=sys.stderr)
        return EXIT_NO
    del registry["views"][args.name]
    _save_registry(args.database, registry)
    print(f"dropped view {args.name}")
    return EXIT_YES


def _sidecar_views(db_path: str, datalog: bool):
    """The registered views as ``match_view`` candidates, split ``(fresh,
    stale)`` by the database digest; ``None`` when none is registered.
    Loaded once per invocation.  A sidecar that is not a registry (see
    :func:`~repro.views.persist.load_registry`) is a CLI error; an entry
    whose query does not compile as this invocation's kind, or whose
    table is mangled, is skipped and eval answers from base tables."""
    from .io.jsonio import table_from_json
    from .queries.prepared import prepare

    views = _load_registry(db_path)["views"]
    if not views:
        return None
    digest = _db_digest(db_path)
    fresh, stale = [], []
    for name, entry in sorted(views.items()):
        try:
            fingerprint = prepare(entry["query"], datalog).fingerprint
            table = table_from_json(entry.get("table") or {})
        except (AttributeError, KeyError, TypeError, ValueError):
            continue  # a mangled stored table has no one failure type
        (fresh if entry.get("digest") == digest else stale).append((name, fingerprint, table))
    return fresh, stale


def _answer_from_sidecar(prepared, sidecar, explain: bool):
    """A fresh registered view answering ``prepared`` as ``(name,
    table)``, or ``None``; with ``explain`` prints which view answered,
    or why none did (nothing registered, only stale matches...)."""
    from .queries.prepared import match_view

    hit = None
    if sidecar is None:
        note = "no views registered; evaluating from base tables"
    elif prepared.fingerprint is None:
        note = "program has several output predicates; evaluating from base tables"
    else:
        fresh, stale = sidecar
        hit = match_view(prepared, fresh)
        if hit is not None:
            note = f"answered by materialized view {hit[0]!r} (fresh)"
        else:
            stale_hits = [view[0] for view in stale if match_view(prepared, [view])]
            note = "no registered view matches; evaluating from base tables"
            if stale_hits:
                note = (
                    f"{', '.join(repr(s) for s in stale_hits)} match(es) but the "
                    "database changed since materialization (stale); evaluating "
                    "from base tables (repro view refresh to update)"
                )
    if explain:
        print(f"-- view: {note}")
    return hit


def _table_summary(table) -> dict:
    return {
        "name": table.name,
        "arity": table.arity,
        "rows": len(table),
        "classification": table.classify(),
    }


def _read_query_argument(query_arg: str) -> str:
    import os

    if os.path.exists(query_arg):
        return _read_text(query_arg)
    if query_arg.strip() and "(" not in query_arg:
        # Every rule contains parentheses; a paren-free argument is almost
        # certainly a mistyped file path, so fail as one.
        raise CliError(f"cannot read {query_arg}: no such file")
    return query_arg


def _cmd_eval(args) -> int:
    from .queries.prepared import QueryError, execute, prepare
    from .relational.stats import Statistics

    db = load_database_file(args.database)[0]
    for given, flag, why in (
        (args.explain, "--explain",
         "(nothing is planned); showing the compiled expression instead"),
        (args.use_views, "--use-views",
         "(the oracle path never answers from materializations)"),
        (args.analyze, "--analyze", "(the oracle path is not instrumented)"),
    ):
        if given and args.naive:
            print(f"repro: {flag} has no effect with --naive {why}", file=sys.stderr)
    # --explain-json: one JSON document on stdout instead of rendered
    # tables, so tooling and tests read structure, not scraped text.
    report: dict | None = None
    if args.explain_json:
        report = {"database": args.database, "queries": []}
    use_views = args.use_views and not args.naive
    sidecar = _sidecar_views(args.database, args.datalog) if use_views else None
    for position, query_arg in enumerate(args.query):
        try:
            prepared = prepare(_read_query_argument(query_arg), args.datalog)
        except QueryError as exc:
            raise CliError(str(exc)) from exc
        if report is None:
            if position:
                print()
            if len(args.query) > 1 and args.datalog:
                outputs = ", ".join(prepared.compiled.outputs)
                print(f"-- program {position + 1}: outputs {outputs}")
            elif len(args.query) > 1:
                print(f"-- query {position + 1}: {prepared.name}")
        if use_views:
            hit = _answer_from_sidecar(prepared, sidecar, args.explain and report is None)
            if hit is not None:
                _show_view_answer(args, report, prepared, *hit)
                continue
        try:
            # The JSON report always carries explain lines, and for
            # Datalog the per-round deltas (the analyze payload).
            execution = execute(
                prepared, db,
                naive=args.naive,
                explain=args.explain or report is not None,
                analyze=args.analyze or (args.datalog and report is not None),
            )
        except QueryError as exc:
            raise CliError(str(exc)) from exc
        # The first planned UCQ shows the statistics the planner read:
        # the tables' memos, shared by every query of the invocation.
        stats = None
        if position == 0 and not args.naive and not args.datalog:
            stats = sorted(Statistics.collect(db), key=lambda t: t.name)
        if report is None:
            _show_execution(args, stats, prepared, execution)
            continue
        if stats is not None:
            report["stats"] = [table_stats.to_json() for table_stats in stats]
        report["queries"].append(_report_entry(prepared, execution))
    if report is not None:
        print(json.dumps(report, indent=2))
    return EXIT_YES


def _print_table(table) -> None:
    print(f"-- {table.name}/{table.arity} ({table.classify()}-table, {len(table)} rows)")
    print(table)


def _show_view_answer(args, report, prepared, view_name: str, table) -> None:
    if report is not None:
        if prepared.kind == "datalog":
            report["queries"].append({
                "outputs": list(prepared.compiled.outputs),
                "answered_by_view": view_name,
                "tables": [_table_summary(table)],
            })
        else:
            report["queries"].append({**_table_summary(table), "answered_by_view": view_name})
        return
    if args.plan and prepared.kind == "ucq":
        print("-- plan: skipped (answered from a materialized view)")
    _print_table(table)


def _show_execution(args, stats, prepared, execution) -> None:
    from .obs.analyze import render_analysis

    datalog = prepared.kind == "datalog"
    if args.explain and stats is not None:
        for table_stats in stats:
            print(f"-- stats: {table_stats.describe()}")
            for line in table_stats.histogram_lines():
                print(f"-- stats:   {line}")
    if args.explain and args.naive and not args.plan and not datalog:
        # (--plan prints the same compiled expression already.)
        print(f"-- expression: {prepared.compiled!r}")
    if args.plan:
        # What actually ran: the statistics-ordered plan, or with
        # --naive the expression as compiled (run literally).
        for head, expression in execution.plans:
            if not datalog:
                print(f"-- plan: {expression!r}")
            else:
                print(f"-- {'expression' if args.naive else 'plan'}[{head}]: {expression!r}")
    if args.explain and execution.explain is not None:
        if not execution.explain and not datalog:
            execution.explain.append("join order: unchanged (no 3+-way join chain)")
        for line in execution.explain:
            print(f"-- {line}")
    if execution.analyze is not None:
        for line in render_analysis(execution.analyze):
            print(f"-- {line}")
    for table in execution.tables:
        _print_table(table)


def _report_entry(prepared, execution) -> dict:
    if prepared.kind == "datalog":
        entry = {
            "outputs": list(prepared.compiled.outputs),
            "tables": [_table_summary(table) for table in execution.tables],
        }
        if execution.explain:
            entry["explain"] = list(execution.explain)
        if execution.analyze is not None:
            entry["rounds"] = execution.analyze["rounds"]
        return entry
    entry = {**_table_summary(execution.table), "plan": repr(execution.plans[0][1])}
    if execution.explain is not None:
        entry["explain"] = list(execution.explain)
    if execution.analyze is not None:
        entry["analyze"] = execution.analyze
    return entry


# ---------------------------------------------------------------------------
# The query server and its command line client
# ---------------------------------------------------------------------------


def _cmd_serve(args) -> int:
    from .server import SessionRegistry, make_server, run_server
    from .server.session import SessionError

    registry = SessionRegistry()
    for spec in args.db:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise CliError(f"--db wants NAME=PATH, got {spec!r}")
        try:
            _, stale = registry.open_file(name, path, on_stale=args.on_stale)
        except SessionError as exc:
            raise CliError(str(exc)) from exc
        suffix = ""
        if stale:
            suffix = f" (re-materialized stale views: {', '.join(stale)})"
        print(f"loaded {name} from {path}{suffix}")
    try:
        server = make_server(
            args.host,
            args.port,
            registry,
            verbose=args.verbose,
            workers=args.workers,
            cache_size=args.cache_size,
            slow_query_ms=args.slow_query_ms,
        )
    except OSError as exc:
        raise CliError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    host, port = server.server_address[:2]
    pool_note = f", {args.workers} read worker(s)" if args.workers else ""
    print(
        f"serving {len(registry)} database(s) on http://{host}:{port}"
        f"{pool_note} (Ctrl-C stops)"
    )
    run_server(server)
    return EXIT_YES


def _print_query_response(response: dict, explain: bool) -> None:
    """Render a server query response the way ``repro eval`` renders."""
    from .io.jsonio import table_from_json

    if explain:
        for line in response.get("explain", ()):
            print(f"-- {line}")
    if response.get("analyze") is not None:
        from .obs.analyze import render_analysis

        for line in render_analysis(response["analyze"]):
            print(f"-- {line}")
        if response.get("trace_id"):
            print(f"-- trace: {response['trace_id']}")
    answered_by = response.get("answered_by_view")
    if answered_by is not None:
        print(f"-- view: answered by materialized view {answered_by!r}")
    table = table_from_json(response["table"])
    print(
        f"-- {table.name}/{table.arity} ({table.classify()}-table, "
        f"{len(table)} rows) @ version {response['version']}"
    )
    print(table)


def _cmd_client(args) -> int:
    from .server import ServerClient, ServerError

    client = ServerClient(args.url)
    try:
        return _run_client_action(client, args)
    except ServerError as exc:
        print(f"repro: server: {exc}", file=sys.stderr)
        return EXIT_USAGE if exc.status in (None, 400) else EXIT_NO


def _parse_update_op(text: str) -> list:
    """An update op from the command line: a JSON array like
    ``'["insert", "R", ["a", "b"]]'``."""
    try:
        op = json.loads(text)
    except ValueError as exc:
        raise CliError(f"update op is not valid JSON: {text!r} ({exc})") from exc
    if not isinstance(op, list):
        raise CliError(f'update op must be a JSON array, got {text!r}')
    return op


def _watch_summary(stats: dict) -> str:
    """One ``--watch`` line: the numbers an operator glances at."""
    queries = stats.get("queries", {})
    latency = stats.get("latency", {})
    cache = stats.get("cache", {})
    hits = cache.get("hits", 0)
    lookups = hits + cache.get("misses", 0)
    hit_rate = f"{hits / lookups:.0%}" if lookups else "n/a"
    rungs = "/".join(
        str(queries.get(f"{rung}_answers", 0))
        for rung in ("cache", "view", "pool", "inline")
    )
    slow = stats.get("slow_queries", {}).get("total", 0)
    return (
        f"queries={queries.get('queries', 0)} "
        f"served(cache/view/pool/inline)={rungs} "
        f"errors={queries.get('errors', 0)} cache_hit={hit_rate} "
        f"p50={latency.get('p50_ms', 0.0):.1f}ms "
        f"p99={latency.get('p99_ms', 0.0):.1f}ms slow={slow}"
    )


def _run_client_action(client, args) -> int:
    action = args.action
    if action == "health":
        print(json.dumps(client.health()))
    elif action == "stats":
        if args.watch:
            import time as _time

            polls = 0
            try:
                while True:
                    print(_watch_summary(client.stats()), flush=True)
                    polls += 1
                    if args.iterations and polls >= args.iterations:
                        break
                    _time.sleep(max(0.0, args.interval))
            except KeyboardInterrupt:
                pass
        else:
            print(json.dumps(client.stats(), indent=2))
    elif action == "metrics":
        sys.stdout.write(client.metrics())
    elif action == "list":
        for entry in client.databases():
            print(
                f"{entry['name']}: version {entry['version']}, "
                f"{entry['tables']} table(s), {entry['views']} view(s)"
            )
    elif action == "create":
        db = load_database_file(args.path)[0]
        created = client.create_database(args.name, database_to_json(db))
        print(f"created {created['name']} at version {created['version']}")
    elif action == "info":
        print(json.dumps(client.database_info(args.name), indent=2))
    elif action == "query":
        query_text = _read_query_argument(args.query)
        response = client.query(
            args.name,
            query_text,
            naive=args.naive,
            use_views=args.use_views,
            explain=args.explain,
            analyze=args.analyze,
        )
        _print_query_response(response, args.explain)
    elif action == "update":
        ops = [_parse_update_op(text) for text in args.op]
        applied = client.update(args.name, *ops)
        print(f"applied {applied['applied']} op(s), now at version {applied['version']}")
    elif action == "view-define":
        query_text = _read_query_argument(args.query)
        view = client.define_view(args.name, query_text)
        print(f"defined view {view['name']}/{view['arity']} ({view['rows']} rows)")
    elif action == "view-list":
        views = client.views(args.name)
        if not views:
            print(f"(no views registered for {args.name})")
        for entry in views:
            query = " ".join(entry.get("query", "").split())
            print(f"{entry['name']}/{entry['arity']}: {entry['rows']} rows -- {query}")
    elif action == "view-drop":
        client.drop_view(args.name, args.view)
        print(f"dropped view {args.view}")
    elif action == "persist":
        persisted = client.persist(args.name)
        print(f"persisted to {persisted['persisted']}")
    elif action == "drop":
        client.drop_database(args.name)
        print(f"dropped {args.name}")
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown client action {action!r}")
    return EXIT_YES


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Possible-worlds databases: inspect c-tables and decide "
            "membership, possibility, certainty and containment "
            "(Abiteboul-Kanellakis-Grahne)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="render a database in the paper's style")
    p.add_argument("database")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("classify", help="classify tables (codd/e/i/g/c)")
    p.add_argument("database")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("worlds", help="enumerate canonical possible worlds")
    p.add_argument("database")
    p.add_argument("--max", type=int, default=20, help="world cap (default 20)")
    p.set_defaults(func=_cmd_worlds)

    p = sub.add_parser("member", help="MEMB: is the instance a possible world?")
    p.add_argument("database")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("possible", help="POSS: are the facts jointly possible?")
    p.add_argument("database")
    p.add_argument("facts")
    p.set_defaults(func=_cmd_possible)

    p = sub.add_parser("certain", help="CERT: do the facts hold everywhere?")
    p.add_argument("database")
    p.add_argument("facts")
    p.set_defaults(func=_cmd_certain)

    p = sub.add_parser("contains", help="CONT: rep(subset) within rep(superset)?")
    p.add_argument("subset")
    p.add_argument("superset")
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("convert", help="convert between text and JSON")
    p.add_argument("path")
    p.add_argument("--to", choices=("json", "text"), required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "eval", help="evaluate UCQ views over the database (planned by default)"
    )
    p.add_argument("database")
    p.add_argument(
        "query",
        nargs="+",
        help="rule file(s) or literal rule text; several queries share one "
        "statistics collection",
    )
    p.add_argument(
        "--naive",
        action="store_true",
        help="use the naive select-over-product evaluator (no planning)",
    )
    p.add_argument(
        "--plan", action="store_true", help="print the planned expression first"
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print table statistics (with per-column histogram summaries), "
        "the selectivity charged to each predicate, and the cost-chosen "
        "join shape",
    )
    p.add_argument(
        "--use-views",
        action="store_true",
        help="answer from a fresh materialized view (repro view define) when "
        "one matches the query; --explain says which view answered",
    )
    p.add_argument(
        "--datalog",
        action="store_true",
        help="treat each query as a recursive Datalog program and evaluate "
        "it to a least fixpoint over the c-tables (semi-naive; --naive "
        "switches to the whole-program refixpoint oracle)",
    )
    p.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE: execute with per-operator instrumentation and "
        "print estimated vs actual rows, wall time and hash-partition "
        "bucket stats per plan node (per-round delta sizes with --datalog)",
    )
    p.add_argument(
        "--explain-json",
        action="store_true",
        help="emit one JSON document (stats, plans, explain lines, analyze "
        "payloads, Datalog round deltas) instead of rendered tables",
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "view", help="materialized views over a database (JSON sidecar registry)"
    )
    vsub = p.add_subparsers(dest="view_command", required=True)

    vp = vsub.add_parser("define", help="register a view and materialize it")
    vp.add_argument("database")
    vp.add_argument("query", help="rule file or literal rule text")
    vp.set_defaults(func=_cmd_view_define)

    vp = vsub.add_parser("list", help="registered views and their freshness")
    vp.add_argument("database")
    vp.set_defaults(func=_cmd_view_list)

    vp = vsub.add_parser(
        "refresh", help="re-materialize stale views (or one named view)"
    )
    vp.add_argument("database")
    vp.add_argument("name", nargs="?", help="refresh only this view")
    vp.set_defaults(func=_cmd_view_refresh)

    vp = vsub.add_parser("drop", help="forget a registered view")
    vp.add_argument("database")
    vp.add_argument("name")
    vp.set_defaults(func=_cmd_view_drop)

    p = sub.add_parser(
        "serve",
        help="serve databases over HTTP/JSON with snapshot-isolated queries",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p.add_argument(
        "--port", type=int, default=8177, help="port (default 8177; 0 picks a free one)"
    )
    p.add_argument(
        "--db",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="preload a database file under NAME (repeatable); its view "
        "sidecar is loaded too",
    )
    p.add_argument(
        "--on-stale",
        choices=("error", "refresh", "skip"),
        default="error",
        help="what to do when a preloaded view sidecar's digest does not "
        "match the database file: refuse to start (default), re-materialize, "
        "or drop the stale views",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="read-worker processes for query evaluation (default 0: "
        "evaluate in-process); queries degrade to in-process when the "
        "pool cannot serve them",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="N",
        help="request-cache entries keyed by (version, plan) (default "
        "256; 0 disables caching)",
    )
    p.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log queries slower than MS milliseconds to stderr and expose "
        "them under /stats (default: disabled)",
    )
    p.add_argument("--verbose", action="store_true", help="log every request")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("client", help="talk to a running repro serve process")
    p.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8177")
    csub = p.add_subparsers(dest="action", required=True)

    cp = csub.add_parser("health", help="server liveness")
    cp = csub.add_parser(
        "stats", help="serving stats: dispatch counters, cache, pool, p50/p99"
    )
    cp.add_argument(
        "--watch",
        action="store_true",
        help="re-poll and print a one-line summary every --interval seconds",
    )
    cp.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SEC",
        help="seconds between --watch polls (default 2.0)",
    )
    cp.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop --watch after N polls (default 0: until Ctrl-C)",
    )
    cp = csub.add_parser("metrics", help="raw Prometheus text from /metrics")
    cp = csub.add_parser("list", help="list served databases")
    cp = csub.add_parser("create", help="upload a database file under a name")
    cp.add_argument("name")
    cp.add_argument("path")
    cp = csub.add_parser("info", help="database info (tables, views, version)")
    cp.add_argument("name")
    cp = csub.add_parser("query", help="evaluate a UCQ against a snapshot")
    cp.add_argument("name")
    cp.add_argument("query", help="rule file or literal rule text")
    cp.add_argument("--naive", action="store_true")
    cp.add_argument("--use-views", action="store_true")
    cp.add_argument("--explain", action="store_true")
    cp.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE on the server: per-operator est vs actual "
        "rows and timings in the response",
    )
    cp = csub.add_parser(
        "update", help="apply update ops, e.g. '[\"insert\", \"R\", [\"a\", \"b\"]]'"
    )
    cp.add_argument("name")
    cp.add_argument("op", nargs="+", help="JSON-array op (repeatable, one batch)")
    cp = csub.add_parser("view-define", help="define + materialize a server view")
    cp.add_argument("name")
    cp.add_argument("query")
    cp = csub.add_parser("view-list", help="views of a served database")
    cp.add_argument("name")
    cp = csub.add_parser("view-drop", help="drop a server view")
    cp.add_argument("name")
    cp.add_argument("view")
    cp = csub.add_parser("persist", help="write the database + sidecar back to disk")
    cp.add_argument("name")
    cp = csub.add_parser("drop", help="remove a database from the server")
    cp.add_argument("name")
    p.set_defaults(func=_cmd_client)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """The CLI entry point; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_YES
    try:
        return args.func(args)
    except (CliError, DatabaseFileError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
