"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``run FILE``
    Parse and evaluate a TDD program file; print the period, the
    specification summary and the classification.
``ask FILE QUERY``
    Answer a yes/no query against the program's least model.
``answers FILE QUERY [--expand N]``
    Print the finite representation of an open query's answers,
    optionally expanded up to timepoint N.
``classify FILE``
    Report membership in the paper's tractable classes.
``spec FILE [--save OUT.json]``
    Print (and optionally persist) the relational specification.
``lint FILE...``
    Run the span-aware diagnostics engine; text, JSON or SARIF output
    (``--format``), code selection (``--select``/``--ignore``), and a
    severity gate for CI (``--max-severity``).
``profile FILE [--engine E] [--query Q]``
    Run evaluation under the per-rule profiler and print a hot-rule
    table (``--format json`` for machines, ``--folded`` for
    flamegraph.pl / speedscope).
``traceview TRACE.jsonl``
    Summarize an existing ``--trace`` file into a round-by-round
    convergence timeline with phase times and the period round.
``explain FILE FACT``
    Print a derivation tree justifying a ground model fact (recorded
    provenance when available, search-based reconstruction otherwise).
``why FILE FACT [--format {text,json,dot}]``
    Print the *recorded* proof tree for a model fact — the proof DAG
    the engine actually built, verified against the model, with
    ``file:line`` rule spans (JSON node/edge lists or Graphviz DOT on
    request).
``whynot FILE FACT``
    Explain why a fact is **not** in the model: for each candidate
    rule, the nearest failed firing — which body literal broke, at
    which time point.
``repl FILE``
    Interactive query loop; ``:period``, ``:spec``, ``:classify``,
    ``:quit`` are built in.
``serve [--port N] [--workers N] [--cache FILE] [--deadline S]
[--access-log FILE] [--slow-ms MS]``
    HTTP query service (JSON protocol) answering batches of ask /
    answers requests from cached relational specifications, with
    request-level telemetry: trace ids, ``GET /metrics`` (Prometheus
    text format), a structured JSON access log, and a slow-query
    span-tree log.  ``--trace FILE`` exports per-request spans.
    ``--workers N`` runs a multi-process tier: a front-end that
    consistent-hash routes on the program text to N supervised worker
    processes (crashed workers are respawned; their requests retried).
``top [--url URL] [--interval S]``
    Live terminal dashboard polling a running server's ``/stats``:
    QPS, cache hit ratio, latency percentiles, degraded count, and —
    for a tier — the per-worker balance table.
``trace {ls,show} [--url URL]``
    Inspect the assembled request traces a collection-enabled server
    retains: ``ls`` lists recent trace ids, ``show ID`` prints one
    cross-process span tree (front-end *and* worker spans stitched
    through the propagated trace id).
``cache {ls,rm,stats} CACHE.sqlite``
    Inspect or prune a persistent spec cache file.

``ask``, ``answers``, ``spec``, ``why`` and ``whynot`` also accept
``--cache FILE``: a warm cache hit answers from the persisted
specification without running BT.  They (and ``serve``) also accept
``--engine {bt,seminaive,compiled}`` to pick the window engine BT runs
on; ``compiled`` interns constants and replays indexed join plans for
the same answers in less time.  ``--trace FILE --trace-provenance N``
additionally records provenance and samples every Nth derived support
edge into the trace as a schema-4 ``derive`` event.

Program files use the paper's rule syntax (see README).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence, TextIO, Union

from .analysis import UnknownCodeError
from .core.serialize import save_spec
from .core.tdd import TDD
from .lang.errors import LocatedError, ReproError
from .obs import EvalStats, JsonLinesSink, Tracer


class _SourceError(Exception):
    """A located static error plus the file and text it occurred in,
    so :func:`main` can render ``file:line:col`` with a caret excerpt."""

    def __init__(self, path: str, text: str, cause: LocatedError):
        super().__init__(str(cause))
        self.path = path
        self.text = text
        self.cause = cause


def _parse_file(path: str) -> tuple[TDD, str]:
    """Read + parse a program file, wrapping located static errors."""
    text = Path(path).read_text()
    try:
        return TDD.from_text(text), text
    except LocatedError as exc:
        if exc.line is None:
            raise
        raise _SourceError(path, text, exc) from exc


def _obs(args) -> tuple:
    """The run's :class:`EvalStats` (None without ``--stats`` or
    ``--trace``) and the tracer attached to it."""
    stats = getattr(args, "_obs", None)
    return stats, (stats.tracer if stats is not None else None)


def _load(args) -> TDD:
    tdd, text = _parse_file(args.file)
    engine = getattr(args, "engine", None)
    if engine is not None:
        from .engines import canonical_window_engine
        tdd.engine = canonical_window_engine(engine)
    stats, tracer = _obs(args)
    provenance = None
    if getattr(args, "trace_provenance", None):
        from .obs.provenance import ProvenanceStore
        provenance = ProvenanceStore(tracer=tracer,
                                     sample=args.trace_provenance)
    if getattr(args, "cache", None):
        from .serve import SpecCache, tdd_key
        cache = SpecCache(args.cache)
        key = tdd_key(tdd)
        spec, source = cache.get_with_source(key)
        if spec is not None and provenance is None:
            # Warm path: no BT run at all; queries go straight to the
            # cached finite specification.
            tdd.adopt_specification(spec)
        else:
            if tracer is not None:
                tracer.emit_run_start("bt", program=args.file,
                                      text=text)
            tdd.evaluate(stats=stats, provenance=provenance)
            cache.put(key, tdd.specification())
            source = "computed"
        if stats is not None:
            stats.extra["cache"] = dict(cache.counters(),
                                        source=source, key=key)
        return tdd
    if stats is not None:
        # Evaluate eagerly under instrumentation; the result is cached,
        # so the command's own queries reuse it.
        if tracer is not None:
            tracer.emit_run_start("bt", program=args.file, text=text)
        tdd.evaluate(stats=stats, provenance=provenance)
    return tdd


def _ground_atom(tdd: TDD, text: str, what: str):
    """Parse ``text`` as a ground atom query, or raise a clean error."""
    from .core.queries import AtomQ, parse_query
    from .lang.errors import EvaluationError
    query = parse_query(text, tdd.temporal_preds)
    if not isinstance(query, AtomQ) or not query.atom.is_ground:
        raise EvaluationError(
            f"{what} needs a ground atom, e.g. 'even(4)'; got {text!r}"
        )
    return query.atom


def _print_source_error(exc: _SourceError) -> None:
    from .analysis import source_excerpt
    from .lang.spans import Span
    cause = exc.cause
    location = f"{exc.path}:{cause.line}"
    if cause.column is not None:
        location += f":{cause.column}"
    print(f"{location}: error: {cause.bare_message}", file=sys.stderr)
    excerpt = source_excerpt(
        exc.text, Span(cause.line, cause.column or 1))
    if excerpt:
        print(excerpt, file=sys.stderr)


def _print_period(tdd: TDD, out: TextIO) -> None:
    period = tdd.period()
    certified = "certified" if period.certified else "verified"
    print(f"period: (b={period.b}, p={period.p})  [{certified}]",
          file=out)


def _print_spec(tdd: TDD, out: TextIO) -> None:
    spec = tdd.specification()
    print(f"representatives: 0..{len(spec.representatives) - 1} "
          f"({len(spec.representatives)} terms)", file=out)
    print(f"rewrite system:  {spec.rewrites}", file=out)
    print(f"primary database: {len(spec.primary)} facts", file=out)
    print(f"specification size: {spec.size}", file=out)


def _print_classification(tdd: TDD, out: TextIO) -> None:
    cls = tdd.classification()
    inflationary = ("n/a (outside the Thm 5.2 assumptions)"
                    if cls.inflationary is None else cls.inflationary)
    print(f"inflationary (Thm 5.2 test): {inflationary}", file=out)
    print(f"multi-separable (Thm 6.5):   {cls.multi_separable}",
          file=out)
    print(f"separable ([7]):             {cls.separable}", file=out)
    print(f"forward:                     {cls.forward}", file=out)
    print(f"provably tractable:          {cls.provably_tractable}",
          file=out)
    if cls.report.predicate_kinds:
        print("recursive predicate kinds:", file=out)
        for pred, kind in sorted(cls.report.predicate_kinds.items()):
            print(f"  {pred}: {kind}", file=out)


def cmd_run(args, out: TextIO) -> int:
    tdd = _load(args)
    print(f"rules: {len(tdd.rules)}   database: n={tdd.database.n}, "
          f"c={tdd.database.c}", file=out)
    _print_period(tdd, out)
    _print_spec(tdd, out)
    _print_classification(tdd, out)
    return 0


def cmd_ask(args, out: TextIO) -> int:
    tdd = _load(args)
    verdict = tdd.ask(args.query)
    print("yes" if verdict else "no", file=out)
    return 0 if verdict else 1


def cmd_answers(args, out: TextIO) -> int:
    tdd = _load(args)
    answers = tdd.answers(args.query)
    names = [name for name, _ in answers.variables]
    print(f"variables: {', '.join(names) if names else '(closed)'}",
          file=out)
    print(f"canonical answers: {len(answers)}"
          f"{'  (infinite set)' if answers.is_infinite else ''}",
          file=out)
    print(f"rewrite system: {answers.rewrites}", file=out)
    shown = args.expand
    if shown is not None:
        print(f"answers with timepoints <= {shown}:", file=out)
        for substitution in answers.expand(shown):
            rendered = ", ".join(f"{k}={substitution[k]}" for k in names)
            print(f"  {rendered}", file=out)
    else:
        for substitution in answers:
            rendered = ", ".join(f"{k}={substitution[k]}" for k in names)
            print(f"  {rendered}", file=out)
    return 0


def cmd_classify(args, out: TextIO) -> int:
    tdd = _load(args)
    _print_classification(tdd, out)
    return 0


def cmd_spec(args, out: TextIO) -> int:
    tdd = _load(args)
    _print_spec(tdd, out)
    if args.save:
        save_spec(tdd.specification(), args.save)
        print(f"saved to {args.save}", file=out)
    return 0


def cmd_analyze(args, out: TextIO) -> int:
    tdd = _load(args)
    from .core.analysis import analyze
    report = analyze(tdd.rules, tdd.database.facts(),
                     query=args.query)
    if args.format == "json":
        import json as _json
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True),
              file=out)
    else:
        print(report.render(), file=out)
    return 0 if not report.warnings else 1


def cmd_lint(args, out: TextIO) -> int:
    from .analysis import (gate, lint_text, render_json, render_sarif,
                           render_text)
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    results = []
    for path in args.files:
        text = Path(path).read_text()
        results.append(lint_text(text, path, select=select,
                                 ignore=ignore, query=args.query))
    if args.format == "json":
        print(render_json(results), file=out)
    elif args.format == "sarif":
        print(render_sarif(results), file=out)
    else:
        rendered = render_text(results)
        if rendered:
            print(rendered, file=out)
    all_diagnostics = [d for r in results for d in r.diagnostics]
    return 1 if gate(all_diagnostics, args.max_severity) else 0


def cmd_timeline(args, out: TextIO) -> int:
    tdd = _load(args)
    from .temporal.intervals import timeline
    result = tdd.evaluate()
    predicates = (args.predicates.split(",") if args.predicates
                  else sorted(result.store.temporal_predicates()))
    until = min(args.until, result.horizon)
    print(timeline(result.store, predicates, until), file=out)
    period = result.period
    if period is not None:
        print(f"\nperiod: (b={period.b}, p={period.p}) — the pattern "
              f"repeats every {period.p} from {period.b}", file=out)
    return 0


def cmd_profile(args, out: TextIO) -> int:
    from .engines import PROFILE_ENGINES
    from .obs.profile import (profile_tdd, render_folded, render_json,
                              render_table)
    if args.engine not in PROFILE_ENGINES:
        # Same shape as the registry's own error, but emitted before
        # any file I/O so `--engine typo` fails fast with exit 2.
        print(f"error: unknown engine {args.engine!r}; choose from "
              f"{', '.join(PROFILE_ENGINES)}", file=sys.stderr)
        return 2
    tdd, text = _parse_file(args.file)
    stats, tracer = _obs(args)
    query = (None if args.query is None
             else _ground_atom(tdd, args.query, "profile --query"))
    if tracer is not None:
        tracer.emit_run_start(args.engine, program=args.file, text=text)
    report = profile_tdd(tdd, args.file, engine=args.engine,
                         query=query, stats=stats)
    if args.folded:
        print(render_folded(report), file=out)
    elif args.format == "json":
        print(render_json(report), file=out)
    else:
        print(render_table(report), file=out)
    return 0


def cmd_traceview(args, out: TextIO) -> int:
    from .lang.errors import ParseError
    from .obs.traceview import parse_trace, render_summary, summarize
    try:
        text = Path(args.trace_file).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read trace file: {exc}", file=sys.stderr)
        return 2
    try:
        events = parse_trace(text)
    except ParseError as exc:
        raise _SourceError(args.trace_file, text, exc) from exc
    print(render_summary(summarize(events), args.trace_file), file=out)
    return 0


def cmd_explain(args, out: TextIO) -> int:
    from .lang.errors import EvaluationError
    tdd = _load(args)
    atom = _ground_atom(tdd, args.fact, "explain")
    # Record provenance up front so `explain` returns the proof the
    # engine actually built (constant-time per node); the search-based
    # reconstruction remains the fallback for facts outside the store.
    tdd.provenance()
    try:
        derivation = tdd.explain(atom)
    except EvaluationError as exc:
        # Underivable is a "no" answer (like `ask`), not a usage error.
        print(f"no: {exc}", file=out)
        return 1
    print(derivation.render(), file=out)
    return 0


def _fold_to_window(tdd: TDD, fact):
    """Fold a beyond-horizon ground fact through the period — its
    derivation is the folded representative's, by periodicity."""
    from .lang.atoms import Fact
    result = tdd.evaluate()
    if (fact.time is not None and fact.time > result.horizon
            and result.period is not None):
        return Fact(fact.pred, result.period.fold(fact.time), fact.args)
    return fact


def cmd_why(args, out: TextIO) -> int:
    from .obs.provenance import render_proof
    tdd = _load(args)
    atom = _ground_atom(tdd, args.fact, "why")
    provenance = tdd.provenance()
    result = tdd.evaluate()
    fact = atom.to_fact()
    folded = _fold_to_window(tdd, fact)
    derivation = provenance.derivation(folded, database=tdd.database)
    if derivation is None:
        print(f"no: {folded} is not in the least model "
              f"(try `repro whynot`)", file=out)
        return 1
    problems = provenance.verify(folded, tdd.database, result.store)
    if problems:
        for problem in problems:
            print(f"error: recorded proof fails verification: "
                  f"{problem}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(provenance.to_json(root=folded), file=out)
    elif args.format == "dot":
        print(provenance.to_dot(root=folded), file=out)
    else:
        if folded != fact:
            period = result.period
            print(f"{fact} folds to {folded} through the period "
                  f"(b={period.b}, p={period.p})", file=out)
        print(render_proof(derivation, path=args.file), file=out)
    return 0


def cmd_whynot(args, out: TextIO) -> int:
    from .obs.provenance import why_not
    tdd = _load(args)
    atom = _ground_atom(tdd, args.fact, "whynot")
    result = tdd.evaluate()
    fact = atom.to_fact()
    folded = _fold_to_window(tdd, fact)
    report = why_not(tdd.rules, result.store, folded)
    if args.format == "json":
        import json as _json
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True),
              file=out)
    else:
        if folded != fact:
            period = result.period
            print(f"{fact} folds to {folded} through the period "
                  f"(b={period.b}, p={period.p})", file=out)
        print(report.render(args.file), file=out)
    # A present fact is the wrong tool (like `ask`'s "yes" exiting 0,
    # the caller asked the inverse question).
    return 1 if report.in_model else 0


def cmd_serve(args, out: TextIO) -> int:
    if getattr(args, "workers", 0):
        return _cmd_serve_tier(args, out)
    from .obs import Telemetry
    from .serve import (AccessLog, Collector, QueryService, SpecCache,
                        make_server)
    cache = SpecCache(args.cache) if args.cache else SpecCache()
    stats, tracer = _obs(args)
    collector = None if args.no_collect else Collector()
    # `--trace FILE` on serve exports schema-3 span events: one
    # `span` line per request phase, same sink machinery as engine
    # traces.
    service = QueryService(cache=cache,
                           default_deadline=args.deadline,
                           telemetry=Telemetry(tracer,
                                               collector=collector),
                           engine=args.engine,
                           max_predicted_cost=args.max_predicted_cost,
                           collect=collector)
    if tracer is not None and tracer.enabled:
        # A self-describing trace: the header ties the span stream to
        # the tool version and schema before the first request.
        tracer.emit_run_start("serve")
    access_log = None
    if args.access_log:
        try:
            access_log = AccessLog(args.access_log)
        except OSError as exc:
            print(f"error: cannot open access log: {exc}",
                  file=sys.stderr)
            return 2
    try:
        server = make_server(service, host=args.host, port=args.port,
                             quiet=not args.verbose,
                             access_log=access_log,
                             slow_ms=args.slow_ms,
                             collector=collector)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        if access_log is not None:
            access_log.close()
        return 2
    host, port = server.server_address[:2]
    where = args.cache if args.cache else "(in-memory)"
    print(f"serving on http://{host}:{port}  cache: {where}",
          file=out, flush=True)
    extra = "" if args.no_collect else " /trace/<id> /profile"
    print(f"POST /query   GET /stats /metrics /healthz{extra}   "
          "— Ctrl-C stops", file=out, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if access_log is not None:
            access_log.close()
        if stats is not None:
            service.attach_stats(stats)
    return 0


def _cmd_serve_tier(args, out: TextIO) -> int:
    """``repro serve --workers N``: the multi-process tier.

    Spawns N supervised worker processes, each a full single-process
    server on a loopback port, and binds the consistent-hash routing
    front-end over them.  ``--cache FILE`` is what makes the tier
    share work: every worker opens the same SQLite spec cache, so a
    spec computed by one worker is a disk hit for its successor after
    a crash.  Without it each worker keeps a private in-memory cache —
    still correct (routing pins each program to one worker), just no
    cross-process fallback.
    """
    from .obs import Telemetry
    from .serve import (AccessLog, Collector, WorkerConfig,
                        WorkerError, WorkerPool, make_frontend)
    if args.workers < 1:
        print(f"error: --workers must be positive, got {args.workers}",
              file=sys.stderr)
        return 2
    stats, tracer = _obs(args)
    access_log = None
    if args.access_log:
        try:
            access_log = AccessLog(args.access_log)
        except OSError as exc:
            print(f"error: cannot open access log: {exc}",
                  file=sys.stderr)
            return 2
    config = WorkerConfig(cache=args.cache, engine=args.engine,
                          deadline=args.deadline,
                          max_predicted_cost=args.max_predicted_cost)
    collector = None if args.no_collect else Collector()
    # Bind the front-end *before* starting the pool: the front-end's
    # port is what arms every worker's collect URL, and workers only
    # read their config at spawn time.
    pool = WorkerPool(args.workers, config)
    try:
        frontend = make_frontend(pool, host=args.host, port=args.port,
                                 quiet=not args.verbose,
                                 access_log=access_log,
                                 slow_ms=args.slow_ms,
                                 telemetry=Telemetry(tracer),
                                 collector=collector)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        if access_log is not None:
            access_log.close()
        return 2
    try:
        pool.start()
    except WorkerError as exc:
        print(f"error: cannot start workers: {exc}", file=sys.stderr)
        frontend.server_close()
        if access_log is not None:
            access_log.close()
        return 2
    if tracer is not None and tracer.enabled:
        tracer.emit_run_start("serve")
    host, port = frontend.server_address[:2]
    where = args.cache if args.cache else "(per-worker memory)"
    print(f"serving on http://{host}:{port}  "
          f"workers: {args.workers}  cache: {where}",
          file=out, flush=True)
    extra = "" if args.no_collect else " /trace/<id> /profile"
    print(f"POST /query   GET /stats /metrics /healthz{extra}   "
          "— Ctrl-C stops", file=out, flush=True)
    try:
        frontend.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        frontend.server_close()
        # Stats aggregation polls the workers, so it must run before
        # the pool goes down.
        if stats is not None:
            frontend.attach_stats(stats)
        pool.close()
        if access_log is not None:
            access_log.close()
    return 0


def cmd_top(args, out: TextIO) -> int:
    from .serve import TopError, run_top
    url = args.url if args.url else f"http://{args.host}:{args.port}"
    url = url.rstrip("/")
    try:
        return run_top(url, out, interval=args.interval,
                       iterations=args.iterations)
    except TopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _fetch_json(url: str, path: str, timeout: float = 5.0) -> dict:
    """GET one JSON endpoint of a running server."""
    import json as _json
    import urllib.request
    with urllib.request.urlopen(url + path, timeout=timeout) as reply:
        return _json.loads(reply.read())


def cmd_trace(args, out: TextIO) -> int:
    """``repro trace ls|show``: the server-side trace store."""
    import urllib.error
    url = args.url if args.url else f"http://{args.host}:{args.port}"
    url = url.rstrip("/")
    try:
        if args.trace_command == "ls":
            payload = _fetch_json(url, "/trace")
            rows = payload.get("traces", [])
            if not rows:
                print("(no retained traces)", file=out)
                return 0
            print(f"{'trace id':<32} {'root':<14} {'ms':>9} "
                  f"{'spans':>5} {'derives':>7} workers", file=out)
            for row in rows:
                duration = row.get("duration_ms")
                shown = "-" if duration is None else f"{duration:.1f}"
                workers = ",".join(str(w) for w in row.get("workers", []))
                print(f"{row['trace_id'][:32]:<32} "
                      f"{(row.get('root') or '-')[:14]:<14} "
                      f"{shown:>9} {row['spans']:>5} "
                      f"{row['derives']:>7} {workers or '-'}", file=out)
            return 0
        # show
        payload = _fetch_json(url, f"/trace/{args.trace_id}")
        if args.format == "json":
            import json as _json
            print(_json.dumps(payload, indent=2, sort_keys=True),
                  file=out)
        else:
            from .obs.collector import render_trace_tree
            print(render_trace_tree(payload), file=out)
        return 0
    except urllib.error.HTTPError as exc:
        try:
            import json as _json
            detail = _json.loads(exc.read()).get("error", str(exc))
        except ValueError:
            detail = str(exc)
        print(f"error: {detail}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
        return 2


def _format_created(created: Union[float, None]) -> str:
    if created is None:
        return "-"
    from datetime import datetime, timezone
    stamp = datetime.fromtimestamp(created, tz=timezone.utc)
    return stamp.strftime("%Y-%m-%d %H:%M:%S")


def cmd_cache(args, out: TextIO) -> int:
    import sqlite3

    from .serve import SpecCache
    cache = SpecCache(args.cache_file)
    try:
        return _cmd_cache(args, out, cache)
    except sqlite3.Error as exc:
        print(f"error: {args.cache_file} is not a usable spec cache: "
              f"{exc}", file=sys.stderr)
        return 2


def _cmd_cache(args, out: TextIO, cache) -> int:
    if args.cache_command == "ls":
        entries = cache.entries()
        if not entries:
            print("(empty cache)", file=out)
            return 0
        print(f"{'key':<16} {'format':>6} {'bytes':>10} created (UTC)",
              file=out)
        for entry in entries:
            size = "-" if entry["bytes"] is None else entry["bytes"]
            print(f"{entry['key'][:16]:<16} {entry['format']:>6} "
                  f"{size:>10} {_format_created(entry['created'])}",
                  file=out)
        return 0
    if args.cache_command == "rm":
        if args.all:
            removed = cache.clear()
            print(f"removed {removed} entries", file=out)
            return 0
        if args.key is None:
            print("error: cache rm needs a KEY or --all",
                  file=sys.stderr)
            return 2
        matches = [entry["key"] for entry in cache.entries()
                   if entry["key"].startswith(args.key)]
        if not matches:
            print(f"error: no cache entry matches {args.key!r}",
                  file=sys.stderr)
            return 1
        if len(matches) > 1:
            print(f"error: {args.key!r} is ambiguous "
                  f"({len(matches)} entries match)", file=sys.stderr)
            return 1
        cache.invalidate(matches[0])
        print(f"removed {matches[0]}", file=out)
        return 0
    # stats
    entries = cache.entries()
    total = sum(entry["bytes"] or 0 for entry in entries)
    print(f"path:    {args.cache_file}", file=out)
    print(f"entries: {len(entries)}", file=out)
    print(f"bytes:   {total}", file=out)
    return 0


def cmd_repl(args, out: TextIO,
             input_stream: Union[TextIO, None] = None) -> int:
    tdd = _load(args)
    stream = input_stream if input_stream is not None else sys.stdin
    print(f"loaded {args.file}; enter queries, :help for commands",
          file=out)
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if line in (":quit", ":q", ":exit"):
            break
        if line == ":help":
            print(":period :spec :classify :timeline [N] "
                  ":explain FACT :quit — or any query", file=out)
            continue
        if line == ":period":
            _print_period(tdd, out)
            continue
        if line == ":spec":
            _print_spec(tdd, out)
            continue
        if line == ":classify":
            _print_classification(tdd, out)
            continue
        if line.startswith(":timeline"):
            parts = line.split()
            until = int(parts[1]) if len(parts) > 1 else 40
            print(tdd.timeline(until=min(until,
                                         tdd.evaluate().horizon)),
                  file=out)
            continue
        if line.startswith(":explain "):
            try:
                from .core.queries import AtomQ, parse_query
                query = parse_query(line[len(":explain "):],
                                    tdd.temporal_preds)
                if not isinstance(query, AtomQ) or \
                        not query.atom.is_ground:
                    print("error: :explain needs a ground atom",
                          file=out)
                    continue
                print(tdd.explain(query.atom).render(), file=out)
            except ReproError as exc:
                print(f"error: {exc}", file=out)
            continue
        try:
            from .core.queries import free_variables
            query = tdd._coerce_query(line)
            if free_variables(query):
                answers = tdd.answers(query)
                print(f"{len(answers)} canonical answers"
                      f"{' (infinite set)' if answers.is_infinite else ''}:",
                      file=out)
                for substitution in answers:
                    print(f"  {substitution}", file=out)
            else:
                print("yes" if tdd.ask(query) else "no", file=out)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal deductive databases (Chomicki, PODS 1990)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags, shared by every subcommand.
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument("--stats", action="store_true",
                     help="print evaluation statistics (rounds, deltas, "
                          "join probes, period) after the command")
    obs.add_argument("--trace", metavar="FILE", default=None,
                     help="write a JSON-lines evaluation trace to FILE")
    obs.add_argument("--trace-provenance", type=int, default=None,
                     metavar="N",
                     help="with --trace: record derivation provenance "
                          "and emit every Nth support edge as a "
                          "schema-4 `derive` trace event")

    run = sub.add_parser("run", parents=[obs],
                         help="evaluate a program file")
    run.add_argument("file")
    run.set_defaults(func=cmd_run)

    # Spec-cache flag, shared by the query-answering subcommands.
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--cache", metavar="FILE", default=None,
                        help="content-addressed spec cache (SQLite); "
                             "warm hits skip BT entirely")
    cached.add_argument("--engine",
                        choices=("bt", "seminaive", "compiled"),
                        default="bt",
                        help="window engine driving BT (compiled: "
                             "interned constants + indexed join plans; "
                             "same answers, faster fixpoints; "
                             "seminaive is the generic reference loop)")

    ask = sub.add_parser("ask", parents=[obs, cached],
                         help="yes/no query")
    ask.add_argument("file")
    ask.add_argument("query")
    ask.set_defaults(func=cmd_ask)

    answers = sub.add_parser("answers", parents=[obs, cached],
                             help="open query answers")
    answers.add_argument("file")
    answers.add_argument("query")
    answers.add_argument("--expand", type=int, default=None,
                         metavar="N",
                         help="expand temporal answers up to timepoint N")
    answers.set_defaults(func=cmd_answers)

    classify = sub.add_parser("classify", parents=[obs],
                              help="tractable-class membership")
    classify.add_argument("file")
    classify.set_defaults(func=cmd_classify)

    spec = sub.add_parser("spec", parents=[obs, cached],
                          help="relational specification")
    spec.add_argument("file")
    spec.add_argument("--save", metavar="OUT.json", default=None)
    spec.set_defaults(func=cmd_spec)

    analyze = sub.add_parser("analyze", parents=[obs],
                             help="static analysis and lints")
    analyze.add_argument("file")
    analyze.add_argument("--query", default=None, metavar="PRED",
                         help="query predicate: arms the reachability "
                              "checks (TDD018/TDD019) and reports the "
                              "reachable rule slice")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text")
    analyze.set_defaults(func=cmd_analyze)

    lint = sub.add_parser("lint",
                          help="span-aware diagnostics (text/JSON/SARIF)")
    lint.add_argument("files", nargs="+", metavar="FILE")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated codes or names to run "
                           "(e.g. TDD002,unsafe-negation)")
    lint.add_argument("--ignore", default=None, metavar="CODES",
                      help="comma-separated codes or names to skip")
    lint.add_argument("--max-severity",
                      choices=("info", "warning", "error"),
                      default="warning",
                      help="worst severity tolerated before exiting 1 "
                           "(default: warning, i.e. errors gate)")
    lint.add_argument("--query", default=None, metavar="PRED",
                      help="query predicate: arms the query-gated "
                           "reachability checks (TDD018/TDD019)")
    lint.set_defaults(func=cmd_lint)

    timeline = sub.add_parser("timeline", parents=[obs],
                              help="ASCII timeline of the model")
    timeline.add_argument("file")
    timeline.add_argument("--until", type=int, default=40)
    timeline.add_argument("--predicates", default=None,
                          help="comma-separated predicate filter")
    timeline.set_defaults(func=cmd_timeline)

    profile = sub.add_parser(
        "profile", parents=[obs],
        help="per-rule hot-rule profile (time, firings, duplicates)")
    profile.add_argument("file")
    profile.add_argument("--engine", default="bt", metavar="ENGINE",
                         help="engine to profile: bt, compiled, "
                              "verbatim, interval, magic, topdown "
                              "(default: bt; magic and topdown need "
                              "--query); validated against the engine "
                              "registry")
    profile.add_argument("--query", default=None, metavar="Q",
                         help="ground atom goal for the goal-directed "
                              "engines")
    profile.add_argument("--format", choices=("text", "json"),
                         default="text")
    profile.add_argument("--folded", action="store_true",
                         help="emit folded stacks for flamegraph.pl / "
                              "speedscope instead of the table")
    profile.set_defaults(func=cmd_profile)

    traceview = sub.add_parser(
        "traceview",
        help="summarize a JSON-lines trace (rounds, phases, period)")
    traceview.add_argument("trace_file", metavar="TRACE.jsonl")
    traceview.set_defaults(func=cmd_traceview)

    explain = sub.add_parser(
        "explain", parents=[obs],
        help="derivation tree justifying a model fact")
    explain.add_argument("file")
    explain.add_argument("fact", metavar="FACT",
                         help="ground atom to justify, e.g. 'even(4)'")
    explain.set_defaults(func=cmd_explain)

    why = sub.add_parser(
        "why", parents=[obs, cached],
        help="recorded, verified proof tree for a model fact")
    why.add_argument("file")
    why.add_argument("fact", metavar="FACT",
                     help="ground atom to justify, e.g. 'even(4)'")
    why.add_argument("--format", choices=("text", "json", "dot"),
                     default="text",
                     help="indented text tree (default), JSON "
                          "node/edge lists, or Graphviz DOT")
    why.set_defaults(func=cmd_why)

    whynot = sub.add_parser(
        "whynot", parents=[obs, cached],
        help="nearest failed rule firings for an absent fact")
    whynot.add_argument("file")
    whynot.add_argument("fact", metavar="FACT",
                        help="ground atom to refute, e.g. 'even(3)'")
    whynot.add_argument("--format", choices=("text", "json"),
                        default="text")
    whynot.set_defaults(func=cmd_whynot)

    repl = sub.add_parser("repl", parents=[obs],
                          help="interactive query loop")
    repl.add_argument("file")
    repl.set_defaults(func=cmd_repl)

    serve = sub.add_parser(
        "serve", parents=[obs],
        help="HTTP query service over cached specifications")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="multi-process tier: consistent-hash "
                            "route on the program text to N worker "
                            "processes (default 0 = serve in-process);"
                            " combine with --cache to share specs "
                            "across workers")
    serve.add_argument("--cache", metavar="FILE", default=None,
                       help="persistent spec cache (SQLite); default "
                            "is in-memory only")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-request spec-computation "
                            "budget; exceeded budgets degrade to "
                            "windowed evaluation")
    serve.add_argument("--engine", choices=("bt", "compiled"),
                       default="bt",
                       help="window engine for spec computations and "
                            "degraded evaluations (requests may "
                            "override per-request)")
    serve.add_argument("--max-predicted-cost", type=float,
                       default=None, metavar="COST",
                       help="admission control: refuse programs whose "
                            "static cost estimate (see repro analyze) "
                            "exceeds COST probe units")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request")
    serve.add_argument("--access-log", metavar="FILE", default=None,
                       help="structured JSON access log (one line per "
                            "HTTP request: trace id, program sha, "
                            "kind, cache state, status, duration)")
    serve.add_argument("--slow-ms", type=float, default=None,
                       metavar="MS",
                       help="dump the full span tree of any request "
                            "slower than MS milliseconds (to the "
                            "access log, else stderr)")
    serve.add_argument("--no-collect", action="store_true",
                       help="disable the trace/profile collector "
                            "(GET /trace/<id>, GET /profile, the "
                            "repro_rule_seconds_total and "
                            "repro_collector_* metrics and, under "
                            "--workers, the POST /ingest shipping "
                            "path)")
    serve.set_defaults(func=cmd_serve)

    top = sub.add_parser(
        "top",
        help="live dashboard over a running `repro serve` (/stats)")
    top.add_argument("--url", default=None, metavar="URL",
                     help="server base URL (default: "
                          "http://HOST:PORT)")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8765)
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="poll interval (default: 2.0)")
    top.add_argument("--iterations", type=int, default=None,
                     metavar="N",
                     help="stop after N refreshes (default: run "
                          "until Ctrl-C)")
    top.set_defaults(func=cmd_top)

    cache = sub.add_parser("cache",
                           help="inspect or prune a spec cache file")
    cache_sub = cache.add_subparsers(dest="cache_command",
                                     required=True)
    cache_ls = cache_sub.add_parser("ls", help="list cached specs")
    cache_ls.add_argument("cache_file", metavar="CACHE.sqlite")
    cache_rm = cache_sub.add_parser("rm", help="remove cached specs")
    cache_rm.add_argument("cache_file", metavar="CACHE.sqlite")
    cache_rm.add_argument("key", nargs="?", default=None,
                          help="key (or unambiguous prefix) to remove")
    cache_rm.add_argument("--all", action="store_true",
                          help="remove every entry")
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count and payload bytes")
    cache_stats.add_argument("cache_file", metavar="CACHE.sqlite")
    cache.set_defaults(func=cmd_cache)

    trace_p = sub.add_parser(
        "trace",
        help="inspect the trace store of a running `repro serve`")
    trace_sub = trace_p.add_subparsers(dest="trace_command",
                                       required=True)
    trace_ls = trace_sub.add_parser(
        "ls", help="list retained traces (most recent first)")
    trace_show = trace_sub.add_parser(
        "show", help="render one assembled cross-process span tree")
    trace_show.add_argument("trace_id", metavar="TRACE_ID",
                            help="trace id (from `repro trace ls`, "
                                 "the X-Repro-Trace-Id response "
                                 "header, or the access log)")
    trace_show.add_argument("--format", choices=("text", "json"),
                            default="text")
    for trace_cmd in (trace_ls, trace_show):
        trace_cmd.add_argument("--url", default=None, metavar="URL",
                               help="server base URL (default: "
                                    "http://HOST:PORT)")
        trace_cmd.add_argument("--host", default="127.0.0.1")
        trace_cmd.add_argument("--port", type=int, default=8765)
    trace_p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Union[Sequence[str], None] = None,
         out: Union[TextIO, None] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    stream = out if out is not None else sys.stdout
    tracer = None
    if getattr(args, "trace", None):
        try:
            tracer = Tracer(JsonLinesSink(args.trace))
        except OSError as exc:
            print(f"error: cannot open trace file: {exc}",
                  file=sys.stderr)
            return 2
    if getattr(args, "trace_provenance", None) and tracer is None:
        print("error: --trace-provenance needs --trace FILE",
              file=sys.stderr)
        return 2
    show_stats = getattr(args, "stats", False)
    # The run's EvalStats records every traced event, so `--trace`
    # needs one even when `--stats` does not print it.
    stats = (EvalStats(tracer=tracer)
             if show_stats or tracer is not None else None)
    try:
        args._obs = stats
        code = args.func(args, stream)
        if show_stats:
            print("\n-- eval stats --", file=stream)
            print(stats.summary(), file=stream)
        return code
    except _SourceError as exc:
        _print_source_error(exc)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        # Unreadable program files (missing, a directory, wrong
        # encoding, permissions) exit cleanly instead of tracebacking.
        print(f"error: cannot read program file: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.close()
