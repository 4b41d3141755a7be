#!/usr/bin/env python3
"""Validates the observability exports a bench run produces.

Usage: check_observability.py <trace.json> <metrics.txt>
           [--statusz statusz.json] [--query-log query_log.jsonl]

Checks (the CI bench-smoke / server-smoke gates; see DESIGN.md §9, §13):
  - the trace file is non-empty, valid JSON, has a traceEvents list with
    at least one span event, and every 'B'/'E' pair matches per thread
    with non-decreasing per-thread timestamps;
  - the metrics file is non-empty Prometheus text: every metric has
    exactly one # HELP and one # TYPE line, names obey the Prometheus
    charset, and at least one x3_* sample is present;
  - with --statusz: the X3Server::Statusz() JSON snapshot has every
    schema field with the right type, plausible internal consistency
    (ratio in [0,1], ordered latency percentiles), and no in-flight
    queries left behind after a drained run;
  - with --query-log: the query-lifecycle JSONL has one well-formed
    record per line, the qids are unique AND dense (1..N — exactly one
    record per submitted query, none dropped), every record's stage
    list is well-formed, and slow records carry their flag honestly;
  - with both trace and --query-log: every qid a trace span carries
    references a logged query (spans never invent query ids).

Exit status 1 with a message on any violation.
"""

import argparse
import json
import re
import sys

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_LINE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{[^}]*\})? ")

# Field -> type(s) of the X3Server::Statusz() JSON schema.
STATUSZ_SCHEMA = {
    "uptime_seconds": (int, float),
    "num_threads": int,
    "queries_submitted": int,
    "queue_depth": int,
    "inflight": list,
    "shapes": list,
    "last_commit_lsn": int,
    "durable_lsn": int,
    "cache_bytes": int,
    "cache_views": int,
    "cache_evictions": int,
    "cache_hits": int,
    "rollup_answers": int,
    "cache_misses": int,
    "cache_hit_ratio": (int, float),
    "budget_capacity_bytes": int,
    "budget_used_bytes": int,
    "budget_peak_bytes": int,
    "admission_denied": int,
    "stuck_queries": int,
    "latency_p50_ms": (int, float),
    "latency_p95_ms": (int, float),
    "latency_p99_ms": (int, float),
}

# Field -> type(s) of one query-log JSONL record.
QUERY_LOG_SCHEMA = {
    "qid": int,
    "tenant": str,
    "shape_key": str,
    "queue_ms": (int, float),
    "latency_ms": (int, float),
    "exact_hits": int,
    "rollup_answers": int,
    "computed": bool,
    "cache_bypassed": bool,
    "budget_peak_bytes": int,
    "spill_bytes": int,
    "stages": list,
    "status": str,
    "error": str,
    "slow": bool,
    "slow_explain": str,
}


def fail(msg):
    print(f"check_observability: {msg}", file=sys.stderr)
    sys.exit(1)


def check_schema(obj, schema, where):
    for field, types in schema.items():
        if field not in obj:
            fail(f"{where}: missing field {field!r}")
        value = obj[field]
        # bool is an int subclass in Python; don't let True pass as int.
        if isinstance(value, bool) and types is not bool:
            fail(f"{where}: field {field!r} is bool, expected {types}")
        if not isinstance(value, types):
            fail(f"{where}: field {field!r} has type "
                 f"{type(value).__name__}, expected {types}")


def check_trace(path):
    """Returns the set of qids referenced by span args."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if not text.strip():
        fail(f"{path}: empty trace file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"{path}: invalid JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: no traceEvents list")
    spans = [e for e in events if e.get("ph") in ("B", "E")]
    if not spans:
        fail(f"{path}: no span events (was the tracer enabled?)")
    open_stacks = {}
    last_ts = {}
    qids = set()
    for e in spans:
        tid, ts = e["tid"], e["ts"]
        if tid in last_ts and ts < last_ts[tid]:
            fail(f"{path}: timestamps regress on tid {tid}")
        last_ts[tid] = ts
        stack = open_stacks.setdefault(tid, [])
        if e["ph"] == "B":
            stack.append(e["name"])
        else:
            if not stack or stack.pop() != e["name"]:
                fail(f"{path}: unmatched E '{e['name']}' on tid {tid}")
        qid = e.get("args", {}).get("qid")
        if qid is not None:
            if not isinstance(qid, int) or qid <= 0:
                fail(f"{path}: span '{e['name']}' has bad qid {qid!r}")
            qids.add(qid)
    for tid, stack in open_stacks.items():
        if stack:
            fail(f"{path}: unclosed span(s) {stack} on tid {tid}")
    print(f"check_observability: {path}: {len(spans)} span events, "
          f"{len(open_stacks)} thread(s), {len(qids)} distinct qids")
    return qids


def check_metrics(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        fail(f"{path}: empty metrics file")
    help_counts = {}
    type_counts = {}
    samples = 0
    for line in lines:
        if line.startswith("# HELP "):
            name = line.split()[2]
            help_counts[name] = help_counts.get(name, 0) + 1
        elif line.startswith("# TYPE "):
            name = line.split()[2]
            type_counts[name] = type_counts.get(name, 0) + 1
        elif line and not line.startswith("#"):
            m = SAMPLE_LINE.match(line)
            if not m:
                fail(f"{path}: unparseable sample line: {line!r}")
            if not METRIC_NAME.match(m.group("name")):
                fail(f"{path}: bad metric name: {m.group('name')!r}")
            samples += 1
    for name, count in list(help_counts.items()) + list(type_counts.items()):
        if count != 1:
            fail(f"{path}: metric {name} has {count} HELP/TYPE lines")
    if set(help_counts) != set(type_counts):
        fail(f"{path}: HELP/TYPE sets differ")
    if not any(n.startswith("x3_") for n in type_counts):
        fail(f"{path}: no x3_* metrics exported")
    if samples == 0:
        fail(f"{path}: no samples")
    print(f"check_observability: {path}: {len(type_counts)} metrics, "
          f"{samples} samples")


def check_statusz(path):
    """Returns the parsed statusz snapshot."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"{path}: invalid JSON: {e}")
    check_schema(doc, STATUSZ_SCHEMA, path)
    for i, q in enumerate(doc["inflight"]):
        check_schema(q, {"qid": int, "tenant": str, "stage": str,
                         "age_seconds": (int, float), "stuck": bool},
                     f"{path}: inflight[{i}]")
    for i, s in enumerate(doc["shapes"]):
        check_schema(s, {"key": str, "built_lsn": int, "fact_rows": int},
                     f"{path}: shapes[{i}]")
    if not 0 <= doc["cache_hit_ratio"] <= 1:
        fail(f"{path}: cache_hit_ratio {doc['cache_hit_ratio']} not in [0,1]")
    if not (0 <= doc["latency_p50_ms"] <= doc["latency_p95_ms"]
            <= doc["latency_p99_ms"]):
        fail(f"{path}: latency percentiles out of order: "
             f"p50={doc['latency_p50_ms']} p95={doc['latency_p95_ms']} "
             f"p99={doc['latency_p99_ms']}")
    if doc["durable_lsn"] > doc["last_commit_lsn"]:
        fail(f"{path}: durable_lsn {doc['durable_lsn']} ahead of "
             f"last_commit_lsn {doc['last_commit_lsn']}")
    if doc["inflight"]:
        fail(f"{path}: {len(doc['inflight'])} queries still in flight in a "
             f"post-drain snapshot")
    print(f"check_observability: {path}: {doc['queries_submitted']} queries, "
          f"{len(doc['shapes'])} shapes, hit ratio "
          f"{doc['cache_hit_ratio']:.3f}")
    return doc


def check_query_log(path, statusz=None):
    """Returns the set of logged qids."""
    with open(path, encoding="utf-8") as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        fail(f"{path}: empty query log")
    qids = set()
    for n, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{n}: invalid JSON: {e}")
        check_schema(rec, QUERY_LOG_SCHEMA, f"{path}:{n}")
        for i, stage in enumerate(rec["stages"]):
            check_schema(stage, {"label": str, "ms": (int, float),
                                 "rows": int, "bytes": int},
                         f"{path}:{n}: stages[{i}]")
        if rec["qid"] in qids:
            fail(f"{path}:{n}: duplicate qid {rec['qid']}")
        qids.add(rec["qid"])
        if rec["status"] == "OK" and rec["error"]:
            fail(f"{path}:{n}: OK record carries error {rec['error']!r}")
        if rec["slow_explain"] and not rec["slow"]:
            fail(f"{path}:{n}: slow_explain on a record not marked slow")
    # Dense qids: exactly one record per submitted query. (Holds as long
    # as the ring capacity covered the run, which the harness ensures.)
    if qids != set(range(1, len(qids) + 1)):
        missing = sorted(set(range(1, max(qids) + 1)) - qids)[:10]
        fail(f"{path}: qids not dense 1..{len(qids)} "
             f"(first missing: {missing})")
    if statusz is not None and statusz["queries_submitted"] != len(qids):
        fail(f"{path}: {len(qids)} records but statusz reports "
             f"{statusz['queries_submitted']} submitted queries")
    print(f"check_observability: {path}: {len(qids)} records, "
          f"qids dense 1..{len(qids)}")
    return qids


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace JSON")
    parser.add_argument("metrics", help="Prometheus text file")
    parser.add_argument("--statusz", help="X3Server Statusz() JSON snapshot")
    parser.add_argument("--query-log", help="query-lifecycle JSONL file")
    args = parser.parse_args()

    trace_qids = check_trace(args.trace)
    check_metrics(args.metrics)
    statusz = check_statusz(args.statusz) if args.statusz else None
    if args.query_log:
        logged = check_query_log(args.query_log, statusz)
        stray = trace_qids - logged
        if stray:
            fail(f"{args.trace}: span qids with no query-log record: "
                 f"{sorted(stray)[:10]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
