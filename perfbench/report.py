"""Percentiles and the per-layer metrics derived from recorded spans."""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Dict, Iterable, List, Sequence

from .layers import GROUPS, LAYER_GROUPS, ROUTES
from .tracer import self_times

NS = 1e9


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (*q* in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def group_of(span_name: str) -> str:
    return GROUPS.get(span_name.split(".", 1)[0], "")


#: the end-to-end metrics an untraced run prints, with their units
E2E_UNITS = {
    "setup_s": "s",
    "stmt_per_s": "1/s",
    "stmt_latency_p50_us": "us",
    "stmt_latency_p99_ms": "ms",
    "stmt_latency_p999_ms": "ms",
    "time_to_recall_s": "s",
    "stmts_to_recall": "count",
    "job_turnaround_s_p50": "s",
    "http_latency_ms_p50": "ms",
    "http_latency_ms_p95": "ms",
    "peak_rss_mb": "MiB",
}

#: every per-layer metric a traced run prints (0 where the layer never ran)
PER_LAYER = (
    [
        "collect.s", "dialect.build_s",
        "patterns.s", "patterns.cases",
        "sqlast.lex_s", "sqlast.parse_s", "sqlast.parse_calls",
        "stmtcache.fetch_s", "stmtcache.hits", "stmtcache.misses",
        "stmtcache.hit_rate", "stmtcache.invalidations",
        "compiler.compiled_executions", "compiler.fallbacks",
        "optimizer.s", "engine.execute_s",
        "coerce.s", "coerce.calls", "coerce.max_digits",
        "runner.s", "runner.restarts", "runner.tail_share",
        "oracles.crash.observe_s", "oracles.tlp.observe_s",
        "oracles.norec.observe_s", "oracles.arm_executions",
        "oracles.compared_ratio", "flaws.lookup_s", "flaws.lookup_calls",
        "parallel.spawn_s", "parallel.worker_busy_s.w0",
        "parallel.worker_busy_s.w1", "parallel.imbalance", "parallel.merge_s",
        "checkpoint.saves", "checkpoint.save_s",
        "minimize.calls", "minimize.s",
        "bugrepo.record_s", "bugrepo.new", "bugrepo.dup", "bugrepo.replay_s",
        "storage.writes", "storage.write_s", "storage.reads", "storage.read_s",
        "storage.retries", "storage.lost_writes",
        "scheduler.queue_wait_s_p50",
        "server.requests",
    ]
    + [f"server.handle_s.{route}" for route in ROUTES]
    + [f"share.{group}" for group in LAYER_GROUPS]
    + ["share.unattributed", "trace.layer_coverage", "trace.wall_s", "trace.stmt_per_s"]
)

PER_LAYER_UNITS = {
    "patterns.cases": "count", "sqlast.parse_calls": "count",
    "stmtcache.hits": "count", "stmtcache.misses": "count",
    "stmtcache.hit_rate": "ratio", "stmtcache.invalidations": "count",
    "compiler.compiled_executions": "count", "compiler.fallbacks": "count",
    "coerce.calls": "count", "coerce.max_digits": "digits",
    "runner.restarts": "count", "runner.tail_share": "ratio",
    "oracles.arm_executions": "count", "oracles.compared_ratio": "ratio",
    "flaws.lookup_calls": "count", "parallel.imbalance": "ratio",
    "checkpoint.saves": "count", "minimize.calls": "count",
    "bugrepo.new": "count", "bugrepo.dup": "count",
    "storage.writes": "count", "storage.reads": "count",
    "storage.retries": "count", "storage.lost_writes": "count",
    "server.requests": "count", "trace.layer_coverage": "ratio",
    "trace.stmt_per_s": "1/s",
}


def unit_of(name: str) -> str:
    if name.startswith("share."):
        return "ratio"
    return PER_LAYER_UNITS.get(name, "s")


def derive(
    exports: Iterable[Dict[str, Any]], main_pid: int, wall_s: float
) -> Dict[str, float]:
    """Per-layer metrics from every process's spans and counters.

    Time metrics are self time (span duration minus the time its children
    cover), except the whole-call durations: ``parallel.*``,
    ``checkpoint.save_s``, ``minimize.s``, ``bugrepo.*_s``, ``storage.*_s``
    and ``server.handle_s.*``.
    """
    self_ns: Counter = Counter()
    incl_ns: Counter = Counter()
    calls: Counter = Counter()
    group_self: Counter = Counter()
    counts: Counter = Counter()
    maxima: Dict[str, float] = {}
    runner_ns: List[int] = []
    arm_executions = 0
    shards: List[tuple] = []   # (worker, start, end), every unit
    parent_run_ends: List[int] = []
    for export in exports:
        spans = export["spans"]
        own = self_times(spans)
        name_of = {span[0]: span[2] for span in spans}
        parent_of = {span[0]: span[1] for span in spans}
        under_oracle: Dict[int, bool] = {}

        def in_oracle(sid: int) -> bool:
            trail = []
            answer = False
            while sid:
                if sid in under_oracle:
                    answer = under_oracle[sid]
                    break
                trail.append(sid)
                name = name_of.get(sid, "")
                if name.startswith("oracles.") and name.endswith(".observe"):
                    answer = True
                    break
                sid = parent_of.get(sid, 0)
            for seen in trail:
                under_oracle[seen] = answer
            return answer

        for sid, parent, name, start, end in spans:
            self_ns[name] += own[sid]
            incl_ns[name] += end - start
            calls[name] += 1
            group_self[group_of(name)] += own[sid]
            if name == "runner.run":
                runner_ns.append(end - start)
                if export["pid"] == main_pid:
                    parent_run_ends.append(end)
            elif name == "engine.execute" and in_oracle(parent):
                arm_executions += 1
            elif name.startswith("parallel.shard.w"):
                shards.append((name.rsplit(".", 1)[1], start, end))
        counts.update(export["counts"])
        for key, value in export["maxima"].items():
            maxima[key] = max(value, maxima.get(key, value))

    def s(name: str) -> float:
        return self_ns[name] / NS

    def whole(name: str) -> float:
        return incl_ns[name] / NS

    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    m["collect.s"] = s("collect.collect")
    m["dialect.build_s"] = s("dialect.build")
    m["patterns.s"] = s("patterns.init") + s("patterns.generate") + s("patterns.render")
    m["patterns.cases"] = counts["patterns.cases"]
    m["sqlast.lex_s"] = s("sqlast.lex")
    m["sqlast.parse_s"] = s("sqlast.parse")
    m["sqlast.parse_calls"] = calls["sqlast.parse"]
    m["stmtcache.fetch_s"] = s("stmtcache.fetch")
    m["stmtcache.hits"] = counts["stmtcache.hits"]
    m["stmtcache.misses"] = counts["stmtcache.misses"]
    lookups = counts["stmtcache.hits"] + counts["stmtcache.misses"]
    m["stmtcache.hit_rate"] = counts["stmtcache.hits"] / lookups if lookups else 0.0
    m["stmtcache.invalidations"] = counts["stmtcache.invalidations"]
    m["compiler.compiled_executions"] = counts["compiler.compiled_executions"]
    m["compiler.fallbacks"] = counts["compiler.fallbacks"]
    m["optimizer.s"] = s("optimizer.optimize")
    m["engine.execute_s"] = s("engine.execute")
    m["coerce.s"] = s("coerce.helper")
    m["coerce.calls"] = calls["coerce.helper"]
    m["coerce.max_digits"] = maxima.get("coerce.max_digits", 0)
    m["runner.s"] = s("runner.run")
    m["runner.restarts"] = counts["runner.restarts"]
    if runner_ns:
        ordered = sorted(runner_ns, reverse=True)
        tail = max(1, len(ordered) // 1000)
        m["runner.tail_share"] = sum(ordered[:tail]) / sum(ordered)
    for oracle in ("crash", "tlp", "norec"):
        m[f"oracles.{oracle}.observe_s"] = s(f"oracles.{oracle}.observe")
    m["oracles.arm_executions"] = arm_executions
    if counts["metamorphic.checked"]:
        m["oracles.compared_ratio"] = (
            counts["metamorphic.compared"] / counts["metamorphic.checked"]
        )
    m["flaws.lookup_s"] = s("flaws.lookup")
    m["flaws.lookup_calls"] = calls["flaws.lookup"]
    if shards:
        # spawn: from the parent's last seed-phase statement to the first
        # shard that starts after it, once per sharded campaign
        first_after: Dict[int, int] = {}
        for _worker, start, _end in shards:
            before = [end for end in parent_run_ends if end <= start]
            if before:
                anchor = max(before)
                first_after[anchor] = min(start, first_after.get(anchor, start))
        m["parallel.spawn_s"] = sum(s - a for a, s in first_after.items()) / NS
        busy: Dict[str, float] = {}
        for worker, start, end in shards:
            busy[worker] = busy.get(worker, 0.0) + (end - start) / NS
        for worker, seconds in busy.items():
            key = f"parallel.worker_busy_s.{worker}"
            if key in m:
                m[key] = seconds
        m["parallel.imbalance"] = max(busy.values()) / (sum(busy.values()) / len(busy))
    m["parallel.merge_s"] = whole("parallel.merge")
    m["checkpoint.saves"] = calls["checkpoint.save"]
    m["checkpoint.save_s"] = whole("checkpoint.save")
    m["minimize.calls"] = calls["minimize.poc"]
    m["minimize.s"] = whole("minimize.poc")
    m["bugrepo.record_s"] = whole("bugrepo.record")
    m["bugrepo.new"] = counts["bugrepo.new"]
    m["bugrepo.dup"] = counts["bugrepo.dup"]
    m["bugrepo.replay_s"] = whole("bugrepo.replay")
    m["storage.writes"] = calls["storage.write"]
    m["storage.write_s"] = whole("storage.write")
    m["storage.reads"] = calls["storage.read"]
    m["storage.read_s"] = whole("storage.read")
    m["storage.retries"] = counts["storage.retries"]
    m["storage.lost_writes"] = counts["storage.lost_writes"]
    for route in ROUTES:
        name = f"server.handle.{route}"
        m[f"server.handle_s.{route}"] = whole(name)
        m["server.requests"] += calls[name]
    # a shard worker's own window is its shard span; the parent's is the
    # campaign wall, so shares stay within 0..1 under --jobs as well
    wall_ns = wall_s * NS + sum(end - start for _worker, start, end in shards)
    attributed = 0.0
    for group in LAYER_GROUPS:
        share = group_self[group] / wall_ns if wall_ns else 0.0
        m[f"share.{group}"] = share
        attributed += share
    m["share.unattributed"] = group_self[""] / wall_ns if wall_ns else 0.0
    m["trace.layer_coverage"] = attributed
    m["trace.wall_s"] = wall_s
    return m
