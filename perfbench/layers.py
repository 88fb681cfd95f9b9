"""Which program boundaries the benchmark instruments, and what it derives.

Two kinds of instrumentation, both installed from here and never from
inside the program:

* **probes** (untraced runs): three cheap CPU-time timers that the
  end-to-end metrics need — ``Runner.run`` plus ``OraclePipeline.observe``
  per stream position, and every ``Connection.execute`` call (the
  campaign's client calls into its simulated DBMS server) — and a host-speed
  sample between statements (:mod:`hostspeed`);
* **spans** (traced runs): one span around each call into a layer's
  public functions, from which :func:`derive` computes the per-layer
  metrics.

``perf.parallel._run_shard`` is wrapped in both modes: a forked shard
worker inherits every wrapper, and the shard wrapper writes the worker's
spans and probe samples to its own file when its share is done.
"""

from __future__ import annotations

import decimal
import json
import os
from time import perf_counter_ns, thread_time_ns
from typing import Any, Callable, Dict, List, Optional

from . import tracer as tr
from .hostspeed import Calibrator
from .tracer import TRACER, patch_function, patch_method, span_wrapper

# ---------------------------------------------------------------------------
# probes (untraced)
# ---------------------------------------------------------------------------


class Probe:
    """Per-process samples behind the end-to-end latency metrics.

    Statement and call latencies are CPU time of the calling thread (time
    the thread waited to be scheduled, or for the GIL, is the host's and
    the service's other threads', not the statement's); the host's speed
    is sampled alongside (:mod:`hostspeed`) so that both can be converted
    to reference time.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.last_run_cpu_ns = 0
        #: CPU time of Runner.run + OraclePipeline.observe per observed position
        self.stmt_cpu_ns: List[int] = []
        #: perf_counter_ns when each observed position finished
        self.stmt_end_ns: List[int] = []
        #: position -> perf_counter_ns of observes that returned findings
        self.found_at: Dict[int, int] = {}
        #: CPU time of each Connection.execute, and when it returned
        self.call_cpu_ns: List[int] = []
        self.call_end_ns: List[int] = []
        self.speed = Calibrator()

    def ensure_own_process(self) -> None:
        if os.getpid() != self.pid:
            self.reset()

    def export(self) -> Dict[str, Any]:
        return {
            "stmt_cpu_ns": self.stmt_cpu_ns,
            "stmt_end_ns": self.stmt_end_ns,
            "found_at": {str(k): v for k, v in self.found_at.items()},
            "call_cpu_ns": self.call_cpu_ns,
            "call_end_ns": self.call_end_ns,
            "speed": self.speed.samples,
        }


PROBE = Probe()

#: where forked shard workers write their files (set before forking)
SHARD_DIR: Optional[str] = None


def _probe_run(fn: Callable) -> Callable:
    probe = PROBE

    def run(self, sql, position=None):
        start = thread_time_ns()
        try:
            return fn(self, sql, position=position)
        finally:
            probe.last_run_cpu_ns = thread_time_ns() - start

    return run


def _probe_observe(fn: Callable) -> Callable:
    probe = PROBE

    def observe(self, outcome, case, index):
        start = thread_time_ns()
        found = fn(self, outcome, case, index)
        cpu = probe.last_run_cpu_ns + thread_time_ns() - start
        end = perf_counter_ns()
        probe.stmt_cpu_ns.append(cpu)
        probe.stmt_end_ns.append(end)
        probe.last_run_cpu_ns = 0
        if found:
            probe.found_at.setdefault(index, end)
        # between statements, outside every timed call
        probe.speed.maybe(end)
        return found

    return observe


def _probe_execute(fn: Callable) -> Callable:
    probe = PROBE

    def execute(self, sql):
        start = thread_time_ns()
        try:
            return fn(self, sql)
        finally:
            probe.call_cpu_ns.append(thread_time_ns() - start)
            probe.call_end_ns.append(perf_counter_ns())

    return execute


def _shard_wrapper(fn: Callable, traced: bool) -> Callable:
    import functools

    @functools.wraps(fn)
    def run_shard(*args: Any, **kwargs: Any) -> Any:
        if os.getpid() != TRACER.pid:
            # first shard in a forked worker: drop what the parent had
            for objects in INSTANCES.values():
                objects.clear()
        TRACER.ensure_own_process()
        PROBE.ensure_own_process()
        worker = args[1] if len(args) > 1 else kwargs.get("worker", 0)
        token = TRACER.open() if traced else None
        try:
            return fn(*args, **kwargs)
        finally:
            if token is not None:
                TRACER.close(token, f"parallel.shard.w{worker}")
            if SHARD_DIR is not None:
                export_instances()
                path = os.path.join(SHARD_DIR, f"shard-{os.getpid()}-{worker}.json")
                with open(path, "w") as fh:
                    json.dump({"trace": TRACER.export(), "probe": PROBE.export()}, fh)
                TRACER.reset()
                PROBE.reset()

    return run_shard


def install_probes() -> None:
    from repro.core.oracles.base import OraclePipeline
    from repro.core.runner import Runner
    from repro.engine.connection import Connection

    patch_method(Runner, "run", _probe_run)
    patch_method(OraclePipeline, "observe", _probe_observe)
    patch_method(Connection, "execute", _probe_execute)
    patch_function("repro.perf.parallel", "_run_shard", lambda f: _shard_wrapper(f, False))


# ---------------------------------------------------------------------------
# spans (traced)
# ---------------------------------------------------------------------------
#: span-name prefix -> the layer group it belongs to (the groups are the
#: ones the per-layer metrics are reported by; ``campaign.run`` is the
#: campaign loop itself, which belongs to no measured layer)
GROUPS = {
    "collect": "collect",
    "dialect": "collect",
    "patterns": "patterns",
    "sqlast": "sqlast",
    "stmtcache": "stmtcache",
    "optimizer": "engine",
    "engine": "engine",
    "coerce": "coerce",
    "runner": "runner",
    "oracles": "oracles",
    "flaws": "oracles",
    "parallel": "parallel",
    "checkpoint": "service_state",
    "minimize": "service_state",
    "bugrepo": "service_state",
    "storage": "service_io",
    "journal": "service_io",
    "scheduler": "service_io",
    "server": "service_io",
}

LAYER_GROUPS = sorted(set(GROUPS.values()))

#: the routes the service workload calls; anything else counts as "other"
ROUTES = (
    "health", "submit", "job", "findings", "transitions", "bugs", "triage",
    "shutdown", "other",
)


def _route(_self: Any, method: str, path: str, *_rest: Any) -> str:
    parts = [p for p in path.split("/") if p]
    if parts in (["health"], ["bugs"], ["shutdown"]):
        route = parts[0]
    elif parts == ["jobs"] and method == "POST":
        route = "submit"
    elif len(parts) == 2 and parts[0] == "jobs":
        route = "job"
    elif len(parts) == 3 and parts[2] in ("findings", "transitions", "triage"):
        route = parts[2]
    else:
        route = "other"
    return f"server.handle.{route}"


def _digits(result: Any, *_args: Any) -> None:
    if isinstance(result, bool):
        return
    if isinstance(result, int):
        TRACER.note_max("coerce.max_digits", (result.bit_length() * 30103) // 100000 + 1)
    elif isinstance(result, decimal.Decimal) and result.is_finite() and result:
        TRACER.note_max("coerce.max_digits", result.adjusted() + 1)


def _record_finding_counts(result: Any, *_args: Any) -> None:
    TRACER.count("bugrepo.new" if result[1] else "bugrepo.dup")


def _span(name: str, after: Optional[Callable] = None) -> Callable[[Callable], Callable]:
    return lambda fn: span_wrapper(fn, name, after=after)


def _counted(name: str) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            TRACER.count(name)
            return fn(*args, **kwargs)

        return wrapper

    return make


#: live objects whose own counters are read at the end of a run
INSTANCES: Dict[str, List[Any]] = {"cache": [], "runner": [], "metamorphic": []}


def _register(kind: str) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            fn(self, *args, **kwargs)
            INSTANCES[kind].append(self)

        return __init__

    return make


def install_tracing() -> None:
    """Install every span wrapper (and the shard wrapper) in this process."""
    from repro.core.campaign import Campaign
    from repro.core.collect import SeedCollector
    from repro.core.oracles.base import OraclePipeline
    from repro.core.oracles.crash import CrashOracle
    from repro.core.oracles.metamorphic import NoRECOracle, TLPOracle, _MetamorphicOracle
    from repro.core.patterns import GeneratedCase, PatternEngine
    from repro.core.runner import Runner
    from repro.engine.connection import Connection
    from repro.perf.parallel import ParallelCampaign
    from repro.perf.stmtcache import StatementCache
    from repro.robustness.checkpoint import CampaignCheckpoint
    from repro.service.bugrepo import BugRepository
    from repro.service.journal import JobJournal
    from repro.service.scheduler import SchedulerWorker
    from repro.service.server import BugService
    from repro.service.storage import SqliteStorage, StorageHealth

    # campaign roots (not a measured layer: their self time is the loop)
    patch_method(Campaign, "run", _span("campaign.run"))
    patch_method(ParallelCampaign, "run", _span("parallel.run"))
    patch_method(ParallelCampaign, "_merge", _span("parallel.merge"))
    patch_function("repro.perf.parallel", "_run_shard", lambda f: _shard_wrapper(f, True))
    patch_function("repro.perf.parallel", "_save_shard_checkpoint", _span("checkpoint.save"))
    # core.collect + dialect construction
    patch_method(SeedCollector, "collect", _span("collect.collect"))
    patch_function("repro.dialects", "dialect_by_name", _span("dialect.build"))
    # core.patterns (stream generation and lazy SQL printing)
    patch_method(PatternEngine, "__init__", _span("patterns.init"))
    patch_method(
        PatternEngine, "generate_all",
        lambda f: tr.generator_wrapper(f, "patterns.generate", "patterns.cases"),
    )
    patch_method(GeneratedCase, "sql", _span("patterns.render"))
    # sqlast
    patch_function("repro.sqlast.lexer", "tokenize", _span("sqlast.lex"))
    for name in ("parse_statements", "parse_statement", "parse_expression"):
        patch_function("repro.sqlast.parser", name, _span("sqlast.parse"))
    # perf.stmtcache / perf.compiler
    patch_method(StatementCache, "__init__", _register("cache"))
    patch_method(StatementCache, "fetch", _span("stmtcache.fetch"))
    patch_method(StatementCache, "probe_tokens", _span("stmtcache.probe"))
    patch_method(StatementCache, "insert", _span("stmtcache.insert"))
    # engine
    patch_function("repro.engine.optimizer", "optimize_statement", _span("optimizer.optimize"))
    patch_method(Connection, "execute", _span("engine.execute"))
    for name in ("need_int", "need_decimal", "need_double", "need_bool"):
        patch_function(
            "repro.engine.functions.helpers", name, _span("coerce.helper", after=_digits)
        )
    # core.runner
    patch_method(Runner, "__init__", _register("runner"))
    patch_method(Runner, "run", _span("runner.run"))
    # core.oracles + dialects.bugs
    patch_method(OraclePipeline, "observe", _span("oracles.pipeline"))
    patch_method(CrashOracle, "observe", _span("oracles.crash.observe"))
    patch_method(TLPOracle, "observe", _span("oracles.tlp.observe"))
    patch_method(NoRECOracle, "observe", _span("oracles.norec.observe"))
    patch_method(_MetamorphicOracle, "__init__", _register("metamorphic"))
    for name in ("find_bug", "find_predicate_flaw", "find_logic_flaw", "logic_flaws_for"):
        patch_function("repro.dialects.bugs", name, _span("flaws.lookup"))
    # robustness.checkpoint, core.minimize, service.bugrepo
    patch_method(CampaignCheckpoint, "save", _span("checkpoint.save"))
    patch_function("repro.core.minimize", "minimize_poc", _span("minimize.poc"))
    patch_method(
        BugRepository, "record_finding",
        _span("bugrepo.record", after=_record_finding_counts),
    )
    patch_method(BugRepository, "replay", _span("bugrepo.replay"))
    # service.storage / journal / scheduler / server
    patch_method(SqliteStorage, "write", lambda f: tr.context_wrapper(f, "storage.write"))
    patch_method(SqliteStorage, "read", lambda f: tr.context_wrapper(f, "storage.read"))
    patch_function("repro.service.storage", "_backoff_delay", _counted("storage.retries"))
    patch_method(StorageHealth, "note_lost_write", _counted("storage.lost_writes"))
    for name in ("insert", "update", "transitions", "load_rows"):
        patch_method(JobJournal, name, _span(f"journal.{name}"))
    patch_method(SchedulerWorker, "_run_job", _span("scheduler.run_job"))
    patch_method(BugService, "handle", lambda f: span_wrapper(f, label=_route))


def instance_counters() -> Dict[str, float]:
    """Counters the program keeps on its own objects, summed."""
    out: Dict[str, float] = {
        "stmtcache.hits": 0, "stmtcache.misses": 0, "stmtcache.invalidations": 0,
        "compiler.compiled_executions": 0, "compiler.fallbacks": 0,
        "runner.restarts": 0, "metamorphic.checked": 0, "metamorphic.compared": 0,
    }
    for cache in INSTANCES["cache"]:
        out["stmtcache.hits"] += cache.hits
        out["stmtcache.misses"] += cache.misses
        out["stmtcache.invalidations"] += cache.invalidations
        out["compiler.compiled_executions"] += cache.compiled_executions
        out["compiler.fallbacks"] += cache.compile_fallbacks
    for runner in INSTANCES["runner"]:
        out["runner.restarts"] += runner.restarts
    for oracle in INSTANCES["metamorphic"]:
        out["metamorphic.checked"] += oracle.checked
        out["metamorphic.compared"] += oracle.compared
    return out


def export_instances() -> None:
    """Fold the live objects' counters into the tracer before it is written."""
    for key, value in instance_counters().items():
        TRACER.count(key, int(value))
    for kind in INSTANCES:
        INSTANCES[kind].clear()
