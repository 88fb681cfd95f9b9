"""The three library workloads: seeded ``CampaignConfig``s run in-process.

* ``recall_duckdb``: the serial expression stream on duckdb, crash oracle,
  at the 24-hour query budget (20,000 statements).
* ``jobs2_duckdb``: the same stream and budget sharded over two workers.
* ``metamorphic_duckdb``: the predicate family with the crash, TLP and
  NoREC oracles, serial, 3,000 statements.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Tuple

from . import checks, layers
from .hostspeed import SENSITIVITY, Calibrator, Timeline
from .layers import PROBE
from .report import median, percentile
from .tracer import TRACER, restore

#: the 24-hour query budget (repro.core.config.BUDGET_24_HOURS)
RECALL_BUDGET = 20_000
#: the metamorphic window; see README.md for where it ends and why
METAMORPHIC_BUDGET = 3_000
#: set-up is measured this many times before the measured units and as
#: many times after them (so the samples span the run); the median of all
#: of them is reported
SETUP_REPEATS = 15

#: outcome kinds that count as failed operations (error, crash and
#: resource_kill are classifications, not failures)
FAILED_KINDS = ("timeout", "flaky", "harness_crash", "skipped")


def config_for(workload: str, seed: int):
    from repro.core.config import CampaignConfig

    if workload == "recall_duckdb":
        return CampaignConfig(dialect="duckdb", budget=RECALL_BUDGET, seed=seed)
    if workload == "jobs2_duckdb":
        return CampaignConfig(dialect="duckdb", budget=RECALL_BUDGET, seed=seed, jobs=2)
    if workload == "metamorphic_duckdb":
        return CampaignConfig(
            dialect="duckdb", budget=METAMORPHIC_BUDGET, seed=seed,
            statement_family="predicate", oracles="crash,tlp,norec",
        )
    raise KeyError(workload)


def measure_setup(config, speed: Calibrator) -> Tuple[int, int]:
    """Wall-clock readings (ns) of the first call into the program and of
    the first generated statement: dialect construction, seed collection,
    the seed phase and pattern-engine construction.  The campaign runs to
    completion over a stream cut after that statement, so it closes its
    runner as usual.  Sharded configs are measured serially (the parent
    does the same work before it forks).  *speed* samples the host right
    before and after."""
    import repro.core.campaign as campaign_module
    from repro.core.campaign import Campaign
    from repro.dialects import dialect_by_name

    engine_class = campaign_module.PatternEngine
    first: List[int] = []

    class FirstCase(engine_class):
        def generate_all(self):
            for case in engine_class.generate_all(self):
                case.sql  # rendered: the statement exists
                first.append(time.perf_counter_ns())
                yield case
                return

    speed.sample()
    start = time.perf_counter_ns()
    campaign_module.PatternEngine = FirstCase
    try:
        Campaign(dialect_by_name(config.dialect), config=config.replace(jobs=1)).run()
    finally:
        campaign_module.PatternEngine = engine_class
    speed.sample()
    if not first:
        raise AssertionError("the campaign ended before its first generated statement")
    return start, first[0]


def run_unit(config):
    """One campaign through the public library API; returns (result, start, end)."""
    from repro.core.campaign import Campaign
    from repro.dialects import dialect_by_name
    from repro.perf.parallel import ParallelCampaign

    start_ns = time.perf_counter_ns()
    if config.jobs > 1:
        result = ParallelCampaign(config=config).run()
    else:
        result = Campaign(dialect_by_name(config.dialect), config=config).run()
    return result, start_ns, time.perf_counter_ns()


def another_unit(window_start: float, seconds: float, done: int) -> bool:
    """Start another unit only if it should end within half a unit of
    the measuring window."""
    elapsed = time.perf_counter() - window_start
    return elapsed + elapsed / done / 2 < seconds


def recall_point(
    result, start_ns: int, unit_probes: List[Dict[str, Any]], line: Timeline
) -> Tuple[float, int]:
    """When the unit had seen its whole pinned finding set: reference
    seconds from the unit's start to the clock reading of the last finding
    to surface (under sharding that need not be the one furthest down the
    stream), and the stream length up to the furthest finding."""
    found_at: Dict[int, int] = {}
    for p in unit_probes:
        found_at.update({int(k): v for k, v in p["found_at"].items()})
    positions = checks.finding_positions(result)
    return (
        line.seconds(start_ns, max(found_at[p] for p in positions)),
        max(positions) + 1,
    )


def _shard_files(shard_dir: str) -> List[Dict[str, Any]]:
    out = []
    for name in sorted(os.listdir(shard_dir)):
        path = os.path.join(shard_dir, name)
        with open(path) as fh:
            out.append(json.load(fh))
        os.unlink(path)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: str) -> Dict[str, Any]:
    """Run the workload for at least *seconds*; returns the result record."""
    config = config_for(workload, seed)
    shard_dir = os.path.join(scratch, "shards")
    os.makedirs(shard_dir, exist_ok=True)
    layers.SHARD_DIR = shard_dir

    setup_speed = Calibrator()
    setups: List[Tuple[int, int]] = []
    if not trace:
        setups = [measure_setup(config, setup_speed) for _ in range(SETUP_REPEATS)]
        layers.install_probes()
    else:
        layers.install_tracing()

    units = []
    exports: List[Dict[str, Any]] = []
    probes: List[Dict[str, Any]] = []
    window_start = time.perf_counter()
    while True:
        PROBE.reset()
        TRACER.reset()
        if not trace:
            PROBE.speed.sample()
        result, start_ns, end_ns = run_unit(config)
        if not trace:
            PROBE.speed.sample()
        shard_exports = _shard_files(shard_dir)
        layers.export_instances()
        unit_probes = [PROBE.export()] + [s["probe"] for s in shard_exports]
        units.append((result, start_ns, end_ns, unit_probes))
        exports.append(TRACER.export())
        exports.extend(s["trace"] for s in shard_exports)
        probes.extend(unit_probes)
        if not another_unit(window_start, seconds, len(units)):
            break
    if not trace:
        restore()  # the later samples run unprobed like the earlier ones
        setups += [measure_setup(config, setup_speed) for _ in range(SETUP_REPEATS)]

    verdicts = [checks.check_campaign(workload, result) for result, *_ in units]
    attempted = sum(r.queries_executed for r, *_ in units)
    failed = sum(
        sum(r.outcomes.get(kind, 0) for kind in FAILED_KINDS) + int(r.quarantined)
        for r, *_ in units
    )
    record: Dict[str, Any] = {
        "correct": all(v.ok for v in verdicts),
        "problems": [p for v in verdicts for p in v.problems],
        "attempted": attempted,
        "failed": failed,
        "digests": [v.digest for v in verdicts],
        "units": len(units),
        "metrics": {},
    }
    if not record["correct"]:
        return record
    executed = sum(r.queries_executed - r.seeds_collected for r, *_ in units)
    if trace:
        from .report import derive

        wall = sum(end - start for _r, start, end, _p in units) / 1e9
        metrics = derive(exports, os.getpid(), wall)
        metrics["trace.stmt_per_s"] = executed / wall
        record["metrics"] = metrics
        return record

    record["samples"] = {
        "statements": sum(len(p["stmt_cpu_ns"]) for p in probes),
        "client_calls": sum(len(p["call_cpu_ns"]) for p in probes),
        "setups": len(setups),
        "speed": sum(len(p["speed"]) for p in probes),
    }
    record["metrics"] = timings(units, setups, setup_speed, executed, SENSITIVITY)
    # the same figures in plain wall-clock and CPU time, for comparison
    record["wall"] = timings(units, setups, setup_speed, executed, 0.0)
    return record


def timings(units, setups, setup_speed: Calibrator, executed: int, sensitivity: float) -> Dict[str, float]:
    """The end-to-end metrics, converted to reference time with the given
    sensitivity (0 leaves wall-clock and CPU time as measured)."""
    stmt_ns: List[float] = []
    call_ns: List[float] = []
    after_setup_s = 0.0
    recall_s: List[float] = []
    recall_stmts: List[float] = []
    turnaround: List[float] = []
    for result, start_ns, end_ns, unit_probes in units:
        parent = unit_probes[0]
        # the parent's intervals: every process's speed samples, the
        # parent's own calibration pauses cut out
        line = Timeline(
            [s for p in unit_probes for s in p["speed"]], parent["speed"], sensitivity
        )
        for p in unit_probes:
            own = Timeline(p["speed"], None, sensitivity) if p["speed"] else line
            stmt_ns += own.scale(p["stmt_cpu_ns"], p["stmt_end_ns"])
            call_ns += own.scale(p["call_cpu_ns"], p["call_end_ns"])
        # setup ends when the last seed-phase statement is observed
        setup_end = parent["stmt_end_ns"][result.seeds_collected - 1]
        after_setup_s += line.seconds(setup_end, end_ns)
        seconds_to_recall, statements_to_recall = recall_point(
            result, start_ns, unit_probes, line
        )
        recall_s.append(seconds_to_recall)
        recall_stmts.append(statements_to_recall)
        turnaround.append(line.seconds(start_ns, end_ns))
    setup_line = Timeline(setup_speed.samples, None, sensitivity)
    return {
        "setup_s": median([setup_line.seconds(a, b) for a, b in setups]),
        "stmt_per_s": executed / after_setup_s,
        "stmt_latency_p50_us": percentile(stmt_ns, 50) / 1e3,
        "stmt_latency_p99_ms": percentile(stmt_ns, 99) / 1e6,
        "stmt_latency_p999_ms": percentile(stmt_ns, 99.9) / 1e6,
        "time_to_recall_s": median(recall_s),
        "stmts_to_recall": median(recall_stmts),
        "job_turnaround_s_p50": median(turnaround),
        "http_latency_ms_p50": percentile(call_ns, 50) / 1e6,
        "http_latency_ms_p95": percentile(call_ns, 95) / 1e6,
    }
