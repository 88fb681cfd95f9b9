"""Sharded multi-process campaigns (``--jobs N``).

The paper's evaluation is embarrassingly parallel: each of the "24 hours
per DBMS" campaigns executes an enormous stream of *independent* SELECT
statements.  :class:`ParallelCampaign` exploits that while preserving the
serial campaign's exact observable result — ``CampaignResult.signature()``
of a ``jobs=N`` run equals the serial run's, faults on or off.

Architecture (see DESIGN.md for the full determinism argument):

* The **parent** replays the seed phase itself (positions ``0..S-1``) —
  it is cheap, and the pattern engine needs the observed seed return
  types before any generated statement can exist.
* The generated stream is sharded **round-robin by pattern index**:
  worker ``w`` of ``N`` executes generated case ``i`` iff
  ``i % N == w``.  Every worker re-derives the full deterministic stream
  (seed collection is pure, generation is seeded) and skips foreign
  cases — skipping is an allocation, not work, because
  :class:`~repro.core.patterns.GeneratedCase` renders SQL lazily.
* Statement behaviour is **history-independent** by construction
  (per-statement engine RNG reseed, position-keyed fault streams), so a
  worker executing the sub-stream ``w, w+N, w+2N, …`` observes exactly
  the outcomes the serial run observes at those positions.
* Each worker runs its own full :class:`~repro.core.oracles.OraclePipeline`
  over its slice and ships the pipeline's exported state in its plain-dict
  **shard report** (alongside outcome counts, triggered functions,
  coverage sets, cache and fault counters).  The parent folds the shard
  states into its own pipeline via ``Oracle.merge``, which re-sorts every
  oracle's kept records by global stream position and re-deduplicates —
  the same first-occurrence order as the serial loop, so the merged
  findings match a serial run record for record.
* Each worker takes the campaign's :class:`CampaignConfig` plus the few
  values the parent's seed phase produced (seed count, seed return
  types, carried-over containment state), and hands its report back as a
  plain dict over the pool's own result channel.  Workers start with a
  cold statement cache.

Checkpoint/resume: each worker writes its own sidecar checkpoint
(``<path>.shard<w>``) carrying its pipeline state.  On resume the parent
re-runs its cheap seed phase from scratch (sound: statements are
history-independent and fault draws are position-keyed) and each worker
skips the prefix of its shard it already executed.  No RNG state needs to
be carried at all.

Known semantic divergence: a server quarantine aborts only the shard that
hit it, so a quarantined parallel run may have executed statements a
serial run would not have reached (and vice versa).  Quarantine requires
``CircuitBreaker.failure_threshold`` *consecutive* restart failures drawn
from a single position's fault stream — at realistic fault rates the
probability is negligible, and the merged report still flags
``quarantined=True``.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import random
import time
from typing import Any, Dict, List, Optional, Union

from ..core.campaign import CampaignResult
from ..core.config import CampaignConfig
from ..core.collect import SeedCollector
from ..core.oracles import CaseInfo, OraclePipeline, OracleStateError, build_pipeline
from ..core.oracles.base import OracleSpec
from ..core.patterns import PatternEngine
from ..core.runner import Outcome, Runner
from ..core.tables import TABLE_SETUP
from ..dialects import dialect_by_name
from ..dialects.base import Dialect
from ..robustness.checkpoint import CHECKPOINT_VERSION, CheckpointError
from ..robustness.faults import FaultInjector, make_fault_injector
from ..robustness.policy import ServerQuarantined
from ..robustness.sandbox import ContainmentState
from ..robustness.watchdog import SimulatedClock, Watchdog


#: sidecar layout version: bumped when the shard report/checkpoint schema
#: changes (v2 replaced the replayed-observation list with per-shard oracle
#: pipeline state); old sidecars are refused with a CheckpointError
SHARD_FORMAT_VERSION = 2


def _shard_checkpoint_path(path: str, worker: int) -> str:
    return f"{path}.shard{worker}"


def _run_shard(
    config: CampaignConfig,
    worker: int,
    seed_count: int,
    return_types: Dict[str, str],
    resume: bool = False,
    containment_seed: Optional[Dict[str, Any]] = None,
    stop_after: Optional[int] = None,
) -> Dict[str, Any]:
    """Execute one worker's share of the generated stream.

    Runs in a child process (or inline for ``jobs=1``) and returns the
    shard report as a plain dict.  *seed_count*, *return_types* and
    *containment_seed* come from the parent's seed phase.  ``stop_after``
    caps how many statements this shard executes before returning early
    — a test hook that simulates a mid-campaign kill for resume testing.
    """
    dialect = dialect_by_name(config.dialect)
    # pipeline before runner: logic-flaw installation must precede server
    # construction, exactly as in the serial campaign
    pipeline = build_pipeline(dialect, config.oracles)
    clock = SimulatedClock()
    injector = make_fault_injector(config.faults, seed=config.fault_seed, clock=clock)
    sandbox_config = config.sandbox
    runner = Runner(
        dialect,
        enable_coverage=config.enable_coverage,
        faults=injector,
        clock=clock,
        watchdog=Watchdog(clock, deadline_seconds=config.statement_deadline),
        statement_cache=config.statement_cache,
        budgets=config.budgets,
        sandbox=sandbox_config,
        bootstrap_sql=TABLE_SETUP if config.statement_family == "predicate" else (),
    )
    runner.capture_fingerprints = pipeline.needs_fingerprints
    containment: Optional[ContainmentState] = None
    if sandbox_config is not None:
        containment = ContainmentState.from_config(sandbox_config)
        if containment_seed is not None:
            # containment built up during the parent's seed phase carries
            # over: a seed statement that killed a worker stays quarantined
            # in every shard
            containment.restore_state(containment_seed)
            # ...but the parent's skip count is accounted parent-side;
            # this shard reports only its own skips
            containment.skipped = 0
    # the engine rng is seeded but never consumed by generation; passing a
    # fresh Random(seed) in every process keeps the constructor contract
    engine = PatternEngine(
        SeedCollector(dialect).collect(),
        rng=random.Random(config.seed),
        max_partners=config.max_partners,
        return_types=dict(return_types),
        statement_family=config.statement_family,
    )

    skip_in_shard = 0
    shard_executed = 0
    outcome_counts: Dict[str, int] = {}
    checkpoint_path = config.checkpoint_path
    if resume and checkpoint_path is not None:
        state = _load_shard_checkpoint(
            _shard_checkpoint_path(checkpoint_path, worker), config, worker
        )
        if state is not None:
            # processed counts containment skips too; sidecars written
            # before the sandbox existed only have the executed count
            skip_in_shard = state.get("shard_processed", state["shard_executed"])
            shard_executed = state["shard_executed"]
            outcome_counts = dict(state["outcomes"])
            try:
                pipeline.restore_state(state["oracle_state"])
            except OracleStateError as exc:
                raise CheckpointError(str(exc)) from exc
            runner.fault_counters = dict(state["fault_counters"])
            runner.server.ctx.triggered_functions |= set(state["triggered"])
            if runner.coverage is not None:
                runner.coverage.arcs |= {tuple(a) for a in state["coverage_arcs"]}
                runner.coverage.lines |= {tuple(l) for l in state["coverage_lines"]}
            sandbox_state = state.get("sandbox")
            if sandbox_state is not None and containment is not None:
                containment.restore_state(sandbox_state["containment"])
                if runner.sandbox is not None:
                    runner.sandbox.kills = sandbox_state["kills"]
                    runner.sandbox.worker_deaths = sandbox_state["worker_deaths"]
                    runner.sandbox.respawns = sandbox_state["respawns"]

    generated_budget = max(config.budget - seed_count, 0)
    shard_processed = 0
    executed_this_run = 0
    quarantined = False
    quarantine_reason = ""
    wall_started = time.monotonic()

    def sandbox_report() -> Optional[Dict[str, Any]]:
        if containment is None:
            return None
        return {
            "containment": containment.export_state(),
            "kills": runner.sandbox.kills if runner.sandbox else 0,
            "worker_deaths": runner.sandbox.worker_deaths if runner.sandbox else 0,
            "respawns": runner.sandbox.respawns if runner.sandbox else 0,
        }

    def save_checkpoint() -> None:
        _save_shard_checkpoint(
            _shard_checkpoint_path(checkpoint_path, worker), config, worker,
            shard_executed, pipeline, outcome_counts, runner,
            shard_processed, sandbox_report(),
        )

    def maybe_checkpoint() -> None:
        every = config.checkpoint_every
        if checkpoint_path is None or every <= 0:
            return
        if shard_processed == 0 or shard_processed % every:
            return
        save_checkpoint()

    try:
        for index, case in enumerate(engine.generate_all()):
            if index >= generated_budget:
                break
            if index % config.jobs != worker:
                continue  # lazy case: skipping costs no SQL rendering
            if shard_processed < skip_in_shard:
                shard_processed += 1
                continue
            position = seed_count + index
            info = CaseInfo(case.pattern, case.seed_function, case.seed_family)
            if containment is not None:
                reason = containment.should_skip(case.sql, case.seed_family)
                if reason is not None:
                    containment.note_skip()
                    outcome_counts["skipped"] = outcome_counts.get("skipped", 0) + 1
                    pipeline.observe(
                        Outcome("skipped", case.sql, message=reason),
                        info, position,
                    )
                    shard_processed += 1
                    maybe_checkpoint()
                    continue
            outcome = runner.run(case.sql, position=position)
            if containment is not None:
                containment.observe(
                    outcome.kind, case.sql, case.seed_family, outcome.message
                )
            outcome_counts[outcome.kind] = outcome_counts.get(outcome.kind, 0) + 1
            pipeline.observe(outcome, info, position)
            shard_processed += 1
            shard_executed += 1
            executed_this_run += 1
            maybe_checkpoint()
            if stop_after is not None and executed_this_run >= stop_after:
                break
    except ServerQuarantined as exc:
        shard_processed = max(shard_processed - 1, 0)
        shard_executed = max(shard_executed - 1, 0)
        quarantined = True
        quarantine_reason = str(exc)

    report: Dict[str, Any] = {
        "worker": worker,
        "shard_executed": shard_executed,
        "outcomes": outcome_counts,
        "oracle_state": pipeline.export_state(),
        "fault_counters": dict(runner.fault_counters),
        "injector_counters": dict(injector.counters) if injector is not None else {},
        "triggered": sorted(runner.server.ctx.triggered_functions),
        "coverage_arcs": [list(a) for a in runner.coverage.arcs]
        if runner.coverage is not None
        else [],
        "coverage_lines": [list(l) for l in runner.coverage.lines]
        if runner.coverage is not None
        else [],
        "cache_hits": runner.cache_hits,
        "cache_misses": runner.cache_misses,
        "restarts": runner.restarts,
        "timeouts": runner.timeouts,
        "flaky_crashes": runner.flaky_crashes,
        "quarantined": quarantined,
        "quarantine_reason": quarantine_reason,
        "wall_seconds": time.monotonic() - wall_started,
        "shard_processed": shard_processed,
        "sandbox": sandbox_report(),
    }
    if checkpoint_path is not None:
        save_checkpoint()
    runner.close()
    return report


# ----------------------------------------------------------------------
# per-shard sidecar checkpoints
# ----------------------------------------------------------------------
def _shard_spec(config: CampaignConfig, worker: int) -> Dict[str, Any]:
    spec = {
        "version": CHECKPOINT_VERSION,
        "shard_format": SHARD_FORMAT_VERSION,
        "dialect": config.dialect,
        "seed": config.seed,
        "budget": config.budget,
        "max_partners": config.max_partners,
        "enable_coverage": config.enable_coverage,
        "jobs": config.jobs,
        "worker": worker,
        "oracles": list(config.oracles),
    }
    # only non-default governance/sandbox settings enter the spec, so
    # sidecars written before this layer existed still match default runs
    budgets = config.budgets
    if budgets is not None and budgets.enabled:
        spec["budgets"] = budgets.to_spec()
    sandbox = config.sandbox
    if sandbox is not None:
        spec["sandbox"] = {
            "wall_deadline_seconds": sandbox.wall_deadline_seconds,
            "breaker_threshold": sandbox.breaker_threshold,
            "quarantine": list(sandbox.quarantine),
            "max_message_bytes": sandbox.max_message_bytes,
        }
    if config.statement_family != "expression":
        spec["statement_family"] = config.statement_family
    return spec


def _save_shard_checkpoint(
    path: str,
    config: CampaignConfig,
    worker: int,
    shard_executed: int,
    pipeline: OraclePipeline,
    outcomes: Dict[str, int],
    runner: Runner,
    shard_processed: int,
    sandbox_state: Optional[Dict[str, Any]] = None,
) -> None:
    payload = {
        "spec": _shard_spec(config, worker),
        "shard_executed": shard_executed,
        "shard_processed": shard_processed,
        "sandbox": sandbox_state,
        "oracle_state": pipeline.export_state(),
        "outcomes": outcomes,
        "fault_counters": dict(runner.fault_counters),
        "triggered": sorted(runner.server.ctx.triggered_functions),
        "coverage_arcs": [list(a) for a in runner.coverage.arcs]
        if runner.coverage is not None
        else [],
        "coverage_lines": [list(l) for l in runner.coverage.lines]
        if runner.coverage is not None
        else [],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _load_shard_checkpoint(
    path: str, config: CampaignConfig, worker: int
) -> Optional[Dict[str, Any]]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    expected = _shard_spec(config, worker)
    if payload.get("spec") != expected:
        raise CheckpointError(
            f"shard checkpoint {path!r} was written for a different campaign "
            f"configuration ({payload.get('spec')!r} != {expected!r})"
        )
    return payload


# ----------------------------------------------------------------------
# the parallel campaign
# ----------------------------------------------------------------------
class ParallelCampaign:
    """Shards one campaign's generated stream across worker processes.

    Takes the same :class:`CampaignConfig` as
    :class:`~repro.core.campaign.Campaign` (``config.jobs`` workers; a
    *dialect* instance or name fills in an empty ``config.dialect``).
    ``faults`` must be ``None`` or a spec (string/FaultPlan): injectors
    don't cross process boundaries.  ``stop_when_all_found`` is
    unsupported (its early exit depends on cross-shard execution order).
    """

    def __init__(
        self,
        dialect: Union[Dialect, str, None] = None,
        *,
        config: Optional[CampaignConfig] = None,
    ) -> None:
        dialect_name = dialect.name if isinstance(dialect, Dialect) else (dialect or "")
        if config is None:
            # the historical ParallelCampaign default was two workers
            config = CampaignConfig(dialect=dialect_name, jobs=2)
        elif not isinstance(config, CampaignConfig):
            raise TypeError(
                f"ParallelCampaign config= expects a CampaignConfig, got {config!r}"
            )
        elif dialect_name and not config.dialect:
            config = config.replace(dialect=dialect_name)
        if not config.dialect:
            raise ValueError("ParallelCampaign needs a dialect (or config.dialect)")
        if isinstance(config.faults, FaultInjector):
            raise TypeError(
                "ParallelCampaign needs a fault *spec* (string/FaultPlan), "
                "not a FaultInjector: each worker builds its own injector"
            )
        self.config = config
        self.dialect = (
            dialect if isinstance(dialect, Dialect) else dialect_by_name(config.dialect)
        )
        #: test hook — see ``_run_shard``'s ``stop_after``
        self._stop_after: Optional[int] = None

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        config = self.config
        wall_started = time.monotonic()
        # ---- parent: seed phase (positions 0..S-1) -------------------
        # pipeline before runner: logic-flaw installation must precede
        # server construction, exactly as in the serial campaign
        pipeline = build_pipeline(self.dialect, config.oracles)
        clock = SimulatedClock()
        injector = make_fault_injector(config.faults, seed=config.fault_seed, clock=clock)
        runner = Runner(
            self.dialect,
            enable_coverage=config.enable_coverage,
            faults=injector,
            clock=clock,
            watchdog=Watchdog(clock, deadline_seconds=config.statement_deadline),
            statement_cache=config.statement_cache,
            budgets=config.budgets,
            sandbox=config.sandbox,
            bootstrap_sql=(
                TABLE_SETUP if config.statement_family == "predicate" else ()
            ),
        )
        runner.capture_fingerprints = pipeline.needs_fingerprints
        containment: Optional[ContainmentState] = (
            ContainmentState.from_config(config.sandbox)
            if config.sandbox is not None
            else None
        )
        result = CampaignResult(dialect=self.dialect.name)
        seeds = SeedCollector(self.dialect).collect()
        result.seeds_collected = len(seeds)

        return_types: Dict[str, str] = {}
        position = 0
        quarantined = False
        quarantine_reason = ""
        try:
            for seed_obj in seeds:
                if position >= config.budget:
                    break
                sql = f"SELECT {seed_obj.sql};"
                info = CaseInfo("seed", seed_obj.function, seed_obj.family)
                if containment is not None:
                    reason = containment.should_skip(sql, seed_obj.family)
                    if reason is not None:
                        containment.note_skip()
                        result.outcomes["skipped"] = (
                            result.outcomes.get("skipped", 0) + 1
                        )
                        pipeline.observe(
                            Outcome("skipped", sql, message=reason),
                            info, position,
                        )
                        position += 1
                        continue
                outcome = runner.run(sql, position=position)
                if containment is not None:
                    containment.observe(
                        outcome.kind, sql, seed_obj.family, outcome.message
                    )
                result.outcomes[outcome.kind] = (
                    result.outcomes.get(outcome.kind, 0) + 1
                )
                pipeline.observe(outcome, info, position)
                if outcome.result_type and seed_obj.function not in return_types:
                    return_types[seed_obj.function] = outcome.result_type
                position += 1
        except ServerQuarantined as exc:
            runner.executed = max(runner.executed - 1, 0)
            position = runner.executed
            quarantined = True
            quarantine_reason = str(exc)

        seed_count = position

        # ---- fan out the generated stream ----------------------------
        reports: List[Dict[str, Any]] = []
        if not quarantined and seed_count < config.budget:
            containment_seed = (
                containment.export_state() if containment is not None else None
            )
            shard_args = [
                (
                    config, worker, seed_count, return_types, resume,
                    containment_seed, self._stop_after,
                )
                for worker in range(config.jobs)
            ]
            if config.jobs == 1:
                reports = [_run_shard(*shard_args[0])]
            else:
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn"
                )
                if config.sandbox is not None:
                    # Pool workers are daemonic and may not spawn the
                    # sandbox's own subprocess children; ProcessPoolExecutor
                    # workers are not, so sandboxed shards go through it.
                    with concurrent.futures.ProcessPoolExecutor(
                        max_workers=config.jobs, mp_context=ctx
                    ) as executor:
                        futures = [
                            executor.submit(_run_shard, *args) for args in shard_args
                        ]
                        reports = [future.result() for future in futures]
                else:
                    with ctx.Pool(processes=config.jobs) as pool:
                        reports = pool.starmap(_run_shard, shard_args)

        # ---- merge ----------------------------------------------------
        merged = self._merge(
            result, runner, pipeline, injector, seed_count,
            reports, quarantined, quarantine_reason, wall_started,
            containment,
        )
        runner.close()
        return merged

    # ------------------------------------------------------------------
    def _merge(
        self,
        result: CampaignResult,
        seed_runner: Runner,
        pipeline: OraclePipeline,
        seed_injector: Optional[FaultInjector],
        seed_count: int,
        reports: List[Dict[str, Any]],
        quarantined: bool,
        quarantine_reason: str,
        wall_started: float,
        containment: Optional[ContainmentState] = None,
    ) -> CampaignResult:
        # fold every shard's oracle state into the parent pipeline; each
        # oracle re-sorts its kept records by global stream position and
        # re-deduplicates — the exact first-occurrence order the serial
        # loop would have used, statement for statement
        try:
            pipeline.merge([report["oracle_state"] for report in reports])
        except OracleStateError as exc:
            raise CheckpointError(str(exc)) from exc

        # the seed phase's executed count (containment skips advance the
        # position but never reach the runner)
        executed = seed_runner.executed
        triggered = set(seed_runner.server.ctx.triggered_functions)
        arcs = set(seed_runner.coverage.arcs) if seed_runner.coverage else set()
        lines = set(seed_runner.coverage.lines) if seed_runner.coverage else set()
        fault_counters: Dict[str, int] = dict(seed_runner.fault_counters)
        if seed_injector is not None:
            for kind, count in seed_injector.counters.items():
                fault_counters[kind] = fault_counters.get(kind, 0) + count
        cache_hits = seed_runner.cache_hits
        cache_misses = seed_runner.cache_misses
        for report in reports:
            executed += report["shard_executed"]
            triggered |= set(report["triggered"])
            arcs |= {tuple(a) for a in report["coverage_arcs"]}
            lines |= {tuple(l) for l in report["coverage_lines"]}
            for kind, count in report["outcomes"].items():
                result.outcomes[kind] = result.outcomes.get(kind, 0) + count
            for kind, count in report["fault_counters"].items():
                fault_counters[kind] = fault_counters.get(kind, 0) + count
            for kind, count in report["injector_counters"].items():
                fault_counters[kind] = fault_counters.get(kind, 0) + count
            cache_hits += report["cache_hits"]
            cache_misses += report["cache_misses"]
            if report["quarantined"]:
                quarantined = True
                quarantine_reason = quarantine_reason or report["quarantine_reason"]

        result.queries_executed = executed
        crash = pipeline.get("crash")
        if crash is not None:
            result.bugs = list(crash.bugs)
            result.false_positives = list(crash.false_positives)
            result.flaky_signals = list(crash.flaky_signals)
        result.findings = pipeline.extra_findings()
        result.triggered_functions = triggered
        result.branch_coverage = len(arcs)
        result.fault_counters = fault_counters
        for kind, count in sorted(fault_counters.items()):
            result.outcomes[f"fault.{kind}"] = count
        result.quarantined = quarantined
        result.quarantine_reason = quarantine_reason
        result.cache_hits = cache_hits
        result.cache_misses = cache_misses
        if containment is not None:
            # fold the shards' containment outcomes into the parent's
            # seed-phase state for the supervisor summary
            containment.merge(
                [
                    report["sandbox"]["containment"]
                    for report in reports
                    if report.get("sandbox") is not None
                ]
            )
            result.sandbox_active = True
            result.open_breakers = containment.open_breakers
            result.quarantined_statements = len(containment.quarantine)
            result.skipped_statements = containment.skipped
            kills = seed_runner.sandbox.kills if seed_runner.sandbox else 0
            deaths = (
                seed_runner.sandbox.worker_deaths if seed_runner.sandbox else 0
            )
            respawns = seed_runner.sandbox.respawns if seed_runner.sandbox else 0
            for report in reports:
                sandbox_state = report.get("sandbox")
                if sandbox_state is not None:
                    kills += sandbox_state["kills"]
                    deaths += sandbox_state["worker_deaths"]
                    respawns += sandbox_state["respawns"]
            result.sandbox_kills = kills
            result.sandbox_worker_deaths = deaths
            result.sandbox_respawns = respawns
        result.wall_seconds = time.monotonic() - wall_started
        result.elapsed_seconds = result.wall_seconds
        return result


def run_parallel_campaign(
    dialect_name: Optional[str] = None,
    jobs: Optional[int] = None,
    budget: Optional[int] = None,
    enable_coverage: Optional[bool] = None,
    seed: Optional[int] = None,
    faults: Any = None,
    fault_seed: Optional[int] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume: bool = False,
    statement_cache: Optional[bool] = None,
    oracles: OracleSpec = None,
    budgets: Any = None,
    sandbox: Any = None,
    config: Optional[CampaignConfig] = None,
) -> CampaignResult:
    """Convenience wrapper mirroring :func:`repro.core.run_campaign`
    (keyword options or ``config=``, not both; ``jobs`` defaults to 2)."""
    options = {
        key: value
        for key, value in (
            ("jobs", jobs),
            ("budget", budget),
            ("enable_coverage", enable_coverage),
            ("seed", seed),
            ("faults", faults),
            ("fault_seed", fault_seed),
            ("checkpoint_path", checkpoint),
            ("checkpoint_every", checkpoint_every),
            ("statement_cache", statement_cache),
            ("oracles", oracles),
            ("budgets", budgets),
            ("sandbox", sandbox),
        )
        if value is not None
    }
    if config is None:
        config = CampaignConfig(**{"dialect": dialect_name or "", "jobs": 2, **options})
    elif options:
        raise TypeError(
            f"run_parallel_campaign takes config= or keyword options, not "
            f"both (got config= plus {sorted(options)})"
        )
    return ParallelCampaign(dialect_name, config=config).run(resume=resume)
