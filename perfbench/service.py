"""The ``service_mix`` workload: one closed-loop client against a fresh
service process.

The client keeps at most two jobs outstanding.  It submits one campaign
job per dialect, then the same seven again under another seed (so the bug
repository deduplicates), then one replay job over every record.  Each
poll round reads ``GET /jobs/<id>/findings?since=`` for every outstanding
job (and ``GET /jobs/<id>`` once the stream reports the job terminal),
then ``GET /bugs``, and confirms each new record with one triage POST; it
then pauses 100 ms before the next round.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from . import checks
from .campaigns import FAILED_KINDS, another_unit
from .hostspeed import SENSITIVITY, Calibrator, Timeline
from .report import median, percentile

DIALECTS = ("clickhouse", "duckdb", "mariadb", "monetdb", "mysql", "postgresql", "virtuoso")
#: statements per campaign job
JOB_BUDGET = 2_000
MAX_OUTSTANDING = 2
#: pause between poll rounds; the polling follows the repository's own
#: service clients (scripts/ci_service_smoke.py, tests/test_service.py)
POLL_SECONDS = 0.1
#: service boots per run whose set-up time is measured (the median is
#: reported); the last one serves the workload
BOOTS = 7
TERMINAL = ("done", "failed", "cancelled", "rejected")
HERE = os.path.dirname(os.path.abspath(__file__))

_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


class Client:
    """JSON over HTTP, timing every call; non-2xx replies are failures.
    *speed* samples the host between poll rounds."""

    def __init__(self, url: str, speed: Optional[Calibrator] = None) -> None:
        self.url = url
        #: (start, end) perf_counter_ns of every call
        self.calls: List[Tuple[int, int]] = []
        self.failures: List[str] = []
        self.speed = speed or Calibrator()

    def call(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, Any]:
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        start = time.perf_counter_ns()
        try:
            with _OPENER.open(request, timeout=120) as reply:
                status, raw = reply.status, reply.read()
        except urllib.error.HTTPError as error:
            status, raw = error.code, error.read()
        self.calls.append((start, time.perf_counter_ns()))
        if not 200 <= status < 300:
            self.failures.append(f"{method} {path} -> {status}")
        return status, json.loads(raw or b"{}")


class Service:
    """One ``serve.py`` child process with its own data dir.  *speed*
    samples the host right before the process starts and right after it
    first answers ``/health``."""

    def __init__(
        self, scratch: str, name: str, trace: bool, speed: Optional[Calibrator] = None
    ) -> None:
        speed = speed or Calibrator()
        self.dir = os.path.join(scratch, name)
        os.makedirs(self.dir)
        self.data_dir = os.path.join(self.dir, "data")
        self.out = os.path.join(self.dir, "recorded.json")
        self.log = os.path.join(self.dir, "stdout.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(HERE), "src")
        env["TMPDIR"] = scratch
        speed.sample()
        self.started = time.perf_counter_ns()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", os.path.join(HERE, "serve.py"),
                 "--data-dir", self.data_dir, "--out", self.out,
                 "--trace", "1" if trace else "0"],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=os.path.dirname(HERE),
            )
        self.url = self._wait_for_url()
        #: perf_counter_ns of the first /health 200
        self.healthy = self._wait_for_health()
        speed.sample()

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self.log) as fh:
                for line in fh:
                    if "listening on " in line:
                        return line.rsplit(" ", 1)[1].strip()
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.kill()
        raise RuntimeError(f"the service did not start:\n{open(self.log).read()}")

    def _wait_for_health(self) -> int:
        probe = Client(self.url)
        while True:
            try:
                status, _ = probe.call("GET", "/health")
                if status == 200:
                    return time.perf_counter_ns()
            except (urllib.error.URLError, ConnectionError):
                pass
            if time.perf_counter_ns() - self.started > 60e9:
                self.kill()
                raise RuntimeError("the service never answered /health")
            time.sleep(0.002)

    def stop(self, client: Client) -> Dict[str, Any]:
        client.call("POST", "/shutdown")
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("the service did not stop after POST /shutdown")
        if self.proc.returncode != 0:
            raise RuntimeError(f"the service exited {self.proc.returncode}")
        with open(self.out) as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def plan(seed: int) -> List[Dict[str, Any]]:
    from repro.core.config import CampaignConfig

    jobs = []
    for campaign_seed in (seed, seed + 1):
        for dialect in DIALECTS:
            config = CampaignConfig(dialect=dialect, budget=JOB_BUDGET, seed=campaign_seed)
            jobs.append({"kind": "campaign", "config": config.to_dict()})
    return jobs


def drive(client: Client, seed: int) -> Dict[str, Any]:
    """The closed loop.  Returns every job's final JSON in submit order."""
    pending = plan(seed)
    replay_sent = False
    outstanding: Dict[str, int] = {}   # job id -> findings cursor
    finished: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    records: set = set()
    submitted_at = time.perf_counter_ns()
    while pending or outstanding or not replay_sent:
        while pending and len(outstanding) < MAX_OUTSTANDING:
            status, job = client.call("POST", "/jobs", pending.pop(0))
            if status != 200:
                raise RuntimeError(f"submission refused: {job}")
            outstanding[job["id"]] = 0
            order.append(job["id"])
        if not pending and not outstanding and not replay_sent:
            status, job = client.call("POST", "/jobs", {"kind": "replay"})
            outstanding[job["id"]] = 0
            order.append(job["id"])
            replay_sent = True
        time.sleep(POLL_SECONDS)
        client.speed.maybe(time.perf_counter_ns())
        for job_id in list(outstanding):
            # the stream reply carries the job's state; the full job is
            # read once it is terminal
            _, stream = client.call(
                "GET", f"/jobs/{job_id}/findings?since={outstanding[job_id]}"
            )
            outstanding[job_id] = stream.get("next", outstanding[job_id])
            if stream.get("state") in TERMINAL:
                _, finished[job_id] = client.call("GET", f"/jobs/{job_id}")
                del outstanding[job_id]
        _, bugs = client.call("GET", "/bugs")
        for record in bugs.get("bugs", []):
            if record["id"] not in records:
                records.add(record["id"])
                client.call("POST", f"/bugs/{record['id']}/triage", {"status": "confirmed"})
    transitions = {}
    for job_id in order:
        _, data = client.call("GET", f"/jobs/{job_id}/transitions")
        transitions[job_id] = data.get("transitions", [])
    _, health = client.call("GET", "/health")
    return {
        "jobs": [finished[job_id] for job_id in order],
        "transitions": transitions,
        "records": sorted(records),
        "health": health,
        "submitted_at": submitted_at,
        # server stamps are time.time(); this maps them to perf_counter_ns
        "clock_offset_ns": time.time_ns() - time.perf_counter_ns(),
    }


def audit(data_dir: str) -> List[str]:
    from repro.service.audit import ServiceAuditor

    report = ServiceAuditor(data_dir=data_dir).run(repair=False)
    return [] if report.ok else [f"audit: {f}" for f in report.errors]


def check(outcome: Dict[str, Any], expected: Dict[str, Any]) -> checks.Verdict:
    verdict = checks.Verdict()
    jobs = outcome["jobs"]
    campaigns = [j for j in jobs if j["kind"] == "campaign"]
    replays = [j for j in jobs if j["kind"] == "replay"]
    for job in jobs:
        verdict.require(job["state"] == "done", f"job {job['id']} ended {job['state']}")
    pinned = expected["service"]
    new = sum(j.get("ingest", {}).get("new_records", 0) for j in campaigns)
    verdict.require(
        len(outcome["records"]) == new == pinned["records"],
        f"{len(outcome['records'])} records, {new} created by ingest, "
        f"{pinned['records']} pinned",
    )
    for job in campaigns:
        config = job["config"]
        summary = job.get("summary", {})
        verdict.require(
            summary.get("signature_digest") == pinned["digests"].get(config["dialect"]),
            f"{config['dialect']} seed {config['seed']}: signature digest differs "
            f"from the pinned one",
        )
    second_round = campaigns[len(DIALECTS):]
    verdict.require(
        all(j.get("ingest", {}).get("new_records", 1) == 0 for j in second_round),
        "a repeated campaign created new records instead of duplicates",
    )
    verdict.require(len(replays) == 1, f"{len(replays)} replay jobs")
    for job in replays:
        summary = job.get("summary", {})
        verdict.require(
            summary.get("replayed") == summary.get("still_firing") == pinned["records"],
            f"replay: {summary.get('replayed')} replayed, "
            f"{summary.get('still_firing')} still firing, {pinned['records']} records",
        )
    verdict.problems.extend(outcome["audit"])
    return verdict


def _queue_wait(transitions: List[Dict[str, Any]]) -> Optional[float]:
    submitted = claimed = None
    for entry in transitions:
        if entry.get("state") == "queued" and submitted is None:
            submitted = entry.get("at")
        if entry.get("state") == "running" and claimed is None:
            claimed = entry.get("at")
    if submitted is None or claimed is None:
        return None
    return claimed - submitted


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: str) -> Dict[str, Any]:
    expected = checks.load_expected()
    boot_speed = Calibrator()
    setups: List[Tuple[int, int]] = []
    runs: List[Dict[str, Any]] = []
    window_start = time.perf_counter()
    index = 0
    while True:
        if not trace:
            # fresh boots that only measure set-up (the measured run's own
            # boot is one more sample)
            while len(setups) < BOOTS - 1:
                service = Service(scratch, f"boot{index}", trace=False, speed=boot_speed)
                index += 1
                setups.append((service.started, service.healthy))
                service.stop(Client(service.url))
                shutil.rmtree(service.dir)
        service = Service(scratch, f"service{index}", trace=trace, speed=boot_speed)
        index += 1
        setups.append((service.started, service.healthy))
        client = Client(service.url)
        client.speed.sample()
        try:
            outcome = drive(client, seed)
            recorded = service.stop(client)
        finally:
            service.kill()
        outcome["audit"] = audit(service.data_dir)
        outcome["client"] = client
        outcome["recorded"] = recorded
        outcome["finished_at"] = time.time()
        runs.append(outcome)
        shutil.rmtree(service.dir)
        if not another_unit(window_start, seconds, len(runs)):
            break

    verdicts = [check(o, expected) for o in runs]
    failed = 0
    attempted = 0
    for outcome in runs:
        client = outcome["client"]
        attempted += len(client.calls) + len(outcome["jobs"])
        failed += len(client.failures)
        for job in outcome["jobs"]:
            failed += job["state"] != "done"
            summary = job.get("summary", {})
            if job["kind"] == "campaign":
                attempted += summary.get("queries_executed", 0)
                outcomes = summary.get("outcomes", {})
                failed += sum(outcomes.get(kind, 0) for kind in FAILED_KINDS)
                failed += int(bool(summary.get("quarantined")))
    record: Dict[str, Any] = {
        "correct": all(v.ok for v in verdicts),
        "problems": [p for v in verdicts for p in v.problems] + [
            f for o in runs for f in o["client"].failures
        ],
        "attempted": attempted,
        "failed": failed,
        "units": len(runs),
        "metrics": {},
    }
    if not record["correct"]:
        return record

    if trace:
        from .report import derive

        outcome = runs[0]
        campaigns = [j for j in outcome["jobs"] if j["kind"] == "campaign"]
        statements = sum(j["summary"]["queries_executed"] for j in campaigns)
        # spans are wall-clock readings, and so is their share base
        last_done = max(_perf_ns(outcome, j["finished_at"]) for j in campaigns)
        busy_wall = (last_done - outcome["submitted_at"]) / 1e9
        metrics = derive([outcome["recorded"]["trace"]], -1, busy_wall)
        waits = [
            w for w in (_queue_wait(t) for t in outcome["transitions"].values())
            if w is not None
        ]
        metrics["scheduler.queue_wait_s_p50"] = median(waits) if waits else 0.0
        metrics["trace.stmt_per_s"] = statements / busy_wall
        record["metrics"] = metrics
        return record

    record["samples"] = {
        "statements": sum(len(o["recorded"]["probe"]["stmt_cpu_ns"]) for o in runs),
        "client_calls": sum(len(o["client"].calls) for o in runs),
        "setups": len(setups),
        "speed": sum(len(o["client"].speed.samples) + len(o["recorded"]["probe"]["speed"])
                     for o in runs),
    }
    record["metrics"] = timings(runs, setups, boot_speed, SENSITIVITY)
    # the same figures in plain wall-clock and CPU time, for comparison
    record["wall"] = timings(runs, setups, boot_speed, 0.0)
    return record


def _perf_ns(outcome: Dict[str, Any], server_time: float) -> int:
    """A server ``time.time()`` stamp on the client's perf_counter_ns clock."""
    return int(server_time * 1e9) - outcome["clock_offset_ns"]


def timings(
    runs: List[Dict[str, Any]], setups: List[Tuple[int, int]], boot_speed: Calibrator,
    sensitivity: float,
) -> Dict[str, float]:
    """The end-to-end metrics, converted to reference time with the given
    sensitivity (0 leaves wall-clock and CPU time as measured)."""
    statements = 0
    busy = 0.0
    turnaround: List[float] = []
    recall_s: List[float] = []
    recall_stmts: List[float] = []
    stmt_ns: List[float] = []
    http: List[float] = []
    for outcome in runs:
        probe = outcome["recorded"]["probe"]
        client = outcome["client"]
        server_speed = probe["speed"]
        everything = client.speed.samples + server_speed
        # server-side intervals lose the server's calibration pauses,
        # client calls the client's
        server_line = Timeline(everything, server_speed, sensitivity)
        client_line = Timeline(everything, client.speed.samples, sensitivity)

        campaigns = [j for j in outcome["jobs"] if j["kind"] == "campaign"]
        statements += sum(j["summary"]["queries_executed"] for j in campaigns)
        submitted = outcome["submitted_at"]
        last_done = max(_perf_ns(outcome, j["finished_at"]) for j in campaigns)
        busy += server_line.seconds(submitted, last_done)
        turnaround.extend(
            server_line.seconds(_perf_ns(outcome, j["created_at"]), _perf_ns(outcome, j["finished_at"]))
            for j in outcome["jobs"]
        )
        # the repository is complete once the last job that created a
        # record has been ingested; count statements in completion order
        by_finish = sorted(campaigns, key=lambda j: j["finished_at"])
        done_statements = 0
        for job in by_finish:
            done_statements += job["summary"]["queries_executed"]
            if job.get("ingest", {}).get("new_records", 0):
                last_new, at_statements = job, done_statements
        recall_stmts.append(at_statements)
        recall_s.append(server_line.seconds(submitted, _perf_ns(outcome, last_new["finished_at"])))
        own = Timeline(server_speed, None, sensitivity) if server_speed else server_line
        stmt_ns += own.scale(probe["stmt_cpu_ns"], probe["stmt_end_ns"])
        http += [client_line.seconds(a, b) for a, b in client.calls]

    boot_line = Timeline(boot_speed.samples, None, sensitivity)
    return {
        "setup_s": median([boot_line.seconds(a, b) for a, b in setups]),
        "stmt_per_s": statements / busy,
        "stmt_latency_p50_us": percentile(stmt_ns, 50) / 1e3,
        "stmt_latency_p99_ms": percentile(stmt_ns, 99) / 1e6,
        "stmt_latency_p999_ms": percentile(stmt_ns, 99.9) / 1e6,
        "time_to_recall_s": median(recall_s),
        "stmts_to_recall": median(recall_stmts),
        "job_turnaround_s_p50": median(turnaround),
        "http_latency_ms_p50": percentile(http, 50) * 1e3,
        "http_latency_ms_p95": percentile(http, 95) * 1e3,
    }
