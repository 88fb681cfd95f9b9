"""The benchmark's own tests: checks, span arithmetic, wrapper installation.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import campaigns, checks, hostspeed, layers, report, service, tracer  # noqa: E402


class FakeResult:
    """Just enough of a CampaignResult for the checks."""

    dialect = "duckdb"
    quarantined = False

    def __init__(self, queries: int = 20_000) -> None:
        self.queries_executed = queries
        self.false_positives = ["a"] * 5
        self.bugs = []
        self.findings = []

    def signature(self) -> tuple:
        return ("duckdb", self.queries_executed)


def pinned_for(result: FakeResult) -> dict:
    entry = {
        "digest": checks.digest(result),
        "queries_executed": result.queries_executed,
        "false_positives": 5,
        "ids": {"bugs": [], "findings": []},
    }
    return {
        "campaigns": {
            "recall_duckdb": entry,
            "jobs2_duckdb": dict(entry, same_signature_as="recall_duckdb"),
        }
    }


def test_matching_digest_passes():
    result = FakeResult()
    assert checks.check_campaign("recall_duckdb", result, pinned_for(result)).ok


def test_tampered_digest_fails():
    result = FakeResult()
    expected = pinned_for(result)
    expected["campaigns"]["recall_duckdb"]["digest"] = "0" * 64
    verdict = checks.check_campaign("recall_duckdb", result, expected)
    assert not verdict.ok
    assert any("digest" in problem for problem in verdict.problems)
    # the sharded run is held to the serial digest, so it fails too
    assert not checks.check_campaign("jobs2_duckdb", result, expected).ok


def test_wrong_statement_count_fails():
    result = FakeResult()
    expected = pinned_for(result)
    assert not checks.check_campaign("recall_duckdb", FakeResult(19_999), expected).ok


def test_pinned_file_covers_every_workload():
    expected = checks.load_expected()
    assert set(expected["campaigns"]) == {
        "recall_duckdb", "jobs2_duckdb", "metamorphic_duckdb",
    }
    assert (
        expected["campaigns"]["jobs2_duckdb"]["digest"]
        == expected["campaigns"]["recall_duckdb"]["digest"]
    )
    assert set(expected["service"]["digests"]) == set(service.DIALECTS)


def _service_outcome(expected: dict) -> dict:
    jobs = []
    for round_ in range(2):
        for dialect in service.DIALECTS:
            jobs.append({
                "id": f"{dialect}-{round_}", "kind": "campaign", "state": "done",
                "config": {"dialect": dialect, "seed": round_},
                "summary": {"signature_digest": expected["service"]["digests"][dialect]},
                "ingest": {"new_records": (1 if dialect == "duckdb" else 0) * (1 - round_)},
            })
    records = expected["service"]["records"]
    jobs[1]["ingest"]["new_records"] += records - 1
    jobs.append({
        "id": "replay", "kind": "replay", "state": "done",
        "summary": {"replayed": records, "still_firing": records},
    })
    return {"jobs": jobs, "records": list(range(records)), "audit": []}


def test_service_check_passes_and_catches_tampering():
    expected = checks.load_expected()
    outcome = _service_outcome(expected)
    assert service.check(outcome, expected).ok, service.check(outcome, expected).problems

    tampered = copy.deepcopy(outcome)
    tampered["jobs"][0]["summary"]["signature_digest"] = "0" * 64
    assert not service.check(tampered, expected).ok

    failed = copy.deepcopy(outcome)
    failed["jobs"][3]["state"] = "failed"
    assert not service.check(failed, expected).ok

    short_replay = copy.deepcopy(outcome)
    short_replay["jobs"][-1]["summary"]["replayed"] -= 1
    assert not service.check(short_replay, expected).ok


def test_self_time_subtracts_children():
    spans = [
        (1, 0, "runner.run", 0, 100),
        (2, 1, "engine.execute", 10, 60),
        (3, 2, "sqlast.parse", 20, 30),
    ]
    assert tracer.self_times(spans) == {1: 50, 2: 40, 3: 10}


def test_derive_reports_every_per_layer_metric():
    export = {
        "pid": 1,
        "spans": [
            (1, 0, "campaign.run", 0, 1_000),
            (2, 1, "runner.run", 0, 800),
            (3, 2, "engine.execute", 100, 700),
            (4, 1, "oracles.tlp.observe", 800, 900),
            (5, 4, "engine.execute", 810, 890),
        ],
        "counts": {"metamorphic.checked": 4, "metamorphic.compared": 3},
        "maxima": {},
    }
    metrics = report.derive([export], 1, 1_000 / 1e9)
    assert set(metrics) == set(report.PER_LAYER)
    assert metrics["oracles.arm_executions"] == 1
    assert metrics["oracles.compared_ratio"] == 0.75
    assert metrics["runner.s"] == pytest.approx(200 / 1e9)
    assert metrics["share.unattributed"] == pytest.approx(0.1)
    assert metrics["trace.layer_coverage"] == pytest.approx(0.9)


def test_wrappers_bind_every_caller_and_restore():
    import repro.engine.connection as connection
    import repro.sqlast as sqlast
    import repro.sqlast.parser as parser

    original = parser.parse_statements
    try:
        bound = tracer.patch_function("repro.sqlast.parser", "parse_statements",
                                      lambda f: tracer.span_wrapper(f, "sqlast.parse"))
        assert bound >= 3
        assert connection.parse_statements is not original
        assert connection.parse_statements is sqlast.parse_statements
        tracer.TRACER.reset()
        connection.parse_statements("SELECT 1;")
        assert [span[2] for span in tracer.TRACER.spans] == ["sqlast.parse"]
    finally:
        tracer.restore()
    assert connection.parse_statements is original


def test_traced_campaign_attributes_its_time():
    from repro.core.campaign import Campaign
    from repro.core.config import CampaignConfig
    from repro.dialects import dialect_by_name

    try:
        layers.install_tracing()
        tracer.TRACER.reset()
        config = CampaignConfig(dialect="duckdb", budget=400)
        Campaign(dialect_by_name("duckdb"), config=config).run()
        layers.export_instances()
        export = tracer.TRACER.export()
    finally:
        tracer.restore()
    roots = [s for s in export["spans"] if s[2] == "campaign.run"]
    wall = (roots[0][4] - roots[0][3]) / 1e9
    metrics = report.derive([export], export["pid"], wall)
    assert metrics["sqlast.parse_calls"] > 0
    assert metrics["stmtcache.hits"] + metrics["stmtcache.misses"] > 0
    assert metrics["parallel.imbalance"] == 0
    assert metrics["trace.layer_coverage"] > 0.8


def test_missing_sources_exit_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recall_duckdb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_derive_splits_sharded_campaigns_by_worker():
    parent = {
        "pid": 1,
        "spans": [
            (1, 0, "parallel.run", 0, 1_000),
            (2, 1, "runner.run", 0, 100),
        ],
        "counts": {}, "maxima": {},
    }
    workers = [
        {"pid": 2, "spans": [(1, 0, "parallel.shard.w0", 150, 450)], "counts": {}, "maxima": {}},
        {"pid": 3, "spans": [(1, 0, "parallel.shard.w1", 160, 960)], "counts": {}, "maxima": {}},
    ]
    metrics = report.derive([parent] + workers, 1, 1_000 / 1e9)
    assert metrics["parallel.spawn_s"] == pytest.approx(50 / 1e9)
    assert metrics["parallel.worker_busy_s.w0"] == pytest.approx(300 / 1e9)
    assert metrics["parallel.worker_busy_s.w1"] == pytest.approx(800 / 1e9)
    assert metrics["parallel.imbalance"] == pytest.approx(800 / 550)


def test_recall_time_waits_for_the_whole_pinned_set():
    class Found:
        def __init__(self, query_index: int) -> None:
            self.query_index = query_index

    class Sharded:
        bugs = [Found(11), Found(101)]
        findings = []

    # worker 1 reaches position 100 early; worker 0 is still short of 10
    probes = [
        {"found_at": {}},
        {"found_at": {"100": 2_000_000_000}},
        {"found_at": {"10": 7_000_000_000}},
    ]
    # one speed sample at reference speed: reference time = wall time
    line = hostspeed.Timeline([(0, 0, hostspeed.NOMINAL_NS)])
    seconds, statements = campaigns.recall_point(Sharded(), 1_000_000_000, probes, line)
    assert seconds == pytest.approx(6.0)
    assert statements == 101


def test_timeline_converts_to_reference_time():
    nominal = hostspeed.NOMINAL_NS
    # the host runs at half the reference speed throughout
    half = [(0, 0, 2 * nominal), (10**9, 10**9, 2 * nominal)]
    slow = hostspeed.Timeline(half, None, 1.0)
    assert slow.seconds(0, 3 * 10**9) == pytest.approx(1.5)
    assert slow.scale([4_000], [5 * 10**8]) == [pytest.approx(2_000)]
    # partial sensitivity corrects by a power of the speed; 0 is wall time
    assert hostspeed.Timeline(half, None, 0.5).seconds(0, 10**9) == pytest.approx(0.5**0.5)
    assert hostspeed.Timeline(half, None, 0.0).seconds(0, 10**9) == pytest.approx(1.0)
    # speed doubles after the second sample: each interval gets its own factor
    shifting = hostspeed.Timeline(
        [(0, 0, nominal)] * 3 + [(10**9, 10**9, nominal // 2)] * 3, None, 1.0
    )
    assert shifting.seconds(0, 10**9) == pytest.approx(1.0)
    assert shifting.seconds(10**9, 2 * 10**9) == pytest.approx(2.0)


def test_timeline_cuts_out_calibration_pauses():
    nominal = hostspeed.NOMINAL_NS
    line = hostspeed.Timeline([(100, 300, nominal), (1_000, 1_100, nominal)])
    assert line.seconds(0, 2_000) * 1e9 == pytest.approx(2_000 - 200 - 100)
    # an interval that ends inside a pause loses only the part it covers
    assert line.seconds(0, 200) * 1e9 == pytest.approx(100)
    # another process's samples set the speed but are not pauses
    other = hostspeed.Timeline(
        [(100, 300, nominal), (1_000, 1_100, nominal)], pauses=[(1_000, 1_100, nominal)]
    )
    assert other.seconds(0, 2_000) * 1e9 == pytest.approx(1_900)


def test_calibrator_samples_at_most_once_per_interval():
    speed = hostspeed.Calibrator()
    speed.maybe(0)
    first = speed.samples[-1][1]
    speed.maybe(first + hostspeed.INTERVAL_NS - 1)
    assert len(speed.samples) == 1
    speed.maybe(first + hostspeed.INTERVAL_NS)
    assert len(speed.samples) == 2
    assert all(cpu > 0 for _s, _e, cpu in speed.samples)
