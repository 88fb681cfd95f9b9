"""Tests for the runner, oracle, and campaign orchestration."""

import sys

import pytest

from repro.core.campaign import Campaign, run_campaign
from repro.core.config import CampaignConfig
from repro.core.oracles import CrashOracle
from repro.core.runner import Outcome, Runner
from repro.dialects import bugs_for, dialect_by_name
from repro.engine.connection import ConnectionClosed, ServerCrashed
from repro.engine.errors import NullPointerDereference


class TestRunner:
    def test_ok_outcome(self):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run("SELECT 1;")
        assert outcome.kind == "ok"
        assert outcome.result_type == "integer"

    def test_error_outcome(self):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run("SELECT NO_SUCH_FN(1);")
        assert outcome.kind == "error"

    def test_syntax_error_outcome(self):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run("SELEKT;")
        assert outcome.kind == "error"

    @pytest.mark.parametrize("sql", [
        # rendering an integer past Python's 4,300-digit str() limit
        "SELECT CAST(CEIL(REPEAT('9', 5000)) AS VARCHAR);",
        "SELECT CEIL(REPEAT('9', 5000)) || 'a';",
        "SELECT CEIL(REPEAT('9', 5000)) LIKE '9%';",
        "SELECT CEIL(REPEAT('9', 5000))::TEXT;",
        # quantizing past the decimal context
        "SELECT CAST(CEIL(REPEAT('9', 5000)) AS DECIMAL);",
    ])
    def test_huge_numeric_edge_cases_are_sql_outcomes(self, sql):
        runner = Runner(dialect_by_name("duckdb"))
        outcome = runner.run(sql)
        assert isinstance(outcome, Outcome)
        # Python < 3.11 has no str() digit limit, so a render may succeed
        if sys.version_info >= (3, 11):
            assert outcome.kind == "error"
            assert "value out of range" in outcome.message
        assert runner.run("SELECT 1;").kind == "ok"

    @pytest.mark.parametrize("sql", [
        "SELECT 'abc;", "SELECT \"abc;", "SELECT /* abc;",
    ])
    def test_lexer_errors_are_syntax_errors(self, sql):
        outcome = Runner(dialect_by_name("duckdb")).run(sql)
        assert outcome.kind == "error"
        assert "unterminated" in outcome.message

    def test_resource_kill_outcome(self):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run("SELECT REPEAT('a', 9999999999);")
        assert outcome.kind == "resource_kill"

    def test_crash_outcome_and_restart(self):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run("SELECT REVERSE('');")
        assert outcome.kind == "crash"
        assert outcome.crash.code == "NPD"
        assert runner.restarts == 1
        # the runner keeps serving after the restart
        assert runner.run("SELECT 1;").kind == "ok"

    def test_function_triggering_survives_restart(self):
        runner = Runner(dialect_by_name("mariadb"))
        runner.run("SELECT UPPER('a');")
        runner.run("SELECT REVERSE('');")  # crash + restart
        runner.run("SELECT LOWER('A');")
        assert {"upper", "lower"} <= runner.triggered_functions

    def test_coverage_accumulates(self):
        runner = Runner(dialect_by_name("mariadb"), enable_coverage=True)
        runner.run("SELECT UPPER('a');")
        first = runner.branch_coverage
        runner.run("SELECT JSON_LENGTH('[1, 2]');")
        assert runner.branch_coverage > first > 0

    def test_coverage_survives_crash_restart(self):
        runner = Runner(dialect_by_name("mariadb"), enable_coverage=True)
        runner.run("SELECT UPPER('a');")
        before = runner.branch_coverage
        assert runner.run("SELECT REVERSE('');").kind == "crash"
        # restart(keep_coverage=True) must not reset accumulated metrics
        assert runner.branch_coverage >= before > 0
        runner.run("SELECT JSON_LENGTH('[1, 2]');")
        assert runner.branch_coverage > before


class TestServerLifecycle:
    def test_connection_closed_on_downed_server(self):
        server = dialect_by_name("mariadb").create_server()
        connection = server.connect()
        with pytest.raises(ServerCrashed):
            connection.execute("SELECT REVERSE('');")
        assert not server.alive
        with pytest.raises(ConnectionClosed):
            connection.execute("SELECT 1;")

    def test_restart_revives_execution(self):
        server = dialect_by_name("mariadb").create_server()
        connection = server.connect()
        with pytest.raises(ServerCrashed):
            connection.execute("SELECT REVERSE('');")
        server.restart()
        fresh = server.connect()
        assert fresh.execute("SELECT 1;").rows

    def test_restart_keep_coverage_preserves_metrics(self):
        from repro.engine.coverage import CoverageTracker

        server = dialect_by_name("mariadb").create_server()
        server.ctx.coverage = CoverageTracker()
        connection = server.connect()
        connection.execute("SELECT UPPER('a');")
        tracker = server.ctx.coverage
        arcs_before = len(tracker.arcs)
        assert arcs_before > 0
        with pytest.raises(ServerCrashed):
            connection.execute("SELECT REVERSE('');")
        server.restart(keep_coverage=True)
        assert server.ctx.coverage is tracker
        assert len(server.ctx.coverage.arcs) >= arcs_before


class TestOracle:
    def _crash(self, function="reverse", code_cls=NullPointerDereference):
        crash = code_cls("boom", function=function, stage="execute")
        return crash

    def test_dedup_by_function_and_class(self):
        oracle = CrashOracle("mariadb")
        first = oracle.observe_crash(self._crash(), "SELECT 1;", "P1.2", 1)
        dup = oracle.observe_crash(self._crash(), "SELECT 2;", "P1.2", 2)
        assert first is not None
        assert dup is None
        assert len(oracle.bugs) == 1

    def test_different_functions_not_deduped(self):
        oracle = CrashOracle("mariadb")
        oracle.observe_crash(self._crash("reverse"), "s", "P1.2", 1)
        oracle.observe_crash(self._crash("upper"), "s", "P1.2", 2)
        assert len(oracle.bugs) == 2

    def test_attribution_to_injected_registry(self):
        oracle = CrashOracle("mariadb")
        found = oracle.observe_crash(self._crash("reverse"), "s", "P1.2", 1)
        assert found.injected is not None
        assert found.injected.bug_id.startswith("MARIADB-STRI")

    def test_unknown_crash_still_recorded(self):
        oracle = CrashOracle("mariadb")
        found = oracle.observe_crash(self._crash("mystery_fn"), "s", "P1.2", 1)
        assert found.injected is None
        assert found.family == "unknown"

    def test_false_positive_dedup_by_reason(self):
        oracle = CrashOracle("mariadb")
        assert oracle.observe_resource_kill("SELECT A;", "allocation of 123 bytes")
        assert not oracle.observe_resource_kill("SELECT B;", "allocation of 456 bytes")
        assert oracle.observe_resource_kill("SELECT C;", "REPEAT result exceeds limit")
        assert len(oracle.false_positives) == 2

    def test_recall(self):
        oracle = CrashOracle("mariadb")
        expected = bugs_for("mariadb")
        assert oracle.recall_against(expected) == 0.0
        oracle.observe_crash(self._crash("reverse"), "s", "P1.2", 1)
        assert 0 < oracle.recall_against(expected) < 1


class TestCampaign:
    def test_small_campaign_finds_bugs(self):
        result = run_campaign("duckdb", budget=6000)
        assert result.queries_executed == 6000
        assert result.bug_count >= 5
        assert result.seeds_collected > 100
        assert len(result.triggered_functions) > 100

    def test_campaign_is_deterministic(self):
        a = run_campaign("monetdb", budget=3000, seed=7)
        b = run_campaign("monetdb", budget=3000, seed=7)
        assert [x.sql for x in a.bugs] == [y.sql for y in b.bugs]
        assert a.triggered_functions == b.triggered_functions

    def test_stop_when_all_found(self):
        dialect = dialect_by_name("postgresql")
        campaign = Campaign(dialect, config=CampaignConfig(
            dialect="postgresql", budget=200_000, stop_when_all_found=True))
        result = campaign.run()
        assert result.queries_executed < 200_000
        assert result.bug_count == 1

    def test_bug_discoveries_carry_pattern_and_sql(self):
        result = run_campaign("duckdb", budget=6000)
        for bug in result.bugs:
            assert bug.pattern.startswith(("P1", "P2", "P3", "seed"))
            assert bug.sql.startswith("SELECT")
            assert bug.crash_code

    def test_outcome_accounting_sums_to_budget(self):
        result = run_campaign("monetdb", budget=2500)
        assert sum(result.outcomes.values()) == result.queries_executed == 2500

    def test_injected_rng_and_clock_reproduce_results(self):
        import random

        from repro.robustness import SimulatedClock

        dialect = dialect_by_name("monetdb")
        config = CampaignConfig(dialect="monetdb", budget=2000)
        a = Campaign(dialect, config=config, rng=random.Random(99),
                     clock=SimulatedClock()).run()
        b = Campaign(dialect_by_name("monetdb"), config=config,
                     rng=random.Random(99), clock=SimulatedClock()).run()
        assert a.signature() == b.signature()
        assert a.elapsed_seconds == b.elapsed_seconds


class TestOracleShimDeprecation:
    def test_legacy_import_path_warns_and_reexports(self):
        import importlib
        import sys
        import warnings

        sys.modules.pop("repro.core.oracle", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            module = importlib.import_module("repro.core.oracle")
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert deprecations, "importing repro.core.oracle must warn"
        assert "repro.core.oracles" in str(deprecations[0].message)

        from repro.core.oracles import CrashOracle as canonical_oracle
        from repro.core.oracles import DiscoveredBug as canonical_bug

        assert module.CrashOracle is canonical_oracle
        assert module.DiscoveredBug is canonical_bug
