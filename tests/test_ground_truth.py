"""Tests for the ground-truth index behind Table 4 and the logic oracles.

Every lookup in :mod:`repro.dialects.bugs` reads one index built from the
rows the dialect classes declare.  These tests pin that the index is pure
data (no lookup constructs a dialect), that it agrees with a brute-force
scan of what each dialect instance installs, that its order is Table 4's
whatever ran before it, and that checkpoint restores still re-attach the
ground-truth record to a finding.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.oracles.conformance import ConformanceFinding
from repro.core.oracles.crash import DiscoveredBug
from repro.core.oracles.differential import DivergenceFinding
from repro.core.oracles.metamorphic import MetamorphicFinding
from repro.dialects import all_dialect_classes, bugs
from repro.dialects.base import Dialect

TABLE4_ORDER = [
    "postgresql", "mysql", "mariadb", "clickhouse", "monetdb", "duckdb",
    "virtuoso",
]

#: what each dialect instance declares and installs, in Table 4 order
INSTANCES = [cls() for cls in all_dialect_classes()]
INSTALLED_BUGS = [bug for d in INSTANCES for bug in d.bugs]
INSTALLED_FLAWS = [flaw for d in INSTANCES for flaw in d.logic_flaws]


def _every_lookup():
    """Call every public lookup once per key it can be asked about."""
    out = [bugs.all_bugs(), bugs.all_logic_flaws(), bugs.table4_totals()]
    for name in TABLE4_ORDER + ["nosuchdb"]:
        out += [bugs.bugs_for(name), bugs.logic_flaws_for(name)]
        for kind in ("tlp", "norec", "wrong", "strict"):
            out.append(bugs.find_predicate_flaw(name, kind))
    for bug in INSTALLED_BUGS:
        out.append(bugs.find_bug(bug.dbms, bug.function.upper(), bug.crash))
    for flaw in INSTALLED_FLAWS:
        out.append(bugs.find_logic_flaw(flaw.dbms, flaw.function, flaw.kind))
    return out


class TestNoDialectConstruction:
    def test_no_lookup_constructs_a_dialect(self, monkeypatch):
        calls = []
        original = Dialect.__init__

        def counting_init(self):
            calls.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(Dialect, "__init__", counting_init)
        # rebuild the index under the counter: building it is a lookup too
        bugs._index.cache_clear()
        for _ in range(3):
            _every_lookup()
        assert calls == []

    def test_index_is_built_once_per_process(self):
        bugs.all_bugs()
        before = bugs._index.cache_info().misses
        _every_lookup()
        assert bugs._index.cache_info().misses == before


class TestMatchesBruteForce:
    def test_all_records_in_table4_order(self):
        assert bugs.all_bugs() == INSTALLED_BUGS
        assert bugs.all_logic_flaws() == INSTALLED_FLAWS
        assert len(INSTALLED_BUGS) == 132
        seen = []
        for bug in bugs.all_bugs():
            if bug.dbms not in seen:
                seen.append(bug.dbms)
        assert seen == TABLE4_ORDER

    @pytest.mark.parametrize("dbms", TABLE4_ORDER + ["nosuchdb"])
    def test_per_dialect_lists(self, dbms):
        assert bugs.bugs_for(dbms) == [b for b in INSTALLED_BUGS if b.dbms == dbms]
        assert bugs.logic_flaws_for(dbms) == [
            f for f in INSTALLED_FLAWS if f.dbms == dbms
        ]

    def test_find_bug_every_key(self):
        for bug in INSTALLED_BUGS:
            expected = next(b for b in INSTALLED_BUGS if b.key == bug.key)
            assert bugs.find_bug(bug.dbms, bug.function, bug.crash) == expected
            assert bugs.find_bug(bug.dbms, bug.function.upper(), bug.crash) == expected
            assert bugs.find_bug(bug.dbms, bug.function, "NOPE") is None
        assert bugs.find_bug("duckdb", "no_such_function", "AF") is None

    def test_find_logic_flaw_every_key(self):
        for dialect in INSTANCES:
            functions = {f.function for f in dialect.logic_flaws} | {"abs"}
            for function in sorted(functions):
                for kind in (None, "wrong", "strict", "tlp", "norec"):
                    expected = next(
                        (f for f in INSTALLED_FLAWS
                         if f.dbms == dialect.name and f.function == function
                         and (kind is None or f.kind == kind)),
                        None,
                    )
                    found = bugs.find_logic_flaw(dialect.name, function.upper(), kind)
                    assert found == expected, (dialect.name, function, kind)

    def test_find_predicate_flaw_every_key(self):
        for name in TABLE4_ORDER + ["nosuchdb"]:
            for kind in ("tlp", "norec", "wrong", "strict"):
                expected = next(
                    (f for f in INSTALLED_FLAWS if f.dbms == name and f.kind == kind),
                    None,
                )
                assert bugs.find_predicate_flaw(name, kind) == expected

    def test_table4_totals_match_a_recount(self):
        expected = {"total": len(INSTALLED_BUGS),
                    "fixed": sum(b.fixed for b in INSTALLED_BUGS)}
        for bug in INSTALLED_BUGS:
            for key in (f"dbms:{bug.dbms}", f"crash:{bug.crash}",
                        f"patfam:{bug.pattern_family}"):
                expected[key] = expected.get(key, 0) + 1
        assert bugs.table4_totals() == expected

    def test_callers_cannot_mutate_the_index(self):
        bugs.all_bugs().clear()
        bugs.bugs_for("duckdb").clear()
        bugs.logic_flaws_for("mysql").clear()
        bugs.table4_totals()["total"] = 0
        assert len(bugs.all_bugs()) == 132
        assert len(bugs.bugs_for("duckdb")) == 21
        assert len(bugs.logic_flaws_for("mysql")) == 5
        assert bugs.table4_totals()["total"] == 132


class TestOrderIgnoresHistory:
    def test_dialect_built_before_first_lookup(self):
        """Building duckdb first once put duckdb's rows first; Table 4
        order must hold in a fresh process whatever was built before."""
        script = (
            "from repro.dialects import dialect_by_name\n"
            "from repro.dialects.bugs import all_bugs, all_logic_flaws\n"
            "dialect_by_name('duckdb')\n"
            "print(','.join(dict.fromkeys(b.dbms for b in all_bugs())))\n"
            "print(','.join(dict.fromkeys(f.dbms for f in all_logic_flaws())))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout.split()
        assert out == [",".join(TABLE4_ORDER), "mysql,duckdb"]


class TestCheckpointReResolution:
    def test_crash_discovery_reattaches_injected_bug(self):
        target = bugs.find_bug("virtuoso", "contains", "SEGV")
        original = DiscoveredBug(
            dbms="virtuoso", function="contains", crash_code="SEGV",
            pattern="P1.2", sql=target.poc, stage="execute", backtrace=[],
            message="", query_index=7, injected=target,
        )
        restored = DiscoveredBug.from_dict(original.to_dict())
        assert restored.injected == target
        unknown = dict(original.to_dict(), function="unknown")
        assert DiscoveredBug.from_dict(unknown).injected is None

    @pytest.mark.parametrize("dbms,oracle", [
        ("duckdb", "tlp"), ("duckdb", "norec"), ("mysql", "tlp"),
        ("postgresql", "tlp"),
    ])
    def test_metamorphic_finding_reattaches_flaw(self, dbms, oracle):
        finding = MetamorphicFinding(
            dbms=dbms, function="abs", oracle=oracle, divergence="cardinality",
            pattern="P1.1", sql="SELECT 1;", query_index=3, own_digest="a",
            variant_digest="b",
        )
        restored = MetamorphicFinding.from_dict(finding.to_dict())
        assert restored.flaw == bugs.find_predicate_flaw(dbms, oracle)
        assert (restored.flaw is None) == (dbms == "postgresql")

    def test_logic_findings_reattach_flaw(self):
        divergence = DivergenceFinding(
            dbms="mysql", peer="postgresql", function="sign",
            divergence="value", pattern="P1.2", sql="SELECT SIGN(-2.5);",
            query_index=1, own_digest="a", peer_digest="b",
        )
        restored = DivergenceFinding.from_dict(divergence.to_dict())
        assert restored.flaw == bugs.find_logic_flaw("mysql", "sign")
        assert restored.flaw.kind == "wrong"
        conformance = ConformanceFinding(
            dbms="mysql", function="chr", pattern="seed",
            sql="SELECT CHR(65);", message="out of range", query_index=1,
        )
        restored = ConformanceFinding.from_dict(conformance.to_dict())
        assert restored.flaw == bugs.find_logic_flaw("mysql", "chr", kind="strict")
        assert restored.flaw is not None
