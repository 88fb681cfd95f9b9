"""Warm-path differential and sharded-parity checks.

These tests were written for the plan→closure compiler, which has been
deleted: every statement now runs through the one tree-walking
interpreter, and a warm statement-cache hit only skips parsing and
planning.  The checks still hold and still matter under the old names —
a warm repeat must behave byte-identically to a cold, uncached run
(same classification, same error message, same result-set fingerprint),
and a ``--jobs 4`` campaign must reproduce the serial signature.
"""

import itertools

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.collect import SeedCollector
from repro.core.patterns import PatternEngine
from repro.core.runner import Runner
from repro.dialects import all_dialect_classes, bugs_for, dialect_by_name
from repro.perf.parallel import ParallelCampaign

FAULT_SPEC = "hang=0.01,slow=0.02,drop=0.01,flaky=0.01,restart_fail=0.1"
ALL_ORACLES = ("crash", "differential", "conformance")


def _outcome_key(outcome):
    return (outcome.kind, outcome.message, outcome.result_type)


def _pattern_sample(dialect, per_pattern=5, pattern_target=10):
    """Statements covering every boundary pattern the generator emits.

    Bucket ``seed`` plus the generated P-patterns (P1.2 .. P3.3) — ten
    shapes total — with *per_pattern* statements each.
    """
    seeds = SeedCollector(dialect).collect()
    buckets = {"seed": [f"SELECT {s.sql};" for s in seeds[:per_pattern]]}
    engine = PatternEngine(seeds)
    for case in itertools.islice(engine.generate_all(), 8000):
        bucket = buckets.setdefault(case.pattern, [])
        if len(bucket) < per_pattern:
            bucket.append(case.sql)
    assert len(buckets) >= pattern_target, sorted(buckets)
    return buckets


# ---------------------------------------------------------------------------
# warm cache-hit path vs cold interpretation: per-statement differential
# ---------------------------------------------------------------------------
class TestCompiledDifferential:
    @pytest.mark.parametrize(
        "dialect_name",
        [cls().name for cls in all_dialect_classes()],
    )
    def test_compiled_and_interpreted_outcomes_identical(self, dialect_name):
        """Every boundary pattern, every dialect: identical classification
        *and* identical result values (fingerprints), run twice so the
        second pass is served from the warm statement cache.  Crashing PoCs
        are spliced in so both sides also restart mid-stream."""
        dialect = dialect_by_name(dialect_name)
        buckets = _pattern_sample(dialect)
        statements = [sql for bucket in buckets.values() for sql in bucket]
        statements[10:10] = [bug.poc for bug in bugs_for(dialect_name)[:3]]
        warm = Runner(dialect_by_name(dialect_name))
        cold = Runner(dialect_by_name(dialect_name), statement_cache=False)
        warm.capture_fingerprints = True
        cold.capture_fingerprints = True
        for sql in statements * 2:
            a = warm.run(sql)
            b = cold.run(sql)
            assert _outcome_key(a) == _outcome_key(b), sql
            assert a.fingerprint == b.fingerprint, sql
        assert warm.cache_hits > 0
        assert cold.cache_hits == 0


# ---------------------------------------------------------------------------
# sharded vs serial: campaign signatures
# ---------------------------------------------------------------------------
class TestCompiledSignatureParity:
    def _serial_signature(self, **kw):
        cfg = CampaignConfig(budget=600, seed=7, **kw)
        return Campaign(dialect_by_name("duckdb"), config=cfg).run().signature()

    def _parallel(self, jobs, **kw):
        cfg = CampaignConfig(dialect="duckdb", budget=600, seed=7, jobs=jobs, **kw)
        return ParallelCampaign(config=cfg).run()

    def test_jobs4_signature_equals_serial_compiled_and_not(self):
        # one execution path is left; with and without the statement cache
        # the sharded run must still reproduce the serial signature
        serial = self._serial_signature()
        assert self._parallel(4).signature() == serial
        uncached = self._parallel(4, statement_cache=False)
        assert uncached.signature() == serial
        assert uncached.cache_hits == 0

    def test_jobs4_signature_equals_serial_with_faults(self):
        serial = self._serial_signature(faults=FAULT_SPEC, fault_seed=11)
        parallel = self._parallel(4, faults=FAULT_SPEC, fault_seed=11)
        assert parallel.signature() == serial

    def test_jobs4_signature_equals_serial_all_oracles(self):
        serial = self._serial_signature(oracles=ALL_ORACLES)
        parallel = self._parallel(4, oracles=ALL_ORACLES)
        assert parallel.signature() == serial
