"""Output checks: a wrong result fails the run whatever its speed.

``expected.json`` pins, per workload, the campaign signature digest
(``repro.service.jobs.signature_digest``) and the finding identities,
recorded at the default seed by ``python3 perfbench/record.py``.
``CampaignConfig.seed`` seeds an RNG that the statement generator never
draws from, so these campaigns sign identically on every seed; the pins
are therefore checked on every seed, next to the seed-free invariants:

* ``recall_duckdb`` finds exactly the pinned duckdb injected bugs (recall
  1.0 against the ones its window reaches) and the pinned unattributed
  crash signatures (listed as ``?function``, and counted by the crash
  oracle as its false positives);
* ``jobs2_duckdb`` signs exactly like the serial ``recall_duckdb`` run;
* ``metamorphic_duckdb`` attributes every logic finding to duckdb's seeded
  flaw of the same oracle kind;
* ``service_mix`` (see ``service.py``) ends every job ``done``, its record
  and replay counts match, and an audit of its data dir is clean.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass
class Verdict:
    problems: List[str] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)


def load_expected(path: Optional[str] = None) -> Dict[str, Any]:
    with open(path or EXPECTED_PATH) as fh:
        return json.load(fh)


def digest(result: Any) -> str:
    from repro.service.jobs import signature_digest

    return signature_digest(result)


def finding_positions(result: Any) -> List[int]:
    """0-based stream positions at which each finding first surfaced."""
    return [f.query_index - 1 for f in list(result.bugs) + list(result.findings)]


def finding_ids(result: Any) -> Dict[str, List[str]]:
    """The identities a run is pinned by."""
    return {
        "bugs": sorted(b.injected.bug_id if b.injected else f"?{b.function}" for b in result.bugs),
        "findings": sorted(f"{f.oracle}:{f.function}" for f in result.findings),
    }


def check_campaign(
    workload: str, result: Any, expected: Optional[Dict[str, Any]] = None
) -> Verdict:
    expected = expected if expected is not None else load_expected()
    verdict = Verdict(digest=digest(result))
    pinned = expected["campaigns"][workload]
    verdict.require(
        result.queries_executed == pinned["queries_executed"],
        f"{workload}: executed {result.queries_executed} statements, "
        f"expected {pinned['queries_executed']}",
    )
    verdict.require(not result.quarantined, f"{workload}: server quarantined")
    verdict.require(
        len(result.false_positives) == pinned["false_positives"],
        f"{workload}: {len(result.false_positives)} false positives, "
        f"{pinned['false_positives']} pinned",
    )
    for bug in result.bugs:
        verdict.require(
            bug.injected is None or bug.injected.dbms == result.dialect,
            f"{workload}: crash in {bug.function} attributed to another dialect",
        )
    ids = finding_ids(result)
    verdict.require(
        ids == pinned["ids"],
        f"{workload}: findings {ids} differ from the pinned {pinned['ids']}",
    )
    for finding in result.findings:
        flaw = finding.attribution
        verdict.require(
            flaw is not None
            and flaw.dbms == result.dialect
            and flaw.kind == finding.oracle,
            f"{workload}: {finding.oracle} finding on {finding.function} is "
            f"not attributed to the seeded {result.dialect} flaw",
        )
    # jobs2 must sign exactly like the serial campaign over the same stream
    reference = pinned.get("same_signature_as", workload)
    verdict.require(
        verdict.digest == expected["campaigns"][reference]["digest"],
        f"{workload}: signature digest {verdict.digest[:16]} differs from the "
        f"pinned {reference} digest",
    )
    return verdict
