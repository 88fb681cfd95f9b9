"""Re-record ``expected.json``: the pinned digests and finding identities.

    python3 perfbench/record.py [--seed 0]

Run it only after a deliberate change to campaign outcomes, and say so in
CHANGES.md.  It runs each campaign workload once at *seed*, runs the
service mix once, and cross-checks that each service campaign job signs
exactly like the same config run in-process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    from perfbench import campaigns, checks, service

    scratch = os.path.join(ROOT, ".perfbench_run", f"record-{os.getpid()}")
    os.makedirs(scratch)
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = scratch
    pins = {"recorded_seed": args.seed, "campaigns": {}, "service": {}}
    try:
        for workload in ("recall_duckdb", "metamorphic_duckdb"):
            result, _start, _end = campaigns.run_unit(campaigns.config_for(workload, args.seed))
            pins["campaigns"][workload] = {
                "digest": checks.digest(result),
                "queries_executed": result.queries_executed,
                "false_positives": len(result.false_positives),
                "ids": checks.finding_ids(result),
            }
            print(workload, pins["campaigns"][workload], flush=True)
        pins["campaigns"]["jobs2_duckdb"] = dict(
            pins["campaigns"]["recall_duckdb"], same_signature_as="recall_duckdb"
        )

        svc = service.Service(scratch, "record", trace=False)
        client = service.Client(svc.url)
        try:
            outcome = service.drive(client, args.seed)
            svc.stop(client)
        finally:
            svc.kill()
        from repro.core.campaign import Campaign
        from repro.core.config import CampaignConfig
        from repro.dialects import dialect_by_name

        digests = {}
        for job in outcome["jobs"][: len(service.DIALECTS)]:
            dialect = job["config"]["dialect"]
            served = job["summary"]["signature_digest"]
            config = CampaignConfig(dialect=dialect, budget=service.JOB_BUDGET, seed=args.seed)
            local = checks.digest(Campaign(dialect_by_name(dialect), config=config).run())
            if served != local:
                print(f"error: {dialect} signs differently in the service", file=sys.stderr)
                return 1
            digests[dialect] = served
        pins["service"] = {"digests": digests, "records": len(outcome["records"])}
        print("service", pins["service"], flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
