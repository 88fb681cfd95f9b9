"""Start the campaign service exactly as ``repro serve`` starts it (default
one scheduler worker, minimisation on), with the benchmark's probes or
span wrappers installed first, and write what they recorded on exit.

    python3 -u perfbench/serve.py --data-dir DIR --out FILE --trace 0|1

The service listens on an ephemeral port and prints its URL; it stops on
``POST /shutdown``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import repro.cli
    from perfbench import layers
    from perfbench.tracer import TRACER

    if args.trace:
        layers.install_tracing()
    else:
        layers.install_probes()
    code = repro.cli.main(["serve", "--port", "0", "--data-dir", args.data_dir])
    layers.export_instances()
    with open(args.out, "w") as fh:
        json.dump({"trace": TRACER.export(), "probe": layers.PROBE.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
