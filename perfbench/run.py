#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload static-fleet --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (from a separate traced run).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A per-run record (machine
and provenance stamp, details, and for traced runs a Chrome
trace-event file) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program(root: str) -> None:
    """Put the checkout's ``src`` first on the path and check that
    ``repro`` really comes from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no repro package under {src}; run from the root "
            "of a repository checkout"
        )
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program(ROOT)

    from perfbench.harness import machine_stamp, speed_probe_s
    from perfbench.measure import WORKLOADS, output_dir, run_traced, run_untraced

    stamp = machine_stamp(ROOT, args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        values, acct, details, trace = run_traced(workload, args.seconds)
        units = PER_LAYER
    else:
        values, acct, details = run_untraced(workload, args.seconds)
        trace = None
        units = END_TO_END
    stamp["loadavg_after"] = list(os.getloadavg())
    stamp["speed_probe_ms_after"] = speed_probe_s(15) * 1000.0
    bad = [name for name in units if not math.isfinite(float(values[name]))]
    if bad:
        raise SystemExit(f"perfbench: non-finite metrics {bad}")

    result = {
        "correct": acct.correct,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    out = output_dir(ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out, f"{tag}.json"), "w") as fh:
        json.dump({"stamp": stamp, "result": result, "details": details}, fh)
    if trace is not None:
        trace["metadata"]["stamp"] = stamp
        with open(os.path.join(out, f"{tag}.chrome.json"), "w") as fh:
            json.dump(trace, fh)

    print(f"stamp: {json.dumps(stamp)}")
    for name, unit in units.items():
        print(f"{args.workload:>14} {name:<40} {float(values[name]):>16.6g} {unit}")
    if not args.trace:
        print(
            f"{args.workload:>14} cycle samples {details['cycle_samples']} "
            f"(highest percentile with >=10 beyond: p{details['highest_valid_percentile']})"
        )
    print(
        f"{args.workload:>14} failures: "
        + " ".join(f"{k} {v}" for k, v in acct.breakdown().items())
        + f" failed_frac {acct.failed_frac:.6g}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
