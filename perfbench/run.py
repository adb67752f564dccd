#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload fleet-orchard --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` says why each is there):

* ``fleet-orchard`` — dense trap-reading fleets run to completion;
* ``perception-served`` — closed-loop batches of distinct observation
  queries, every one a cache miss, matched through a gateway process;
* ``surveillance-recorded`` — guard fleets under an intruder burst,
  with a flight recorder writing every tick.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
of :data:`END_TO_END`; with ``--trace 1`` a separate traced run wraps
each layer's public calls from outside and reports the per-layer
metrics of :data:`layers.LAYER_METRICS`.  The line before it carries
the host fingerprint and the workload's own figures under the names
the workload documents (``mission_ticks_per_s``, ``call_p90_ms``...);
``.perfbench/`` keeps both, and the traced run's spans.

Every workload checks its outputs; an op that fails or fails its check
counts in ``failed``.  The library is driven only through ``FleetSpec``
and the ``Classifier`` protocol: a ``DeprecationWarning`` is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("fleet-orchard", "perception-served", "surveillance-recorded")

#: End-to-end metrics every workload reports, with units.  What each
#: one measures on each workload is listed in ``perfbench/README.md``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args):
    """Run the chosen workload; returns its :class:`common.Result`."""
    if args.workload == "perception-served":
        import perception as module
    else:
        import fleets as module
    return module.run(args.workload, args.seed, args.seconds, bool(args.trace))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    warnings.simplefilter("error", DeprecationWarning)

    from common import OUT_DIR, fingerprint, peak_rss_mb, write_detail
    from layers import LAYER_METRICS

    OUT_DIR.mkdir(exist_ok=True)
    result = run_workload(args)
    metrics = dict(result.metrics)
    if not args.trace:
        metrics["peak_rss_mb"] = (
            peak_rss_mb(include_children=args.workload == "perception-served"),
            "MB",
        )
    expected = LAYER_METRICS if args.trace else END_TO_END
    if set(metrics) != set(expected):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(expected))}")
    ordered = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in expected}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "workload_metrics": {
            key: {"value": value[0], "unit": value[1]}
            for key, value in result.detail.items()
            if isinstance(value, tuple)
        },
        "detail": {k: v for k, v in result.detail.items() if not isinstance(v, tuple)},
        "metrics": ordered,
    }
    write_detail(f"{args.workload}-seed{args.seed}-trace{args.trace}", detail)
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(result.correct),
                "attempted": int(result.attempted),
                "failed": int(result.failed),
                "metrics": ordered,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
