"""Run one benchmark workload and print its metrics as the last line of stdout.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload query_flat --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with no instrumentation and prints every end-to-end
metric.  ``--trace 1`` runs the workload twice — untraced, then with spans
recorded at each layer boundary — and prints every per-layer metric plus the
tracing overhead (traced / untraced) of each end-to-end metric; the spans go
to ``perfbench/out/trace_<workload>.jsonl``.

The last line is one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it report the
provenance, per-outcome accounting and the open-loop/writer lateness.  Any
answer that differs from the :class:`SequentialScan` oracle (or a leaked
epoch, or a wrong recovered population) makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: ``(name, unit, better)`` of the end-to-end metrics, as in ``BENCHMARK.json``.
END_TO_END = (
    ("read_p50_ms", "ms", "lower"),
    ("read_ops_s", "1/s", "higher"),
    ("write_p50_ms", "ms", "lower"),
    ("recover_s", "s", "lower"),
    ("space_amp", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: The traced run also reports ``overhead.<metric>`` = traced / untraced for
#: each end-to-end metric.
OVERHEAD = tuple(
    (f"overhead.{name}", "ratio", better) for name, _unit, better in END_TO_END
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import OUT, Accounting, HostSpeed, provenance, remove_scratch
    from spans import PER_LAYER, NullTracer, Tracer, layer_metrics
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = WORKLOADS[args.workload]
    print("provenance " + json.dumps(provenance(args.workload, args.seed, args.seconds, bool(args.trace))))

    try:
        untraced = run(Context(args.seed, args.seconds, NullTracer(), HostSpeed()))
        results = [untraced]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run(Context(args.seed, args.seconds, tracer, HostSpeed()))
            finally:
                tracer.uninstall()
            results.append(traced)
            spans = tracer.write(OUT / f"trace_{args.workload}.jsonl")
            print(f"spans {spans} -> {OUT / f'trace_{args.workload}.jsonl'}")
    finally:
        remove_scratch()

    accounting = Accounting()
    for result in results:
        accounting.merge(result.accounting)
        print("report " + json.dumps(result.report, default=float))
    print("accounting " + json.dumps(accounting.counts))

    if args.trace:
        values = layer_metrics(tracer.spans, traced.layer_inputs)
        for name, _unit, _better in END_TO_END:
            values[f"overhead.{name}"] = traced.metrics[name] / untraced.metrics[name]
        table = PER_LAYER + OVERHEAD
    else:
        values = untraced.metrics
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _better in table}
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']}")

    correct = all(result.correct for result in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": accounting.attempted,
                "failed": accounting.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
