"""The repository benchmark: one workload, one seed, every metric checked.

Run from the repository root::

    python3 scrbench/run.py --workload fig6-caida --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes its spans under ``scrbench/out/``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See scrbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="host time to spend on timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap


def _import_program() -> bool:
    """Put this checkout's ``src`` first on the path; refuse any other copy."""
    sys.path[:0] = [SRC, ROOT]
    try:
        import repro
    except ImportError:
        return False
    return os.path.dirname(os.path.abspath(repro.__file__)) == os.path.join(SRC, "repro")


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if not _import_program():
        print(f"error: the program's sources are missing (expected {SRC}/repro)",
              file=sys.stderr)
        return 2
    from scrbench import harness, workloads
    from scrbench.spans import write_spans

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: "
                 f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.build(args.workload, args.seed)
    out = harness.run_workload(workload, args.seconds, traced=bool(args.trace))

    for label, ns in zip(out.labels, out.best_ns):
        line = f"{label:56s} best {ns / 1e6:9.2f} ms"
        if label in out.mlffr_mpps:
            line += f"  mlffr {out.mlffr_mpps[label]:7.2f} Mpps"
        print(line)
    for label, causes in out.causes.items():
        if causes:
            print(f"FAILED {label}: {', '.join(causes)}")
    for label, causes in out.companion_causes.items():
        if causes:
            print(f"FAILED companion {label}: {', '.join(causes)}")
    for cause in out.run_causes:
        print(f"FAILED run: {cause}")
    n = len(out.best_ns)
    rank = harness.tail_rank(n)
    print(f"{out.attempted} items checked, {out.failed} failed; {n} items "
          f"timed over {out.passes} passes; search_tail_s is item "
          f"{rank} of {n} by time (p{100 * rank / n:.0f}); calibration loop "
          f"{out.calibration_ns / 1e6:.3f} ms, host times x{harness.host_scale(out):.3f}")

    if args.trace:
        path = os.path.join(ROOT, "scrbench", "out",
                            f"spans-{args.workload}-seed{args.seed}.csv")
        write_spans(path, out.spans)
        print(f"spans: {len(out.spans)} written to {os.path.relpath(path, ROOT)}")
        metrics = {name: {"value": out.layer[name], "unit": unit}
                   for name, unit, _ in harness.PER_LAYER}
    else:
        values = harness.end_to_end(out)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in harness.END_TO_END}
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
