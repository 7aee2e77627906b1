"""Wall-clock benchmark of the Snowplow simulator.

Run from the repository root:

    python3 wallbench/run.py --workload directed-oracle --seed 1 \\
        --seconds 20 --trace 0

Each run starts a fresh single-threaded process (:mod:`measure`) with
the BLAS/OpenMP pools pinned to one thread, so ``peak_rss_mb`` and
``setup_s`` belong to one workload.  It prints every metric by name and
unit, writes the full host-tagged result to
``wallbench/results/<workload>-seed<n>-trace<t>.json`` (never into the
program's own ``BENCH_PR*.json`` or ``--observe-dir`` exports), and
ends with one JSON line: ``correct``, ``attempted``/``failed`` slices,
and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170.0

# numpy's OpenBLAS would otherwise start a pool sized to the host.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    command = [
        sys.executable, str(HERE / "measure.py"), args.workload,
        str(args.seed), str(args.seconds), str(args.trace),
    ]
    try:
        child = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"measure.py did not finish in {CHILD_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return 1
    sys.stderr.write(child.stderr)
    try:
        report = json.loads(child.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"measure.py exited {child.returncode} without a result",
              file=sys.stderr)
        return 1
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    units = metric_units("per_layer" if args.trace else "end_to_end")
    source = report.get("layers", {}) if args.trace else report
    metrics = {
        name: {"value": source[name], "unit": unit}
        for name, unit in units.items() if name in source
    }
    correct = (
        child.returncode == 0
        and report["failed"] == 0
        and len(metrics) == len(units)
    )
    print(f"{args.workload} seed {args.seed}: {report['episodes']} "
          f"episode(s), {report['traced_episodes']} traced, digest "
          f"{', '.join(d[:16] for d in report['digests'])}")
    if "slice_tail_samples" in report:
        print(f"  slice_tail_ms is p{report['slice_tail_percentile']} of "
              f"{report['slice_tail_samples']} slice samples")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure.strip().splitlines()[-1]}")
    print(f"  full result -> {out_path.relative_to(ROOT)}")
    # A run that is wrong without a failed episode (a missing metric,
    # a crashed process) fails every slice it attempted.
    failed = report["failed"] or (0 if correct else report["attempted"])
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
