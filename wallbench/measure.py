"""One benchmark run of one workload, in this (fresh) process.

Usage: ``python3 wallbench/measure.py <workload> <seed> <seconds> <0|1>``
with ``src`` on ``PYTHONPATH``; :mod:`run` starts it that way.  Prints
one JSON object with the run's raw results as its last stdout line.

A run repeats *episodes* of the workload (setup, then the sliced
campaign) with the same seed until ``seconds`` have passed and at least
``MIN_EPISODES`` have run.  Every episode must produce the same virtual
outputs, equal to the digest pinned in ``digests.json`` when the seed
has one.  With tracing on, episodes alternate untraced and traced, so
the traced digests are checked against the untraced ones and the
tracing overhead is measured in the same process.

Host-speed correction: on a shared host the same Python code runs up to
twice as slowly for stretches of seconds to minutes, and CPU time moves
with wall time.  So every timed interval (a set-up, a slice, the
campaign tail) is bracketed by :func:`probe`, a fixed standard-library
workload, and is also reported *corrected*: multiplied by
``PROBE_REF_S`` over the mean of its two probes, i.e. the time it would
take at the host speed where the probe takes ``PROBE_REF_S``.  The
probe runs none of the program's code and runs with the garbage
collector off, so its time does not depend on the program's heap and a
faster program still reads faster.  Both the raw and the corrected
times go into the result file; the end-to-end metrics use the
corrected ones.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_EPISODES = 3
# With tracing on, episodes alternate: at least this many of each.
MIN_TRACE_PAIRS = 2
# Start no new episode after this many seconds, so a slow host still
# finishes well inside the run's time limit.
MAX_START_S = 110.0
PINNED = HERE / "digests.json"
# The lowest percentile slice_tail_ms may report.
TAIL_MIN_PERCENTILE = 80.0
# The probe's duration at the reference host speed.
PROBE_REF_S = 0.0025


class _Node:
    def __init__(self, kind, value, children):
        self.kind = kind
        self.value = value
        self.children = children


def _tree(depth: int) -> _Node:
    if depth == 0:
        return _Node("leaf", 7, [])
    return _Node("inner", (depth, "x"), [_tree(depth - 1) for _ in range(3)])


# Object graph shaped like a program's value tree: small instances,
# lists, tuples and dicts, copied with copy.deepcopy.
_PROBE_DATA = [_tree(4), {"k": list(range(50)), "t": tuple(range(20))}]


def probe() -> float:
    """Wall seconds of one fixed deepcopy workload (~PROBE_REF_S)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            copy.deepcopy(_PROBE_DATA)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Stopwatch:
    """Times calls, raw and corrected for host speed, sharing each
    probe between consecutive intervals."""

    def __init__(self):
        self.last_probe = probe()

    def time(self, function):
        start = time.perf_counter()
        result = function()
        raw = time.perf_counter() - start
        after = probe()
        corrected = raw * 2.0 * PROBE_REF_S / (self.last_probe + after)
        self.last_probe = after
        return result, raw, corrected


def host_tags() -> dict:
    """CPU model, core count, Python, numpy and BLAS versions."""
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_episode(name: str, seed: int, tracer=None) -> dict:
    """Set up and run one episode; times and virtual outputs.

    Times are ``[raw, corrected]`` pairs in seconds.
    """
    workload = workloads.WORKLOADS[name](seed)
    watch = Stopwatch()
    _, *setup = watch.time(workload.setup)
    top_before = tracer.top_ns if tracer is not None else 0
    slices = []
    more = True
    while more:
        more, *times = watch.time(workload.step)
        slices.append(times)
    _, *finish = watch.time(workload.finish)
    outputs = workload.outputs()
    campaign = [
        sum(times[k] for times in slices) + finish[k] for k in (0, 1)
    ]
    episode = {
        "setup": setup,
        "slices": slices,
        "finish": finish,
        "campaign": campaign,
        "outputs": outputs,
        "digest": workloads.digest(outputs),
        "execs_per_s": [outputs["executions"] / t for t in campaign],
    }
    if tracer is not None:
        episode["covered_ns"] = tracer.top_ns - top_before
    return episode


def tail(values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with ``beyond`` samples
    above it, that percentile and the sample count."""
    ordered = sorted(values)
    rank = max(len(ordered) - beyond, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def end_to_end(episodes: list[dict], k: int) -> dict:
    """End-to-end timings from raw (``k=0``) or corrected (``k=1``)
    times.

    Every episode repeats the same virtual work slice for slice, so each
    slice index is summarised by the median of its repeats.  When there
    are too few slices for that to reach ``TAIL_MIN_PERCENTILE``, the
    tail is taken over the slices of the first ``MIN_EPISODES``
    episodes instead, so its percentile does not depend on how many
    episodes fit in the run.
    """
    counts = {len(episode["slices"]) for episode in episodes}
    if len(counts) != 1:
        raise RuntimeError(f"episodes ran different slice counts: {counts}")
    slices = [
        statistics.median(times[k] for times in repeats)
        for repeats in zip(*(episode["slices"] for episode in episodes))
    ]
    finish = statistics.median(episode["finish"][k] for episode in episodes)
    tail_s, pct, samples = tail(slices)
    if pct < TAIL_MIN_PERCENTILE:
        tail_s, pct, samples = tail(
            [
                times[k]
                for episode in episodes[:MIN_EPISODES]
                for times in episode["slices"]
            ]
        )
    return {
        "execs_per_s": episodes[0]["outputs"]["executions"]
        / (sum(slices) + finish),
        "slice_p50_ms": statistics.median(slices) * 1e3,
        "slice_tail_ms": tail_s * 1e3,
        "slice_tail_percentile": round(pct, 1),
        "slice_tail_samples": samples,
        "setup_s": statistics.median(
            episode["setup"][k] for episode in episodes
        ),
    }


def layer_metrics(tracer: tracing.LayerTracer, episode: dict) -> dict:
    """Per-layer calls/self time plus the derived ratios of one traced
    episode."""
    out = {}
    calls, self_ns = tracer.calls, tracer.self_ns
    for entry in tracing.entry_names():
        out[f"{entry}.calls"] = calls[entry]
        out[f"{entry}.self_ms"] = self_ns[entry] / 1e6
    for entry in ("syzlang.program.Program.clone",
                  "kernel.executor.Executor.run"):
        out[f"{entry}.us_per_call"] = (
            self_ns[entry] / 1e3 / calls[entry] if calls[entry] else 0.0
        )
    tally = tracer.tally.get
    outputs = episode["outputs"]

    def share(part, whole):
        return part / whole if whole else 0.0

    out["fuzzer.corpus.corpus_size"] = outputs["corpus_size"]
    out["kernel.executor.blocks_per_exec"] = share(
        tally("blocks", 0), calls["kernel.executor.Executor.run"]
    )
    out["kernel.coverage.new_cov_share"] = share(
        tally("new_edges_found", 0),
        calls["kernel.coverage.Coverage.new_edges"],
    )
    out["fuzzer.crash.reproduced_share"] = share(
        tally("reproduced", 0), calls["fuzzer.crash.CrashTriage.reproduce"]
    )
    out["fuzzer.crash.unique_crashes"] = outputs["crashes"]
    out["analyze.impact.reached_share"] = share(
        len(outputs.get("reached", ())), outputs.get("targets", 0)
    )
    localize = calls["snowplow.fuzzer.PMMLocalizer.localize"]
    out["snowplow.fuzzer.cache_hit_share"] = share(
        localize - calls["graphs.build.build_query_graph"], localize
    )
    out["pmm.model.asm_rows_per_query"] = share(
        tally("asm_rows", 0), calls["pmm.model.PMM.node_states"]
    )
    submits = (
        calls["pmm.serve.InferenceService.submit"]
        + calls["pmm.serve.BatchingInferenceService.submit"]
    )
    out["pmm.serve.rejected_share"] = share(
        tally("submit_refused", 0), submits
    )
    out["pmm.serve.queue_delay_p95_vs"] = max(
        (svc.stats.p95_queue_delay for svc in tracer.services.values()),
        default=0.0,
    )
    hubs = tracer.hubs.values()
    out["cluster.hub.dup_share"] = share(
        sum(hub.stats.duplicates for hub in hubs),
        sum(hub.stats.pushes for hub in hubs),
    )
    out["service.checkpoint.state_kb"] = (
        statistics.mean(tracer.state_bytes) / 1024.0
        if tracer.state_bytes else 0.0
    )
    out["trace.unattributed_share"] = 1.0 - share(
        episode["covered_ns"] / 1e9, episode["campaign"][0]
    )
    return out


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    if name not in workloads.WORKLOADS:
        print(f"unknown workload {name!r}", file=sys.stderr)
        return 2
    planned = workloads.WORKLOADS[name].planned_slices()
    pinned = (
        json.loads(PINNED.read_text()).get(name, {}).get(str(seed))
        if PINNED.exists() else None
    )
    untraced: list[dict] = []
    traced: list[tuple[dict, dict]] = []
    failures: list[str] = []
    attempted = failed = raised = 0
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        done = len(untraced) + raised
        enough = (
            min(done, len(traced)) >= MIN_TRACE_PAIRS if trace
            else done >= MIN_EPISODES
        )
        if elapsed >= MAX_START_S or (enough and elapsed >= seconds):
            break
        tracer = tracing.LayerTracer() if trace and index % 2 else None
        index += 1
        attempted += planned
        try:
            if tracer is not None:
                with tracer:
                    episode = run_episode(name, seed, tracer)
            else:
                episode = run_episode(name, seed)
        except Exception:  # an episode that raises fails all its slices
            failed += planned
            raised += 1
            failures.append(traceback.format_exc())
            print(failures[-1], file=sys.stderr)
            continue
        # Traced episodes are checked against the untraced ones.
        reference = pinned or (untraced[0]["digest"] if untraced else None)
        if reference is not None and episode["digest"] != reference:
            failed += planned
            failures.append(
                f"episode digest {episode['digest']} != {reference}"
            )
            print(failures[-1], file=sys.stderr)
        if tracer is not None:
            traced.append((episode, layer_metrics(tracer, episode)))
        else:
            untraced.append(episode)
    digests = {episode["digest"] for episode in untraced}
    digests |= {episode["digest"] for episode, _ in traced}
    if len(digests) > 1 and not failed:
        failures.append(f"episodes disagree: {sorted(digests)}")
        failed = attempted
    if not untraced:
        failures.append("no untraced episode completed")
        failed = attempted
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "pinned_digest": pinned,
        "digests": sorted(digests),
        "episodes": len(untraced),
        "traced_episodes": len(traced),
        "host": host_tags(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }
    if untraced:
        outputs = untraced[0]["outputs"]
        report.update(end_to_end(untraced, 1))
        report["raw"] = end_to_end(untraced, 0)
        report.update({
            "edges": outputs["edges"],
            "crashes": outputs["crashes"],
            "executions_per_episode": outputs["executions"],
        })
    if traced and untraced:
        layers = {
            key: statistics.median(metrics[key] for _, metrics in traced)
            for key in traced[0][1]
        }
        layers["trace.overhead"] = statistics.median(
            episode["execs_per_s"][1] for episode in untraced
        ) / statistics.median(
            episode["execs_per_s"][1] for episode, _ in traced
        )
        report["layers"] = layers
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
