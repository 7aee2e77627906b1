"""Pinned virtual outputs of every campaign entry point.

Each test runs one ``run_*_campaign`` protocol at tiny/6.8 scale with a
short horizon and compares sha256 digests of what it computed —
``signature()``s, reached-target maps and crash lists — against
``tests/golden/campaign_signatures.json``; the ``impact`` entry pins
the 6.8 -> 6.9 release-diff report and target manifest the patch
campaign starts from.  The digests change only when a campaign's
virtual-time behaviour changes, so refactors of the loop, serving-tier,
model-loading and directed-fuzzing paths must keep them.

Regenerate the golden file (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_campaign_signatures.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analyze import DependencyOracle
from repro.analyze.impact import build_target_manifest, compute_impact
from repro.cluster import ClusterConfig
from repro.faults import FaultPlan
from repro.fuzzer.directed import DirectedFuzzer, SyzDirectLocalizer
from repro.graphs.encode import AsmVocab, GraphEncoder
from repro.kernel import build_kernel
from repro.kernel.conditions import StateCondition
from repro.kernel.executor import Executor
from repro.pmm import PMM, PMMConfig
from repro.service.runner import encode_signature
from repro.snowplow import (
    CampaignConfig,
    run_chaos_campaign,
    run_coverage_campaign,
    run_crash_campaign,
    run_directed_campaign,
    run_fault_tolerance_campaign,
    run_patch_campaign,
    run_scaling_campaign,
)
from repro.rng import derive_seed, split
from repro.snowplow.campaign import TrainedPMM, default_directed_targets
from repro.syzlang import ProgramGenerator, serialize_program
from repro.vclock import CostModel, VirtualClock

GOLDEN = Path(__file__).parent / "golden" / "campaign_signatures.json"


def _digest(payload) -> str:
    text = json.dumps(encode_signature(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _crashes(crashes) -> list:
    return [
        [
            crash.signature, crash.category.value, crash.is_new, crash.bug_id,
            serialize_program(crash.crashing_program),
            serialize_program(crash.reproducer)
            if crash.reproducer is not None else None,
        ]
        for crash in crashes
    ]


def _stats(stats) -> list:
    return [stats.signature(), _crashes(stats.crashes)]


def _service(stats) -> list | None:
    if stats is None:
        return None
    return [stats.submitted, stats.completed, stats.rejected,
            stats.mean_batch_size]


def _config(seed: int) -> CampaignConfig:
    # A 60 s inference latency (not the scaled ~807 s) lets predictions,
    # batched ones included, land many times within the short horizon.
    return CampaignConfig(
        horizon=1200.0, runs=1, seed=seed, seed_corpus_size=8,
        sample_interval=300.0, cost=CostModel(inference_latency=60.0),
    )


def _kernels():
    return {
        version: build_kernel(version, seed=1, size="tiny")
        for version in ("6.8", "6.9")
    }


def _trained(kernel) -> TrainedPMM:
    """A seeded, untrained PMM: its predictions are a fixed function of
    the initial weights, which is all a construction pin needs."""
    vocab = AsmVocab.build(kernel)
    encoder = GraphEncoder(vocab, kernel.table)
    model = PMM(
        len(vocab), encoder.num_syscalls,
        PMMConfig(dim=8, gnn_layers=1, asm_layers=1, asm_heads=2, seed=5),
    )
    return TrainedPMM(
        model=model, encoder=encoder, vocab=vocab, dataset=None,
        validation=None,
    )


def _coverage(kernels, trained):
    result = run_coverage_campaign(kernels["6.8"], trained, _config(seed=7))
    return [
        [_stats(stats) for stats in result.syzkaller_runs],
        [_stats(stats) for stats in result.snowplow_runs],
    ]


def _crash(kernels, trained):
    result = run_crash_campaign(
        kernels["6.8"], trained, _config(seed=2), reproduce=True
    )
    return [
        [_crashes(run) for run in result.syzkaller_crashes],
        [_crashes(run) for run in result.snowplow_crashes],
    ]


def _fault(kernels, trained, crash_at):
    plan = (
        FaultPlan(seed=9)
        .with_rate("executor", 0.02)
        .with_window("inference", 200.0, 400.0)
        .with_window("campaign_crash", crash_at, crash_at + 1.0)
    )
    result = run_fault_tolerance_campaign(
        kernels["6.8"], trained, _config(seed=17), plan,
        checkpoint_interval=300.0,
    )
    return [
        _stats(result.fault_free), _stats(result.faulted),
        result.faulted.resumes, result.crash_time,
        result.checkpoints_taken, result.resumed,
    ]


def _patch(kernels, trained):
    result = run_patch_campaign(
        kernels["6.8"], kernels["6.9"], _config(seed=5)
    )
    return [
        list(result.targets), _stats(result.plain), _stats(result.directed),
        sorted(result.plain_reached_at.items()),
        sorted(result.directed_reached_at.items()),
        result.plain_time, result.directed_time,
    ]


def _directed_result(result) -> list:
    return [result.target_block, result.reached, result.time_to_target,
            result.executions]


def _directed(kernels, trained):
    """Table 5's protocol plus one oracle-steered SyzDirect run, so the
    pin covers the distance ranking and the oracle slot union."""
    kernel = kernels["6.8"]
    config = _config(seed=11)
    targets = default_directed_targets(kernel, count=2)
    results = run_directed_campaign(kernel, trained, targets, config)
    # A state-guarded target: producer edges would change its distance
    # map, so the pin also holds DirectedFuzzer to the plain hop count.
    target = next(
        block_id for block_id in sorted(kernel.blocks)
        if isinstance(kernel.guarding_condition(block_id), StateCondition)
    )
    run_seed = derive_seed(config.seed, "pin-directed", target)
    fuzzer = DirectedFuzzer(
        kernel=kernel,
        target_block=target,
        executor=Executor(kernel, seed=derive_seed(run_seed, "exec")),
        generator=ProgramGenerator(kernel.table, split(run_seed, "gen")),
        localizer=SyzDirectLocalizer(
            kernel.handler_of_block[target],
            oracle=DependencyOracle(kernel),
        ),
        clock=VirtualClock(horizon=config.horizon),
        cost=config.cost,
        rng=split(run_seed, "loop"),
    )
    fuzzer.seed(ProgramGenerator(
        kernel.table, split(run_seed, "seed-corpus")
    ).seed_corpus(8))
    oracle_run = fuzzer.run()
    return [
        [[block, mode, [_directed_result(r) for r in results[block][mode]]]
         for block in targets for mode in sorted(results[block])],
        _directed_result(oracle_run),
        [int(hops) for hops in fuzzer._closeness],
        sorted([block, int(hops)] for block, hops in fuzzer.distance.items()),
    ]


def _impact(kernels, trained):
    report = compute_impact(kernels["6.8"], kernels["6.9"])
    manifest = build_target_manifest(kernels["6.8"], kernels["6.9"], report)
    return [report.to_json(), manifest.to_json()]


def _scaling(kernels, trained):
    result = run_scaling_campaign(
        kernels["6.8"], trained, _config(seed=13), worker_counts=(1, 2),
        cluster_config=ClusterConfig(sync_interval=300.0),
    )
    return [
        [point.workers, point.result.signature(),
         _crashes(point.result.merged.crashes),
         _service(point.result.service_stats)]
        for point in result.points
    ]


def _chaos(kernels, trained):
    result = run_chaos_campaign(
        kernels["6.8"], None, _config(seed=21),
        cluster_config=ClusterConfig(
            workers=2, shards=2, sync_interval=300.0,
            heartbeat_deadline=200.0,
        ),
        oracle=True,
    )
    return [
        result.clean.signature(), result.chaos.signature(),
        list(result.resume_signatures), result.restarts,
        result.dropped_entries, result.shed, result.outstanding_lost,
        result.peak_edges, sorted(result.hub_accounting.items()),
        result.passed(), _service(result.chaos.service_stats),
    ]


CAMPAIGNS = {
    "coverage": _coverage,
    "crash": _crash,
    "directed": _directed,
    "fault_crash_after_checkpoint": lambda k, t: _fault(k, t, 700.0),
    "fault_crash_before_checkpoint": lambda k, t: _fault(k, t, 150.0),
    "impact": _impact,
    "patch": _patch,
    "scaling": _scaling,
    "chaos": _chaos,
}


@pytest.fixture(scope="module")
def kernels():
    return _kernels()


@pytest.fixture(scope="module")
def trained(kernels):
    return _trained(kernels["6.8"])


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_signature_pinned(name, kernels, trained):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(CAMPAIGNS[name](kernels, trained)) == golden[name], (
        f"campaign {name!r} drifted from {GOLDEN.name}"
    )


if __name__ == "__main__":
    built = _kernels()
    bundle = _trained(built["6.8"])
    digests = {
        name: _digest(run(built, bundle)) for name, run in CAMPAIGNS.items()
    }
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
