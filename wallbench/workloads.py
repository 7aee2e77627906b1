"""The pinned workloads, driven only through the public API.

Each workload instance runs one *episode*: ``setup()`` builds
everything the campaign needs, ``step()`` runs one timed slice and says
whether more remain, ``finish()`` runs the rest of the campaign, timed
as one piece (finalize, crash reproduction, result reads), and
``outputs()`` returns the episode's virtual outputs.  The same seed gives the same episode,
so the virtual outputs of every episode of a run are identical and
their digest is the correctness check.

Module attributes are looked up at call time (``versions.build_kernel``,
``impact.build_target_manifest``, ``checkpoint.save_service`` ...), so
the layer tracer in :mod:`tracing` can wrap them where this file looks
them up.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import repro.analyze.impact as impact
import repro.kernel.versions as versions
import repro.service.checkpoint as checkpoint
import repro.snowplow.campaign as campaign
from repro.cluster import ClusterConfig
from repro.observe import Observer, SLOEngine
from repro.observe.slo import DEFAULT_PACKS
from repro.pmm.dataset import DatasetConfig
from repro.pmm.model import PMMConfig
from repro.pmm.train import TrainConfig
from repro.service import Request, ServiceServer, encode_signature
from repro.syzlang.parser import serialize_program

# Service state directories go here, inside the checkout.
SCRATCH = Path(__file__).resolve().parent / "tmp"

# The kernel every workload fuzzes is pinned; the workload seed drives
# the campaigns (corpus, mutations, scheduling), as `repro fuzz --seed`.
KERNEL_SEED = 1
SIZE = "small"


def digest(payload) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _LoopWorkload:
    """A fuzz loop (or, in a subclass, a fleet) held in ``loop`` and
    driven by ``run_until`` in fixed virtual slices."""

    slice_vs = 60.0
    seed_corpus = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.loop = None
        self.stats = None
        self.slices_run = 0

    @classmethod
    def planned_slices(cls) -> int:
        return math.ceil(cls.hours * 3600.0 / cls.slice_vs)

    def step(self) -> bool:
        # Slices end on a fixed virtual grid, so an iteration that
        # overshoots one boundary does not shift the later ones.
        self.slices_run += 1
        self.loop.run_until(self.slices_run * self.slice_vs)
        return not self.loop.clock.expired()

    def _config(self):
        return campaign.fuzz_campaign_config(
            self.hours, self.seed, self.seed_corpus
        )

    def _loop_outputs(self) -> dict:
        stats = self.stats
        return {
            "signature": encode_signature(stats.signature()),
            "executions": stats.executions,
            "edges": stats.final_edges,
            "crashes": len(stats.crashes),
            "corpus_size": stats.corpus_size,
        }


class DirectedOracle(_LoopWorkload):
    """`repro fuzz --directed patch:6.8..6.9 --oracle --size small`,
    sliced, then syz-repro on every triaged crash."""

    name = "directed-oracle"
    hours = 1.5

    def setup(self) -> None:
        new = versions.build_kernel("6.9", seed=KERNEL_SEED, size=SIZE)
        old = versions.build_kernel("6.8", seed=KERNEL_SEED, size=SIZE)
        manifest = impact.build_target_manifest(old, new)
        self.director = impact.PatchDirector(new, manifest)
        self.loop = campaign.build_fuzz_loop(
            new, None, campaign.fuzz_run_seed(self.seed, new.version),
            self._config(), oracle=True, director=self.director,
        )

    def finish(self) -> None:
        self.stats = self.loop.finalize()
        self.reproducers = []
        for crash in self.stats.crashes:
            reproducer = self.loop.triage.reproduce(crash)
            self.reproducers.append(
                [crash.signature,
                 serialize_program(reproducer) if reproducer else None]
            )

    def outputs(self) -> dict:
        out = self._loop_outputs()
        out["reached"] = sorted(
            [block, at] for block, at in self.director.reached_at.items()
        )
        out["targets"] = len(self.director.targets)
        out["reproducers"] = self.reproducers
        return out


class PMMAsync(_LoopWorkload):
    """PMM trained at the tests' fixture size, then an undirected
    Snowplow loop with PMMLocalizer behind the async InferenceService."""

    name = "pmm-async"
    hours = 2.25
    slice_vs = 45.0

    def setup(self) -> None:
        kernel = versions.build_kernel("6.8", seed=KERNEL_SEED, size=SIZE)
        # The model is pinned like the kernel (the fault tests' fixture,
        # seeds included), so every seed times the same training; the
        # workload seed drives the campaign.
        trained = campaign.train_pmm(
            kernel,
            seed=0,
            corpus_size=20,
            dataset_config=DatasetConfig(mutations_per_test=25, seed=3),
            pmm_config=PMMConfig(
                dim=16, gnn_layers=2, asm_layers=1, asm_heads=2, seed=5,
            ),
            train_config=TrainConfig(
                epochs=1, batch_size=8, max_examples_per_epoch=80,
                max_validation_examples=20,
            ),
        )
        self.loop = campaign.build_fuzz_loop(
            kernel, trained, campaign.fuzz_run_seed(self.seed, kernel.version),
            self._config(),
        )

    def finish(self) -> None:
        self.stats = self.loop.finalize()

    def outputs(self) -> dict:
        out = self._loop_outputs()
        service = self.loop.service.stats
        out["inference"] = [
            service.submitted, service.completed, service.rejected,
            service.p95_queue_delay,
        ]
        return out


class FleetObserve(_LoopWorkload):
    """A 2-worker oracle fleet on small/6.8 with an attached Observer,
    sliced like the loops: the fleet's hub push/pull and worker sync,
    the shared BatchingInferenceService tier, provenance and observer
    sampling, all without going through the service's checkpoints."""

    name = "fleet-observe"
    # Longer than the 600 vs hub sync interval, so workers pull.
    hours = 1.0

    def setup(self) -> None:
        kernel = versions.build_kernel("6.8", seed=KERNEL_SEED, size=SIZE)
        self.loop = campaign.build_cluster(
            kernel, None, campaign.fuzz_run_seed(self.seed, kernel.version),
            self._config(),
            cluster_config=ClusterConfig(workers=2),
            oracle=True,
            observer=Observer(slo=SLOEngine(DEFAULT_PACKS["cluster"]())),
        )

    def step(self) -> bool:
        self.slices_run += 1
        self.loop.run_until(self.slices_run * self.slice_vs)
        return not self.loop.done

    def finish(self) -> None:
        self.result = self.loop.finalize()

    def outputs(self) -> dict:
        result = self.result
        hub = result.hub_stats
        return {
            "signature": encode_signature(result.signature()),
            "executions": result.merged.executions,
            "edges": result.final_edges,
            "crashes": len(result.merged.crashes),
            "corpus_size": sum(s.corpus_size for s in result.worker_stats),
            "hub": [hub.pushes, hub.duplicates],
        }


class ServiceMix:
    """`repro serve --until` passes against a 4-slot ServiceServer.

    Setup submits three tenants' campaigns (a 2-worker oracle cluster
    on small/6.8, a baseline on small/6.8, an oracle run on small/6.9)
    and saves the service.  Each pass (one slice) loads the service,
    advances it by one fixed virtual step and saves it, until every job
    is done; the results are then read back.  Jobs span many passes, so
    every pass rebuilds and restores each running job, and they outlast
    the hub sync interval.

    Not listed in ``BENCHMARK.json``: restoring a running job fails
    when a corpus program holds a text buffer with a ``#`` byte, which
    the serializer writes unescaped and ``parse_program`` strips with
    the rest of the line as a comment.  How often depends on the seed
    and grows with job length.  A run that hits it reports every slice
    failed.
    """

    name = "service-mix"
    # 900 vs: longer than the 600 vs hub sync interval.
    hours = 0.25
    step_vs = 45.0
    seed_corpus = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.job_ids: list[str] = []
        self.now = 0.0

    def _jobs(self) -> list[dict]:
        base = {
            "size": SIZE, "kernel_seed": KERNEL_SEED, "hours": self.hours,
            "seed_corpus": self.seed_corpus, "seed": self.seed,
        }
        return [
            dict(base, tenant="fleet", kernel="6.8", mode="oracle",
                 workers=2),
            dict(base, tenant="base", kernel="6.8", mode="baseline"),
            dict(base, tenant="next", kernel="6.9", mode="oracle"),
        ]

    @classmethod
    def planned_slices(cls) -> int:
        return math.ceil(cls.hours * 3600.0 / cls.step_vs)

    def setup(self) -> None:
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.state_dir = Path(tempfile.mkdtemp(dir=SCRATCH))
        server = ServiceServer(fleet_size=4)
        for params in self._jobs():
            response = server.handle(Request("POST", "/campaigns", params))
            if not response.ok:
                raise RuntimeError(f"submit refused: {response.body}")
            self.job_ids.append(response.body["job"]["job_id"])
        checkpoint.save_service(self.state_dir, server)

    def step(self) -> bool:
        try:
            server = checkpoint.load_service(self.state_dir)
            self.now += self.step_vs
            summary = server.handle(
                Request("POST", "/advance", {"until": self.now})
            ).body
            checkpoint.save_service(self.state_dir, server)
        except BaseException:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            raise
        self.server = server
        return bool(summary["running"] or summary["queued"])

    def finish(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.results = []
        for job_id in self.job_ids:
            response = self.server.handle(
                Request("GET", f"/campaigns/{job_id}/result")
            )
            if not response.ok:
                raise RuntimeError(f"no result for {job_id}: {response.body}")
            self.results.append(response.body["result"])

    def outputs(self) -> dict:
        results = self.results
        return {
            "results": results,
            "executions": sum(r["executions"] for r in results),
            "edges": sum(r["final_edges"] for r in results),
            "crashes": sum(len(r["crashes"]) for r in results),
            "corpus_size": sum(r["corpus_size"] for r in results),
        }


WORKLOADS = {
    DirectedOracle.name: DirectedOracle,
    PMMAsync.name: PMMAsync,
    FleetObserve.name: FleetObserve,
    ServiceMix.name: ServiceMix,
}

