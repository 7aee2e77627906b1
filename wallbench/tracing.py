"""Per-layer wall time, measured from outside the program.

:class:`LayerTracer` replaces each public entry point listed in
:data:`ENTRY_POINTS` with a wrapper that counts calls and charges *self
time*: the call's inclusive wall time minus the time spent in nested
wrapped calls, tracked on one stack.  Functions are patched in the
module where their caller looks them up; methods are patched on the
class that defines them.  ``remove()`` puts every original back.

Nothing here touches the program's randomness or results: a wrapper
only reads the clock and, through its hook, the call's arguments and
return value.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

# (layer, module the name is looked up in, attribute path, hook name).
# The metric prefix is ``<layer>.<attribute path>``.
ENTRY_POINTS = (
    ("kernel.versions", "repro.kernel.versions", "build_kernel", None),
    ("kernel.versions", "repro.service.runner", "build_kernel", None),
    ("syzlang.program", "repro.syzlang.program", "Program.clone", None),
    ("fuzzer.engine", "repro.fuzzer.engine", "MutationEngine.mutate_test",
     None),
    ("fuzzer.corpus", "repro.fuzzer.corpus", "Corpus.choose", None),
    ("fuzzer.corpus", "repro.fuzzer.corpus", "Corpus.add", None),
    ("kernel.executor", "repro.kernel.executor", "Executor.run", "exec"),
    ("kernel.coverage", "repro.kernel.coverage", "Coverage.new_edges",
     "new_edges"),
    ("kernel.coverage", "repro.kernel.coverage", "Coverage.merge", None),
    ("fuzzer.crash", "repro.fuzzer.crash", "CrashTriage.observe", None),
    ("fuzzer.crash", "repro.fuzzer.crash", "CrashTriage.reproduce",
     "reproduce"),
    ("analyze.impact", "repro.analyze.impact", "build_target_manifest",
     None),
    ("analyze.impact", "repro.analyze.impact", "PatchDirector.propose",
     None),
    ("analyze.impact", "repro.analyze.impact", "PatchDirector.rank_targets",
     None),
    ("analyze.impact", "repro.analyze.impact", "PatchDirector.note_coverage",
     None),
    ("snowplow.oracle", "repro.snowplow.oracle", "OracleLocalizer.localize",
     None),
    ("snowplow.fuzzer", "repro.snowplow.fuzzer", "PMMLocalizer.localize",
     None),
    ("graphs.build", "repro.snowplow.fuzzer", "build_query_graph", None),
    ("graphs.encode", "repro.graphs.encode", "GraphEncoder.encode", None),
    ("pmm.model", "repro.pmm.model", "PMM.predict_paths", None),
    ("pmm.model", "repro.pmm.model", "PMM.node_states", None),
    ("pmm.model", "repro.pmm.asm_encoder", "AsmEncoder.__call__",
     "asm_rows"),
    ("pmm.serve", "repro.pmm.serve", "InferenceService.submit", "submit"),
    ("pmm.serve", "repro.pmm.serve", "InferenceService.poll", None),
    ("pmm.serve", "repro.pmm.serve", "BatchingInferenceService.submit",
     "submit"),
    ("pmm.serve", "repro.pmm.serve", "BatchingInferenceService.poll", None),
    ("pmm.train", "repro.snowplow.campaign", "harvest_mutations", None),
    ("pmm.train", "repro.pmm.train", "Trainer.train", None),
    ("cluster.hub", "repro.cluster.hub", "CorpusHub.push", "hub"),
    ("cluster.hub", "repro.cluster.hub", "CorpusHub.pull", None),
    ("cluster.scheduler", "repro.cluster.scheduler", "ClusterWorker.sync",
     None),
    ("service.runner", "repro.service.runner", "JobRunner.__init__", None),
    ("service.runner", "repro.service.runner", "JobRunner.restore", None),
    ("service.runner", "repro.service.runner", "JobRunner.state_dict", None),
    ("service.runner", "repro.service.runner", "JobRunner.run_until", None),
    ("service.runner", "repro.service.orchestrator", "Orchestrator.advance",
     None),
    ("service.checkpoint", "repro.service.checkpoint", "save_service",
     "state_file"),
    ("service.checkpoint", "repro.service.checkpoint", "load_service", None),
    ("observe", "repro.observe.provenance", "ProvenanceLog.admit", None),
    ("observe", "repro.observe.provenance", "ProvenanceLog.record", None),
    ("observe", "repro.observe", "Observer.sample", None),
)


def entry_names() -> list[str]:
    """Every ``<layer>.<entry>`` prefix, in table order, deduplicated."""
    return list(dict.fromkeys(
        f"{layer}.{attr}" for layer, _, attr, _ in ENTRY_POINTS
    ))


class LayerTracer:
    """Stack-based call counter and self-time accumulator."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        # Inclusive time of outermost wrapped calls: what the campaign
        # spent inside any traced layer.
        self.top_ns = 0
        # Hook tallies (counts read from arguments and return values).
        self.tally: dict[str, int] = {}
        # Instances seen by a hook, so end-of-episode virtual stats
        # (queue delay, hub duplicates) can be read from them.
        self.services: dict[int, object] = {}
        self.hubs: dict[int, object] = {}
        self.state_bytes: list[int] = []
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # ----- hooks -----

    def _count(self, key: str, amount: int = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    def _hook_exec(self, result, args) -> None:
        self._count("blocks", result.blocks_executed)

    def _hook_new_edges(self, result, args) -> None:
        if result:
            self._count("new_edges_found")

    def _hook_reproduce(self, result, args) -> None:
        if result is not None:
            self._count("reproduced")

    def _hook_asm_rows(self, result, args) -> None:
        self._count("asm_rows", len(args[1]))

    def _hook_submit(self, result, args) -> None:
        self.services[id(args[0])] = args[0]
        if result is None:
            self._count("submit_refused")

    def _hook_hub(self, result, args) -> None:
        self.hubs[id(args[0])] = args[0]

    def _hook_state_file(self, result, args) -> None:
        self.state_bytes.append(result.stat().st_size)

    # ----- install / remove -----

    def _wrap(self, function, name: str, hook):
        calls = self.calls
        self_ns = self.self_ns
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        stack = self._stack
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                calls[name] += 1
                self_ns[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.top_ns += elapsed
            if hook is not None:
                hook(result, args)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, module_name, attr, hook_name in ENTRY_POINTS:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                # The definition itself, unbound (a KeyError names an
                # entry point that moved).
                original = vars(owner)[name]
                hook = (
                    getattr(self, f"_hook_{hook_name}") if hook_name else None
                )
                wrapper = self._wrap(original, f"{layer}.{attr}", hook)
                setattr(owner, name, wrapper)
                self._patches.append((owner, name, original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
