"""Self-test of the wall-clock benchmark.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest wallbench -q

It checks the two assumptions the benchmark rests on: slicing a
campaign with ``run_until`` computes exactly what ``run()`` computes,
and the layer tracer changes neither randomness nor results.  It also
pins the program defect that keeps the service-mix workload out of
``BENCHMARK.json``, so that fixing it shows up here.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.cluster import ClusterConfig  # noqa: E402
from repro.errors import ParseError  # noqa: E402
from repro.kernel import build_kernel  # noqa: E402
from repro.snowplow.campaign import (  # noqa: E402
    build_cluster,
    fuzz_campaign_config,
    fuzz_run_seed,
)
from repro.syzlang.generator import ProgramGenerator  # noqa: E402
from repro.syzlang.parser import (  # noqa: E402
    parse_program,
    serialize_program,
)
from repro.syzlang.program import BufferValue  # noqa: E402
from repro.syzlang.types import BufferKind  # noqa: E402


class ShortDirected(workloads.DirectedOracle):
    hours = 0.25


def _directed(seed: int = 3) -> ShortDirected:
    workload = ShortDirected(seed)
    workload.setup()
    return workload


def _sliced(workload) -> None:
    while workload.step():
        pass
    workload.finish()


def test_loop_slices_equal_run():
    whole = _directed()
    stats = whole.loop.run()
    sliced = _directed()
    _sliced(sliced)
    assert sliced.slices_run == ShortDirected.planned_slices()
    assert sliced.stats.signature() == stats.signature()


def test_cluster_slices_equal_run():
    kernel = build_kernel("6.8", seed=workloads.KERNEL_SEED, size="small")
    config = fuzz_campaign_config(0.1, 5, seed_corpus=20)

    def cluster():
        return build_cluster(
            kernel, None, fuzz_run_seed(5, kernel.version), config,
            cluster_config=ClusterConfig(workers=2), oracle=True,
        )

    whole = cluster().run()
    sliced = cluster()
    until = 0.0
    while not sliced.done:
        until += 60.0
        sliced.run_until(until)
    assert sliced.finalize().signature() == whole.signature()


def test_tracer_leaves_rng_and_results_untouched():
    plain = _directed()
    _sliced(plain)
    tracer = tracing.LayerTracer()
    with tracer:
        traced = _directed()
        _sliced(traced)
    assert workloads.digest(traced.outputs()) == workloads.digest(
        plain.outputs()
    )
    assert (
        traced.loop.rng.bit_generator.state
        == plain.loop.rng.bit_generator.state
    )
    assert tracer.calls["syzlang.program.Program.clone"] > 0
    assert tracer.calls["kernel.executor.Executor.run"] > 0


def test_tracer_restores_every_original():
    before = []
    for _, module_name, attr, _ in tracing.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        before.append((owner, name, vars(owner)[name]))
    with tracing.LayerTracer():
        for owner, name, original in before:
            assert vars(owner)[name] is not original
    for owner, name, original in before:
        assert vars(owner)[name] is original


def test_self_time_excludes_nested_calls():
    import time

    tracer = tracing.LayerTracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_inner = tracer._wrap(inner, "inner", None)
    wrapped_outer = tracer._wrap(outer, "outer", None)
    wrapped_outer()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.self_ns["inner"] >= 20e6
    assert 10e6 <= tracer.self_ns["outer"] < 20e6
    assert tracer.top_ns == pytest.approx(
        tracer.self_ns["inner"] + tracer.self_ns["outer"], rel=1e-6
    )


def _text_buffers(value):
    if isinstance(value, BufferValue):
        if value.ty.buffer_kind is not BufferKind.DATA:
            yield value
    for child in (
        getattr(value, "pointee", None),
        *getattr(value, "fields", ()),
        *getattr(value, "elems", ()),
    ):
        if child is not None:
            yield from _text_buffers(child)


@pytest.mark.xfail(
    strict=True, raises=ParseError,
    reason="a '#' in a text buffer is written unescaped and parsed as a "
    "comment; it keeps service-mix out of BENCHMARK.json",
)
def test_text_buffer_with_hash_round_trips():
    kernel = build_kernel("6.8", seed=workloads.KERNEL_SEED, size="small")
    programs = ProgramGenerator(kernel.table, np.random.default_rng(0)).seed_corpus(50)
    for program in programs:
        for call in program.calls:
            for arg in call.args:
                for buffer in _text_buffers(arg):
                    buffer.data = b"a#b"
                    text = serialize_program(program)
                    parsed = parse_program(text, kernel.table)
                    assert serialize_program(parsed) == text
                    return
    pytest.fail("no text buffer in the generated programs")
