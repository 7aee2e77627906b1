"""Deterministic execution of test programs against a synthetic kernel.

The executor reproduces the §3.1 data-collection environment: every test
starts from the same initial kernel state (VM-snapshot semantics), calls
run sequentially in a single thread, and — unless the ``noise`` knob is
raised — no asynchronous kernel activity pollutes coverage.  Setting
``noise > 0`` re-introduces the nondeterministic interrupt coverage the
paper eliminates by replacing RPC with virtio, which the determinism
ablation uses to quantify label noise.

Real QEMU guests also *hang*: a test wedges the VM, the fuzzer's
watchdog kills it, and the VM is restarted from snapshot.  With the
watchdog enabled (the default whenever a fault injector is attached), a
runaway or injected-hang call is reported as a structured
:class:`ExecTimeout` on the result — coverage collected up to the kill
is kept, the VM-restart counter ticks, and the caller charges the
restart cost — instead of raising.  Without the watchdog the same
condition raises :class:`~repro.errors.ExecutorHang`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError, ExecutorHang
from repro.faults import FaultInjector
from repro.kernel.blocks import BlockRole
from repro.kernel.build import Kernel
from repro.kernel.bugs import CrashReport
from repro.kernel.conditions import scalar_view
from repro.kernel.coverage import Coverage
from repro.kernel.state import KernelState
from repro.rng import make_rng
from repro.syzlang.program import (
    ArrayValue,
    Program,
    PtrValue,
    ResourceValue,
    StructValue,
    Value,
)

__all__ = ["ExecResult", "ExecTimeout", "Executor"]

_MAX_STEPS_PER_CALL = 100_000
# Probability that a non-reproducible (concurrency-flavoured) bug fires
# when its guarded block is reached.
_FLAKY_TRIGGER_PROB = 0.35
# Step-table entry of a block whose condition has no operand to record.
_NO_OPERAND = object()
_CONDITION = BlockRole.CONDITION
_CRASH = BlockRole.CRASH
_EXIT_SUCCESS = BlockRole.EXIT_SUCCESS
_EXIT_ERROR = BlockRole.EXIT_ERROR


@dataclass(frozen=True)
class ExecTimeout:
    """A call hung and the watchdog killed the VM.

    ``steps`` is how many blocks the call executed before the kill;
    ``reason`` is ``"injected_hang"`` (fault plan) or ``"step_budget"``
    (a genuinely runaway CFG walk).
    """

    call_index: int
    steps: int
    reason: str


@dataclass
class ExecResult:
    """Outcome of executing one program."""

    coverage: Coverage
    crash: CrashReport | None = None
    retvals: list[int] = field(default_factory=list)
    blocks_executed: int = 0
    # Operands of the compare instructions executed along the path —
    # what KCOV's comparison tracing (KCOV_CMP) exposes to Syzkaller,
    # which seeds integer mutations from them.
    comparison_operands: set[int] = field(default_factory=set)
    # Set when the watchdog killed a hung call; the program's remaining
    # calls did not run and the VM must be restarted from snapshot.
    timeout: ExecTimeout | None = None

    @property
    def crashed(self) -> bool:
        return self.crash is not None

    @property
    def timed_out(self) -> bool:
        return self.timeout is not None


class Executor:
    """Runs programs on a kernel, collecting coverage.

    One executor can run many programs; each run gets a pristine
    :class:`KernelState` (the VM snapshot is reloaded).

    The first call of each handler compiles its CFG into a step table,
    ``block_id → (block, role, effects, condition, operand, succs)``,
    which later calls step through without re-reading the CFG.  The
    tables are kept for the executor's lifetime, so a handler must not
    be edited after this executor has first run it.
    """

    def __init__(
        self,
        kernel: Kernel,
        noise: float = 0.0,
        seed: int = 0,
        injector: FaultInjector | None = None,
        watchdog: bool | None = None,
        profiler=None,
    ):
        if not 0.0 <= noise <= 1.0:
            raise ExecutionError(f"noise must be in [0, 1], got {noise}")
        self.kernel = kernel
        self.noise = noise
        self.injector = injector
        # Watchdog defaults on exactly when faults can be injected; a
        # bare executor keeps raising so malformed CFGs stay loud.
        self.watchdog = (injector is not None) if watchdog is None else watchdog
        self.vm_restarts = 0
        self.profiler = profiler
        self._rng = make_rng(seed)
        # Handler name -> (entry block, step table), see _steps_of.
        self._steps: dict[str, tuple[int, dict[int, tuple]]] = {}

    def run(self, program: Program, now: float = 0.0) -> ExecResult:
        """Execute ``program`` from a fresh snapshot.

        ``now`` is the caller's virtual time, consulted only by the
        fault injector's outage windows (the executor itself never
        advances the clock).
        """
        if self.profiler is None:
            return self._run(program, now)
        with self.profiler.section("executor.run"):
            return self._run(program, now)

    def _run(self, program: Program, now: float) -> ExecResult:
        state = KernelState()
        retvals: list[int] = []
        call_traces: list[list[int]] = []
        crash: CrashReport | None = None
        timeout: ExecTimeout | None = None
        executed = 0
        operands: set[int] = set()
        for call_index, call in enumerate(program.calls):
            hang = (
                self.injector is not None
                and self.injector.fires("executor", now)
            )
            flat = self._resolve_scalars(program, call_index, retvals)
            try:
                trace, retval, crash = self._run_call(
                    call, flat, state, operands
                )
            except ExecutorHang as error:
                if not self.watchdog:
                    raise
                trace = list(getattr(error, "trace", []))
                timeout = ExecTimeout(
                    call_index=call_index, steps=len(trace),
                    reason="step_budget",
                )
            if hang and timeout is None:
                # The injected hang strikes partway through the call:
                # the watchdog kills the VM, keeping the coverage the
                # guest reported before it wedged.
                cut = max(1, int(self.injector.uniform("executor") * len(trace)))
                trace = trace[:cut]
                timeout = ExecTimeout(
                    call_index=call_index, steps=len(trace),
                    reason="injected_hang",
                )
            executed += len(trace)
            if self.noise > 0 and self._rng.random() < self.noise:
                trace = self._inject_interrupt(trace)
            call_traces.append(trace)
            if timeout is not None:
                self.vm_restarts += 1
                break
            retvals.append(retval)
            if crash is not None:
                break
        coverage = Coverage.from_traces(call_traces)
        return ExecResult(
            coverage=coverage,
            crash=crash,
            retvals=retvals,
            blocks_executed=executed,
            comparison_operands=operands,
            timeout=timeout,
        )

    # ----- internals -----

    def _resolve_scalars(
        self, program: Program, call_index: int, retvals: list[int]
    ) -> dict[tuple[int, ...], int]:
        """Scalar view of every argument path of one call.

        Keys are the ``ArgPath.elements`` of :meth:`Program.walk_call`,
        and values are :func:`~repro.kernel.conditions.scalar_view`.
        Resource arguments resolve to the runtime handle returned by
        their producer call (0 when the producer failed or is NULL).
        """
        flat: dict[tuple[int, ...], int] = {}
        for arg_index, arg in enumerate(program.calls[call_index].args):
            _flatten(arg, (arg_index,), flat, retvals)
        return flat

    def _steps_of(self, call) -> tuple[int, dict[int, tuple]]:
        """The step table of ``call``'s handler, built on first use."""
        name = call.spec.full_name
        steps = self._steps.get(name)
        if steps is not None:
            return steps
        cfg = self.kernel.handlers.get(name)
        if cfg is None:
            raise ExecutionError(
                f"kernel {self.kernel.version} has no handler for {name!r}"
            )
        table = {}
        for block_id, block in cfg.blocks.items():
            condition = block.condition
            table[block_id] = (
                block, block.role, block.effects, condition,
                getattr(condition, "operand", _NO_OPERAND),
                cfg.successors(block_id),
            )
        steps = self._steps[name] = (cfg.entry, table)
        return steps

    def _run_call(
        self,
        call,
        flat: dict[tuple[int, ...], int],
        state: KernelState,
        operands: set[int] | None = None,
    ) -> tuple[list[int], int, CrashReport | None]:
        current, table = self._steps_of(call)
        trace: list[int] = []
        flags = state.flags
        for _ in range(_MAX_STEPS_PER_CALL):
            block, role, effects, condition, operand, succs = table[current]
            trace.append(current)
            for key, flag_value in effects:
                flags[key] = flag_value
            if role is _CONDITION:
                if operands is not None and operand is not _NO_OPERAND:
                    operands.add(operand)
                taken = condition.evaluate(flat, state)
                current = succs[1] if taken else succs[0]
            elif role is _CRASH:
                bug = block.bug
                assert bug is not None
                triggers = bug.reproducible or (
                    self._rng.random() < _FLAKY_TRIGGER_PROB
                )
                if triggers:
                    if bug.corrupts_memory:
                        description = bug.corruption_description(self._rng)
                    else:
                        description = bug.description()
                    report = CrashReport(
                        bug=bug, block_id=current, description=description,
                    )
                    return trace, -5, report
                # Near-miss: the race window closed; fall through.
                return trace, -5, None
            elif role is _EXIT_SUCCESS:
                retval = 0
                produces = call.spec.produces
                if produces is not None:
                    retval = state.open_handle(kind=produces.name)
                return trace, retval, None
            elif role is _EXIT_ERROR:
                return trace, -block.errno, None
            else:
                current = succs[0]
        error = ExecutorHang(
            f"handler {call.spec.full_name} exceeded {_MAX_STEPS_PER_CALL} "
            "steps"
        )
        error.trace = trace
        raise error

    def _inject_interrupt(self, trace: list[int]) -> list[int]:
        """Splice the interrupt pseudo-handler into a call trace."""
        irq = self.kernel.interrupt_trace
        if not irq:
            return trace
        start = int(self._rng.integers(0, len(irq)))
        slice_len = int(self._rng.integers(1, len(irq) - start + 1))
        cut = int(self._rng.integers(0, len(trace) + 1))
        return trace[:cut] + irq[start : start + slice_len] + trace[cut:]


def _flatten(
    value: Value,
    elements: tuple[int, ...],
    flat: dict[tuple[int, ...], int],
    retvals: list[int],
) -> None:
    """Write the scalar view of ``value`` and its subtree into ``flat``,
    in :meth:`Program.walk_call` order."""
    if isinstance(value, ResourceValue):
        producer = value.producer
        if producer is None or producer >= len(retvals):
            flat[elements] = 0
        else:
            flat[elements] = max(retvals[producer], 0)
        return
    flat[elements] = scalar_view(value)
    if isinstance(value, PtrValue):
        if value.pointee is not None:
            _flatten(value.pointee, elements + (0,), flat, retvals)
    elif isinstance(value, StructValue):
        for index, child in enumerate(value.fields):
            _flatten(child, elements + (index,), flat, retvals)
    elif isinstance(value, ArrayValue):
        for index, child in enumerate(value.elems):
            _flatten(child, elements + (index,), flat, retvals)
